r"""Model parameters and the exact decomposition of the normalized
cumulant generating function of the tilted fractional Ornstein-Uhlenbeck
functionals.

The central object is the two-parameter exponential tilt

.. math::
    \mathcal{Z}_T(a, b) = a \int_0^T Q\,dY + b \int_0^T Q^2\,d\langle M\rangle

whose normalized cumulant generating function admits an exact four-term
split ``L + (H + K_T + R_T)/T``. The split is an identity, not an
asymptotic statement, so reassembling the four terms must reproduce the
exact value to machine precision.

All computations route the Bessel combination through exponentially scaled
products, so horizons up to ``T ~ 1e3`` and beyond never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .special import r_h_scaled

__all__ = [
    "ModelParams",
    "GenFnPoint",
    "GenFnTerms",
    "DomainError",
    "in_domain_delta",
    "gen_fn_terms",
    "exact_lt",
]

#: points closer than this to the boundary of the effective domain are
#: rejected (the H-term diverges there and callers must stay interior)
BOUNDARY_MARGIN = 1e-12


class DomainError(ValueError):
    """Raised when a tilt point lies outside the effective domain."""


def check_level_and_horizon(c: float, T: Optional[float] = None) -> None:
    """Reject a non-finite tail level ``c`` or a horizon ``T`` that is not
    finite and positive, naming the argument.

    Shared by the rate, tail and saddlepoint entry points, which would
    otherwise divide by zero, take a log of a negative number or return
    ``nan`` for such inputs.
    """
    if not math.isfinite(c):
        raise ValueError(f"tail level c must be finite, got c={c}")
    if T is not None:
        _check_horizon(T)


def _check_horizon(T: float) -> None:
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and positive, got T={T}")


@dataclass(frozen=True)
class ModelParams:
    """Drift and Hurst index of the process, with derived constants.

    Requires ``theta < 0`` and ``1/2 < hurst < 1``.
    """

    theta: float
    hurst: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta < 0):
            raise ValueError(f"theta must be finite and < 0, got {self.theta}")
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (1/2, 1), got {self.hurst}")

    @cached_property
    def sin_pi_h(self) -> float:
        return math.sin(math.pi * self.hurst)

    @cached_property
    def one_minus_sin_pi_h(self) -> float:
        """1 - sin(pi H), formed as 2 sin^2(pi (H - 1/2) / 2).

        The direct difference cancels near H = 1/2 (to 0 at H = 1/2 + 1e-10).
        """
        return 2.0 * math.sin(math.pi * (self.hurst - 0.5) / 2.0) ** 2

    @cached_property
    def delta_h(self) -> float:
        """(1 - sin(pi H)) / (1 + sin(pi H)), in (0, 1)."""
        return self.one_minus_sin_pi_h / (1.0 + self.sin_pi_h)

    @cached_property
    def p_h(self) -> float:
        """(1 - sin(pi H)) / sin(pi H); note delta_h = p_h / (2 + p_h)."""
        return self.one_minus_sin_pi_h / self.sin_pi_h

    @cached_property
    def lambda_h(self) -> float:
        """Normalizer of the fundamental-martingale quadratic variation."""
        h = self.hurst
        val = (
            8.0
            * h
            * (1.0 - h)
            * math.gamma(1.0 - 2.0 * h)
            * math.gamma(h + 0.5)
            / math.gamma(0.5 - h)
        )
        if not val > 0:
            raise ArithmeticError(f"lambda_h must be positive, got {val}")
        return val

    @cached_property
    def l_h(self) -> float:
        return self.lambda_h / (2.0 * (1.0 - self.hurst))

    @cached_property
    def kappa_h(self) -> float:
        """Normalizing constant of the whitening kernel (Norros et al.)."""
        h = self.hurst
        return 2.0 * h * math.gamma(1.5 - h) * math.gamma(h + 0.5)

    @cached_property
    def a_h(self) -> float:
        """Right endpoint of the energy tilt domain, theta^2 (1-delta^2)/2."""
        d = self.delta_h
        return self.theta**2 * (1.0 - d * d) / 2.0


@dataclass(frozen=True)
class GenFnPoint:
    """A tilt point (a, b) together with the horizon T > 0.

    A non-finite ``a`` or ``b``, or a ``T`` that is not finite and
    positive, is a ``ValueError`` naming the argument.
    """

    a: float
    b: float
    T: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            name, x = ("b", self.b) if math.isfinite(self.a) else ("a", self.a)
            raise ValueError(f"tilt {name} must be finite, got {name}={x}")
        _check_horizon(self.T)


@dataclass(frozen=True)
class GenFnTerms:
    """The four-term split of the normalized cumulant generating function.

    ``L`` is the limiting term, ``Hterm`` the 1/T Gaussian correction,
    ``K_T`` the Bessel-product correction, ``R_T`` the exponentially small
    remainder; ``phi``, ``tau`` and ``r_T`` are the intermediate quantities
    they are built from.
    """

    L: float
    Hterm: float
    K_T: float
    R_T: float
    phi: float
    tau: float
    r_T: float

    def total(self, T: float) -> float:
        return self.L + (self.Hterm + self.K_T + self.R_T) / T


def _domain_margin(params: ModelParams, a: float, b: float) -> tuple[float, float]:
    """``(phi, margin)`` of the tilt ``(a, b)`` in the effective domain.

    ``phi = sqrt(theta^2 - 2b)`` and ``margin = phi - max(a + theta,
    -delta_h (a + theta))``, positive inside the domain; ``(nan, -inf)``
    when ``theta^2 - 2b`` is not positive.
    """
    disc = params.theta**2 - 2.0 * b
    if not disc > 0:
        return math.nan, -math.inf
    phi = math.sqrt(disc)
    s = a + params.theta
    return phi, phi - max(s, -params.delta_h * s)


def in_domain_delta(params: ModelParams, a: float, b: float) -> bool:
    """Membership in the effective domain of the limiting term.

    True iff ``theta^2 - 2b > 0`` and
    ``sqrt(theta^2 - 2b) > max(a + theta, -delta_h (a + theta))``. The
    energy tilts ``(0, b)`` and the estimator tilts ``(a, -c a)`` are
    points of this domain.
    """
    return _domain_margin(params, a, b)[1] > 0


def _interior_or_raise(params: ModelParams, a: float, b: float) -> float:
    phi, margin = _domain_margin(params, a, b)
    if margin <= BOUNDARY_MARGIN:
        raise DomainError(
            f"(a={a}, b={b}) not strictly interior to the effective domain "
            f"(margin {margin:.3e})"
        )
    return phi


def gen_fn_terms(params: ModelParams, point: GenFnPoint) -> GenFnTerms:
    """Evaluate the exact four-term split at an interior tilt point.

    ``R_T``'s denominator is ``tau 2 phi`` times the ``K_T`` log argument,
    so the split holds only up to the first zero of that argument, and a
    tilt at or past it is a ``DomainError``. At a finite horizon that zero
    can lie inside the limiting domain. The transform itself is finite
    there: ``K_T`` and ``R_T`` diverge with opposite signs, and their sum
    is ``-1/2 log`` of the argument plus ``(2 phi - tau)^2 exp(-2 T phi) /
    (2 phi tau)``, whose first zero is the end of the finite-horizon domain.
    """
    a, b, T = point.a, point.b, point.T
    theta = params.theta
    phi = _interior_or_raise(params, a, b)
    tau = phi - (a + theta)
    rt = r_h_scaled(params.hurst, phi * T / 2.0) - 1.0
    k_arg = 1.0 + (2.0 * phi - tau) * rt / (2.0 * phi)
    denom = tau * (2.0 * phi + rt * (2.0 * phi - tau))
    if not (k_arg > 0 and denom > 0):
        raise DomainError(f"(a={a}, b={b}) lies beyond the domain of the generating "
                          f"function's four-term split at T={T}")
    L = -0.5 * (a + theta + phi)
    # tau / (2 phi) > 0: tau is at least the margin _interior_or_raise demands
    Hterm = -0.5 * math.log(tau / (2.0 * phi))
    K_T = -0.5 * math.log(k_arg)
    exp2 = math.exp(-2.0 * T * phi)
    R_T = -0.5 * math.log(1.0 + (2.0 * phi - tau) ** 2 / denom * exp2)
    return GenFnTerms(L=L, Hterm=Hterm, K_T=K_T, R_T=R_T, phi=phi, tau=tau, r_T=rt)


def exact_lt(params: ModelParams, point: GenFnPoint) -> float:
    """Exact normalized cumulant generating function at (a, b, T).

    This is an identity, not an approximation: the value equals
    ``(1/T) log E[exp(Z_T(a, b))]`` up to floating point rounding. Past
    the first zero of the ``K_T`` log argument, which at a finite horizon
    can lie inside the limiting domain, this raises ``DomainError`` (see
    :func:`gen_fn_terms`).
    """
    return gen_fn_terms(params, point).total(point.T)
