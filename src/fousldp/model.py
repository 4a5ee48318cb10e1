r"""Model parameters and the exact normalized cumulant generating function
of the tilted fractional Ornstein-Uhlenbeck functionals.

The central object is the two-parameter exponential tilt

.. math::
    \mathcal{Z}_T(a, b) = a \int_0^T Q\,dY + b \int_0^T Q^2\,d\langle M\rangle

whose normalized cumulant generating function is, exactly,
``L + (H + K_T + R_T)/T``: the limiting term, the Gaussian correction, the
Bessel-product correction and an exponentially small remainder.
:func:`exact_lt` takes ``K_T + R_T`` as one log, ``-1/2 log d_KR``. Apart,
``K_T`` and ``R_T`` diverge with opposite signs wherever the ``K_T`` log
argument crosses zero, which at a finite horizon can happen inside the
limiting domain; their sum stays finite up to the first zero of ``d_KR``.

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
    "DomainError",
    "in_domain_delta",
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


def exact_lt(params: ModelParams, point: GenFnPoint) -> float:
    """Exact normalized cumulant generating function at (a, b, T).

    This is an identity, not an approximation: the value equals
    ``(1/T) log E[exp(Z_T(a, b))]`` up to floating point rounding. It is
    ``L + (H - 1/2 log d_KR)/T`` with ``phi = sqrt(theta^2 - 2b)``,
    ``tau = phi - (a + theta)``, ``r_T = exp(-T phi) r_H(phi T/2) - 1``,

    * ``L = -(a + theta + phi)/2`` and ``H = -1/2 log(tau/(2 phi))``;
    * ``d_KR = 1 + (2 phi - tau) r_T/(2 phi)
      + (2 phi - tau)^2 exp(-2 T phi)/(2 phi tau)``.

    A tilt outside the limiting domain (see :func:`in_domain_delta`), or
    within ``BOUNDARY_MARGIN`` of its boundary, is a ``DomainError``. So is
    a tilt where ``d_KR <= 0``: at a finite horizon the transform can end
    inside the limiting domain, at the first zero of ``d_KR``.
    """
    a, b, T = point.a, point.b, point.T
    theta = params.theta
    phi, margin = _domain_margin(params, a, b)
    if margin <= BOUNDARY_MARGIN:
        raise DomainError(
            f"(a={a}, b={b}) not strictly interior to the effective domain "
            f"(margin {margin:.3e}) at T={T}"
        )
    tau = phi - (a + theta)
    rt = r_h_scaled(params.hurst, phi * T / 2.0) - 1.0
    d_kr = (1.0 + (2.0 * phi - tau) * rt / (2.0 * phi)
            + (2.0 * phi - tau) ** 2 * math.exp(-2.0 * T * phi) / (2.0 * phi * tau))
    if not d_kr > 0:
        raise DomainError(f"(a={a}, b={b}) lies beyond the domain of the generating "
                          f"function at T={T}")
    # tau / (2 phi) > 0: tau is at least the margin demanded above
    h = -0.5 * math.log(tau / (2.0 * phi))
    return -0.5 * (a + theta + phi) + (h - 0.5 * math.log(d_kr)) / T
