r"""Sharp tail asymptotics for the drift maximum likelihood estimator.

The estimator ``theta_hat_T`` of the drift ``theta`` built from the
fundamental-martingale observation satisfies a large deviation principle
whose rate function

.. math::
    I(c) = \begin{cases}
        -(c - \theta)^2 / (4c) & c < \theta/3, \\
        2c - \theta & c \ge \theta/3
    \end{cases}

does not depend on the Hurst index. The Hurst index only enters the
prefactors. The tail event ``{theta_hat_T >= c}`` is rewritten through the
quadratic statistic ``Z_T(c) = int Q dY - c int Q^2 d<M>``, whose tilt
domain is an interval whose right endpoint switches from an analyticity
boundary to the zero of the tilted variance at ``c = theta/2``, which is
what produces the easy/hard dichotomy at ``c = theta/3``.
"""

from __future__ import annotations

import enum
import math

from .energy import Functional, TailApprox
from .model import ModelParams, check_level_and_horizon

__all__ = [
    "MleBranch",
    "rate_mle",
    "mle_domain",
    "classify_mle",
    "boundary_tolerance_mle",
    "mle_l",
    "tail_mle_easy",
    "tail_mle_hard",
    "tail_mle_zero",
    "tail_mle_boundary",
    "tail_mle",
    "MLE",
]


class MleBranch(enum.Enum):
    """Position of the threshold c relative to theta/3 and 0."""

    EASY = "easy"  # c < theta/3: interior saddlepoint, lower tail
    BOUNDARY = "boundary"  # c = theta/3 within tolerance
    HARD = "hard"  # theta/3 < c, c != 0: boundary saddlepoint
    ZERO = "zero"  # c = 0: sign probability, closed form


def rate_mle(params: ModelParams, c: float) -> float:
    """Large-deviation rate of the estimator at threshold ``c``.

    Free of the Hurst index by construction.
    """
    check_level_and_horizon(c)
    theta = params.theta
    if c < theta / 3.0:
        return -((c - theta) ** 2) / (4.0 * c)
    return 2.0 * c - theta


def boundary_tolerance_mle(params: ModelParams, T: float) -> float:
    # the windows around theta/3 and 0 reach at most halfway to each other
    return min(max(1e-8, 1.0 / (T * abs(params.theta) * 10.0)), abs(params.theta) / 6.0)


def classify_mle(params: ModelParams, c: float, T: float) -> MleBranch:
    check_level_and_horizon(c, T)
    theta = params.theta
    tol = boundary_tolerance_mle(params, T)
    if abs(c - theta / 3.0) <= tol:
        return MleBranch.BOUNDARY
    if c < theta / 3.0:
        return MleBranch.EASY
    if abs(c) <= tol:
        return MleBranch.ZERO
    return MleBranch.HARD


def mle_domain(params: ModelParams, c: float) -> tuple[float, float]:
    """Effective tilt domain ``(a_1, a_right)`` of the statistic ``Z_T(c)``.

    ``a_right`` is the analyticity endpoint ``a_2`` when ``c <= theta/2``,
    taken at the last float where ``mle_l`` is real, and the variance zero
    ``a_c_up = 2(c - theta)`` otherwise.
    """
    theta = params.theta
    mu = params.delta_h**2
    disc = c * c - 2.0 * theta * c * mu + theta * theta * mu
    if not disc >= 0:
        raise ArithmeticError(f"negative domain discriminant at c={c}")
    root = math.sqrt(disc)
    # the two endpoints are the roots of mu a^2 - 2(c - theta mu) a +
    # theta^2 (mu - 1) = 0; evaluate the non-cancelling root directly and
    # recover the other from the product, which stays accurate as mu -> 0
    q = c - theta * mu
    prod = theta * theta * (mu - 1.0) / mu
    if q >= 0:
        a2 = (q + root) / mu
        a1 = prod / a2
    else:
        a1 = (q - root) / mu
        a2 = prod / a1
    if c <= theta / 2.0:
        # at c = theta/2, a2 is the zero of L's square root theta^2 + 2 a c,
        # and near that level the two lie within a few ulps, so a2 can round
        # past the zero; step back to the last float where L is real
        while not theta * theta + 2.0 * a2 * c >= 0:
            a2 = math.nextafter(a2, -math.inf)
        return a1, a2
    return a1, 2.0 * (c - theta)


def mle_l(params: ModelParams, a: float, c: float) -> float:
    """Limiting cumulant generating function of ``Z_T(c)`` at tilt ``a``."""
    theta = params.theta
    disc = theta * theta + 2.0 * a * c
    if not disc >= 0:
        raise ArithmeticError(f"negative square-root argument at a={a}, c={c}")
    return -0.5 * (a + theta + math.sqrt(disc))


def _mle_saddle(params: ModelParams, c: float) -> float:
    # interior saddlepoint of -L; the tilted root satisfies phi(a_c) = |c|
    return (c * c - params.theta**2) / (2.0 * c)


def tail_mle_easy(params: ModelParams, c: float) -> TailApprox:
    """Interior-saddlepoint approximation of the estimator tail at ``c``.

    Valid for ``c < theta/3``. The approximated event is the upper tail
    ``{theta_hat_T >= c}`` when ``theta < c < theta/3`` and the lower tail
    ``{theta_hat_T <= c}`` when ``c < theta``; the saddlepoint ``a_c``
    changes sign at ``c = theta`` accordingly.
    """
    theta = params.theta
    if not c < theta / 3.0:
        raise ValueError(f"easy branch requires c < theta/3, got c={c}")
    if c == theta:
        raise ValueError("c = theta is the law-of-large-numbers point, not a tail")
    a_c = _mle_saddle(params, c)
    sigma_c = math.sqrt(-1.0 / (2.0 * c))  # c < theta/3 < 0 here
    arg_j = (c + theta) * (3.0 * c - theta) / (4.0 * c * c)
    if not arg_j > 0:
        raise ArithmeticError(f"J log argument non-positive at c={c}")
    J = -0.5 * math.log(arg_j)
    K_H = -0.5 * math.log(1.0 + params.p_h * (c - theta) ** 2 / (4.0 * c * c))
    log_pref = J + K_H - math.log(abs(a_c) * sigma_c * math.sqrt(2.0 * math.pi))
    return TailApprox(
        rate=rate_mle(params, c),
        log_prefactor=log_pref,
        t_power=-0.5,
        order1=None,
        branch=MleBranch.EASY,
        lower_tail=(c < theta),
    )


def tail_mle_hard(params: ModelParams, c: float) -> TailApprox:
    """Boundary-saddlepoint approximation of ``P(theta_hat_T >= c)``.

    Valid for ``c > theta/3``, ``c != 0``. The saddlepoint sits at the
    variance-zero endpoint of the tilt domain, which yields the
    ``sqrt(sin(pi H))`` prefactor.
    """
    theta = params.theta
    if not c > theta / 3.0:
        raise ValueError(f"hard branch requires c > theta/3, got c={c}")
    if c == 0.0:
        raise ValueError("c = 0 belongs to the sign-probability branch")
    arg_p = (c - theta) * (3.0 * c - theta) / (4.0 * c * c)
    if not arg_p > 0:
        raise ArithmeticError(f"P log argument non-positive at c={c}")
    P = -0.5 * math.log(arg_p)
    a_up = 2.0 * (c - theta)
    sigma_up = math.sqrt(c * c / (2.0 * (2.0 * c - theta) ** 3))
    log_pref = (
        P
        + 0.5 * math.log(params.sin_pi_h)
        - math.log(sigma_up * a_up * math.sqrt(2.0 * math.pi))
    )
    return TailApprox(
        rate=rate_mle(params, c),
        log_prefactor=log_pref,
        t_power=-0.5,
        order1=None,
        branch=MleBranch.HARD,
    )


def tail_mle_zero(params: ModelParams) -> TailApprox:
    """Closed-form approximation of the sign probability ``P(theta_hat_T >= 0)``.

    The rate is ``-theta`` and the prefactor carries an extra factor 2
    relative to the hard branch limit.
    """
    theta = params.theta
    log_pref = math.log(
        2.0 * math.sqrt(params.sin_pi_h) / (math.sqrt(2.0 * math.pi) * math.sqrt(-2.0 * theta))
    )
    return TailApprox(
        rate=-theta,
        log_prefactor=log_pref,
        t_power=-0.5,
        order1=None,
        branch=MleBranch.ZERO,
    )


def tail_mle_boundary(params: ModelParams) -> TailApprox:
    """Approximation of ``P(theta_hat_T >= theta/3)``: the ``T^(-1/4)`` law."""
    theta = params.theta
    a_b = -4.0 * theta / 3.0
    sigma_b = math.sqrt(-3.0 / (2.0 * theta))
    log_pref = math.log(
        math.gamma(0.25)
        * math.sqrt(params.sin_pi_h)
        / (4.0 * math.pi * a_b**0.75 * sigma_b)
    )
    return TailApprox(
        rate=rate_mle(params, theta / 3.0),
        log_prefactor=log_pref,
        t_power=-0.25,
        order1=None,
        branch=MleBranch.BOUNDARY,
    )


def tail_mle(
    params: ModelParams, c: float, T: float, with_order1: bool = False
) -> TailApprox:
    """Branch-dispatched tail approximation for the estimator.

    The classification rejects a non-finite ``c`` or a bad ``T``. The
    estimator has no order-1 (1/T) correction here, so ``with_order1``
    exists to share the signature of ``energy.tail_energy`` and must be
    false.
    """
    if with_order1:
        raise ValueError("the order-1 correction is available for the energy tail only")
    branch = classify_mle(params, c, T)
    if branch is MleBranch.EASY:
        return tail_mle_easy(params, c)
    if branch is MleBranch.BOUNDARY:
        return tail_mle_boundary(params)
    if branch is MleBranch.ZERO:
        return tail_mle_zero(params)
    return tail_mle_hard(params, c)


def _mle_legendre(params: ModelParams, c: float):
    # -L(a) over the effective tilt domain of Z_T(c). The oracle never
    # evaluates the lower end, and it scores the right end, where the
    # maximizer sits at a boundary level
    a1, a_right = mle_domain(params, c)
    return a1, a_right, lambda a: mle_l(params, a, c)


#: the estimator ``theta_hat_T``: event ``{theta_hat >= c}``, or
#: ``{theta_hat <= c}`` for ``c < theta``
MLE = Functional(
    name="mle",
    rate=rate_mle,
    branch=lambda params, c, T: classify_mle(params, c, T).name,
    tail=tail_mle,
    sample=lambda result: result.theta_hat,
    legendre=_mle_legendre,
)
