r"""Sharp tail asymptotics for the energy ``S_T = \int_0^T Q^2 d<M>``.

The rate function is the Fenchel-Legendre transform of the limiting
cumulant generating function of the energy section, which is not steep:
its derivative stays finite at the right endpoint ``a_h`` of the tilt
domain. Tail levels ``c`` below the steepness threshold
``c_star = -1/(2 theta delta_h)`` admit a classical interior saddlepoint
(Gaussian ``1/sqrt(T)`` prefactor); beyond it the saddlepoint sticks to
the boundary and the prefactor is still ``1/sqrt(T)`` but chi-square
shaped, while exactly at ``c_star`` the law crosses over to a ``1/T^{1/4}``
regime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .model import ModelParams, check_level_and_horizon

__all__ = [
    "EnergyBranch",
    "TailApprox",
    "Functional",
    "ENERGY",
    "SaddleSolution",
    "c_star",
    "boundary_tolerance",
    "rate_energy",
    "classify_branch",
    "tail_easy",
    "tail_hard",
    "tail_boundary",
    "tail_energy",
    "order1_coeff_easy",
    "saddle_solve",
    "energy_l",
]


class EnergyBranch(enum.Enum):
    """Position of the tail level relative to the steepness threshold."""

    GAUSSIAN = "gaussian"  # 0 < c < -1/(2 theta): lower tail
    EASY = "easy"  # -1/(2 theta) < c < c_star: interior saddlepoint
    BOUNDARY = "boundary"  # c = c_star within tolerance
    HARD = "hard"  # c > c_star: boundary saddlepoint


@dataclass(frozen=True)
class TailApprox:
    """A sharp tail-probability approximation.

    The approximated probability is
    ``exp(-T * rate + log_prefactor) * T**t_power * (1 + order1/T)``
    with the last factor present only when an order-1 coefficient is
    available. ``lower_tail`` records the orientation of the half line
    (True means the value approximates ``P(stat <= c)``). It holds no
    horizon: ``value`` and ``log_value`` take it.
    """

    rate: float
    log_prefactor: float
    t_power: float
    order1: Optional[float]
    branch: enum.Enum
    lower_tail: bool = False

    def log_value(self, T: float) -> float:
        corr = 1.0 + (self.order1 / T if self.order1 is not None else 0.0)
        if not corr > 0:
            raise ArithmeticError(f"order-1 correction made the value negative at T={T}")
        return -T * self.rate + self.log_prefactor + self.t_power * math.log(T) + math.log(corr)

    def value(self, T: float) -> float:
        return math.exp(self.log_value(T))


@dataclass(frozen=True)
class Functional:
    """One of the two functionals, as the CLI and the validation harness see it.

    ``rate(params, c)`` is the large-deviation rate and ``branch(params, c,
    T)`` the name of its branch, as the rate table labels it, which rejects
    a non-finite ``c`` or a bad ``T`` at every level;
    ``tail(params, c, T, with_order1)`` is the branch-dispatched sharp tail;
    ``sample(result)`` reads the functional's Monte Carlo sample off a
    batch of paths, at the batch's horizon; ``legendre(params, c)`` returns
    ``(lo, hi, objective)``, the tilt bracket and the objective whose
    minimum over it is minus the rate.
    """

    name: str
    rate: Callable[[ModelParams, float], float]
    branch: Callable[[ModelParams, float, float], str]
    tail: Callable[..., TailApprox]
    sample: Callable
    legendre: Callable[[ModelParams, float], tuple]


@dataclass(frozen=True)
class SaddleSolution:
    """Numerical saddlepoint with its asymptotic expansion coefficients.

    ``scale`` is ``"1/T"`` beyond the threshold (coefficients of
    ``a_0 + a_1/T + a_2/T^2``) and ``"1/sqrtT"`` at it (coefficients of
    ``a_0 + a_1/sqrt(T) + a_2/T``).
    """

    a_T: float
    phi_T: float
    a_coeffs: tuple[float, float, float]
    phi_coeffs: tuple[float, float, float]
    scale: str

    def a_expansion(self, T: float) -> float:
        a0, a1, a2 = self.a_coeffs
        s = T if self.scale == "1/T" else math.sqrt(T)
        # s * s is inf, not an OverflowError as s**2 is, beyond T ~ 1e154
        return a0 + a1 / s + a2 / (s * s)


def c_star(params: ModelParams) -> float:
    """Steepness threshold ``-1/(2 theta delta_h)`` of the energy tail."""
    return -1.0 / (2.0 * params.theta * params.delta_h)


def boundary_tolerance(params: ModelParams, T: float) -> float:
    # the T^{1/4} regime governs a window of width O(1/T) around c_star; it
    # reaches at most halfway down to the mean -1/(2 theta), so no short
    # horizon labels a lower-tail level BOUNDARY
    half_gap = (c_star(params) + 1.0 / (2.0 * params.theta)) / 2.0
    return min(max(1e-8, 1.0 / (T * abs(2.0 * params.theta * params.delta_h) * 10.0)), half_gap)


def rate_energy(params: ModelParams, c: float) -> float:
    """Large-deviation rate of ``S_T/T`` at level ``c`` (+inf for c <= 0)."""
    check_level_and_horizon(c)
    if c <= 0:
        return math.inf
    theta = params.theta
    if c <= c_star(params):
        return (2.0 * theta * c + 1.0) ** 2 / (8.0 * c)
    d = params.delta_h
    return c * theta**2 * (1.0 - d * d) / 2.0 + theta * (1.0 - d) / 2.0


def classify_branch(params: ModelParams, c: float, T: float) -> EnergyBranch:
    check_level_and_horizon(c, T)
    if not c > 0:
        raise ValueError(f"tail level must be positive, got c={c}")
    cs = c_star(params)
    if abs(c - cs) <= boundary_tolerance(params, T):
        return EnergyBranch.BOUNDARY
    if c > cs:
        return EnergyBranch.HARD
    if c > -1.0 / (2.0 * params.theta):
        return EnergyBranch.EASY
    return EnergyBranch.GAUSSIAN


def energy_l(params: ModelParams, a: float) -> float:
    """Limiting cumulant generating function of the energy section."""
    return -0.5 * (params.theta + math.sqrt(params.theta**2 - 2.0 * a))


# ---------------------------------------------------------------------------
# tail approximations
# ---------------------------------------------------------------------------


def _saddle_ac(params: ModelParams, c: float) -> float:
    return (4.0 * params.theta**2 * c * c - 1.0) / (8.0 * c * c)


def tail_easy(params: ModelParams, c: float, with_order1: bool = False) -> TailApprox:
    """Interior-saddlepoint tail approximation (Gaussian 1/sqrt(T) regime).

    Covers the upper tail on ``(-1/(2 theta), c_star)`` and the lower tail
    on ``(0, -1/(2 theta))``; the sign of the saddlepoint tilt decides the
    orientation.
    """
    theta = params.theta
    if not 0 < c < c_star(params):
        raise ValueError(f"c={c} outside the interior-saddlepoint range")
    mean = -1.0 / (2.0 * theta)
    lower = c < mean
    a_c = _saddle_ac(params, c)
    # the tilt a_c is 0 at the mean, where log|a_c| below fails; in floating
    # point it may also come out tiny but nonzero there, or 0 an ulp away
    if c == mean or a_c == 0.0:
        raise ValueError("c = -1/(2 theta) is the law-of-large-numbers point, not a tail")
    sigma_c = math.sqrt(4.0 * c**3)
    J = -0.5 * math.log((1.0 - 2.0 * theta * c) / 2.0)
    s = params.sin_pi_h
    arg = (1.0 + s) * (1.0 + 2.0 * theta * c * params.delta_h) / (2.0 * s)
    if not arg > 0:
        raise ArithmeticError(f"K_H log argument non-positive at c={c}")
    K_H = -0.5 * math.log(arg)
    log_pref = J + K_H - math.log(abs(a_c) * sigma_c * math.sqrt(2.0 * math.pi))
    order1 = order1_coeff_easy(params, c) if with_order1 else None
    branch = EnergyBranch.GAUSSIAN if lower else EnergyBranch.EASY
    return TailApprox(
        rate=rate_energy(params, c),
        log_prefactor=log_pref,
        t_power=-0.5,
        order1=order1,
        branch=branch,
        lower_tail=lower,
    )


def order1_coeff_easy(params: ModelParams, c: float) -> float:
    """First-order (1/T) correction coefficient on the interior branch.

    Coefficient of 1/T in the saddlepoint expansion of the tail contour
    integral: the amplitude exp(F(a))/a is expanded to second order around
    the saddlepoint together with the cubic and quartic cumulant terms,
    and the constant from the T-dependence of the Bessel correction is
    added. Only first and second derivatives of the 1/T-order terms enter
    at this order.

    Every derivative is taken at the saddle's own ``phi = 1/(2c)``, not at
    ``sqrt(theta^2 - 2 a_c)``, which cancels as ``a_c`` nears
    ``theta^2/2``: ``L^(q) = (2q-3)!!/2 phi^(1-2q)`` is a power of ``c``,
    and ``H`` and ``K`` are ``-1/2 log(A phi + B) + 1/2 log phi`` with
    ``(A, B) = (1, -theta)`` and ``(2 + p_h, theta p_h)``, whose first
    two derivatives are ``-2 c^2 r`` and ``8 c^4 r (r - 3)`` with
    ``r = B/V`` and ``V = A/(2c) + B``.
    """
    theta = params.theta
    if not 0 < c < c_star(params):
        raise ValueError(f"c={c} outside the interior-saddlepoint range")
    a_c = _saddle_ac(params, c)
    sig2, l3, l4 = 4.0 * c**3, 48.0 * c**5, 960.0 * c**7
    p_h = params.p_h
    s1 = s2 = 0.0
    for A, B in ((1.0, -theta), (2.0 + p_h, theta * p_h)):
        r = B / (A / (2.0 * c) + B)
        s1 -= 2.0 * c * c * r
        s2 += 8.0 * c**4 * r * (r - 3.0)
    kc1 = (
        c
        * (1.0 + 2.0 * theta * c)
        * (2.0 * params.hurst - 1.0) ** 2
        / (2.0 * params.sin_pi_h * (2.0 + p_h * (1.0 + 2.0 * theta * c)))
    )
    core = (
        s1 / a_c
        - s1 * s1 / 2.0
        - s2 / 2.0
        - l3 / (2.0 * a_c * sig2)
        + s1 * l3 / (2.0 * sig2)
        - 5.0 * l3 * l3 / (24.0 * sig2 * sig2)
        + l4 / (8.0 * sig2)
        - 1.0 / (a_c * a_c)
    )
    return core / sig2 + kc1


def tail_hard(params: ModelParams, c: float) -> TailApprox:
    """Boundary-saddlepoint tail approximation for ``c > c_star``."""
    theta = params.theta
    d = params.delta_h
    s = params.sin_pi_h
    if not c > c_star(params):
        raise ValueError(f"c={c} is not beyond the steepness threshold")
    g = 1.0 + 2.0 * theta * c * d
    # beyond the threshold this combination is strictly negative, which is
    # exactly what makes the log argument of P_H positive
    if not g < 0:
        raise ArithmeticError(f"expected 1 + 2 theta c delta_h < 0, got {g}")
    P_H = -0.5 * math.log(-g / (4.0 * d * s))
    Q_H = (2.0 * params.hurst - 1.0) ** 2 * s * g / (2.0 * (1.0 - s * s))
    a_h = params.a_h
    sigma_h = math.sqrt(-1.0 / (2.0 * theta**3 * d**3))
    log_pref = P_H + Q_H - math.log(a_h * sigma_h * math.sqrt(2.0 * math.pi))
    return TailApprox(
        rate=rate_energy(params, c),
        log_prefactor=log_pref,
        t_power=-0.5,
        order1=None,
        branch=EnergyBranch.HARD,
    )


def tail_boundary(params: ModelParams) -> TailApprox:
    """Tail approximation exactly at the threshold: the T^(-1/4) law."""
    theta = params.theta
    d = params.delta_h
    s = params.sin_pi_h
    K_H = 0.5 * math.log(d * s) + 0.25 * math.log(-theta * d)
    a_h = params.a_h
    sigma_h = math.sqrt(-1.0 / (2.0 * theta**3 * d**3))
    log_pref = K_H + math.log(math.gamma(0.25) / (2.0 * math.pi * a_h * sigma_h))
    return TailApprox(
        rate=rate_energy(params, c_star(params)),
        log_prefactor=log_pref,
        t_power=-0.25,
        order1=None,
        branch=EnergyBranch.BOUNDARY,
    )


def tail_energy(
    params: ModelParams, c: float, T: float, with_order1: bool = False
) -> TailApprox:
    """Branch-dispatched tail approximation for the energy.

    The classification rejects a non-finite ``c`` or a bad ``T``.
    """
    branch = classify_branch(params, c, T)
    if branch is EnergyBranch.BOUNDARY:
        return tail_boundary(params)
    if branch is EnergyBranch.HARD:
        return tail_hard(params, c)
    return tail_easy(params, c, with_order1=with_order1)


def _energy_legendre(params: ModelParams, c: float):
    # the tilt domain is (-inf, a_h) and L is finite at a_h, where the
    # maximizer of c a - L(a) sits beyond c*; a bracket of width
    # max(50, 10 theta^2) below a_h holds it
    hi = params.a_h
    lo = hi - max(50.0, 10.0 * params.theta**2)
    return lo, hi, lambda a: -(c * a - energy_l(params, a))


def _energy_branch(params: ModelParams, c: float, T: float) -> str:
    # the rate table's label: the rate is infinite for c <= 0, which no
    # tail branch covers; c and T are checked at every level all the same
    check_level_and_horizon(c, T)
    return classify_branch(params, c, T).name if c > 0 else "INFINITE"


#: the energy ``S_T``: event ``{S_T >= cT}``, or ``{S_T <= cT}`` on the
#: lower branch; its rate is infinite and its branch ``INFINITE`` for c <= 0
ENERGY = Functional(
    name="energy",
    rate=rate_energy,
    branch=_energy_branch,
    tail=tail_energy,
    sample=lambda result: result.s_terminal / result.grid.T,
    legendre=_energy_legendre,
)


# ---------------------------------------------------------------------------
# time-varying saddlepoint
# ---------------------------------------------------------------------------


def _bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` in ``[lo, hi]``, ``0 < lo < hi``, by bisection.

    Needs ``f(lo) > 0 > f(hi)``, else raises ``ArithmeticError``. The
    midpoint is geometric while ``hi > 2 lo``, so a bracket of any number
    of decades shrinks in a few steps, and arithmetic after that, until
    ``lo`` and ``hi`` are adjacent floats or ``f`` is 0. Returns the end
    with the smaller ``|f|``.
    """
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo > 0 > f_hi:
        raise ArithmeticError(f"no sign change of f on [{lo!r}, {hi!r}]")
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else (lo + hi) / 2.0
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if f_mid > 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def saddle_solve(params: ModelParams, c: float, T: float) -> SaddleSolution:
    """Solve the time-varying saddle equation for ``c >= c_star``.

    The equation ``L'(a) + (H'(a) + K'(a))/T = c`` of the truncated cumulant
    approximation ``L + (H + K)/T`` is solved in ``s = A phi + B``, with
    ``phi = sqrt(theta^2 - 2a)``, ``A = 2 + p_h`` and ``B = theta p_h``:
    ``s`` is the distance to the pole of ``K'``, positive exactly when
    ``a < a_h``. Beyond the threshold ``a_h - a_T`` is ``O(1/T)``, a few
    ulps of ``a_h`` at large ``T``, while ``s_T`` keeps its relative
    precision. In ``s`` each term has one sign: ``L' = 1/(2 phi)``,
    ``H' = theta/(2 phi^2 (phi - theta))`` and ``K' = -B/(2 phi^2 s)``, so
    the equation falls from ``+inf`` at ``s = 0+`` to ``-c`` and has a root
    for levels at or beyond the threshold. The two ``1/T`` terms are formed
    as ``H'/T`` and ``K'/T = -B/(2 phi^2 (s T))``: ``s T`` stays moderate
    where ``2 phi^2 s`` is subnormal and ``K'`` itself would overflow.

    ``s_T`` is found by bisection (``_bisect``), in ``log s`` while the
    bracket spans more than a factor of two, down to adjacent floats: no
    tolerance and no step limit. ``ArithmeticError`` names each refusal: a
    bracket that underflows, a residual above its bound (relative to the
    largest of ``c``, ``L'``, ``H'/T`` and ``K'/T``), or an ``a_T`` that
    rounds to ``a_h``. The level is classified once, by
    ``classify_branch``: a ``BOUNDARY`` level gets the ``1/sqrtT``
    coefficients, a ``HARD`` one the ``1/T`` ones, and any other positive
    level is a ``ValueError``, as are the levels it rejects.
    """
    branch = classify_branch(params, c, T)
    if branch not in (EnergyBranch.BOUNDARY, EnergyBranch.HARD):
        raise ValueError(f"saddle_solve requires c >= c_star ({c_star(params):.6g}), got {c}")
    theta = params.theta
    d = params.delta_h
    a_h = params.a_h
    A = 2.0 + params.p_h
    B = theta * params.p_h

    def terms(s):
        # L', H'/T and K'/T at phi = (s - B)/A; K'/T divides by s T, since
        # 2 phi^2 s is subnormal where a_T is a few ulps below a_h
        phi = (s - B) / A
        two_phi2 = 2.0 * phi * phi
        return 0.5 / phi, theta / (two_phi2 * (phi - theta)) / T, -B / (two_phi2 * (s * T))

    def f(s):
        l1, h1, k1 = terms(s)
        return l1 + (h1 + k1) - c

    # at s = 0 phi is phi_0 = -theta d, where |H'| <= 1/(2 phi_0^2), and
    # K' >= -B/(8 phi_0^2 s) for s <= -B: so f(lo) >= c + 1/(2 phi_0^2 T);
    # at hi L' <= c/4 and K'/T <= c/4, so f(hi) <= -c/2
    q = (theta * d) ** 2 * T
    lo = -B / (16.0 * q * c + 8.0)
    hi = 2.0 * max(A / c, -B / (q * c))
    if not lo > 0:
        raise ArithmeticError(f"saddlepoint lies closer to a_h than a float resolves at T={T}")
    s_T = _bisect(f, lo, hi)
    l1, h1, k1 = terms(s_T)
    resid = l1 + (h1 + k1) - c
    if not abs(resid) <= 1e-10 * max(1.0, c, abs(l1), abs(h1), abs(k1)):
        raise ArithmeticError(f"saddle residual {resid:.3e} exceeds tolerance")
    phi_T = (s_T - B) / A
    a_T = (theta**2 - phi_T**2) / 2.0
    if not a_T < a_h:
        raise ArithmeticError(f"saddlepoint a_T = {a_T!r} rounds to the domain end a_h = {a_h!r}")
    s = params.sin_pi_h
    g = 1.0 + 2.0 * theta * c * d
    if branch is EnergyBranch.BOUNDARY:
        a1 = -((-theta * d) ** 1.5)
        a2 = -theta * d / 4.0 * (1.0 + s)
        p1 = math.sqrt(-theta * d)
        p2 = -(3.0 + s) / 4.0
        return SaddleSolution(a_T, phi_T, (a_h, a1, a2), (-theta * d, p1, p2), "1/sqrtT")
    a1 = -theta * d / g
    a2 = (2.0 * theta * c * d * (4.0 + s) + 2.0 + s) / (2.0 * g**3)
    p1 = -1.0 / g
    p2 = (2.0 * theta * c * d * (5.0 + s) + 3.0 + s) / (2.0 * theta * d * g**3)
    return SaddleSolution(a_T, phi_T, (a_h, a1, a2), (-theta * d, p1, p2), "1/T")
