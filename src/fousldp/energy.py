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
from .special import gamma_real

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
    "energy_l_deriv",
    "energy_h_deriv",
    "energy_k_deriv",
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
    (True means the value approximates ``P(stat <= c)``).
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
    T)`` the name of its branch, as the rate table labels it;
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
        return a0 + a1 / s + a2 / s**2


def c_star(params: ModelParams) -> float:
    """Steepness threshold ``-1/(2 theta delta_h)`` of the energy tail."""
    return -1.0 / (2.0 * params.theta * params.delta_h)


def boundary_tolerance(params: ModelParams, T: float) -> float:
    # the T^{1/4} regime governs a window of width O(1/T) around c_star
    return max(1e-8, 1.0 / (T * abs(2.0 * params.theta * params.delta_h) * 10.0))


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


# ---------------------------------------------------------------------------
# energy-section functions L, H, K and their derivatives
# ---------------------------------------------------------------------------


def energy_phi(params: ModelParams, a: float) -> float:
    return math.sqrt(params.theta**2 - 2.0 * a)


def energy_l(params: ModelParams, a: float) -> float:
    """Limiting cumulant generating function of the energy section."""
    return -0.5 * (params.theta + energy_phi(params, a))


def energy_l_deriv(params: ModelParams, a: float, q: int) -> float:
    """q-th derivative of the limiting term: (2q-3)!! / 2 * phi^(1-2q)."""
    if q < 1:
        raise ValueError("derivative order must be >= 1")
    phi = energy_phi(params, a)
    dfact = 1.0
    for j in range(3, 2 * q - 2, 2):
        dfact *= j
    return dfact / 2.0 * phi ** (1 - 2 * q)


def _logratio_derivs(A: float, B: float, u: float) -> tuple[float, float, float]:
    # first three a-derivatives of F(a) = -1/2 log(A u + B) + 1/2 log u
    # where u = phi(a) and du/da = -1/u
    V = A * u + B
    f1 = A / (2.0 * u * V) - 1.0 / (2.0 * u * u)
    f2 = (A / 2.0) * (u**-3 / V + A * u**-2 / V**2) - u**-4
    f3 = (
        1.5 * A * u**-5 / V
        + 1.5 * A * A * u**-4 / V**2
        + A**3 * u**-3 / V**3
        - 4.0 * u**-6
    )
    return f1, f2, f3


def energy_h_deriv(params: ModelParams, a: float, q: int) -> float:
    """q-th derivative (q <= 3) of the 1/T Gaussian correction term."""
    derivs = _logratio_derivs(1.0, -params.theta, energy_phi(params, a))
    return derivs[q - 1]


def energy_k_deriv(params: ModelParams, a: float, q: int) -> float:
    """q-th derivative (q <= 3) of the limiting Bessel correction term K."""
    A = 2.0 + params.p_h
    B = params.theta * params.p_h
    derivs = _logratio_derivs(A, B, energy_phi(params, a))
    return derivs[q - 1]


# ---------------------------------------------------------------------------
# tail approximations
# ---------------------------------------------------------------------------


def _saddle_ac(params: ModelParams, c: float) -> float:
    return (4.0 * params.theta**2 * c * c - 1.0) / (8.0 * c * c)


def tail_easy(
    params: ModelParams, c: float, T: float, with_order1: bool = False
) -> TailApprox:
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
    """
    theta = params.theta
    if not 0 < c < c_star(params):
        raise ValueError(f"c={c} outside the interior-saddlepoint range")
    a_c = _saddle_ac(params, c)
    sig2 = energy_l_deriv(params, a_c, 2)  # equals 4 c^3
    l3 = energy_l_deriv(params, a_c, 3)
    l4 = energy_l_deriv(params, a_c, 4)
    h1, h2 = (energy_h_deriv(params, a_c, q) for q in (1, 2))
    k1, k2 = (energy_k_deriv(params, a_c, q) for q in (1, 2))
    s1, s2 = h1 + k1, h2 + k2
    p_h = params.p_h
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


def tail_hard(params: ModelParams, c: float, T: float) -> TailApprox:
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


def tail_boundary(params: ModelParams, T: float) -> TailApprox:
    """Tail approximation exactly at the threshold: the T^(-1/4) law."""
    theta = params.theta
    d = params.delta_h
    s = params.sin_pi_h
    K_H = 0.5 * math.log(d * s) + 0.25 * math.log(-theta * d)
    a_h = params.a_h
    sigma_h = math.sqrt(-1.0 / (2.0 * theta**3 * d**3))
    log_pref = K_H + math.log(gamma_real(0.25) / (2.0 * math.pi * a_h * sigma_h))
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
        return tail_boundary(params, T)
    if branch is EnergyBranch.HARD:
        return tail_hard(params, c, T)
    return tail_easy(params, c, T, with_order1=with_order1)


def _energy_legendre(params: ModelParams, c: float):
    # the tilt domain is (-inf, a_h) and L is finite at a_h, where the
    # maximizer of c a - L(a) sits beyond c*; a bracket of width
    # max(50, 10 theta^2) below a_h holds it
    hi = params.a_h
    lo = hi - max(50.0, 10.0 * params.theta**2)
    return lo, hi, lambda a: -(c * a - energy_l(params, a))


#: the energy ``S_T``: event ``{S_T >= cT}``, or ``{S_T <= cT}`` on the
#: lower branch; its rate is infinite and its branch ``INFINITE`` for c <= 0
ENERGY = Functional(
    name="energy",
    rate=rate_energy,
    branch=lambda params, c, T: classify_branch(params, c, T).name if c > 0 else "INFINITE",
    tail=tail_energy,
    sample=lambda result: result.s_terminal / result.grid.T,
    legendre=_energy_legendre,
)


# ---------------------------------------------------------------------------
# time-varying saddlepoint
# ---------------------------------------------------------------------------


def _brentq(f, lo: float, hi: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of ``f`` in ``[lo, hi]`` by Brent's method (Brent 1973, ch. 4).

    A line-for-line transcription of the C loop behind
    ``scipy.optimize.brentq``, so it returns the same float for the same
    arguments without the half second that importing ``scipy.optimize``
    costs. A bracket without a sign change, or no convergence within
    ``maxiter`` steps, raises ``ArithmeticError``.
    """
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ArithmeticError(f"no sign change of f on [{lo!r}, {hi!r}]")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ArithmeticError(f"Brent's method did not converge in {maxiter} steps")


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
    for levels at or beyond the threshold.
    """
    check_level_and_horizon(c, T)
    theta = params.theta
    d = params.delta_h
    a_h = params.a_h
    cs = c_star(params)
    if c < cs - boundary_tolerance(params, T):
        raise ValueError(f"saddle_solve requires c >= c_star ({cs:.6g}), got {c}")
    A = 2.0 + params.p_h
    B = theta * params.p_h

    def terms(s):
        # L', H' and K' at phi = (s - B)/A
        phi = (s - B) / A
        return 0.5 / phi, theta / (2.0 * phi * phi * (phi - theta)), -B / (2.0 * phi * phi * s)

    def f(s):
        l1, h1, k1 = terms(s)
        return l1 + (h1 + k1) / T - c

    # at s = 0 phi is phi_0 = -theta d, where |H'| <= 1/(2 phi_0^2), and
    # K' >= -B/(8 phi_0^2 s) for s <= -B: so f(lo) >= c + 1/(2 phi_0^2 T);
    # at hi L' <= c/4 and K'/T <= c/4, so f(hi) <= -c/2
    q = (theta * d) ** 2 * T
    lo = -B / (16.0 * q * c + 8.0)
    hi = 2.0 * max(A / c, -B / (q * c))
    if not lo > 0:
        raise ArithmeticError(f"saddlepoint lies closer to a_h than a float resolves at T={T}")
    # s_T falls like 1/T, so the tolerance is relative alone (Brent's
    # method, like scipy's, takes a positive xtol)
    s_T = _brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    l1, h1, k1 = terms(s_T)
    resid = l1 + (h1 + k1) / T - c
    if not abs(resid) <= 1e-10 * max(1.0, c, abs(l1), abs(h1) / T, abs(k1) / T):
        raise ArithmeticError(f"saddle residual {resid:.3e} exceeds tolerance")
    phi_T = (s_T - B) / A
    a_T = (theta**2 - phi_T**2) / 2.0
    if not a_T < a_h:
        raise ArithmeticError(f"saddlepoint a_T = {a_T!r} rounds to the domain end a_h = {a_h!r}")
    s = params.sin_pi_h
    g = 1.0 + 2.0 * theta * c * d
    if abs(c - cs) <= boundary_tolerance(params, T):
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
