r"""Validation harness: Monte Carlo comparisons and numerical oracles.

Four independent families of checks tie the closed-form machinery to
ground truth obtained by entirely different means:

* ``mc_tail`` estimates a tail probability by simulation and compares it
  to the branch-appropriate sharp approximation (z-score with binomial
  standard error, with an honesty flag when the event is too rare for the
  replicate budget);
* ``legendre_oracle`` recomputes the rate functions as numerical
  Fenchel-Legendre transforms of the limiting cumulant generating
  function, making the non-steepness (boundary maximizer) visible;
* ``gamma_contour_oracle`` checks the oscillatory-integral expansion
  used by the boundary-regime analysis against adaptive quadrature;
* ``clt_test`` runs Kolmogorov-Smirnov tests of the standardized central
  limit statistics against the standard normal law.

scipy is slow to import, so each function loads only what it calls:
``gamma_contour_oracle`` loads ``scipy.integrate`` and ``clt_test``
``scipy.stats``; ``mc_tail``, ``legendre_oracle`` (a golden-section
search) and ``ks_critical_value`` load no scipy module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import ENERGY, Functional
from .mle import MLE
from .model import ModelParams
from .sim import (
    BatchResult,
    clt_statistics,
    make_grid,
    simulate_martingale_batch,
)

__all__ = [
    "FUNCTIONALS",
    "MCReport",
    "OracleReport",
    "KSReport",
    "mc_tail",
    "legendre_oracle",
    "gamma_contour_oracle",
    "gamma_contour_series",
    "gamma_density_deriv",
    "clt_test",
    "ks_critical_value",
]

#: a Monte Carlo comparison is declared underpowered when the closed-form
#: probability is below this many expected successes
_MIN_EXPECTED_HITS = 10.0

#: the two functionals by target name; the CLI's ``--target`` choices
FUNCTIONALS = {f.name: f for f in (ENERGY, MLE)}


def _functional(target: str) -> Functional:
    try:
        return FUNCTIONALS[target]
    except KeyError:
        raise ValueError(f"unknown target {target!r}") from None


@dataclass(frozen=True)
class MCReport:
    """Monte Carlo estimate vs closed form, with a z-score when powered."""

    label: str
    estimate: float
    std_error: float
    replicates: int
    closed_form: float
    z_score: Optional[float]
    underpowered: bool
    seed: int


@dataclass(frozen=True)
class OracleReport:
    """Closed form vs independent numerical computation."""

    label: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: Optional[float]
    note: str = ""


@dataclass(frozen=True)
class KSReport:
    """Kolmogorov-Smirnov statistic against N(0, 1) with critical values."""

    label: str
    statistic: float
    n: int
    crit_1pct: float
    crit_5pct: float

    @property
    def below_1pct(self) -> bool:
        return self.statistic < self.crit_1pct


def ks_critical_value(n: int, level: float) -> float:
    """Asymptotic one-sample KS critical value at level 1% or 5%."""
    if level == 0.01:
        return 1.628 / math.sqrt(n)
    if level == 0.05:
        return 1.358 / math.sqrt(n)
    raise ValueError(f"unsupported level {level}; use 0.01 or 0.05")


def _check_batch(result: BatchResult, replicates: int, T: float) -> None:
    # a batch of another size or horizon would be read as the one asked for
    if result.replicates != replicates:
        raise ValueError(
            f"result holds {result.replicates} paths, not replicates={replicates}"
        )
    if result.grid.T != T:
        raise ValueError(f"result was drawn at horizon T={result.grid.T}, not T={T}")


def _mc_closed_form(
    params: ModelParams,
    target: str,
    c: float,
    T: float,
    replicates: int,
    with_order1: bool,
):
    """Check an ``mc_tail`` request without simulating.

    Returns the tail approximation, its value at ``T`` and whether
    ``replicates`` paths are too few to resolve it.
    """
    functional = _functional(target)
    if replicates < 10_000:
        raise ValueError("mc_tail requires at least 1e4 replicates")
    approx = functional.tail(params, c, T, with_order1=with_order1)
    closed = approx.value(T)
    return approx, closed, closed < _MIN_EXPECTED_HITS / replicates


def mc_tail(
    params: ModelParams,
    target: str,
    c: float,
    T: float,
    replicates: int,
    seed: int,
    grid_n: int = 2000,
    with_order1: bool = False,
    result: BatchResult | None = None,
) -> MCReport:
    """Estimate a tail probability by simulation and compare to closed form.

    ``target`` is ``"energy"`` (event ``{S_T >= cT}``, or ``{S_T <= cT}``
    on the lower branch) or ``"mle"`` (event ``{theta_hat >= c}``, or
    ``{theta_hat <= c}`` for ``c < theta``). A precomputed ``result`` of
    ``replicates`` paths from the same (seed, grid) may be passed to
    amortize simulation across several thresholds; one of another size or
    drawn at another horizon is an error. ``with_order1`` applies to the
    energy only; it is an error for the estimator.
    """
    if result is not None:
        _check_batch(result, replicates, T)
    approx, closed, underpowered = _mc_closed_form(
        params, target, c, T, replicates, with_order1
    )
    est = se = math.nan
    z = None
    if not underpowered:
        if result is None:
            grid = make_grid(T, grid_n)
            result = simulate_martingale_batch(params, grid, seed, replicates)
        sample = _functional(target).sample(result)
        hits = np.sum(sample <= c) if approx.lower_tail else np.sum(sample >= c)
        est = float(hits) / replicates
        se = math.sqrt(max(est * (1.0 - est), 1e-300) / replicates)
        z = (est - closed) / se if se > 0 else None
    return MCReport(
        label=f"{target} tail c={c} T={T}",
        estimate=est,
        std_error=se,
        replicates=replicates,
        closed_form=closed,
        z_score=z,
        underpowered=underpowered,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Legendre / infimum oracles for the rate functions
# ---------------------------------------------------------------------------


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimum ``(x, f(x))`` of a unimodal ``f`` on ``(lo, hi)``.

    Golden-section search: each step keeps the part of the bracket that
    holds the smaller of two interior values, until the bracket is at most
    ``xatol`` wide. For a function decreasing on the whole bracket the
    result is then within ``xatol`` of ``hi``.
    """
    a, b = lo, hi
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xatol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def legendre_oracle(params: ModelParams, target: str, c: float) -> OracleReport:
    """Recompute a rate function value by direct numerical optimization.

    Energy: maximizes ``c a - L(a)`` over the tilt domain ``(-inf, a_h)``.
    MLE: maximizes ``-L(a)`` over the tilt domain of the auxiliary
    statistic. Both objectives are concave, so one golden-section search
    over the functional's bracket finds the maximizer. The bracket's upper
    end is scored too, and the better of the two is kept: beyond the
    steepness threshold the energy's maximizer is that end itself. One
    within twice the search tolerance of it is reported in the note as a
    boundary maximizer.
    """
    functional = _functional(target)
    # the rate checks the level before the Legendre problem is built on it
    closed = functional.rate(params, c)
    lo, hi, obj = functional.legendre(params, c)
    # stop at a 1e-12 bracket, which cannot narrow below a few ulps of its
    # end points
    tol = 1e-12 + 4.0 * math.ulp(max(abs(lo), abs(hi)))
    x, fx = min(
        _golden_min(obj, lo, hi, tol), (hi, obj(hi)), key=lambda point: point[1]
    )
    best = -fx
    at_boundary = hi - x <= 2.0 * tol
    note = "maximizer at domain boundary" if at_boundary else "interior maximizer"
    return OracleReport(
        label=f"legendre {target} c={c}",
        lhs=best,
        rhs=closed,
        abs_err=abs(best - closed),
        rel_err=abs(best - closed) / abs(closed) if abs(closed) > 1e-300 else None,
        note=note,
    )


# ---------------------------------------------------------------------------
# oscillatory Gamma contour integral
# ---------------------------------------------------------------------------


def gamma_density_deriv(a: float, b: float, m: int, x: float = 1.0) -> float:
    """m-th derivative of the Gamma(a, b) density at ``x``.

    Computed exactly via the recursion
    ``f^(m+1) = (f^(m))' = P' f + P f'`` on the polynomial-in-1/x
    cofactor, avoiding finite differences.
    """
    if a <= 0 or b <= 0:
        raise ValueError("gamma density requires a > 0, b > 0")
    f = b**a / math.gamma(a) * x ** (a - 1.0) * math.exp(-b * x)
    # cofactor polynomial in t = 1/x: f^(m)(x) = f(x) * sum_j coeffs[j] x^{-j}
    coeffs = {0: 1.0}
    for _ in range(m):
        nxt: dict[int, float] = {}
        for j, cj in coeffs.items():
            # derivative of x^{-j} and the logarithmic derivative (a-1)/x - b
            nxt[j + 1] = nxt.get(j + 1, 0.0) + cj * (a - 1.0 - j)
            nxt[j] = nxt.get(j, 0.0) - b * cj
        coeffs = nxt
    return f * sum(cj * x ** (-j) for j, cj in coeffs.items())


def gamma_contour_series(
    a: float, nu: float, gamma: float, sigma2: float, T: float, ell: int, p: int
) -> complex:
    """Truncated expansion of the oscillatory Gamma contour integral.

    Returns ``sum_{k<=p} v_k / T^k`` with
    ``v_k = 2 pi i^ell sigma^{2k} f_{a,b}^{(2k+ell)}(1) /
    (2^k k! gamma^{2k+ell+1})`` and ``b = gamma/(2 nu)``. A negative ``p``
    would truncate the series to nothing and is an error.
    """
    if p < 0:
        raise ValueError("p must be a nonnegative integer")
    b = gamma / (2.0 * nu)
    total = 0.0
    for k in range(p + 1):
        total += (
            sigma2**k
            * gamma_density_deriv(a, b, 2 * k + ell)
            / (2.0**k * math.factorial(k) * gamma ** (2 * k + ell + 1) * T**k)
        )
    return 2.0 * math.pi * (1j**ell) * total


def gamma_contour_oracle(
    a: float,
    nu: float,
    gamma: float,
    sigma2: float,
    T: float,
    ell: int = 0,
    p: int = 2,
) -> OracleReport:
    """Quadrature vs truncated series for the Gamma contour integral.

    The integrand decays like a Gaussian with variance ``T/sigma2``, so
    the integration range is truncated where that factor drops below
    1e-16 and adaptive quadrature is applied to the real and imaginary
    parts separately. The note gives the largest error estimate of the
    four quadratures, says so if any of them warned, and ends with the
    off-symmetry residual.
    """
    from scipy.integrate import quad

    if not all(0 < x < math.inf for x in (a, nu, gamma, sigma2, T)):
        raise ValueError("all of a, nu, gamma, sigma2, T must be finite and positive")
    if ell < 0:
        raise ValueError("ell must be a nonnegative integer")
    # the series rejects a negative p; take it before the quadrature runs
    series = gamma_contour_series(a, nu, gamma, sigma2, T, ell, p)
    U = math.sqrt(2.0 * T * 16.0 * math.log(10.0) / sigma2)

    def envelope(u: float) -> complex:
        # non-oscillatory factor; the e^{-i gamma u} phase is delegated to
        # the weighted quadrature rule below
        return math.exp(-sigma2 * u * u / (2.0 * T)) * u**ell * (
            1.0 - 2j * nu * u
        ) ** (-a)

    opts = dict(limit=4000, epsabs=1e-14, epsrel=1e-13)
    g_re = lambda u: envelope(u).real
    g_im = lambda u: envelope(u).imag
    # a warning of quad goes in the note, not to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, e1 = quad(g_re, -U, U, weight="cos", wvar=gamma, **opts)
        rs, e2 = quad(g_im, -U, U, weight="sin", wvar=gamma, **opts)
        ic, e3 = quad(g_im, -U, U, weight="cos", wvar=gamma, **opts)
        is_, e4 = quad(g_re, -U, U, weight="sin", wvar=gamma, **opts)
    re = rc + rs
    im = ic - is_
    err = max(e1, e2, e3, e4)
    if err > 1e-8:
        raise ArithmeticError(f"quadrature did not converge (errors {err:.1e})")
    lhs = complex(re, im)
    # the exact integral is real for even ell and imaginary for odd ell
    if ell % 2 == 0:
        lhs_main, rhs_main = lhs.real, series.real
        resid = abs(lhs.imag)
    else:
        lhs_main, rhs_main = lhs.imag, series.imag
        resid = abs(lhs.real)
    warned = "; quad warned" if caught else ""
    return OracleReport(
        label=f"gamma contour a={a} nu={nu} gamma={gamma} ell={ell} p={p} T={T}",
        lhs=lhs_main,
        rhs=rhs_main,
        abs_err=abs(lhs_main - rhs_main),
        rel_err=abs(lhs_main - rhs_main) / abs(rhs_main) if abs(rhs_main) > 1e-300 else None,
        note=f"quadrature error {err:.1e}{warned}; off-symmetry residual {resid:.2e}",
    )


# ---------------------------------------------------------------------------
# central limit validation
# ---------------------------------------------------------------------------


def clt_test(
    params: ModelParams,
    T: float,
    replicates: int,
    seed: int,
    grid_n: int = 2000,
    result: BatchResult | None = None,
) -> tuple[KSReport, KSReport]:
    """KS tests of the standardized energy and estimator samples vs N(0,1).

    A precomputed ``result`` must hold ``replicates`` paths drawn at the
    horizon ``T``.
    """
    from scipy.stats import kstest

    if result is not None:
        _check_batch(result, replicates, T)
    if replicates < 1000:
        raise ValueError("clt_test requires at least 1e3 replicates")
    if result is None:
        grid = make_grid(T, grid_n)
        result = simulate_martingale_batch(params, grid, seed, replicates)
    e_sample, m_sample = clt_statistics(result, params)
    reports = []
    for label, sample in (("energy clt", e_sample), ("mle clt", m_sample)):
        stat = kstest(sample, "norm").statistic
        reports.append(
            KSReport(
                label=f"{label} T={T}",
                statistic=float(stat),
                n=sample.size,
                crit_1pct=ks_critical_value(sample.size, 0.01),
                crit_5pct=ks_critical_value(sample.size, 0.05),
            )
        )
    return reports[0], reports[1]
