r"""Validation harness: Monte Carlo comparisons and numerical oracles.

Five independent families of checks tie the closed-form machinery to
ground truth obtained by entirely different means:

* ``mc_tail`` estimates a tail probability from a batch of simulated paths
  and compares it to the branch-appropriate sharp approximation (z-score
  with binomial standard error, with an honesty flag when the event is too
  rare for the replicate budget);
* ``legendre_oracle`` recomputes the rate functions as numerical
  Fenchel-Legendre transforms of the limiting cumulant generating
  function, making the non-steepness (boundary maximizer) visible;
* ``gamma_contour_oracle`` checks the oscillatory-integral expansion
  used by the boundary-regime analysis against adaptive quadrature;
* ``r_h_oracle`` checks ``special.r_h_scaled``, the Bessel product the
  exact cumulant generating function reads, against its four-Bessel
  definition in 40-digit arithmetic;
* ``clt_test`` runs Kolmogorov-Smirnov tests of the standardized central
  limit statistics of a batch against the standard normal law.

The harness judges batches and draws none: the caller draws a batch in
``sim`` and passes it as ``result``, beside the horizon, size and seed it
was drawn at, which are checked against it.

scipy is slow to import, so each function loads only what it calls:
``gamma_contour_oracle`` loads ``scipy.integrate``, ``clt_test``
``scipy.stats`` and ``r_h_oracle`` (through ``r_h_scaled``)
``scipy.special``; ``mc_tail`` and ``legendre_oracle`` (a golden-section
search) load no scipy module. ``r_h_oracle`` also imports mpmath, which
the ``test`` extra installs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import ENERGY, Functional
from .mle import MLE
from .model import ModelParams
from .sim import BatchResult, clt_statistics
from .special import r_h_scaled

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
    "r_h_oracle",
    "clt_test",
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
    """Closed form vs independent numerical computation.

    ``abs_err`` and ``rel_err`` are computed from ``lhs`` and ``rhs``;
    ``rel_err`` is None when ``|rhs|`` is at most 1e-300.
    """

    label: str
    lhs: float
    rhs: float
    abs_err: float = field(init=False)
    rel_err: Optional[float] = field(init=False)
    note: str = ""

    def __post_init__(self):
        err = abs(self.lhs - self.rhs)
        object.__setattr__(self, "abs_err", err)
        object.__setattr__(
            self, "rel_err", err / abs(self.rhs) if abs(self.rhs) > 1e-300 else None
        )


@dataclass(frozen=True)
class KSReport:
    """Kolmogorov-Smirnov statistic against N(0, 1) with critical values.

    ``crit_1pct`` and ``crit_5pct`` are the asymptotic one-sample critical
    values at ``n`` points, ``1.628/sqrt(n)`` and ``1.358/sqrt(n)``; the
    fields in order are the ``clt`` CSV's columns.
    """

    label: str
    ks_statistic: float
    n: int
    crit_1pct: float = field(init=False)
    crit_5pct: float = field(init=False)
    below_1pct: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "crit_1pct", 1.628 / math.sqrt(self.n))
        object.__setattr__(self, "crit_5pct", 1.358 / math.sqrt(self.n))
        object.__setattr__(self, "below_1pct", self.ks_statistic < self.crit_1pct)

    @property
    def statistic(self) -> float:
        """``ks_statistic`` under its former name, which perfbench's
        ``mc-tail`` check still reads."""
        return self.ks_statistic


def _check_batch(result: BatchResult, replicates: int, T: float, seed: int) -> None:
    # a batch of another size, horizon or seed would be read as the one
    # asked for; a batch put together by hand records no seed
    if result.replicates != replicates:
        raise ValueError(
            f"result holds {result.replicates} paths, not replicates={replicates}"
        )
    if result.grid.T != T:
        raise ValueError(f"result was drawn at horizon T={result.grid.T}, not T={T}")
    if result.seed is not None and result.seed != seed:
        raise ValueError(f"result was drawn at seed={result.seed}, not seed={seed}")


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
    *,
    with_order1: bool = False,
    result: BatchResult | None = None,
) -> MCReport:
    """Estimate a tail probability from a batch and compare to closed form.

    ``target`` is ``"energy"`` (event ``{S_T >= cT}``, or ``{S_T <= cT}``
    on the lower branch) or ``"mle"`` (event ``{theta_hat >= c}``, or
    ``{theta_hat <= c}`` for ``c < theta``). ``result`` is the batch of
    ``replicates`` paths drawn at the horizon ``T`` from ``seed``; one
    batch serves any number of levels, and one of another size, horizon or
    seed is an error. A level too rare for ``replicates`` paths is reported
    as underpowered without reading a batch, so none is needed for it; a
    level they resolve without a batch is an error. ``with_order1``
    applies to the energy only; it is an error for the estimator.
    """
    if result is not None:
        _check_batch(result, replicates, T, seed)
    approx, closed, underpowered = _mc_closed_form(
        params, target, c, T, replicates, with_order1
    )
    est = se = math.nan
    z = None
    if not underpowered:
        if result is None:
            raise ValueError(
                f"no batch to read: {replicates} paths resolve the {target} tail "
                f"at c={c}; pass the batch they were drawn in as result"
            )
        sample = _functional(target).sample(result)
        hits = np.sum(sample <= c) if approx.lower_tail else np.sum(sample >= c)
        est = float(hits) / replicates
        se = math.sqrt(max(est * (1.0 - est), 1e-300) / replicates)
        z = (est - closed) / se
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
        note=f"quadrature error {err:.1e}{warned}; off-symmetry residual {resid:.2e}",
    )


# ---------------------------------------------------------------------------
# the Bessel product r_H
# ---------------------------------------------------------------------------


def r_h_oracle(hurst: float, z: float) -> OracleReport:
    """``special.r_h_scaled`` against its four-Bessel definition.

    ``rhs`` is ``exp(-2z) r_H(z)`` with
    ``r_H(z) = pi z/sin(pi H) (I_H I_{1-H} + I_{-H} I_{H-1})(z)``,
    evaluated in 40-digit arithmetic by mpmath; the four products are
    positive, so nothing cancels.
    """
    import mpmath as mp

    lhs = r_h_scaled(hurst, z)
    with mp.workdps(40):
        h, x = mp.mpf(hurst), mp.mpf(z)
        four = (mp.besseli(h, x) * mp.besseli(1 - h, x)
                + mp.besseli(-h, x) * mp.besseli(h - 1, x))
        rhs = float(mp.pi * x / mp.sin(mp.pi * h) * four * mp.exp(-2 * x))
    return OracleReport(label=f"r_h H={hurst} z={z:.6g}", lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# central limit validation
# ---------------------------------------------------------------------------


def clt_test(
    params: ModelParams,
    T: float,
    replicates: int,
    seed: int,
    *,
    result: BatchResult,
) -> tuple[KSReport, KSReport]:
    """KS tests of the standardized energy and estimator samples vs N(0,1).

    ``result`` is the batch to test: ``replicates`` paths, at least 1000,
    drawn at the horizon ``T`` from ``seed``.
    """
    from scipy.stats import kstest

    _check_batch(result, replicates, T, seed)
    e_sample, m_sample = clt_statistics(result, params)
    reports = []
    for label, sample in (("energy clt", e_sample), ("mle clt", m_sample)):
        stat = kstest(sample, "norm").statistic
        reports.append(KSReport(label=f"{label} T={T}", ks_statistic=float(stat),
                                n=sample.size))
    return reports[0], reports[1]
