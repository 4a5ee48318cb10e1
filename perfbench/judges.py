"""Checks that judge the program's outputs, and the independent computations
they compare against.

Nothing here imports ``fousldp``. Statistical checks are set so that a
correct program fails one of them with a chance of about 1e-5 per run or
less:

* a z-test passes while ``|z| <= Z_BOUND`` (two-sided normal tail 6.8e-6);
* a law check compares the empirical distribution function of a sample
  with the exact one on a fixed grid of levels, and passes while the
  largest gap is within the Dvoretzky-Kiefer-Wolfowitz bound
  ``sqrt(log(2/ALPHA)/(2n))``, which holds for every ``n``;
* a two-sample check passes while the Kolmogorov-Smirnov distance is within
  ``sqrt(log(2/ALPHA)/2) sqrt((n+m)/(n m))``, the asymptotic bound at the
  same level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr
from scipy.stats import ks_2samp

import exact_ref as X
from exact_ref import Model

Z_BOUND = 4.5
ALPHA = 1e-6


@dataclass
class Checks:
    """Outcome of every judged operation of a run.

    An operation is one judged output. ``known_fault`` marks an operation
    that fails on every run because of a documented fault in the program; it
    counts in ``failed`` and leaves ``correct`` alone. Any other failure
    makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "", known_fault: bool = False) -> bool:
        ok = bool(ok)
        self.attempted += 1
        verdict = "PASS" if ok else ("FAIL (known fault)" if known_fault else "FAIL")
        self.lines.append(f"{verdict} {name}: {detail}")
        if not ok:
            if known_fault:
                self.failed += 1
            else:
                self.wrong.append(name)
        return ok

    @property
    def correct(self) -> bool:
        return not self.wrong


def z_check(checks: Checks, name: str, estimate: float, reference: float, se: float) -> float:
    z = (estimate - reference) / se
    checks.check(name, abs(z) <= Z_BOUND, f"{estimate:.6g} vs exact {reference:.6g}, z = {z:+.2f}")
    return z


def tail_check(checks: Checks, name: str, hits: int, n: int, p_exact: float) -> float:
    """z-test of a hit count against an exact tail probability."""
    se = math.sqrt(p_exact * (1.0 - p_exact) / n)
    return z_check(checks, name, hits / n, p_exact, se)


def mean_check(checks: Checks, name: str, sample: np.ndarray, mean_exact: float) -> float:
    se = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
    return z_check(checks, name, float(np.mean(sample)), mean_exact, se)


def dkw_bound(n: int) -> float:
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * n))


def grid_gap(sample: np.ndarray, levels: np.ndarray, cdf: np.ndarray) -> float:
    """Largest gap between the empirical and the exact distribution function
    over the levels."""
    below = np.searchsorted(np.sort(sample), levels, side="right") / sample.size
    return float(np.max(np.abs(below - cdf)))


def law_check(checks: Checks, name: str, sample, levels, cdf) -> float:
    gap = grid_gap(sample, levels, cdf)
    bound = dkw_bound(sample.size)
    checks.check(name, gap <= bound, f"sup gap {gap:.4g}, DKW bound {bound:.4g} (n = {sample.size})")
    return gap


def two_sample_check(checks: Checks, name: str, x: np.ndarray, y: np.ndarray) -> float:
    stat = float(ks_2samp(x, y).statistic)
    n, m = x.size, y.size
    bound = math.sqrt(math.log(2.0 / ALPHA) / 2.0) * math.sqrt((n + m) / (n * m))
    checks.check(name, stat <= bound, f"KS {stat:.4g}, bound {bound:.4g}")
    return stat


def ks_normal(sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample from N(0, 1)."""
    x = np.sort(sample)
    n = x.size
    cdf = ndtr(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def law_references(model: Model, T: float) -> dict:
    """Exact ``E S_T`` and the exact distribution functions of ``S_T`` and
    ``theta_hat`` at 41 levels, mean +- 4 limiting standard deviations."""
    theta = model.theta
    grid = np.linspace(-4.0, 4.0, 41)
    mean = X.energy_mean(model, T)
    e_levels = mean + math.sqrt(-T / (2.0 * theta**3)) * grid
    m_levels = theta + math.sqrt(-2.0 * theta / T) * grid
    return {
        "mean": mean,
        "e_levels": e_levels,
        "e_cdf": X.energy_cdf(model, e_levels, T),
        "m_levels": m_levels,
        "m_cdf": X.mle_cdf(model, m_levels, T),
    }


# ---------------------------------------------------------------------------
# independent closed forms of the limiting and truncated generating functions
# ---------------------------------------------------------------------------


def _limit_l(theta: float, a: float, b: float) -> float:
    return -0.5 * (a + theta + math.sqrt(theta * theta - 2.0 * b))


def _feasible(model: Model, a: float, b: float) -> bool:
    disc = model.theta**2 - 2.0 * b
    if not disc > 0:
        return False
    s = a + model.theta
    return math.sqrt(disc) > max(s, -model.delta_h * s)


def _edge(inside, outward: float) -> float:
    """Last point of ``inside`` on the ray from 0 in the direction ``outward``,
    within rounding; the ray is capped at ``2^40``."""
    good, step = 0.0, outward
    while inside(step):
        good, step = step, 2.0 * step
        if abs(step) > 2.0**40:
            return good
    bad = step
    for _ in range(200):
        mid = 0.5 * (good + bad)
        if mid in (good, bad):
            break
        good, bad = (mid, bad) if inside(mid) else (good, mid)
    return good


def rate_numeric(model: Model, target: str, c: float) -> float:
    """Rate at level ``c`` as the numerical Legendre transform of the
    limiting generating function over the closed effective domain.

    Energy: ``sup_t c t - L(0, t)``. Estimator: ``sup_t -L(t, -c t)``. The
    objective is concave on an interval, so a bounded search plus the value
    at the domain edges finds the supremum, interior or on the edge.
    """
    theta = model.theta
    if target == "energy":
        tilt = lambda t: (0.0, t)
        obj = lambda t: c * t - _limit_l(theta, 0.0, t)
    else:
        tilt = lambda t: (t, -c * t)
        obj = lambda t: -_limit_l(theta, t, -c * t)
    inside = lambda t: _feasible(model, *tilt(t))
    lo, hi = _edge(inside, -1.0), _edge(inside, 1.0)
    res = minimize_scalar(lambda t: -obj(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return max(-res.fun, obj(lo), obj(hi))


def saddle_residual(model: Model, a: float, c: float, T: float) -> float:
    """``d/da [L + (H + K)/T](a) - c`` for the energy section, with ``K``
    the limiting Bessel correction and ``phi = sqrt(theta^2 - 2a)``."""
    theta, p = model.theta, model.p_h
    phi = math.sqrt(theta * theta - 2.0 * a)
    l1 = 1.0 / (2.0 * phi)
    h1 = (1.0 / (phi - theta) - 1.0 / phi) / (2.0 * phi)
    k1 = ((2.0 + p) / ((2.0 + p) * phi + p * theta) - 1.0 / phi) / (2.0 * phi)
    return l1 + (h1 + k1) / T - c


def gamma_contour_trapezoid(a, nu, gamma, sigma2, T, ell) -> complex:
    """``int exp(-sigma2 u^2/(2T)) u^ell (1 - 2i nu u)^(-a) e^{-i gamma u} du``
    over the real line by the trapezoidal rule.

    The integrand is analytic within ``1/(2 nu)`` of the real axis, so a step
    of an eighth of that distance leaves an aliasing error far below 1e-13;
    the range is cut where the Gaussian factor is ``e^-60``.
    """
    h = 1.0 / (16.0 * nu)
    U = math.sqrt(120.0 * T / sigma2)
    u = np.arange(-math.ceil(U / h), math.ceil(U / h) + 1) * h
    f = np.exp(-sigma2 * u * u / (2.0 * T) - 1j * gamma * u) * u**ell * (1.0 - 2j * nu * u) ** (-a)
    return complex(h * f.sum())
