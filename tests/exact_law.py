r"""Exact finite-horizon laws of the energy and the drift estimator.

Both functionals are read off the exact cumulant generating function

.. math::
    \Lambda_T(a, b) = \log E \exp\Bigl(a \int_0^T Q\,dY + b\,S_T\Bigr)
                    = T L + H + K_T + R_T,

the paper's four-term split evaluated at complex tilts (``fousldp.model``
evaluates it at real tilts, with ``K_T + R_T`` as one log). Along
a direction ``(p, q)`` the statistic ``X = p int Q dY + q S_T`` has the
moment generating function ``exp(K(w))`` with ``K(w) = Lambda_T(p w, q w)``,
and for any abscissa ``w0 != 0`` inside the domain of ``K`` the Bromwich
integral

.. math::
    \frac{1}{2\pi i}\int_{w_0 - i\infty}^{w_0 + i\infty}
        \frac{e^{K(w) - w x}}{w}\,dw

equals ``P(X >= x)`` when ``w0 > 0`` and ``-P(X < x)`` when ``w0 < 0``.

* energy: ``(p, q) = (0, 1)``, so ``{S_T >= c T}`` is ``{X >= c T}``;
* estimator: ``(p, q) = (1, -c)``, so ``{theta_hat >= c}`` is ``{X >= 0}``
  because ``S_T > 0``.

Two routes are provided. The double-precision route evaluates the Bessel
products with ``scipy.special.ive`` at complex arguments, tracks the branch
of the square root of the Laplace denominator continuously along the
contour, and applies the trapezoidal rule, which converges geometrically
for integrands analytic in a strip around the line. The mpmath route is an
independent high-precision check of the same integral by adaptive
quadrature.
"""

import math

import numpy as np
import pytest
from scipy.special import ive

from fousldp.model import ModelParams

#: the trapezoidal step is this fraction of the distance from the contour
#: to the pole at the origin (aliasing error about exp(-2 pi / fraction))
_STEP_FRACTION = 1.0 / 8.0
#: the contour is truncated once the integrand falls below this fraction of
#: its value on the real axis
_TRUNCATION = 1e-16
_MAX_NODES = 1 << 16
#: thresholds inverted together, which bounds the working arrays
_ROWS = 256


def log_mgf_on_line(params: ModelParams, T: float, p, q, w) -> np.ndarray:
    """``K(w) = Lambda_T(p w, q w)`` along the last axis of ``w``.

    ``w[..., 0]`` must be real and inside the domain; the branch of the
    square root of the Laplace denominator is continued from there along
    the last axis, so consecutive points must be close enough for its
    argument to be unwrapped. ``p`` and ``q`` broadcast against ``w``.
    """
    w = np.asarray(w, dtype=complex)
    theta, hurst = params.theta, params.hurst
    a, b = p * w, q * w
    phi = np.sqrt(theta * theta - 2.0 * b + 0j)
    tau = phi - (a + theta)
    z = phi * (T / 2.0)
    # Bessel products scaled by exp(-2 z); ive removes exp(|Re z|) per factor
    bessel = ive(hurst, z) * ive(1.0 - hurst, z) + ive(-hurst, z) * ive(hurst - 1.0, z)
    r_t = math.pi * z / params.sin_pi_h * bessel * np.exp(-2j * z.imag) - 1.0
    two_phi = 2.0 * phi
    d_h = tau / two_phi
    d_k = 1.0 + (two_phi - tau) * r_t / two_phi
    d_r = 1.0 + (two_phi - tau) ** 2 / (tau * (two_phi + r_t * (two_phi - tau))) * np.exp(
        -T * two_phi
    )
    arg = np.unwrap(np.angle(d_h) + np.angle(d_k) + np.angle(d_r), axis=-1)
    log_abs = np.log(np.abs(d_h * d_k * d_r))
    return -0.5 * T * (a + theta + phi) - 0.5 * (log_abs + 1j * arg)


def _real_log_mgf(params, T, p, q, w) -> float:
    val = complex(log_mgf_on_line(params, T, p, q, [w])[0])
    if not math.isfinite(val.real) or abs(val.imag) > 1e-9:
        raise ValueError(f"tilt w={w} lies outside the finite-horizon domain")
    return val.real


def bromwich(params: ModelParams, T: float, w0: float, x, p=0.0, q=1.0) -> np.ndarray:
    """The Bromwich integral along ``Re w = w0`` for each threshold ``x``.

    Returns ``P(X >= x)`` for ``w0 > 0`` and ``-P(X < x)`` for ``w0 < 0``,
    where ``X = p int Q dY + q S_T``; ``x``, ``p`` and ``q`` broadcast to
    one statistic per threshold.
    """
    if w0 == 0.0:
        raise ValueError("the contour must avoid the pole at the origin")
    x, p, q = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in (x, p, q)))
    # step from the pole distance and the width of the tilted law
    mid = x.size // 2
    dw = 1e-3 * abs(w0)
    k = [_real_log_mgf(params, T, p[mid], q[mid], w0 + j * dw) for j in (-1, 0, 1)]
    curvature = max((k[0] - 2.0 * k[1] + k[2]) / (dw * dw), 1e-300)
    h = min(abs(w0) * _STEP_FRACTION, 0.125 / math.sqrt(curvature))
    out = np.empty(x.size)
    for lo in range(0, x.size, _ROWS):
        rows = slice(lo, lo + _ROWS)
        xr, pr, qr = (v[rows, None] for v in (x, p, q))
        if np.all(pr == pr[0]) and np.all(qr == qr[0]):
            # one statistic for every threshold: evaluate the law once
            pr, qr = pr[:1], qr[:1]
        n = 256
        while True:
            w = w0 + 1j * h * np.arange(n)
            f = np.exp(log_mgf_on_line(params, T, pr, qr, w) - w * xr) / w
            tail = np.max(np.abs(f[:, -n // 4 :]), axis=1)
            if np.all(tail < _TRUNCATION * np.abs(f[:, 0])):
                break
            if n >= _MAX_NODES:
                raise ArithmeticError("Bromwich integrand did not decay along the contour")
            n *= 2
        # trapezoidal rule on the half line; the real part is even in y
        out[rows] = h * (f.real.sum(axis=1) - 0.5 * f[:, 0].real) / math.pi
    return out


def energy_mean(params: ModelParams, T: float) -> float:
    """``E S_T``, the derivative of ``Lambda_T(0, b)`` at ``b = 0``."""
    h = 1e-4 / math.sqrt(T)
    k = [_real_log_mgf(params, T, 0.0, 1.0, j * h) for j in (-2, -1, 1, 2)]
    return (k[0] - 8.0 * k[1] + 8.0 * k[2] - k[3]) / (12.0 * h)


def _cdf(params, T, x, upper, scale, p, q) -> np.ndarray:
    # P(X < x), inverted on the side of the mean away from each threshold
    x, upper, p, q = np.broadcast_arrays(x, upper, p, q)
    out = np.empty(x.size)
    for side, sign in ((upper, 1.0), (~upper, -1.0)):
        if np.any(side):
            val = bromwich(params, T, sign / scale, x[side], p[side], q[side])
            out[side] = 1.0 - val if sign > 0 else -val
    return out


def energy_cdf(params: ModelParams, s, T: float) -> np.ndarray:
    """``P(S_T <= s)`` at each level ``s``."""
    theta = params.theta
    s = np.atleast_1d(np.asarray(s, dtype=float))
    scale = math.sqrt(-T / (2.0 * theta**3))
    return _cdf(params, T, s, s >= -T / (2.0 * theta), scale, 0.0, 1.0)


def mle_cdf(params: ModelParams, c, T: float) -> np.ndarray:
    """``P(theta_hat_T <= c)`` at each level ``c``."""
    theta = params.theta
    c = np.atleast_1d(np.asarray(c, dtype=float))
    scale = math.sqrt(-T / (2.0 * theta))
    return _cdf(params, T, 0.0, c >= theta, scale, 1.0, -c)


def energy_tail(params: ModelParams, c: float, T: float) -> float:
    """``P(S_T >= c T)`` for ``-1/(2 theta) < c < c*``, inverted through the
    limiting saddlepoint ``(4 theta^2 c^2 - 1)/(8 c^2)``."""
    w0 = (4.0 * params.theta**2 * c * c - 1.0) / (8.0 * c * c)
    if not 0 < w0 < params.a_h:
        raise ValueError(f"c={c} is not an interior upper-tail level of the energy")
    return float(bromwich(params, T, w0, c * T)[0])


def mle_tail(params: ModelParams, c: float, T: float) -> float:
    """``P(theta_hat_T >= c)`` for ``theta < c < theta/3``, inverted through
    the limiting saddlepoint ``(c^2 - theta^2)/(2 c)``."""
    theta = params.theta
    if not theta < c < theta / 3.0:
        raise ValueError(f"c={c} is not an upper-tail level of the estimator")
    w0 = (c * c - theta * theta) / (2.0 * c)
    return float(bromwich(params, T, w0, 0.0, 1.0, -c)[0])


def contour_tail_mpmath(theta, hurst, p, q, x, T, w_guess, dps=25):
    """``P(X >= x)`` for ``X = p int Q dY + q S_T`` by adaptive
    high-precision quadrature of the same Bromwich integral, along the exact
    saddlepoint abscissa (found from ``w_guess``).

    The contour runs to 40 standard deviations of the tilted law on either
    side of the real axis; truncating it at 10 loses about 1e-6 of the
    energy tail at ``c = 0.7, T = 40``.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        th = mp.mpf(theta)
        H = mp.mpf(hurst)

        def cgf(w):
            a, b = p * w, q * w
            phi = mp.sqrt(th**2 - 2 * b)
            tau = phi - (a + th)
            z = phi * T / 2
            rT = (
                mp.pi
                * z
                / mp.sin(mp.pi * H)
                * (
                    mp.besseli(H, z) * mp.besseli(1 - H, z)
                    + mp.besseli(-H, z) * mp.besseli(H - 1, z)
                )
                * mp.exp(-2 * z)
                - 1
            )
            lt = -(a + th + phi) / 2
            ht = -mp.log(tau / (2 * phi)) / 2
            kt = -mp.log(1 + (2 * phi - tau) * rT / (2 * phi)) / 2
            rt = (
                -mp.log(
                    1
                    + (2 * phi - tau) ** 2
                    / (tau * (2 * phi + rT * (2 * phi - tau)))
                    * mp.exp(-2 * T * phi)
                )
                / 2
            )
            return T * lt + ht + kt + rt

        what = mp.findroot(lambda w: mp.diff(cgf, w) - x, mp.mpf(w_guess))
        m2 = mp.diff(cgf, what, 2)
        Y = 40 / mp.sqrt(m2)

        def integrand(y):
            w = what + 1j * y
            return (mp.e ** (cgf(w) - x * w) / w).real

        # the real part is even in y
        val = mp.quad(integrand, [0, Y / 16, Y / 8, Y / 4, Y / 2, Y], maxdegree=7)
        return float(mp.re(val) / mp.pi)
