r"""Exact finite-horizon laws of the energy and the drift estimator.

This is the benchmark's judge. It depends on numpy and scipy only, never on
``fousldp``, so a change to the package cannot move the reference it is
judged against.

The exact cumulant generating function of the tilt
``a int Q dY + b S_T`` is

    Lambda_T(a, b) = -T (a + theta + phi)/2
                     - (1/2) log[ tau/(2 phi) ]
                     - (1/2) log[ 1 + (2 phi - tau) r_T/(2 phi) ]
                     - (1/2) log[ 1 + (2 phi - tau)^2 e^{-2 T phi}
                                      / (tau (2 phi + r_T (2 phi - tau))) ]

with ``phi = sqrt(theta^2 - 2 b)``, ``tau = phi - (a + theta)``,
``z = phi T/2`` and ``r_T = pi z/sin(pi H) [I_H I_{1-H} + I_{-H} I_{H-1}](z)
e^{-2z} - 1``. Along a direction ``(p, q)`` the statistic
``X = p int Q dY + q S_T`` has the moment generating function
``exp(K(w))``, ``K(w) = Lambda_T(p w, q w)``, and for an abscissa ``w0 != 0``
inside the domain of ``K`` the Bromwich integral

    (1/(2 pi i)) int_{w0 - i inf}^{w0 + i inf} e^{K(w) - w x} / w dw

equals ``P(X >= x)`` for ``w0 > 0`` and ``-P(X < x)`` for ``w0 < 0``.
The energy uses ``(p, q) = (0, 1)`` and the estimator ``(1, -c)``: since
``S_T > 0``, ``{theta_hat >= c}`` is ``{X >= 0}``. The integral is taken by
the trapezoidal rule, which converges geometrically for an integrand
analytic in a strip about the line; the square root of the Laplace
denominator is continued along the contour by unwrapping its argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

#: trapezoidal step as a fraction of the distance from the contour to the
#: pole at the origin (aliasing error about exp(-2 pi / fraction))
_STEP_FRACTION = 1.0 / 8.0
#: the contour is cut once the integrand is below this share of its value on
#: the real axis
_TRUNCATION = 1e-16
_MAX_NODES = 1 << 16
#: thresholds inverted together, which bounds the working arrays
_ROWS = 256


@dataclass(frozen=True)
class Model:
    """Drift ``theta < 0`` and Hurst index ``1/2 < H < 1``."""

    theta: float
    hurst: float

    @property
    def sin_pi_h(self) -> float:
        return math.sin(math.pi * self.hurst)

    @property
    def delta_h(self) -> float:
        s = self.sin_pi_h
        return (1.0 - s) / (1.0 + s)

    @property
    def p_h(self) -> float:
        s = self.sin_pi_h
        return (1.0 - s) / s

    @property
    def a_h(self) -> float:
        """Right end of the energy tilt domain."""
        return self.theta**2 * (1.0 - self.delta_h**2) / 2.0

    @property
    def c_star(self) -> float:
        """Steepness threshold of the energy rate."""
        return -1.0 / (2.0 * self.theta * self.delta_h)


def r_h_scaled(hurst: float, z) -> np.ndarray:
    """``e^{-2z} r_H(z)`` from ``scipy.special.ive``."""
    z = np.asarray(z, dtype=float)
    prod = ive(hurst, z) * ive(1.0 - hurst, z) + ive(-hurst, z) * ive(hurst - 1.0, z)
    return math.pi * z / math.sin(math.pi * hurst) * prod


def cgf(model: Model, a: float, b: float, T: float) -> float:
    """``Lambda_T(a, b)`` at a real tilt inside the domain."""
    theta = model.theta
    phi = math.sqrt(theta * theta - 2.0 * b)
    tau = phi - (a + theta)
    r_t = float(r_h_scaled(model.hurst, phi * T / 2.0)) - 1.0
    two_phi = 2.0 * phi
    d_h = tau / two_phi
    d_k = 1.0 + (two_phi - tau) * r_t / two_phi
    d_r = 1.0 + (two_phi - tau) ** 2 / (tau * (two_phi + r_t * (two_phi - tau))) * math.exp(
        -T * two_phi
    )
    if not (d_h > 0 and d_k > 0 and d_r > 0):
        raise ValueError(f"tilt ({a}, {b}) lies outside the domain at T={T}")
    return -0.5 * T * (a + theta + phi) - 0.5 * math.log(d_h * d_k * d_r)


def log_mgf_on_line(model: Model, T: float, p, q, w) -> np.ndarray:
    """``K(w) = Lambda_T(p w, q w)`` along the last axis of ``w``.

    ``w[..., 0]`` must be real and inside the domain; the branch of the
    square root of the Laplace denominator is continued from there, so
    consecutive points must be close enough for its argument to unwrap.
    """
    w = np.asarray(w, dtype=complex)
    theta, hurst = model.theta, model.hurst
    a, b = p * w, q * w
    phi = np.sqrt(theta * theta - 2.0 * b + 0j)
    tau = phi - (a + theta)
    z = phi * (T / 2.0)
    # ive removes exp(|Re z|) per factor; the phase exp(-2i Im z) restores
    # the scaling by exp(-2z)
    bessel = ive(hurst, z) * ive(1.0 - hurst, z) + ive(-hurst, z) * ive(hurst - 1.0, z)
    r_t = math.pi * z / model.sin_pi_h * bessel * np.exp(-2j * z.imag) - 1.0
    two_phi = 2.0 * phi
    d_h = tau / two_phi
    d_k = 1.0 + (two_phi - tau) * r_t / two_phi
    d_r = 1.0 + (two_phi - tau) ** 2 / (tau * (two_phi + r_t * (two_phi - tau))) * np.exp(
        -T * two_phi
    )
    arg = np.unwrap(np.angle(d_h) + np.angle(d_k) + np.angle(d_r), axis=-1)
    log_abs = np.log(np.abs(d_h * d_k * d_r))
    return -0.5 * T * (a + theta + phi) - 0.5 * (log_abs + 1j * arg)


def _real_k(model, T, p, q, w) -> float:
    val = complex(log_mgf_on_line(model, T, p, q, [w])[0])
    if not math.isfinite(val.real) or abs(val.imag) > 1e-9:
        raise ValueError(f"tilt w={w} lies outside the finite-horizon domain")
    return val.real


def _bromwich(model: Model, T: float, w0: float, x, p=0.0, q=1.0):
    """The Bromwich integral along ``Re w = w0`` for each threshold ``x``.

    Returns ``(scaled, log_scale)``: the integral is
    ``scaled * exp(log_scale)``, with ``log_scale = K(w0) - w0 x`` per
    threshold, so that tails far below the double range keep their digits.
    """
    if w0 == 0.0:
        raise ValueError("the contour must avoid the pole at the origin")
    x, p, q = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in (x, p, q)))
    mid = x.size // 2
    dw = 1e-3 * abs(w0)
    k = [_real_k(model, T, p[mid], q[mid], w0 + j * dw) for j in (-1, 0, 1)]
    curvature = max((k[0] - 2.0 * k[1] + k[2]) / (dw * dw), 1e-300)
    h = min(abs(w0) * _STEP_FRACTION, 0.125 / math.sqrt(curvature))
    scaled = np.empty(x.size)
    log_scale = np.empty(x.size)
    for lo in range(0, x.size, _ROWS):
        rows = slice(lo, lo + _ROWS)
        xr, pr, qr = (v[rows, None] for v in (x, p, q))
        if np.all(pr == pr[0]) and np.all(qr == qr[0]):
            pr, qr = pr[:1], qr[:1]
        n = 256
        while True:
            w = w0 + 1j * h * np.arange(n)
            expo = log_mgf_on_line(model, T, pr, qr, w) - w * xr
            shift = expo[:, :1].real
            f = np.exp(expo - shift) / w
            tail = np.max(np.abs(f[:, -n // 4 :]), axis=1)
            if np.all(tail < _TRUNCATION * np.abs(f[:, 0])):
                break
            if n >= _MAX_NODES:
                raise ArithmeticError("Bromwich integrand did not decay along the contour")
            n *= 2
        # trapezoidal rule on the half line; the real part is even in y
        scaled[rows] = h * (f.real.sum(axis=1) - 0.5 * f[:, 0].real) / math.pi
        log_scale[rows] = shift[:, 0]
    return scaled, log_scale


def bromwich(model: Model, T: float, w0: float, x, p=0.0, q=1.0) -> np.ndarray:
    """``P(X >= x)`` for ``w0 > 0`` and ``-P(X < x)`` for ``w0 < 0``."""
    scaled, log_scale = _bromwich(model, T, w0, x, p, q)
    return scaled * np.exp(log_scale)


def energy_mean(model: Model, T: float) -> float:
    """``E S_T``, the derivative of ``Lambda_T(0, b)`` at ``b = 0``."""
    h = 1e-4 / math.sqrt(T)
    k = [_real_k(model, T, 0.0, 1.0, j * h) for j in (-2, -1, 1, 2)]
    return (k[0] - 8.0 * k[1] + 8.0 * k[2] - k[3]) / (12.0 * h)


def _cdf(model, T, x, upper, scale, p, q) -> np.ndarray:
    # P(X < x), inverted on the side of the mean away from each threshold
    x, upper, p, q = np.broadcast_arrays(x, upper, p, q)
    out = np.empty(x.size)
    for side, sign in ((upper, 1.0), (~upper, -1.0)):
        if np.any(side):
            val = bromwich(model, T, sign / scale, x[side], p[side], q[side])
            out[side] = 1.0 - val if sign > 0 else -val
    return out


def energy_cdf(model: Model, s, T: float) -> np.ndarray:
    """``P(S_T <= s)`` at each level ``s``."""
    theta = model.theta
    s = np.atleast_1d(np.asarray(s, dtype=float))
    scale = math.sqrt(-T / (2.0 * theta**3))
    return _cdf(model, T, s, s >= -T / (2.0 * theta), scale, 0.0, 1.0)


def mle_cdf(model: Model, c, T: float) -> np.ndarray:
    """``P(theta_hat_T <= c)`` at each level ``c``."""
    theta = model.theta
    c = np.atleast_1d(np.asarray(c, dtype=float))
    scale = math.sqrt(-T / (2.0 * theta))
    return _cdf(model, T, 0.0, c >= theta, scale, 1.0, -c)


def _energy_w0(model: Model, c: float) -> float:
    w0 = (4.0 * model.theta**2 * c * c - 1.0) / (8.0 * c * c)
    if not 0 < w0 < model.a_h:
        raise ValueError(f"c={c} is not an interior upper-tail level of the energy")
    return w0


def _mle_w0(model: Model, c: float) -> float:
    theta = model.theta
    if not theta < c < theta / 3.0:
        raise ValueError(f"c={c} is not an interior upper-tail level of the estimator")
    return (c * c - theta * theta) / (2.0 * c)


def energy_tail(model: Model, c: float, T: float) -> float:
    """``P(S_T >= c T)`` for ``-1/(2 theta) < c < c*``."""
    return float(bromwich(model, T, _energy_w0(model, c), c * T)[0])


def mle_tail(model: Model, c: float, T: float) -> float:
    """``P(theta_hat_T >= c)`` for ``theta < c < theta/3``."""
    return float(bromwich(model, T, _mle_w0(model, c), 0.0, 1.0, -c)[0])


def log_energy_tail(model: Model, c: float, T: float) -> float:
    """``log P(S_T >= c T)``, finite where the tail underflows."""
    scaled, log_scale = _bromwich(model, T, _energy_w0(model, c), c * T)
    return float(log_scale[0] + math.log(scaled[0]))


def log_mle_tail(model: Model, c: float, T: float) -> float:
    """``log P(theta_hat_T >= c)``, finite where the tail underflows."""
    scaled, log_scale = _bromwich(model, T, _mle_w0(model, c), 0.0, 1.0, -c)
    return float(log_scale[0] + math.log(scaled[0]))
