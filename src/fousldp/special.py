r"""Modified Bessel functions of the first kind and related special functions.

Provides :math:`I_\nu(z)` for real, possibly negative and non-integer order
(all orders needed here lie in ``(-1, 1)``), the exponentially scaled variant
:math:`e^{-z} I_\nu(z)`, the real Gamma function on negative arguments, and
the Bessel-product combination

.. math::
    r_H(z) = \frac{\pi z}{\sin(\pi H)}
        \bigl(I_H(z) I_{1-H}(z) + I_{-H}(z) I_{H-1}(z)\bigr)

together with the first two coefficients of its large-argument expansion.

Every scaled Bessel value comes from ``scipy.special.ive``, one method at
every ``z``. It is imported inside the functions that call it: importing
``scipy.special`` takes about a third of a second, which the commands that
evaluate no Bessel function should not pay.

``r_H`` needs only two of its four Bessel values. The Wronskian
(DLMF 10.28.1) with the recurrences for ``I_{nu-1}`` gives
``I_{-H} I_{H-1} - I_H I_{1-H} = 2 sin(pi H)/(pi z)``, hence

.. math::
    e^{-2z} r_H(z) = \frac{2\pi z}{\sin(\pi H)}\,
        \mathrm{Ie}_H(z)\,\mathrm{Ie}_{1-H}(z) + 2 e^{-2z},

with ``Ie`` the scaled Bessel value. Every term is positive, so nothing
cancels.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "gamma_real",
    "bessel_i",
    "bessel_i_scaled",
    "r_h",
    "r_h_scaled",
    "r_h_coeffs",
    "RHExpansion",
]


def gamma_real(x: float) -> float:
    """Gamma function on the real line, poles excluded.

    The value is ``math.gamma(x)``, negative non-integer arguments
    included; this function only turns the poles and non-finite arguments
    into a ``ValueError``.

    Raises
    ------
    ValueError
        If ``x`` is zero or a negative integer (pole of Gamma).
    """
    if not math.isfinite(x):
        raise ValueError(f"gamma_real requires a finite argument, got {x!r}")
    if x <= 0 and x == math.floor(x):
        raise ValueError(f"gamma_real: pole at non-positive integer x={x}")
    return math.gamma(x)


def bessel_i_scaled(nu: float, z: float) -> float:
    """Exponentially scaled modified Bessel function ``exp(-z) I_nu(z)``.

    Stable for ``z`` up to 1e6 and beyond; the unscaled value would
    overflow for ``z`` around 700.
    """
    if not z > 0:
        raise ValueError(f"bessel_i_scaled requires z > 0, got z={z}")
    if abs(nu) >= 2:
        raise ValueError(f"order out of supported range |nu| < 2, got nu={nu}")
    from scipy.special import ive

    return float(ive(nu, z))


def bessel_i(nu: float, z: float) -> float:
    """Modified Bessel function of the first kind ``I_nu(z)`` for ``z > 0``.

    Relative accuracy better than 1e-12 on ``z in (0, 500]``.

    Raises
    ------
    OverflowError
        If ``exp(z)`` exceeds the double range; use :func:`bessel_i_scaled`.
    """
    if z > 709.0:
        raise OverflowError(
            f"bessel_i overflows for z={z}; use bessel_i_scaled instead"
        )
    return bessel_i_scaled(nu, z) * math.exp(z)


def r_h_scaled(hurst: float, z: float) -> float:
    """The combination ``exp(-2z) r_H(z)``, overflow-free.

    This is the form used throughout the model:
    ``r_T(b) = r_h_scaled(H, phi*T/2) - 1`` exactly. It is evaluated as
    ``2 pi z/sin(pi H) Ie_H Ie_{1-H} + 2 e^{-2z}`` (see the module
    docstring).
    """
    _check_hurst_half_open(hurst)
    if not z > 0:
        raise ValueError(f"r_h_scaled requires z > 0, got z={z}")
    from scipy.special import ive

    pair = 2.0 * math.pi * z * float(ive(hurst, z)) * float(ive(1.0 - hurst, z))
    return pair / math.sin(math.pi * hurst) + 2.0 * math.exp(-2.0 * z)


def r_h(hurst: float, z: float) -> float:
    """``r_H(z)`` for ``z > 0`` and ``H in [1/2, 1)``.

    For ``H = 1/2`` this reduces to ``exp(2z) + exp(-2z)`` (duplication
    formula degeneracy).

    Raises
    ------
    OverflowError
        If the unscaled value exceeds the double range; use :func:`r_h_scaled`.
    """
    scaled = r_h_scaled(hurst, z)
    if 2.0 * z + math.log(scaled) > 709.0:
        raise OverflowError(f"r_h overflows for z={z}; use r_h_scaled instead")
    return scaled * math.exp(2.0 * z)


@dataclass(frozen=True)
class RHExpansion:
    """Truncated large-argument expansion coefficients of ``r_H``.

    ``sin(pi H) exp(-2z) r_H(z) = 1 + sum_k coefficients[k-1] / z^k + ...``
    All coefficients vanish when ``H = 1/2`` exactly.
    """

    coefficients: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients)


def r_h_coeffs(hurst: float, p: int) -> RHExpansion:
    """First ``p`` expansion coefficients of ``r_H`` (``p`` in {1, 2}).

    Higher coefficients are not available in closed form here.
    """
    _check_hurst_half_open(hurst)
    if p not in (1, 2):
        raise ValueError(f"unsupported expansion order p={p}; only p in {{1, 2}}")
    m = 2.0 * hurst - 1.0
    r1 = -(m * m) / 4.0
    if p == 1:
        return RHExpansion((r1,))
    r2 = m * m * (2.0 * hurst + 1.0) * (2.0 * hurst - 3.0) / 32.0
    return RHExpansion((r1, r2))


def _check_hurst_half_open(hurst: float) -> None:
    # H = 1/2 is admitted here (degeneracy checks) even though the model
    # modules require H > 1/2 strictly
    if not 0.5 <= hurst < 1.0:
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {hurst}")
