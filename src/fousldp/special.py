r"""The Bessel product of the exact cumulant generating function.

.. math::
    r_H(z) = \frac{\pi z}{\sin(\pi H)}
        \bigl(I_H(z) I_{1-H}(z) + I_{-H}(z) I_{H-1}(z)\bigr)

The model reads it in the overflow-free form ``exp(-2z) r_H(z)``.

``r_H`` needs only two of its four Bessel values. The Wronskian
(DLMF 10.28.1) with the recurrences for ``I_{nu-1}`` gives
``I_{-H} I_{H-1} - I_H I_{1-H} = 2 sin(pi H)/(pi z)``, hence

.. math::
    e^{-2z} r_H(z) = \frac{2\pi z}{\sin(\pi H)}\,
        \mathrm{Ie}_H(z)\,\mathrm{Ie}_{1-H}(z) + 2 e^{-2z},

with ``Ie`` the scaled Bessel value ``scipy.special.ive``. Every term is
positive, so nothing cancels. ``ive`` is imported inside ``r_h_scaled``:
importing ``scipy.special`` takes about a third of a second, which the
commands that evaluate no Bessel function should not pay.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

__all__ = ["r_h", "r_h_scaled"]


def r_h_scaled(hurst: float, z: float) -> float:
    """The combination ``exp(-2z) r_H(z)``, overflow-free.

    This is the form used throughout the model:
    ``r_T(b) = r_h_scaled(H, phi*T/2) - 1`` exactly. It is evaluated as
    ``2 pi z/sin(pi H) Ie_H Ie_{1-H} + 2 e^{-2z}`` (see the module
    docstring).
    """
    # H = 1/2 is admitted here (degeneracy checks) even though the model
    # modules require H > 1/2 strictly
    if not 0.5 <= hurst < 1.0:
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {hurst}")
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
