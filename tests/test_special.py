"""Tests of the Bessel and Gamma machinery against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from fousldp.special import (
    bessel_i,
    bessel_i_scaled,
    gamma_real,
    r_h,
    r_h_coeffs,
    r_h_scaled,
)

mp.mp.dps = 40

ORDERS = [0.25, -0.75, 0.6, 0.9, -0.9, 0.55, -0.45]


def mp_bessel_scaled(nu, z):
    return float(mp.besseli(nu, mp.mpf(z)) * mp.exp(-mp.mpf(z)))


class TestGammaReal:
    def test_positive_values(self):
        assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-14)
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_negative_noninteger(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert gamma_real(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
        ref = float(mp.gamma(mp.mpf("-1.3")))
        assert gamma_real(-1.3) == pytest.approx(ref, rel=1e-13)

    def test_poles_rejected(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                gamma_real(x)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            gamma_real(math.inf)


class TestBesselI:
    @pytest.mark.parametrize("nu", ORDERS)
    @pytest.mark.parametrize("z", [0.01, 0.1, 1.0, 5.0, 19.0, 21.0, 50.0, 200.0, 500.0])
    def test_against_extended_precision(self, nu, z):
        assert bessel_i_scaled(nu, z) == pytest.approx(
            mp_bessel_scaled(nu, z), rel=1e-12
        )

    @pytest.mark.parametrize("nu", [0.25, -0.75, 0.6])
    @pytest.mark.parametrize("z", [0.5, 3.0, 30.0, 300.0])
    def test_unscaled(self, nu, z):
        ref = float(mp.besseli(nu, mp.mpf(z)))
        assert bessel_i(nu, z) == pytest.approx(ref, rel=1e-12)

    def test_unscaled_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_i(0.25, 800.0)

    def test_half_integer_closed_forms(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z, I_{-1/2}(z) = sqrt(2/(pi z)) cosh z
        for z in (0.3, 2.0, 10.0, 40.0):
            pref = math.sqrt(2.0 / (math.pi * z))
            assert bessel_i_scaled(0.5, z) == pytest.approx(
                pref * math.sinh(z) * math.exp(-z), rel=1e-12
            )
            assert bessel_i_scaled(-0.5, z) == pytest.approx(
                pref * math.cosh(z) * math.exp(-z), rel=1e-12
            )

    @pytest.mark.parametrize("nu", [0.25, 0.6, -0.3])
    @pytest.mark.parametrize("z", [0.5, 4.0, 25.0, 120.0])
    def test_three_term_recurrence(self, nu, z):
        # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)
        lhs = bessel_i_scaled(nu - 1.0, z) - bessel_i_scaled(nu + 1.0, z)
        rhs = 2.0 * nu / z * bessel_i_scaled(nu, z)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(0.25, -1.0)
        with pytest.raises(ValueError):
            bessel_i_scaled(2.5, 1.0)

    def test_scaled_stable_for_huge_argument(self):
        val = bessel_i_scaled(0.25, 1e6)
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 1e6), rel=1e-6)


class TestRH:
    def test_h_half_degeneracy(self):
        # at H = 1/2 the combination collapses to e^{2z} + e^{-2z}
        for z in np.linspace(0.1, 50.0, 120):
            expect = math.exp(2.0 * z) + math.exp(-2.0 * z)
            assert r_h(0.5, float(z)) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 20.0, 25.0, 100.0, 1000.0])
    def test_against_extended_precision(self, hurst, z):
        h = mp.mpf(hurst)
        zz = mp.mpf(z)
        ref = (
            mp.pi
            * zz
            / mp.sin(mp.pi * h)
            * (
                mp.besseli(h, zz) * mp.besseli(1 - h, zz)
                + mp.besseli(-h, zz) * mp.besseli(h - 1, zz)
            )
        )
        assert r_h_scaled(hurst, z) == pytest.approx(
            float(ref * mp.exp(-2 * zz)), rel=1e-11
        )

    def test_wronskian_form_matches_four_factor_form(self):
        # the Wronskian form against all four Bessel values
        cases = [
            (0.01, math.nextafter(20.0, 0.0), 1e-14),
            (20.0, 1e6, 1e-15),
        ]
        for lo, hi, bound in cases:
            for hurst in (0.5000001, 0.55, 0.75, 0.9, 0.99):
                s = math.sin(math.pi * hurst)
                for z in np.geomspace(lo, hi, 50):
                    z = float(z)
                    four = bessel_i_scaled(hurst, z) * bessel_i_scaled(
                        1.0 - hurst, z
                    ) + bessel_i_scaled(-hurst, z) * bessel_i_scaled(hurst - 1.0, z)
                    ref = math.pi * z / s * four
                    assert abs(r_h_scaled(hurst, z) - ref) <= bound * ref

    def test_wronskian_form_takes_two_bessel_values(self, monkeypatch):
        # the Wronskian form takes two scaled Bessel values, not four
        import scipy.special

        calls = []
        ive = scipy.special.ive

        def counted(nu, z):
            calls.append(nu)
            return ive(nu, z)

        monkeypatch.setattr(scipy.special, "ive", counted)
        r_h_scaled(0.75, 50.0)
        assert len(calls) == 2

    def test_positivity(self):
        for hurst in (0.55, 0.75, 0.95):
            for z in np.geomspace(0.01, 1e4, 50):
                assert r_h_scaled(hurst, float(z)) > 0

    def test_limit_is_one_over_sin(self):
        # sin(pi H) e^{-2z} r_H(z) -> 1 with first correction r_1 / z
        for hurst in (0.6, 0.75, 0.9):
            z = 5e3
            r1 = r_h_coeffs(hurst, 1).coefficients[0]
            val = math.sin(math.pi * hurst) * r_h_scaled(hurst, z)
            assert val - 1.0 == pytest.approx(r1 / z, rel=1e-2)

    def test_expansion_second_order(self):
        # subtracting the order-1 term leaves the order-2 term
        for hurst in (0.6, 0.85):
            r1, r2 = r_h_coeffs(hurst, 2).coefficients
            z = 2e2
            val = math.sin(math.pi * hurst) * r_h_scaled(hurst, z)
            assert val - 1.0 - r1 / z == pytest.approx(r2 / z**2, rel=5e-2)

    def test_coefficient_values(self):
        r1, r2 = r_h_coeffs(0.75, 2).coefficients
        assert r1 == pytest.approx(-1.0 / 16.0, abs=1e-15)
        assert r2 == pytest.approx(-15.0 / 512.0, abs=1e-15)
        assert r_h_coeffs(0.5, 2).coefficients == (0.0, 0.0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            r_h(0.75, 400.0)

    def test_invalid_hurst(self):
        for h in (0.4, 1.0, 1.2):
            with pytest.raises(ValueError):
                r_h_scaled(h, 1.0)
        with pytest.raises(ValueError):
            r_h_coeffs(0.75, 3)
