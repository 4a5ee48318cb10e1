"""Tests of the Bessel product r_H and of the scaled Bessel values it is
built from, against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ive

from fousldp.model import ModelParams
from fousldp.special import r_h, r_h_scaled

mp.mp.dps = 40

ORDERS = [0.25, -0.75, 0.6, 0.9, -0.9, 0.55, -0.45]


def mp_bessel_scaled(nu, z):
    return float(mp.besseli(nu, mp.mpf(z)) * mp.exp(-mp.mpf(z)))


def mp_r_h_scaled(hurst, z):
    # exp(-2z) r_H(z) from its four Bessel values, at mpmath's working precision
    h, zz = mp.mpf(hurst), mp.mpf(z)
    four = mp.besseli(h, zz) * mp.besseli(1 - h, zz) + mp.besseli(-h, zz) * mp.besseli(h - 1, zz)
    return mp.pi * zz / mp.sin(mp.pi * h) * four * mp.exp(-2 * zz)


class TestBesselI:
    # r_h_scaled is built from scipy's ive; these pin the values it gives it
    @pytest.mark.parametrize("nu", ORDERS)
    @pytest.mark.parametrize("z", [0.01, 0.1, 1.0, 5.0, 19.0, 21.0, 50.0, 200.0, 500.0])
    def test_against_extended_precision(self, nu, z):
        assert float(ive(nu, z)) == pytest.approx(mp_bessel_scaled(nu, z), rel=1e-12)

    @pytest.mark.parametrize("nu", [0.25, -0.75, 0.6])
    @pytest.mark.parametrize("z", [0.5, 3.0, 30.0, 300.0])
    def test_unscaled(self, nu, z):
        ref = float(mp.besseli(nu, mp.mpf(z)))
        assert float(ive(nu, z)) * math.exp(z) == pytest.approx(ref, rel=1e-12)

    def test_half_integer_closed_forms(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z, I_{-1/2}(z) = sqrt(2/(pi z)) cosh z
        for z in (0.3, 2.0, 10.0, 40.0):
            pref = math.sqrt(2.0 / (math.pi * z))
            assert float(ive(0.5, z)) == pytest.approx(
                pref * math.sinh(z) * math.exp(-z), rel=1e-12
            )
            assert float(ive(-0.5, z)) == pytest.approx(
                pref * math.cosh(z) * math.exp(-z), rel=1e-12
            )

    @pytest.mark.parametrize("nu", [0.25, 0.6, -0.3])
    @pytest.mark.parametrize("z", [0.5, 4.0, 25.0, 120.0])
    def test_three_term_recurrence(self, nu, z):
        # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)
        lhs = float(ive(nu - 1.0, z)) - float(ive(nu + 1.0, z))
        rhs = 2.0 * nu / z * float(ive(nu, z))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_scaled_stable_for_huge_argument(self):
        val = float(ive(0.25, 1e6))
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 1e6), rel=1e-6)


class TestRH:
    def test_h_half_degeneracy(self):
        # at H = 1/2 the combination collapses to e^{2z} + e^{-2z}
        for z in np.linspace(0.1, 50.0, 120):
            expect = math.exp(2.0 * z) + math.exp(-2.0 * z)
            assert r_h(0.5, float(z)) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 20.0, 25.0, 100.0, 1000.0, 5e3])
    def test_against_extended_precision(self, hurst, z):
        assert r_h_scaled(hurst, z) == pytest.approx(float(mp_r_h_scaled(hurst, z)), rel=1e-11)

    @pytest.mark.xfail(strict=True, reason="sin(pi H) loses digits as H -> 1: "
                       "6.2e-7 relative at H = 1 - 1e-10 (ROADMAP direction 14)")
    def test_full_precision_near_one(self):
        # math.sin(math.pi * H) keeps only the digits of pi H that survive
        # the rounding of pi H near pi; sin(pi (1 - H)) keeps them all
        hurst = 1.0 - 1e-10
        with mp.workdps(50):
            errors = {f"r_h_scaled z={z}": r_h_scaled(hurst, z) / mp_r_h_scaled(hurst, z) - 1
                      for z in (1.0, 10.0, 100.0)}
            sin_pi_h = ModelParams(-1.0, hurst).sin_pi_h
            errors["sin_pi_h"] = sin_pi_h / mp.sin(mp.pi * mp.mpf(hurst)) - 1
        errors = {name: abs(float(err)) for name, err in errors.items()}
        assert max(errors.values()) <= 1e-12, errors

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
                    four = ive(hurst, z) * ive(1.0 - hurst, z) + ive(-hurst, z) * ive(
                        hurst - 1.0, z
                    )
                    ref = math.pi * z / s * four
                    assert abs(r_h_scaled(hurst, z) - ref) <= bound * ref

    def test_wronskian_form_takes_two_bessel_values(self, monkeypatch):
        # the Wronskian form takes two scaled Bessel values, not four
        import scipy.special

        calls = []

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

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            r_h(0.75, 400.0)

    def test_invalid_hurst(self):
        for h in (0.4, 1.0, 1.2):
            with pytest.raises(ValueError):
                r_h_scaled(h, 1.0)
