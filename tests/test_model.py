"""Tests of the model constants and the exact generating-function split."""

import math

import mpmath as mp
import numpy as np
import pytest

from fousldp.energy import c_star
from fousldp.model import (
    DomainError,
    GenFnPoint,
    ModelParams,
    exact_lt,
    gen_fn_terms,
    in_domain_delta,
)

mp.mp.dps = 40

P = ModelParams(theta=-1.0, hurst=0.75)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(theta=0.0, hurst=0.75)
        with pytest.raises(ValueError):
            ModelParams(theta=1.0, hurst=0.75)
        with pytest.raises(ValueError):
            ModelParams(theta=-1.0, hurst=0.5)
        with pytest.raises(ValueError):
            ModelParams(theta=-1.0, hurst=1.0)

    def test_delta_and_p(self):
        s = math.sin(math.pi * 0.75)
        assert P.sin_pi_h == pytest.approx(s, rel=1e-15)
        assert P.delta_h == pytest.approx((1 - s) / (1 + s), rel=1e-14)
        assert P.p_h == pytest.approx((1 - s) / s, rel=1e-14)
        # delta = p / (2 + p) identity
        assert P.delta_h == pytest.approx(P.p_h / (2.0 + P.p_h), rel=1e-14)

    def test_delta_and_p_without_cancellation(self):
        # at H = 1/2 + 1e-10, 1 - sin(pi H) rounds to 0 when formed directly;
        # its series is (pi (H - 1/2))^2 / 2 to relative order 1e-20
        q = ModelParams(theta=-1.0, hurst=0.5 + 1e-10)
        small = (math.pi * (q.hurst - 0.5)) ** 2 / 2.0
        assert q.one_minus_sin_pi_h == pytest.approx(small, rel=1e-15)
        assert q.p_h == pytest.approx(small, rel=1e-15)
        assert q.delta_h == pytest.approx(small / 2.0, rel=1e-15)
        assert math.isfinite(c_star(q)) and c_star(q) > 0

    @pytest.mark.parametrize("hurst", [0.55, 0.6, 0.75, 0.9, 0.95])
    def test_lambda_h_against_extended_precision(self, hurst):
        h = mp.mpf(hurst)
        ref = 8 * h * (1 - h) * mp.gamma(1 - 2 * h) * mp.gamma(h + mp.mpf("0.5")) / mp.gamma(
            mp.mpf("0.5") - h
        )
        params = ModelParams(theta=-1.0, hurst=hurst)
        assert ref > 0
        assert params.lambda_h == pytest.approx(float(ref), rel=1e-13)
        assert params.l_h == pytest.approx(float(ref) / (2 * (1 - hurst)), rel=1e-13)

    def test_kappa_h(self):
        h = 0.75
        ref = 2 * h * math.gamma(1.5 - h) * math.gamma(h + 0.5)
        assert P.kappa_h == pytest.approx(ref, rel=1e-14)

    def test_a_h_example(self):
        # theta = -1, H = 0.75: theta^2 (1 - delta^2)/2
        assert P.a_h == pytest.approx(0.4852813742385703, abs=1e-15)


class TestDomain:
    def test_energy_domain_boundary(self):
        # the energy section is the tilt (0, a): the domain is a < a_h
        assert in_domain_delta(P, 0.0, P.a_h - 1e-9)
        assert not in_domain_delta(P, 0.0, P.a_h)
        assert not in_domain_delta(P, 0.0, P.a_h + 0.1)
        assert in_domain_delta(P, 0.0, -100.0)

    def test_two_sided_constraint(self):
        # phi must exceed both (a + theta) and -delta (a + theta)
        assert in_domain_delta(P, 0.5, 0.0)
        assert not in_domain_delta(P, 3.0, 0.4)
        # b too large kills the square root
        assert not in_domain_delta(P, 0.0, 0.6)

    def test_interior_enforcement(self):
        with pytest.raises(DomainError):
            gen_fn_terms(P, GenFnPoint(0.0, P.a_h, 10.0))
        with pytest.raises(DomainError):
            gen_fn_terms(P, GenFnPoint(0.0, 0.6, 10.0))

    @pytest.mark.parametrize("a, b, T, name", [
        (math.nan, 0.1, 10.0, "a"), (math.inf, 0.1, 10.0, "a"),
        (0.0, math.nan, 10.0, "b"), (0.0, -math.inf, 10.0, "b"),
        (0.0, 0.1, math.inf, "T"), (0.0, 0.1, math.nan, "T"), (0.0, 0.1, 0.0, "T"),
    ])
    def test_non_finite_point_is_a_value_error_naming_it(self, a, b, T, name):
        # a ValueError naming the argument, raised before any evaluation,
        # not the DomainError of a tilt outside the domain
        with pytest.raises(ValueError, match=f"{name} must be finite") as info:
            exact_lt(P, GenFnPoint(a, b, T))
        assert not isinstance(info.value, DomainError)


    def test_refusal_inside_the_limiting_domain_at_a_finite_horizon(self):
        # at T = 5 the K_T log argument falls to zero at 0.99890 of the way
        # along this ray, inside the limiting domain
        a, b = 0.7997130197032386, 0.4993816184498696
        assert in_domain_delta(P, a, b) and in_domain_delta(P, 0.998 * a, 0.998 * b)
        with pytest.raises(DomainError, match="T=5.0"):
            exact_lt(P, GenFnPoint(a, b, 5.0))
        assert exact_lt(P, GenFnPoint(0.998 * a, 0.998 * b, 5.0)) == pytest.approx(
            0.0324, abs=5e-5
        )


class TestExactSplit:
    def test_zero_point_is_zero(self):
        terms = gen_fn_terms(P, GenFnPoint(0.0, 0.0, 10.0))
        assert terms.L == 0.0
        assert terms.Hterm == pytest.approx(0.0, abs=1e-15)
        assert terms.K_T == pytest.approx(0.0, abs=1e-12)
        assert terms.R_T == pytest.approx(0.0, abs=1e-12)
        assert exact_lt(P, GenFnPoint(0.0, 0.0, 10.0)) == pytest.approx(0.0, abs=1e-12)

    def test_limit_term_closed_form(self):
        # L(a, b) = -(a + theta + sqrt(theta^2 - 2b))/2
        for a, b in [(0.0, 0.3), (0.5, -1.0), (-2.0, 0.1)]:
            phi = math.sqrt(1.0 - 2.0 * b)
            terms = gen_fn_terms(P, GenFnPoint(a, b, 5.0))
            assert terms.L == pytest.approx(-(a - 1.0 + phi) / 2.0, rel=1e-14)
            assert terms.phi == pytest.approx(phi, rel=1e-15)
            assert terms.tau == pytest.approx(phi - (a - 1.0), rel=1e-14)

    def test_large_t_convergence_to_limit(self):
        pt = lambda T: GenFnPoint(0.2, 0.1, T)
        L = gen_fn_terms(P, pt(10.0)).L
        for T, tol in [(1e2, 1e-1), (1e3, 1e-2), (1e4, 1e-3)]:
            assert abs(exact_lt(P, pt(T)) - L) < tol
        # the correction decays like 1/T
        d1 = exact_lt(P, pt(1e3)) - L
        d2 = exact_lt(P, pt(2e3)) - L
        assert d1 / d2 == pytest.approx(2.0, rel=0.05)

    def test_monotone_in_b(self):
        # the generating function is nondecreasing in the quadratic tilt
        vals = [exact_lt(P, GenFnPoint(0.0, b, 50.0)) for b in np.linspace(-2.0, 0.4, 25)]
        assert np.all(np.diff(vals) > 0)

    def test_convex_in_b(self):
        vals = [exact_lt(P, GenFnPoint(0.0, b, 50.0)) for b in np.linspace(-2.0, 0.4, 25)]
        assert np.all(np.diff(vals, 2) > -1e-12)

    def test_r_t_matches_unscaled_definition(self):
        # r_T(b) = r_H(phi T / 2) e^{-T phi} - 1 computed the naive way
        from fousldp.special import r_h

        b, T = 0.2, 40.0
        phi = math.sqrt(1.0 - 2.0 * b)
        naive = r_h(P.hurst, phi * T / 2.0) * math.exp(-T * phi) - 1.0
        r_t = gen_fn_terms(P, GenFnPoint(0.0, b, T)).r_T
        assert r_t == pytest.approx(naive, rel=1e-12)

    def test_r_t_limit_is_p_h(self):
        for T in (1e3, 1e4):
            r_t = gen_fn_terms(P, GenFnPoint(0.0, 0.2, T)).r_T
            assert r_t == pytest.approx(P.p_h, abs=10.0 / T)

    def test_remainder_exponentially_small(self):
        terms_small = gen_fn_terms(P, GenFnPoint(0.1, 0.1, 3.0))
        terms_large = gen_fn_terms(P, GenFnPoint(0.1, 0.1, 8.0))
        assert terms_small.R_T != 0.0
        assert abs(terms_large.R_T) < abs(terms_small.R_T) * 1e-3
        # by T = 30 the remainder is below double rounding of the total
        assert gen_fn_terms(P, GenFnPoint(0.1, 0.1, 30.0)).R_T == pytest.approx(
            0.0, abs=1e-15
        )

    def test_overflow_free_horizons(self):
        # T = 5e3 would overflow the unscaled Bessel combination
        val = exact_lt(P, GenFnPoint(0.1, 0.1, 5e3))
        assert math.isfinite(val)
