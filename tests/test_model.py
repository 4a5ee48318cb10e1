"""Tests of the model constants and the exact cumulant generating function."""

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
    in_domain_delta,
)
from fousldp.special import r_h, r_h_scaled

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
        with pytest.raises(DomainError, match="T=10.0"):
            exact_lt(P, GenFnPoint(0.0, P.a_h, 10.0))
        with pytest.raises(DomainError, match="T=10.0"):
            exact_lt(P, GenFnPoint(0.0, 0.6, 10.0))

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


    def test_answer_past_the_k_t_zero_at_a_finite_horizon(self):
        # at T = 5 the K_T log argument d_K falls to zero at 0.99890 of the
        # way along this ray, inside the limiting domain; K_T + R_T, taken
        # as one log, stays finite up to Delta's boundary
        a, b, T = 0.7997130197032386, 0.4993816184498696, 5.0
        assert in_domain_delta(P, a, b)
        assert four_term_split(P, a, b, T)["d_K"] == pytest.approx(-0.672, abs=1e-3)
        ref = exact_lt_mp(P, a, b, T)
        assert exact_lt(P, GenFnPoint(a, b, T)) == pytest.approx(ref, rel=1e-14)
        # convex along the ray, across the zero of d_K
        s = np.linspace(0.995, 1.0, 51)
        d_k = [four_term_split(P, x * a, x * b, T)["d_K"] for x in s]
        assert d_k[0] > 0 > d_k[-1]
        vals = [exact_lt(P, GenFnPoint(x * a, x * b, T)) for x in s]
        assert np.all(np.diff(vals, 2) > 0)
        # just outside Delta the refusal names the horizon
        edge = 1.0 + 5.7e-5
        assert not in_domain_delta(P, edge * a, edge * b)
        with pytest.raises(DomainError, match="T=5.0"):
            exact_lt(P, GenFnPoint(edge * a, edge * b, T))


def four_term_split(params, a, b, T):
    """The paper's split ``L + (H + K_T + R_T)/T`` at a tilt inside Delta,
    with ``r_T`` from ``r_h_scaled``; ``K_T`` and ``R_T`` only where the
    ``K_T`` log argument ``d_K`` is positive."""
    theta = params.theta
    phi = math.sqrt(theta**2 - 2.0 * b)
    tau = phi - (a + theta)
    r_t = r_h_scaled(params.hurst, phi * T / 2.0) - 1.0
    d_k = 1.0 + (2.0 * phi - tau) * r_t / (2.0 * phi)
    out = {"phi": phi, "tau": tau, "r_T": r_t, "d_K": d_k,
           "L": -0.5 * (a + theta + phi), "H": -0.5 * math.log(tau / (2.0 * phi))}
    if d_k > 0:
        out["K_T"] = -0.5 * math.log(d_k)
        out["R_T"] = -0.5 * math.log(
            1.0 + (2.0 * phi - tau) ** 2 * math.exp(-2.0 * T * phi) / (2.0 * phi * tau * d_k))
    return out


def exact_lt_mp(params, a, b, T):
    """``exact_lt`` at 50 digits, with ``r_H`` from its four Bessel values
    and ``K_T + R_T`` as one log."""
    with mp.workdps(50):
        th, h, a, b, T = (mp.mpf(x) for x in (params.theta, params.hurst, a, b, T))
        phi = mp.sqrt(th**2 - 2 * b)
        tau = phi - (a + th)
        z = phi * T / 2
        r_h = mp.pi * z / mp.sin(mp.pi * h) * (
            mp.besseli(h, z) * mp.besseli(1 - h, z) + mp.besseli(-h, z) * mp.besseli(h - 1, z))
        d_kr = (1 + (2 * phi - tau) * (r_h * mp.exp(-2 * z) - 1) / (2 * phi)
                + (2 * phi - tau) ** 2 * mp.exp(-2 * T * phi) / (2 * phi * tau))
        return float(-(a + th + phi) / 2 + (-mp.log(tau / (2 * phi)) - mp.log(d_kr)) / (2 * T))


class TestExactSplit:
    # exact_lt against the paper's four-term split, built here from
    # r_h_scaled, wherever the K_T log argument is positive
    def test_zero_point_is_zero(self):
        for T in (0.1, 10.0, 1e3):
            assert exact_lt(P, GenFnPoint(0.0, 0.0, T)) == pytest.approx(0.0, abs=1e-15)

    def test_limit_term_closed_form(self):
        # L(a, b) = -(a + theta + sqrt(theta^2 - 2b))/2 is the slope of
        # T exact_lt in T, once the remainder has died out
        T1, T2 = 1e6, 2e6
        for a, b in [(0.0, 0.3), (0.5, -1.0), (-2.0, 0.1)]:
            L = -(a - 1.0 + math.sqrt(1.0 - 2.0 * b)) / 2.0
            slope = (T2 * exact_lt(P, GenFnPoint(a, b, T2))
                     - T1 * exact_lt(P, GenFnPoint(a, b, T1))) / (T2 - T1)
            assert slope == pytest.approx(L, rel=1e-12)

    @pytest.mark.parametrize("theta", [-1.0, -0.3, -5.0])
    @pytest.mark.parametrize("hurst", [0.51, 0.75, 0.99])
    def test_value_is_the_four_term_split(self, theta, hurst):
        # 5e-14 of the terms' magnitudes. Measured: 1.5e-14 at worst, at
        # theta = -0.3, H = 0.51, T = 5, where exact_lt is 1.9e-14 from a
        # 50-digit evaluation and the split 5.3e-14; 3.9e-16 with exact_lt
        # evaluated as the split itself
        params = ModelParams(theta, hurst)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            a, b = theta * rng.uniform(-3.0, 3.0), theta**2 * rng.uniform(-3.0, 0.5)
            T = float(rng.choice([0.5, 5.0, 50.0, 500.0]))
            if not in_domain_delta(params, a, b):
                continue
            terms = four_term_split(params, a, b, T)
            if not terms["d_K"] > 0:
                continue
            checked += 1
            parts = [terms[k] for k in ("H", "K_T", "R_T")]
            scale = abs(terms["L"]) + sum(map(abs, parts)) / T
            value = exact_lt(params, GenFnPoint(a, b, T))
            assert abs(value - (terms["L"] + sum(parts) / T)) <= 5e-14 * scale

    def test_large_t_convergence_to_limit(self):
        pt = lambda T: GenFnPoint(0.2, 0.1, T)
        L = four_term_split(P, 0.2, 0.1, 10.0)["L"]
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
        b, T = 0.2, 40.0
        phi = math.sqrt(1.0 - 2.0 * b)
        naive = r_h(P.hurst, phi * T / 2.0) * math.exp(-T * phi) - 1.0
        assert four_term_split(P, 0.0, b, T)["r_T"] == pytest.approx(naive, rel=1e-12)

    def test_r_t_limit_is_p_h(self):
        for T in (1e3, 1e4):
            r_t = four_term_split(P, 0.0, 0.2, T)["r_T"]
            assert r_t == pytest.approx(P.p_h, abs=10.0 / T)

    def test_remainder_exponentially_small(self):
        # T exact_lt - (T L + H + K_T) is R_T, whose leading term is
        # -(2 phi - tau)^2 e^{-2 T phi} / (4 phi tau d_K)
        a, b = 0.1, 0.1
        for T in (3.0, 5.0, 8.0):
            t = four_term_split(P, a, b, T)
            rem = T * exact_lt(P, GenFnPoint(a, b, T)) - (T * t["L"] + t["H"] + t["K_T"])
            lead = -(2.0 * t["phi"] - t["tau"]) ** 2 * math.exp(-2.0 * T * t["phi"]) / (
                4.0 * t["phi"] * t["tau"] * t["d_K"])
            assert rem == pytest.approx(lead, rel=1e-3)
        # by T = 30 the remainder is below double rounding of the total
        assert four_term_split(P, a, b, 30.0)["R_T"] == pytest.approx(0.0, abs=1e-15)

    def test_overflow_free_horizons(self):
        # T = 5e3 would overflow the unscaled Bessel combination
        val = exact_lt(P, GenFnPoint(0.1, 0.1, 5e3))
        assert math.isfinite(val)
