"""Tests of the estimator rate function, domain and tail prefactors."""

import math

import numpy as np
import pytest

from fousldp.mle import (
    MleBranch,
    classify_mle,
    mle_domain,
    mle_l,
    rate_mle,
    tail_mle,
    tail_mle_boundary,
    tail_mle_easy,
    tail_mle_hard,
    tail_mle_zero,
)
from fousldp.model import ModelParams

P = ModelParams(theta=-1.0, hurst=0.75)


class TestRate:
    def test_known_values(self):
        assert rate_mle(P, -1.0) == 0.0
        assert rate_mle(P, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert rate_mle(P, -0.5) == pytest.approx(0.125, abs=1e-15)
        assert rate_mle(P, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_h_independence_bitwise(self):
        cs = [-1.5, -0.8, -0.5, -0.2, 0.0, 0.5, 2.0]
        for h in (0.55, 0.75, 0.95):
            q = ModelParams(theta=-1.0, hurst=h)
            for c in cs:
                assert rate_mle(q, c) == rate_mle(P, c)

    def test_c1_matching_at_theta_third(self):
        # derivative of the quadratic branch, -1/4 + theta^2/(4c^2), equals
        # the linear slope 2 at c = theta/3
        c = P.theta / 3.0
        assert -0.25 + P.theta**2 / (4.0 * c * c) == pytest.approx(2.0, abs=1e-12)
        eps = 1e-7
        num_left = (rate_mle(P, c) - rate_mle(P, c - eps)) / eps
        num_right = (rate_mle(P, c + eps) - rate_mle(P, c)) / eps
        assert num_left == pytest.approx(num_right, abs=1e-5)

    def test_nonnegative_zero_only_at_theta(self):
        for c in np.linspace(-4.0, 2.0, 301):
            r = rate_mle(P, float(c))
            assert r >= 0.0
            if abs(c - P.theta) > 1e-9:
                assert r > 0.0


class TestDomain:
    def test_saddle_interior_iff_easy(self):
        # the zero of L' lies inside the tilt domain exactly when
        # c < theta/3 (for c < 0, where a_c is an actual critical point;
        # for c > 0 the derivative of L never vanishes)
        for c in np.linspace(-3.0, -0.01, 120):
            a_c = (c * c - 1.0) / (2.0 * c)
            a1, a_right = mle_domain(P, float(c))
            inside = a1 < a_c < a_right
            assert inside == (c < P.theta / 3.0), f"c={c}"

    def test_right_endpoint_switch(self):
        # a^c and a_2 coincide at c = theta/2, and the variance zero takes
        # over beyond it; below it the right end is a_2, off the variance zero
        c = P.theta / 2.0
        assert mle_domain(P, c)[1] == pytest.approx(2.0 * (c - P.theta), rel=1e-12)
        assert mle_domain(P, c + 0.01)[1] == 2.0 * (c + 0.01 - P.theta)
        assert mle_domain(P, c - 0.01)[1] != pytest.approx(2.0 * (c - 0.01 - P.theta),
                                                            rel=1e-6)

    @pytest.mark.parametrize("theta", [-0.001, -0.3, -1.0, -3.0, -5.0])
    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9, 0.99])
    def test_right_end_keeps_l_real_near_theta_half(self, theta, hurst):
        # near c = theta/2, a_2 lies within a few ulps of the zero of L's
        # square root, and its quadratic formula can round past it
        q = ModelParams(theta=theta, hurst=hurst)
        levels = [theta / 2.0]
        for _ in range(8):
            levels.append(math.nextafter(levels[-1], -math.inf))
        up = theta / 2.0
        for _ in range(8):
            up = math.nextafter(up, math.inf)
            levels.append(up)
        for c in levels:
            _, a_right = mle_domain(q, c)
            assert math.isfinite(mle_l(q, a_right, c)), f"c={c!r}"
            assert a_right == pytest.approx(2.0 * (c - theta), rel=1e-12)

    def test_a_up_example(self):
        assert mle_domain(P, 0.0)[1] == pytest.approx(2.0, rel=1e-15)

    def test_h_half_limit_degenerates(self):
        # mu_H -> 0 sends the lower endpoint to -infinity like 1/mu while
        # the upper endpoint converges to the classical limit -theta^2/(2c)
        q = ModelParams(theta=-1.0, hurst=0.5001)
        a1, a_right = mle_domain(q, -2.0)
        assert a1 < -1e10
        assert a_right == pytest.approx(0.25, rel=1e-6)

    def test_phi_identity_at_saddle(self):
        # sqrt(theta^2 + 2 a_c c) = |c|
        for c in (-2.0, -0.7, -0.4):
            a_c = (c * c - 1.0) / (2.0 * c)
            assert math.sqrt(1.0 + 2.0 * a_c * c) == pytest.approx(abs(c), abs=1e-12)

    def test_l_at_variance_zero(self):
        # -L(a^c) = 2c - theta, the hard-branch rate
        for c in (0.4, -0.2, 1.0):
            a_up = 2.0 * (c - P.theta)
            assert -mle_l(P, a_up, c) == pytest.approx(rate_mle(P, c), rel=1e-12)


class TestClassify:
    def test_partition(self):
        t3 = P.theta / 3.0
        assert classify_mle(P, -2.0, 100.0) is MleBranch.EASY
        assert classify_mle(P, t3, 100.0) is MleBranch.BOUNDARY
        assert classify_mle(P, -0.2, 100.0) is MleBranch.HARD
        assert classify_mle(P, 0.0, 100.0) is MleBranch.ZERO
        assert classify_mle(P, 0.5, 100.0) is MleBranch.HARD

    @pytest.mark.parametrize("T", [1e-3, 0.1])
    def test_short_horizon_windows_stay_apart(self, T):
        # the boundary window around theta/3 and the zero window around 0
        # reach at most halfway to each other, whatever the horizon
        expect = [(-1.5, MleBranch.EASY, True), (-0.9, MleBranch.EASY, False),
                  (-0.2, MleBranch.BOUNDARY, False), (0.0, MleBranch.ZERO, False),
                  (0.2, MleBranch.HARD, False)]
        for c, branch, lower in expect:
            ta = tail_mle(P, c, T)
            assert (ta.branch, ta.lower_tail) == (branch, lower), c

    @pytest.mark.parametrize("c, T, name", [
        (math.nan, 100.0, "c"), (math.inf, 100.0, "c"), (-math.inf, 100.0, "c"),
        (-0.6, 0.0, "T"), (-0.6, -1.0, "T"), (-0.6, math.nan, "T"), (-0.6, math.inf, "T"),
    ])
    def test_bad_level_or_horizon_named(self, c, T, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tail_mle(P, c, T)
        if name == "c":
            with pytest.raises(ValueError, match="c must be finite"):
                rate_mle(P, c)

    def test_order1_correction_is_rejected(self):
        # the flag exists for the energy tail only; it must not be ignored
        with pytest.raises(ValueError, match="order-1 correction"):
            tail_mle(P, -0.6, 40.0, with_order1=True)
        assert tail_mle(P, -0.6, 40.0, with_order1=False) == tail_mle(P, -0.6, 40.0)


class TestTails:
    def test_easy_prefactor_structure(self):
        c, T = -0.6, 40.0
        ta = tail_mle_easy(P, c)
        a_c = (c * c - 1.0) / (2.0 * c)
        assert a_c == pytest.approx(0.5333333333333333, rel=1e-12)
        sigma_c2 = -1.0 / (2.0 * c)
        assert sigma_c2 == pytest.approx(0.8333333333333334, rel=1e-12)
        J = -0.5 * math.log((c - 1.0) * (3.0 * c + 1.0) / (4.0 * c * c))
        K_H = -0.5 * math.log(1.0 + P.p_h * (c + 1.0) ** 2 / (4.0 * c * c))
        expect = math.exp(-T * rate_mle(P, c) + J + K_H) / (
            a_c * math.sqrt(sigma_c2) * math.sqrt(2.0 * math.pi * T)
        )
        assert ta.value(T) == pytest.approx(expect, rel=1e-12)
        assert not ta.lower_tail  # theta < c < theta/3 is the upper tail

    def test_easy_lower_tail_below_theta(self):
        ta = tail_mle_easy(P, -2.0)
        assert ta.lower_tail
        assert ta.value(40.0) > 0

    def test_easy_rejections(self):
        with pytest.raises(ValueError):
            tail_mle_easy(P, 0.2)
        with pytest.raises(ValueError):
            tail_mle_easy(P, P.theta)

    def test_hard_prefactor_structure(self):
        c, T = 0.5, 60.0
        ta = tail_mle_hard(P, c)
        a_up = 2.0 * (c + 1.0)
        assert a_up == pytest.approx(3.0, rel=1e-15)
        sigma2 = c * c / (2.0 * (2.0 * c + 1.0) ** 3)
        assert sigma2 == pytest.approx(0.015625, rel=1e-12)
        Pc = -0.5 * math.log((c + 1.0) * (3.0 * c + 1.0) / (4.0 * c * c))
        expect = (
            math.exp(-T * rate_mle(P, c) + Pc)
            * math.sqrt(P.sin_pi_h)
            / (math.sqrt(sigma2) * a_up * math.sqrt(2.0 * math.pi * T))
        )
        assert ta.value(T) == pytest.approx(expect, rel=1e-12)

    def test_hard_negative_levels(self):
        # theta/3 < c < 0: both factors of the log argument are negative,
        # the ratio is positive
        ta = tail_mle_hard(P, -0.2)
        assert math.isfinite(ta.log_value(60.0))

    def test_hard_h_scaling(self):
        q = ModelParams(theta=-1.0, hurst=0.9)
        c, T = 0.5, 60.0
        ratio = tail_mle_hard(P, c).value(T) / tail_mle_hard(q, c).value(T)
        assert ratio == pytest.approx(math.sqrt(P.sin_pi_h / q.sin_pi_h), rel=1e-12)

    def test_hard_rejections(self):
        with pytest.raises(ValueError):
            tail_mle_hard(P, -2.0)
        with pytest.raises(ValueError):
            tail_mle_hard(P, 0.0)

    def test_zero_closed_form(self):
        T = 30.0
        ta = tail_mle_zero(P)
        expect = (
            2.0
            * math.exp(-T)
            * math.sqrt(P.sin_pi_h)
            / (math.sqrt(2.0 * math.pi * T) * math.sqrt(2.0))
        )
        assert ta.value(T) == pytest.approx(expect, rel=1e-12)
        assert ta.rate == pytest.approx(1.0, abs=1e-15)

    def test_zero_vs_hard_divergence(self):
        # naive hard evaluation degenerates as c -> 0; the zero case stays
        # finite and carries the factor 2
        small = tail_mle_hard(P, 1e-4)
        zero = tail_mle_zero(P)
        assert small.value(30.0) < zero.value(30.0)

    def test_boundary_quarter_power(self):
        T = 50.0
        ta = tail_mle_boundary(P)
        assert ta.t_power == -0.25
        a_b = 4.0 / 3.0
        sigma_b = math.sqrt(1.5)
        expect = (
            math.exp(-T / 3.0)
            * math.gamma(0.25)
            * math.sqrt(P.sin_pi_h)
            / (4.0 * math.pi * T**0.25 * a_b**0.75 * sigma_b)
        )
        assert ta.value(T) == pytest.approx(expect, rel=1e-12)
        assert ta.rate == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_dispatch_consistency(self):
        T = 80.0
        for c in (-2.0, P.theta / 3.0, -0.2, 0.0, 0.5):
            ta = tail_mle(P, c, T)
            assert ta.value(T) > 0
            assert ta.branch is classify_mle(P, c, T)
