"""Tests of the Monte Carlo harness and numerical oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from exact_law import energy_cdf
from fousldp.energy import c_star
from fousldp.model import ModelParams
from fousldp.sim import BatchResult, make_grid, simulate_martingale_batch
from fousldp.special import r_h_scaled
from fousldp.validate import (
    FUNCTIONALS,
    KSReport,
    OracleReport,
    clt_test,
    gamma_contour_oracle,
    gamma_contour_series,
    gamma_density_deriv,
    legendre_oracle,
    mc_tail,
    r_h_oracle,
)

P = ModelParams(theta=-1.0, hurst=0.75)


class TestLegendreOracle:
    @pytest.mark.parametrize("c", [0.3, 0.7, 1.0, 1.8, 6.0, 10.0])
    def test_energy_agreement(self, c):
        r = legendre_oracle(P, "energy", c)
        assert r.abs_err < 1e-6, r

    def test_energy_reference_value(self):
        r = legendre_oracle(P, "energy", 1.0)
        assert r.lhs == pytest.approx(0.125, abs=1e-6)

    @pytest.mark.parametrize("c", [-1.5, -0.8, -0.5, -0.2, 0.001, 0.5])
    def test_mle_agreement(self, c):
        r = legendre_oracle(P, "mle", c)
        assert r.abs_err < 1e-6, r

    def test_mle_reference_value(self):
        r = legendre_oracle(P, "mle", -0.5)
        assert r.lhs == pytest.approx(0.125, abs=1e-6)

    def test_boundary_maximizer_beyond_threshold(self):
        # non-steepness: for c > c_star the maximizer sits at the boundary
        r = legendre_oracle(P, "energy", c_star(P) + 2.0)
        assert "boundary" in r.note
        # below c_star = 2.91 it is interior, however close to the boundary:
        # 0.024 below it at c = 1.8 and 0.0053 below it at c = 2.5
        for c in (0.7, 1.8, 2.5):
            r_in = legendre_oracle(P, "energy", c)
            assert "interior" in r_in.note, c

    def test_boundary_maximizer_where_the_rate_is_small(self):
        # beyond c_star the maximizer is a_h itself; where the rate is this
        # small, stopping 1e-9 short of a_h costs 1.7e-2 relative
        params = ModelParams(theta=-0.001, hurst=0.99)
        r = legendre_oracle(params, "energy", 3.0 * c_star(params))
        assert r.rel_err < 1e-12, r
        assert "boundary" in r.note

    def test_mle_boundary_maximizer_where_the_rate_is_small(self):
        # the estimator's maximizer is the right end of its tilt domain;
        # stopping a relative 1e-9 short of it cost 2.2e-7 relative here
        params = ModelParams(theta=-0.001, hurst=0.75)
        r = legendre_oracle(params, "mle", 0.001)
        assert r.rel_err < 1e-12, r
        assert "boundary" in r.note

    @pytest.mark.parametrize("theta, hurst", [(-0.001, 0.75), (-1.0, 0.55), (-5.0, 0.55)])
    def test_mle_at_half_theta(self, theta, hurst):
        # at c = theta/2 the right end of the tilt domain is the zero of L's
        # square root, and its rounded value lies an ulp past it here
        params = ModelParams(theta=theta, hurst=hurst)
        r = legendre_oracle(params, "mle", theta / 2.0)
        assert r.rel_err < 1e-12, r

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            legendre_oracle(P, "drift", 0.5)

    @pytest.mark.parametrize("target", ["energy", "mle"])
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, target, c):
        # the rate checks the level before the Legendre bracket is built
        with pytest.raises(ValueError, match="c must be finite"):
            legendre_oracle(P, target, c)


class TestOracleReport:
    def test_errors_follow_from_lhs_and_rhs(self):
        r = OracleReport("x", 1.0, 0.0)
        assert r.abs_err == 1.0
        assert r.rel_err is None
        r = OracleReport("y", 1.5, 2.0, note="n")
        assert (r.abs_err, r.rel_err, r.note) == (0.5, 0.25, "n")


class TestRHOracle:
    @pytest.mark.parametrize("hurst", [0.51, 0.75, 0.99])
    @pytest.mark.parametrize("z", [0.01, 3.0, 500.0])
    def test_lhs_is_the_package_r_h(self, hurst, z):
        # the oracle checks the function the model reads, not a copy of it
        r = r_h_oracle(hurst, z)
        assert r.lhs == r_h_scaled(hurst, z)
        assert r.label == f"r_h H={hurst} z={z:.6g}"
        assert r.rel_err < 1e-12


class TestFunctionals:
    @pytest.mark.parametrize("target", ["energy", "mle"])
    @pytest.mark.parametrize("c", [-1.0, 0.0])
    @pytest.mark.parametrize("T", [math.nan, 0.0, -1.0, math.inf])
    def test_branch_rejects_a_bad_horizon(self, target, c, T):
        # the energy's rate is infinite for c <= 0, where its label reads
        # no tail branch; the horizon is checked there all the same
        with pytest.raises(ValueError, match="T must be finite"):
            FUNCTIONALS[target].branch(P, c, T)

    @pytest.mark.parametrize("target", ["energy", "mle"])
    def test_branch_rejects_a_non_finite_level(self, target):
        with pytest.raises(ValueError, match="c must be finite"):
            FUNCTIONALS[target].branch(P, math.nan, 100.0)


class TestGammaDensityDeriv:
    def test_density_itself(self):
        # m = 0 reduces to the density value
        a, b = 2.5, 1.3
        f = b**a / math.gamma(a) * math.exp(-b)
        assert gamma_density_deriv(a, b, 0) == pytest.approx(f, rel=1e-14)

    def test_exponential_case(self):
        # a = 1: f(x) = b e^{-bx}, f^(m)(1) = (-b)^m b e^{-b}
        b = 0.7
        for m in range(6):
            expect = (-b) ** m * b * math.exp(-b)
            assert gamma_density_deriv(1.0, b, m) == pytest.approx(expect, rel=1e-13)

    def test_against_finite_difference(self):
        a, b = 2.5, 0.9
        h = 1e-5
        f = lambda x: gamma_density_deriv(a, b, 0, x)
        num = (f(1 + h) - f(1 - h)) / (2 * h)
        assert gamma_density_deriv(a, b, 1) == pytest.approx(num, rel=1e-8)
        num2 = (f(1 + h) - 2 * f(1.0) + f(1 - h)) / h**2
        assert gamma_density_deriv(a, b, 2) == pytest.approx(num2, rel=1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gamma_density_deriv(-1.0, 1.0, 0)


class TestGammaContour:
    def test_leading_term_limit(self):
        # T large: integral -> v_0 = 2 pi f_{1, gamma}(1)/gamma = 2 pi e^{-gamma}
        r = gamma_contour_oracle(1.0, 0.5, 1.0, 1.0, 1e6, ell=0, p=0)
        assert r.lhs == pytest.approx(2.0 * math.pi * math.exp(-1.0), rel=1e-5)

    def test_symmetry_residual(self):
        r = gamma_contour_oracle(2.5, 0.3, 0.7, 2.0, 1e3, ell=0, p=1)
        resid = float(r.note.split()[-1])
        assert resid < 1e-8

    def test_quad_warning_is_noted_not_raised(self, monkeypatch):
        import scipy.integrate

        real_quad = scipy.integrate.quad

        def warning_quad(*args, **kwargs):
            warnings.warn("roundoff", scipy.integrate.IntegrationWarning)
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", warning_quad)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = gamma_contour_oracle(2.5, 0.3, 0.7, 2.0, 1e3, ell=0, p=1)
        assert caught == []
        assert "; quad warned;" in r.note
        # the off-symmetry residual stays the last field of the note
        assert float(r.note.split()[-1]) < 1e-8

    def test_odd_ell_is_imaginary(self):
        r = gamma_contour_oracle(1.0, 0.5, 1.0, 1.0, 1e3, ell=1, p=1)
        # the comparison is on the imaginary part and must be tight
        assert r.rel_err < 1e-4

    @pytest.mark.parametrize("params", [(1.0, 0.5, 1.0, 1.0), (2.5, 0.3, 0.7, 2.0)])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_error_slope(self, params, p):
        a, nu, g, s2 = params
        Ts = [1e2, 1e3, 1e4]
        errs = [gamma_contour_oracle(a, nu, g, s2, T, 0, p).abs_err for T in Ts]
        slope = np.polyfit(np.log(Ts), np.log(errs), 1)[0]
        assert slope == pytest.approx(-(p + 1), abs=0.15 * (p + 1))

    def test_series_pure_parity(self):
        s_even = gamma_contour_series(1.5, 0.4, 0.8, 1.0, 100.0, ell=2, p=2)
        assert s_even.imag == 0.0
        s_odd = gamma_contour_series(1.5, 0.4, 0.8, 1.0, 100.0, ell=1, p=2)
        assert s_odd.real == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gamma_contour_oracle(-1.0, 0.5, 1.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            gamma_contour_oracle(1.0, 0.5, 1.0, 1.0, 100.0, ell=-1)
        # a negative p would truncate the series to nothing
        with pytest.raises(ValueError, match="p must be"):
            gamma_contour_oracle(1.0, 0.5, 1.0, 1.0, 100.0, p=-1)
        with pytest.raises(ValueError, match="p must be"):
            gamma_contour_series(1.0, 0.5, 1.0, 1.0, 100.0, ell=0, p=-1)

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_arguments_rejected(self, position, value):
        args = [1.0, 0.5, 1.0, 1.0, 100.0]
        args[position] = value
        with pytest.raises(ValueError, match="finite and positive"):
            gamma_contour_oracle(*args)


class TestMcTail:
    def test_energy_moderate_deviation(self):
        res = simulate_martingale_batch(P, make_grid(40.0, 2000), seed=101, replicates=100_000)
        rep = mc_tail(P, "energy", 0.7, 40.0, 100_000, seed=101, result=res)
        assert not rep.underpowered
        assert rep.std_error > 0
        assert rep.z_score == pytest.approx(
            (rep.estimate - rep.closed_form) / rep.std_error
        )

    def test_underpowered_flag(self):
        # deep in the hard branch the closed form is far below 10/replicates
        rep = mc_tail(P, "energy", 6.0, 40.0, 100_000, seed=102)
        assert rep.underpowered
        assert rep.z_score is None
        assert math.isnan(rep.estimate)
        assert rep.closed_form < 10.0 / 100_000

    def test_resolvable_level_needs_a_batch(self):
        # the harness draws nothing: a level 10000 paths resolve has no
        # estimate without the batch they were drawn in
        with pytest.raises(ValueError, match="no batch"):
            mc_tail(P, "energy", 0.7, 40.0, 10_000, seed=1)

    def test_reuse_of_batch(self):
        grid = make_grid(40.0, 2000)
        res = simulate_martingale_batch(P, grid, seed=103, replicates=20000)
        a = mc_tail(P, "energy", 0.7, 40.0, 20000, seed=103, result=res)
        b = mc_tail(P, "energy", 0.7, 40.0, 20000, seed=103, result=res)
        assert a.estimate == b.estimate

    def test_result_of_another_size_is_rejected(self):
        res = simulate_martingale_batch(P, make_grid(40.0, 200), seed=1, replicates=10_000)
        with pytest.raises(ValueError, match="10000 paths"):
            mc_tail(P, "energy", 0.7, 40.0, 20_000, seed=1, result=res)

    def test_result_of_another_horizon_is_rejected(self):
        # a batch drawn at T = 10 read as one at T = 40 would count S_10/40
        res = simulate_martingale_batch(P, make_grid(10.0, 200), seed=2, replicates=10_000)
        with pytest.raises(ValueError, match="T=10.0, not T=40.0"):
            mc_tail(P, "energy", 0.6, 40.0, 10_000, seed=1, result=res)

    def test_result_of_another_seed_is_rejected(self):
        # the report would be labelled with a seed the batch was not drawn at
        res = simulate_martingale_batch(P, make_grid(10.0, 200), seed=2, replicates=10_000)
        assert res.seed == 2
        with pytest.raises(ValueError, match="seed=2, not seed=7"):
            mc_tail(P, "energy", 0.6, 10.0, 10_000, seed=7, result=res)
        assert mc_tail(P, "energy", 0.6, 10.0, 10_000, seed=2, result=res).seed == 2

    def test_batch_put_together_by_hand_records_no_seed(self):
        res = simulate_martingale_batch(P, make_grid(10.0, 200), seed=2, replicates=10_000)
        by_hand = BatchResult(res.s_terminal, res.theta_hat, res.grid)
        assert by_hand.seed is None
        rep = mc_tail(P, "energy", 0.6, 10.0, 10_000, seed=7, result=by_hand)
        assert rep.estimate == mc_tail(P, "energy", 0.6, 10.0, 10_000, seed=2, result=res).estimate

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            mc_tail(P, "energy", 0.7, 40.0, 100, seed=1)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            mc_tail(P, "spectrum", 0.7, 40.0, 10_000, seed=1)


class TestCltTest:
    def test_reports(self):
        # at T = 100 the exact law of the energy is itself 0.0364 from
        # N(0, 1) in KS distance, which equals the 1% critical value at 2000
        # paths, so the sample is judged against that exact law; both
        # N(0, 1) reports only need to be well formed. The estimator's exact
        # law is 0.034 from N(0, 1) (mean about -0.13 standard units).
        grid = make_grid(100.0, 16000)
        res = simulate_martingale_batch(P, grid, seed=2024, replicates=2000)
        e, m = clt_test(P, 100.0, 2000, seed=2024, result=res)
        assert e.n == m.n == 2000
        assert e.crit_1pct == pytest.approx(1.628 / math.sqrt(2000), rel=1e-12)
        assert 0.0 < e.statistic < 0.1
        assert 0.0 < m.statistic < 0.1
        exact = kstest(res.s_terminal, lambda s: energy_cdf(P, s, 100.0)).statistic
        assert exact < e.crit_1pct

    def test_result_of_another_horizon_is_rejected(self):
        res = simulate_martingale_batch(P, make_grid(10.0, 200), seed=2, replicates=1000)
        with pytest.raises(ValueError, match="T=10.0, not T=40.0"):
            clt_test(P, 40.0, 1000, seed=1, result=res)

    def test_result_of_another_size_is_rejected(self):
        # the report would count 10000 paths, the floor 50000
        res = simulate_martingale_batch(P, make_grid(10.0, 200), seed=2, replicates=10_000)
        with pytest.raises(ValueError, match="10000 paths"):
            clt_test(P, 10.0, 50_000, seed=7, result=res)

    def test_result_of_another_seed_is_rejected(self):
        res = simulate_martingale_batch(P, make_grid(10.0, 200), seed=2, replicates=1000)
        with pytest.raises(ValueError, match="seed=2, not seed=7"):
            clt_test(P, 10.0, 1000, seed=7, result=res)

    def test_critical_values(self):
        assert KSReport("x", 0.1, 100).crit_5pct == pytest.approx(0.1358, rel=1e-12)

    def test_preasymptotic_flagging(self):
        # a very short horizon is allowed to fail the 1% criterion; the
        # report itself must still be well-formed
        res = simulate_martingale_batch(P, make_grid(10.0, 500), seed=43, replicates=1000)
        e, m = clt_test(P, 10.0, 1000, seed=43, result=res)
        assert e.statistic > 0
        assert m.statistic > 0
