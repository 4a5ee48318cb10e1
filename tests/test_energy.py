"""Tests of the energy rate function, prefactors and saddle machinery."""

import math

import numpy as np
import pytest

from exact_law import (
    bromwich,
    contour_tail_mpmath,
    energy_tail,
    log_mgf_on_line,
    mle_tail,
)
from fousldp import energy
from fousldp.energy import (
    EnergyBranch,
    boundary_tolerance,
    c_star,
    classify_branch,
    energy_h_deriv,
    energy_k_deriv,
    energy_l,
    energy_l_deriv,
    order1_coeff_easy,
    rate_energy,
    saddle_solve,
    tail_boundary,
    tail_easy,
    tail_energy,
    tail_hard,
)
from fousldp.model import GenFnPoint, ModelParams, exact_lt, gen_fn_terms, modified_terms

P = ModelParams(theta=-1.0, hurst=0.75)


def central_diff(f, a, q, h):
    if q == 1:
        return (f(a + h) - f(a - h)) / (2 * h)
    if q == 2:
        return (f(a + h) - 2 * f(a) + f(a - h)) / h**2
    if q == 3:
        return (f(a + 2 * h) - 2 * f(a + h) + 2 * f(a - h) - f(a - 2 * h)) / (2 * h**3)
    raise ValueError(q)


class TestRate:
    def test_known_values(self):
        # (2 theta c + 1)^2/(8c) at theta=-1, c=1/4 gives 1/8
        assert rate_energy(P, 0.25) == pytest.approx(0.125, abs=1e-15)
        # zero of the rate at the ergodic mean -1/(2 theta)
        assert rate_energy(P, 0.5) == 0.0
        assert rate_energy(P, -0.1) == math.inf
        assert rate_energy(P, 0.0) == math.inf

    def test_linear_branch_value(self):
        c = 2.0 * c_star(P)
        d = P.delta_h
        expect = c * (1.0 - d * d) / 2.0 - (1.0 - d) / 2.0
        assert rate_energy(P, c) == pytest.approx(expect, rel=1e-14)

    def test_c1_matching_at_threshold(self):
        cs = c_star(P)
        # left-branch derivative theta^2/2 - 1/(8 c*^2) equals the linear
        # slope a_h exactly
        left = 0.5 - 1.0 / (8.0 * cs * cs)
        assert left == pytest.approx(P.a_h, abs=1e-12)
        eps = 1e-7
        num_left = (rate_energy(P, cs) - rate_energy(P, cs - eps)) / eps
        num_right = (rate_energy(P, cs + eps) - rate_energy(P, cs)) / eps
        assert num_left == pytest.approx(num_right, abs=1e-5)

    def test_nonnegative_with_unique_zero(self):
        for c in np.linspace(0.01, 10.0, 200):
            r = rate_energy(P, float(c))
            assert r >= 0.0
            if abs(c - 0.5) > 1e-6:
                assert r > 0.0

    def test_continuity_at_threshold(self):
        cs = c_star(P)
        assert rate_energy(P, cs - 1e-12) == pytest.approx(
            rate_energy(P, cs + 1e-12), abs=1e-10
        )


class TestClassify:
    def test_branches(self):
        cs = c_star(P)
        assert classify_branch(P, 0.3, 100.0) is EnergyBranch.GAUSSIAN
        assert classify_branch(P, 0.7, 100.0) is EnergyBranch.EASY
        assert classify_branch(P, cs, 100.0) is EnergyBranch.BOUNDARY
        assert classify_branch(P, cs + 1.0, 100.0) is EnergyBranch.HARD

    def test_tolerance_shrinks_with_t(self):
        cs = c_star(P)
        off = 1e-4
        assert classify_branch(P, cs + off, 100.0) is EnergyBranch.BOUNDARY
        assert classify_branch(P, cs + off, 1e6) is EnergyBranch.HARD

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_branch(P, 0.0, 100.0)

    @pytest.mark.parametrize("c, T, name", [
        (math.nan, 100.0, "c"), (math.inf, 100.0, "c"), (-math.inf, 100.0, "c"),
        (0.7, 0.0, "T"), (0.7, -1.0, "T"), (0.7, math.nan, "T"), (0.7, math.inf, "T"),
    ])
    def test_bad_level_or_horizon_named(self, c, T, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tail_energy(P, c, T)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            saddle_solve(P, 4.0 if name == "T" else c, T)
        if name == "c":
            with pytest.raises(ValueError, match="c must be finite"):
                rate_energy(P, c)


class TestDerivatives:
    @pytest.mark.parametrize("a", [-1.0, 0.0, 0.2, 0.4])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_analytic_vs_finite_difference(self, a, q):
        # step tuned per order: the third difference needs a coarser step
        h = 1e-5 if q < 3 else 1e-3
        # the third difference has larger truncation error where the fifth
        # derivative is big (near the domain boundary)
        tol = 1e-6 if q < 3 else 2e-3
        # H and K of the energy section are the exact split's Hterm at the
        # tilt (0, a) and the K of the modified split; neither depends on T
        for fn, dn in (
            (lambda x: energy_l(P, x), energy_l_deriv),
            (lambda x: gen_fn_terms(P, GenFnPoint(0.0, x, 10.0)).Hterm, energy_h_deriv),
            (lambda x: modified_terms(P, x, 10.0)[0], energy_k_deriv),
        ):
            num = central_diff(fn, a, q, h)
            ana = dn(P, a, q)
            assert ana == pytest.approx(num, rel=tol, abs=tol)

    def test_l_fourth_derivative(self):
        a = 0.1
        h = 1e-3
        f = lambda x: energy_l(P, x)
        num = (
            f(a + 2 * h) - 4 * f(a + h) + 6 * f(a) - 4 * f(a - h) + f(a - 2 * h)
        ) / h**4
        assert energy_l_deriv(P, a, 4) == pytest.approx(num, rel=1e-4)

    def test_sigma_c_is_second_derivative(self):
        for c in (0.6, 0.8, 1.2):
            a_c = (4.0 * c * c - 1.0) / (8.0 * c * c)
            assert energy_l_deriv(P, a_c, 2) == pytest.approx(4.0 * c**3, rel=1e-12)
            assert energy_l_deriv(P, a_c, 1) == pytest.approx(c, rel=1e-12)

    def test_sigma_h_is_second_derivative_at_boundary(self):
        d = P.delta_h
        sigma_h2 = -1.0 / (2.0 * P.theta**3 * d**3)
        assert energy_l_deriv(P, P.a_h, 2) == pytest.approx(sigma_h2, rel=1e-12)

    def test_k_first_derivative_limit_formula(self):
        # closed form of the limiting first derivative at the saddle
        th, ph = P.theta, P.p_h
        for c in (0.6, 0.9, 1.4):
            a_c = (4.0 * th * th * c * c - 1.0) / (8.0 * c * c)
            expect = -4.0 * th * ph * c**3 / (2.0 + ph * (1.0 + 2.0 * th * c))
            assert energy_k_deriv(P, a_c, 1) == pytest.approx(expect, rel=1e-12)


class TestTails:
    def test_easy_prefactor_structure(self):
        c, T = 0.7, 100.0
        ta = tail_easy(P, c, T)
        assert ta.branch is EnergyBranch.EASY
        assert not ta.lower_tail
        assert ta.t_power == -0.5
        a_c = (4.0 * c * c - 1.0) / (8.0 * c * c)
        sigma_c = math.sqrt(4.0 * c**3)
        s = P.sin_pi_h
        J = -0.5 * math.log((1.0 + 2.0 * c) / 2.0)
        K_H = -0.5 * math.log((1.0 + s) * (1.0 - 2.0 * c * P.delta_h) / (2.0 * s))
        expect = math.exp(-T * rate_energy(P, c) + J + K_H) / (
            a_c * sigma_c * math.sqrt(2.0 * math.pi * T)
        )
        assert ta.value(T) == pytest.approx(expect, rel=1e-12)

    def test_lower_tail_orientation(self):
        ta = tail_easy(P, 0.3, 50.0)
        assert ta.lower_tail
        assert ta.branch is EnergyBranch.GAUSSIAN
        assert ta.value(50.0) > 0

    def test_hard_prefactor_structure(self):
        c, T = 4.0, 80.0
        ta = tail_hard(P, c, T)
        d, s = P.delta_h, P.sin_pi_h
        g = 1.0 - 2.0 * c * d
        P_H = -0.5 * math.log(-g / (4.0 * d * s))
        Q_H = (2.0 * P.hurst - 1.0) ** 2 * s * g / (2.0 * (1.0 - s * s))
        sigma_h = math.sqrt(-1.0 / (2.0 * P.theta**3 * d**3))
        expect = math.exp(-T * rate_energy(P, c) + P_H + Q_H) / (
            P.a_h * sigma_h * math.sqrt(2.0 * math.pi * T)
        )
        assert ta.value(T) == pytest.approx(expect, rel=1e-12)

    def test_hard_requires_beyond_threshold(self):
        with pytest.raises(ValueError):
            tail_hard(P, 1.0, 50.0)

    def test_boundary_quarter_power(self):
        ta = tail_boundary(P, 100.0)
        assert ta.t_power == -0.25
        d, s = P.delta_h, P.sin_pi_h
        K_H = 0.5 * math.log(d * s) + 0.25 * math.log(d)
        sigma_h = math.sqrt(-1.0 / (2.0 * P.theta**3 * d**3))
        expect = (
            math.exp(-100.0 * rate_energy(P, c_star(P)) + K_H)
            * math.gamma(0.25)
            / (2.0 * math.pi * P.a_h * sigma_h * 100.0**0.25)
        )
        assert ta.value(100.0) == pytest.approx(expect, rel=1e-12)

    # at theta = -0.9 the tilt a_c rounds to 9e-17, not 0, at the point
    @pytest.mark.parametrize("theta", [-1.0, -0.9])
    def test_law_of_large_numbers_point_is_not_a_tail(self, theta):
        params = ModelParams(theta=theta, hurst=0.75)
        with pytest.raises(ValueError, match="law-of-large-numbers point"):
            tail_energy(params, -1 / (2 * theta), 100.0)

    def test_branch_consistency_sweep(self):
        # dispatched values agree with the branch functions across levels
        T = 60.0
        for c in (0.2, 0.45, 0.7, 1.5, c_star(P), 3.5, 6.0):
            ta = tail_energy(P, c, T)
            assert math.isfinite(ta.log_value(T))
            assert ta.value(T) > 0

    def test_h_half_limit_of_easy_prefactor(self):
        # as H decreases to 1/2 the Bessel correction K_H tends to 0
        c, T = 0.7, 50.0
        p_near = ModelParams(theta=-1.0, hurst=0.5001)
        ta = tail_easy(p_near, c, T)
        a_c = (4.0 * c * c - 1.0) / (8.0 * c * c)
        sigma_c = math.sqrt(4.0 * c**3)
        J = -0.5 * math.log((1.0 + 2.0 * (-1.0) * c) / 2.0 + 2.0 * c)
        # classical prefactor: exp(J)/(a_c sigma_c sqrt(2 pi T)) with K_H = 0
        J = -0.5 * math.log((1.0 - 2.0 * (-1.0) * c) / 2.0)
        expect = math.exp(-T * rate_energy(p_near, c) + J) / (
            a_c * sigma_c * math.sqrt(2.0 * math.pi * T)
        )
        assert ta.value(T) == pytest.approx(expect, rel=1e-3)


class TestOrder1:
    def test_coefficient_reduces_error_against_exact_cgf(self):
        # the coefficient is finite across the interior branch; away from
        # its ends (the mean 0.5 and c* = 2.91, where the 1/T expansion is
        # not uniform) the corrected prefactor is closer to the exact tail
        # than leading order. Monte Carlo cannot resolve these errors, so
        # the reference is the inverted exact cumulant generating function.
        for c in (0.55, 0.7, 0.9, 1.5, 2.5):
            b1 = order1_coeff_easy(P, c)
            assert math.isfinite(b1)
        for c in (0.7, 0.9, 1.5):
            for T in (400.0, 800.0):
                exact = energy_tail(P, c, T)
                lead = tail_easy(P, c, T).value(T)
                corr = tail_easy(P, c, T, with_order1=True).value(T)
                assert abs(corr / exact - 1.0) < abs(lead / exact - 1.0)

    def test_coefficient_against_contour_oracle(self):
        # T (exact/leading - 1) converges to the coefficient like 1/T;
        # a Richardson step over T in {400, 800} removes the next order
        c = 0.7
        implied = {}
        for T in (400.0, 800.0):
            exact = contour_tail_mpmath(P.theta, P.hurst, 0.0, 1.0, c * T, T, 0.245,
                                        dps=40)
            lead = tail_easy(P, c, T).value(T)
            implied[T] = (exact / lead - 1.0) * T
        rich = 2.0 * implied[800.0] - implied[400.0]
        assert rich == pytest.approx(order1_coeff_easy(P, c), abs=0.6)

    def test_rejects_outside_interior_branch(self):
        with pytest.raises(ValueError):
            order1_coeff_easy(P, c_star(P) + 0.5)
        with pytest.raises(ValueError):
            order1_coeff_easy(P, -0.2)

    def test_order1_correction_positivity_guard(self):
        ta = tail_easy(P, 0.7, 40.0, with_order1=True)
        assert ta.order1 is not None
        val = ta.value(40.0)
        assert val > 0


def saddle_phi_mp(mp, p, c, T):
    """``phi_T`` of the saddle equation, by bisection in ``log s`` at mpmath's precision."""
    th, ph = mp.mpf(p.theta), mp.mpf(p.p_h)
    A, B = 2 + ph, th * ph

    def f(s):
        phi = (s - B) / A
        return 1 / (2 * phi) + (th / (2 * phi**2 * (phi - th)) - B / (2 * phi**2 * s)) / T - c

    lo, hi = mp.mpf("1e-30"), mp.mpf(1000)
    while hi / lo - 1 > mp.mpf("1e-40"):
        mid = mp.sqrt(lo * hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return (lo - B) / A


class TestSaddle:
    def test_saddle_satisfies_equation(self):
        for c in (c_star(P), 4.0, 8.0):
            for T in (50.0, 200.0):
                sol = saddle_solve(P, c, T)
                lhs = energy_l_deriv(P, sol.a_T, 1) + (
                    energy_h_deriv(P, sol.a_T, 1) + energy_k_deriv(P, sol.a_T, 1)
                ) / T
                assert lhs == pytest.approx(c, rel=1e-9)
                # consistency phi^2 + 2a = theta^2
                assert sol.phi_T**2 + 2.0 * sol.a_T == pytest.approx(1.0, abs=1e-12)

    def test_saddle_below_boundary(self):
        sol = saddle_solve(P, 4.0, 100.0)
        assert sol.a_T < P.a_h

    def test_expansion_coefficients_hard(self):
        # a_T = a_h + a_1/T + a_2/T^2 + O(1/T^3): check by Richardson
        c = 2.0 * c_star(P)
        sol = saddle_solve(P, c, 100.0)
        a0, a1, a2 = sol.a_coeffs
        assert a0 == pytest.approx(P.a_h, abs=1e-15)
        for T in (1e5, 1e6):
            s = saddle_solve(P, c, T)
            assert (s.a_T - a0) * T == pytest.approx(a1, rel=1e-3)
        est_a2 = (saddle_solve(P, c, 1e6).a_T - a0 - a1 / 1e6) * 1e12
        assert est_a2 == pytest.approx(a2, rel=1e-3)

    def test_expansion_coefficients_boundary(self):
        sol = saddle_solve(P, c_star(P), 100.0)
        assert sol.scale == "1/sqrtT"
        a0, a1, a2 = sol.a_coeffs
        d = P.delta_h
        assert a1 == pytest.approx(-(d**1.5), rel=1e-12)
        assert a2 == pytest.approx(d / 4.0 * (1.0 + P.sin_pi_h), rel=1e-12)
        for T in (1e8, 1e10):
            s = saddle_solve(P, c_star(P), T)
            assert (s.a_T - a0) * math.sqrt(T) == pytest.approx(a1, rel=1e-3)

    def test_phi_expansion_leading(self):
        c = 2.0 * c_star(P)
        sol = saddle_solve(P, c, 1e6)
        assert sol.phi_coeffs[0] == pytest.approx(P.delta_h, rel=1e-12)
        assert sol.phi_T == pytest.approx(
            sol.phi_coeffs[0] + sol.phi_coeffs[1] / 1e6, rel=1e-6
        )

    def test_rejects_interior_levels(self):
        with pytest.raises(ValueError):
            saddle_solve(P, 0.7, 100.0)

    def test_solves_every_input_of_the_sweep(self):
        # 2940 inputs from c* to 20 c* and T from 10 to 1e6, plus two deep
        # hard levels where a_T lies a few ulps below a_h
        inputs = [(-1.0, 0.75, lambda p: 8.0, 1e6), (-5.0, 0.55, lambda p: 2.0 * c_star(p), 1e4)]
        for theta in (-0.3, -0.5, -1.0, -2.0, -5.0):
            for hurst in (0.51, 0.55, 0.6, 0.75, 0.9, 0.99):
                for ratio in (1.0, 1.0001, 1.1, 1.5, 2.0, 5.0, 20.0):
                    for k in range(14):
                        level = lambda p, r=ratio: r * c_star(p)
                        inputs.append((theta, hurst, level, 10.0 * 1e5 ** (k / 13)))
        for theta, hurst, level, T in inputs:
            p = ModelParams(theta, hurst)
            sol = saddle_solve(p, level(p), T)
            assert sol.a_T < p.a_h
            assert sol.phi_T**2 + 2.0 * sol.a_T == pytest.approx(theta**2, rel=1e-14)

    @pytest.mark.parametrize(
        "theta, hurst, level, T",
        [
            (-1.0, 0.75, lambda p: 8.0, 1e6),
            (-5.0, 0.55, lambda p: 2.0 * c_star(p), 1e4),
        ],
        ids=["c=8,T=1e6", "c=2c*,T=1e4"],
    )
    def test_deep_hard_level_within_one_ulp(self, theta, hurst, level, T):
        # at these levels the saddle equation in a has a residual above
        # 1e-10 max(1, c) at every float; a_T is still within one ulp of the
        # 50-digit root
        mp = pytest.importorskip("mpmath")
        p = ModelParams(theta, hurst)
        c = level(p)
        sol = saddle_solve(p, c, T)
        with mp.workdps(50):
            phi = saddle_phi_mp(mp, p, c, T)
            a_ref = (mp.mpf(theta) ** 2 - phi**2) / 2
            err = abs(mp.mpf(sol.a_T) - a_ref)
        assert float(err) <= math.ulp(sol.a_T)
        assert sol.a_T < p.a_h

    def test_phi_matches_a_50_digit_root(self):
        # near H = 1/2 delta_h is small and a_T sits ulps below a_h, yet
        # phi_T keeps full relative precision
        mp = pytest.importorskip("mpmath")
        for theta in (-0.3, -1.0, -5.0):
            p = ModelParams(theta, 0.51)
            for ratio in (1.0001, 2.0, 20.0):
                c = ratio * c_star(p)
                for T in (100.0, 1e4, 4e5):
                    with mp.workdps(50):
                        ref = saddle_phi_mp(mp, p, c, T)
                    assert float(abs(saddle_solve(p, c, T).phi_T / ref - 1)) < 1e-14

    def test_extreme_levels_and_horizons(self):
        # where a_T rounds to a_h, or s_T is too small for Brent's method to
        # reach, the refusal is an ArithmeticError; below c* beyond the
        # boundary window it is a ValueError
        for theta, hurst in ((-1.0, 0.75), (-0.3, 0.51), (-5.0, 0.99), (-0.001, 0.6)):
            p = ModelParams(theta, hurst)
            for ratio in (0.99999999, 1.0, 1.0001, 2.0, 1e6):
                c = ratio * c_star(p)
                for T in (1e-3, 0.1, 1.0, 1e8, 1e12, 1e15, 1e100, 1e300, 1e308):
                    if c < c_star(p) - boundary_tolerance(p, T):
                        with pytest.raises(ValueError):
                            saddle_solve(p, c, T)
                        continue
                    try:
                        sol = saddle_solve(p, c, T)
                    except ArithmeticError:
                        assert T > 1e8
                        continue
                    assert sol.a_T < p.a_h
                    assert math.isfinite(sol.phi_T)

    def test_brentq_returns_the_float_scipy_returns(self, monkeypatch):
        # on the brackets saddle_solve builds, the transcription of Brent's
        # method and scipy.optimize.brentq agree to the last bit
        from scipy.optimize import brentq

        pairs = []
        mine = energy._brentq

        def both(f, lo, hi, xtol, rtol, maxiter):
            x = mine(f, lo, hi, xtol, rtol, maxiter)
            pairs.append((x, brentq(f, lo, hi, xtol=xtol, rtol=rtol, maxiter=maxiter)))
            return x

        monkeypatch.setattr(energy, "_brentq", both)
        for theta in (-0.5, -1.0, -2.0, -5.0):
            for hurst in (0.55, 0.6, 0.75, 0.9):
                p = ModelParams(theta, hurst)
                for ratio in (1.0, 1.0001, 1.1, 2.0, 5.0):
                    for T in (10.0, 100.0, 1e3, 1e4):
                        saddle_solve(p, ratio * c_star(p), T)
        assert len(pairs) == 320
        assert [x for x, ref in pairs if x != ref] == []

    def test_brentq_failures_are_arithmetic_errors(self):
        with pytest.raises(ArithmeticError, match="no sign change"):
            energy._brentq(lambda a: a * a + 1.0, -1.0, 1.0, 1e-16, 8.9e-16, 200)
        with pytest.raises(ArithmeticError, match="did not converge"):
            energy._brentq(math.cos, 0.0, 3.0, 1e-16, 8.9e-16, 2)

    def test_small_delta_bracket(self):
        # small Hurst index shrinks delta_h; the bracket must still capture
        # the root at moderate horizons
        p_small = ModelParams(theta=-1.0, hurst=0.6)
        sol = saddle_solve(p_small, c_star(p_small), 50.0)
        assert sol.a_T < p_small.a_h


class TestMonotoneStructure:
    def test_saddle_ordering_vs_threshold(self):
        # interior saddle stays below the boundary value iff c < c_star
        for c in (0.6, 1.0, 2.0):
            a_c = (4.0 * c * c - 1.0) / (8.0 * c * c)
            assert (a_c < P.a_h) == (c < c_star(P))


class TestExactLaw:
    def test_real_tilts_match_exact_cgf(self):
        # on the real axis the complex evaluation is the library's identity
        w = np.array([1.0])
        for a, b in ((0.0, 0.2), (0.1, -0.5), (-0.4, -0.4), (0.3, -0.2)):
            for T in (5.0, 40.0, 400.0):
                k = log_mgf_on_line(P, T, a, b, w)[0]
                assert k.imag == 0.0
                assert k.real == pytest.approx(
                    T * exact_lt(P, GenFnPoint(a, b, T)), rel=1e-13, abs=1e-13
                )

    def test_double_precision_matches_mpmath(self):
        # energy upper tail at c = 0.7 and estimator upper tail at c = -0.6
        T = 40.0
        mp_e = contour_tail_mpmath(P.theta, P.hurst, 0.0, 1.0, 0.7 * T, T, 0.245)
        mp_m = contour_tail_mpmath(P.theta, P.hurst, 1.0, 0.6, 0.0, T, 0.533)
        assert energy_tail(P, 0.7, T) == pytest.approx(mp_e, rel=1e-8)
        assert mle_tail(P, -0.6, T) == pytest.approx(mp_m, rel=1e-8)
        # value reached once the contour is no longer truncated short
        assert mp_e == pytest.approx(0.0479788211, rel=1e-9)

    def test_contour_sides_agree(self):
        # P(X >= x) from the right of the pole plus P(X < x) from the left
        # must sum to one at any threshold
        T = 100.0
        for x in (45.0, 50.0, 55.0):
            upper = bromwich(P, T, 0.15, x)[0]
            lower = -bromwich(P, T, -0.15, x)[0]
            assert upper + lower == pytest.approx(1.0, abs=1e-13)
        for c in (-1.1, -1.0, -0.9):
            upper = bromwich(P, T, 0.15, 0.0, 1.0, -c)[0]
            lower = -bromwich(P, T, -0.15, 0.0, 1.0, -c)[0]
            assert upper + lower == pytest.approx(1.0, abs=1e-13)
