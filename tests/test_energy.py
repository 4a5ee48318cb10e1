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
    energy_l,
    order1_coeff_easy,
    rate_energy,
    saddle_solve,
    tail_boundary,
    tail_easy,
    tail_energy,
    tail_hard,
)
from fousldp.model import GenFnPoint, ModelParams, exact_lt

P = ModelParams(theta=-1.0, hurst=0.75)


def energy_sections_mp(mp, p):
    """``L``, ``H`` and ``K`` of the energy section at mpmath's precision.

    Transcriptions of ``energy_l``, of the exact split's ``H`` at the
    tilt ``(0, a)`` and of ``K``, the ``T -> infinity`` limit of its
    ``K_T``, with the float parameters taken as exact.
    ``test_transcriptions_match_the_package`` pins ``L`` to the package;
    ``test_easy_log_prefactor_is_h_plus_k_at_the_saddle`` pins ``H + K``
    to ``tail_easy``'s ``log_prefactor``.
    """
    th, ph = mp.mpf(p.theta), mp.mpf(p.p_h)
    phi = lambda a: mp.sqrt(th**2 - 2 * a)
    return {
        "L": lambda a: -(th + phi(a)) / 2,
        "H": lambda a: -mp.log((phi(a) - th) / (2 * phi(a))) / 2,
        "K": lambda a: -mp.log(1 + (phi(a) + th) * ph / (2 * phi(a))) / 2,
    }


def saddle_closed_forms(mp, p, c):
    """The hand formulas for the a-derivatives at the saddle ``a_c``.

    At ``phi = 1/(2c)``, ``L^(q)`` is a power of ``c``; ``H`` and ``K`` are
    ``-1/2 log(A phi + B) + 1/2 log phi``, whose first two derivatives are
    ``-2 c^2 r`` and ``8 c^4 r (r - 3)`` with ``r = B/(A/(2c) + B)``.
    """
    th, ph = mp.mpf(p.theta), mp.mpf(p.p_h)
    forms = {("L", 1): c, ("L", 2): 4 * c**3, ("L", 3): 48 * c**5, ("L", 4): 960 * c**7}
    for name, A, B in (("H", 1, -th), ("K", 2 + ph, th * ph)):
        r = B / (A / (2 * c) + B)
        forms[name, 1] = -2 * c**2 * r
        forms[name, 2] = 8 * c**4 * r * (r - 3)
    return forms


def order1_coeff_mp(mp, p, c):
    """``order1_coeff_easy`` at 50 digits, every derivative by ``mp.diff``."""
    with mp.workdps(50):
        th, c = mp.mpf(p.theta), mp.mpf(c)
        f = energy_sections_mp(mp, p)
        a = th**2 / 2 - 1 / (8 * c * c)
        sig2, l3, l4 = (mp.diff(f["L"], a, q) for q in (2, 3, 4))
        s1, s2 = (mp.diff(f["H"], a, q) + mp.diff(f["K"], a, q) for q in (1, 2))
        ph = mp.mpf(p.p_h)
        kc1 = c * (1 + 2 * th * c) * (2 * mp.mpf(p.hurst) - 1) ** 2 / (
            2 * mp.mpf(p.sin_pi_h) * (2 + ph * (1 + 2 * th * c))
        )
        core = (
            s1 / a - s1**2 / 2 - s2 / 2 - l3 / (2 * a * sig2) + s1 * l3 / (2 * sig2)
            - 5 * l3**2 / (24 * sig2**2) + l4 / (8 * sig2) - 1 / a**2
        )
        return core / sig2 + kc1


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

    @pytest.mark.parametrize("T", [1e-3, 0.1])
    def test_short_horizon_window_stops_short_of_the_mean(self, T):
        # the boundary window reaches at most halfway down from c* to the
        # mean 0.5, so levels below the mean keep the lower tail and
        # saddle_solve refuses them
        expect = [(0.3, EnergyBranch.GAUSSIAN, True), (0.7, EnergyBranch.EASY, False),
                  (2.0, EnergyBranch.BOUNDARY, False), (4.0, EnergyBranch.BOUNDARY, False)]
        for c, branch, lower in expect:
            ta = tail_energy(P, c, T)
            assert (ta.branch, ta.lower_tail) == (branch, lower), c
        for c in (0.3, 0.7):
            with pytest.raises(ValueError, match="requires c >= c_star"):
                saddle_solve(P, c, T)

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
    # the hand formulas are judged by mp.diff, a finite difference taken at
    # 50 digits, of the mpmath transcriptions of L, H and K
    def test_transcriptions_match_the_package(self):
        mp = pytest.importorskip("mpmath")
        L = energy_sections_mp(mp, P)["L"]
        for a in (-1.0, 0.0, 0.2, 0.4, 0.48):
            with mp.workdps(50):
                ref = float(L(mp.mpf(a)))
            assert energy_l(P, a) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("a", [-1.0, 0.0, 0.2, 0.4])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_analytic_vs_finite_difference(self, a, q):
        # the closed forms at phi = 1/(2c) where the tilt a is the saddle of
        # level c; H and K enter order1_coeff_easy through two derivatives
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            a = mp.mpf(a)
            c = 1 / (2 * mp.sqrt(mp.mpf(P.theta) ** 2 - 2 * a))
            forms = saddle_closed_forms(mp, P, c)
            for name, fn in energy_sections_mp(mp, P).items():
                if (name, q) in forms:
                    num = mp.diff(fn, a, q)
                    assert abs(forms[name, q] / num - 1) < mp.mpf("1e-40")

    def test_l_fourth_derivative(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            a = mp.mpf("0.1")
            c = 1 / (2 * mp.sqrt(mp.mpf(P.theta) ** 2 - 2 * a))
            num = mp.diff(energy_sections_mp(mp, P)["L"], a, 4)
            assert abs(saddle_closed_forms(mp, P, c)["L", 4] / num - 1) < mp.mpf("1e-40")

    def test_sigma_c_is_second_derivative(self):
        # tail_easy's sigma_c = sqrt(4 c^3), at the saddle a_c of level c
        mp = pytest.importorskip("mpmath")
        L = energy_sections_mp(mp, P)["L"]
        for c in (0.6, 0.8, 1.2):
            with mp.workdps(50):
                a_c = (4 * mp.mpf(c) ** 2 - 1) / (8 * mp.mpf(c) ** 2)
                assert abs(mp.diff(L, a_c, 2) / (4 * mp.mpf(c) ** 3) - 1) < mp.mpf("1e-40")
                assert abs(mp.diff(L, a_c, 1) / c - 1) < mp.mpf("1e-40")

    def test_sigma_h_is_second_derivative_at_boundary(self):
        # tail_hard's sigma_h^2 = -1/(2 theta^3 delta_h^3), at a_h
        mp = pytest.importorskip("mpmath")
        L = energy_sections_mp(mp, P)["L"]
        with mp.workdps(50):
            th, d = mp.mpf(P.theta), mp.mpf(P.delta_h)
            sigma_h2 = -1 / (2 * th**3 * d**3)
            assert abs(mp.diff(L, th**2 * (1 - d * d) / 2, 2) / sigma_h2 - 1) < mp.mpf("1e-40")

    def test_k_first_derivative_limit_formula(self):
        # closed form of the limiting first derivative at the saddle
        mp = pytest.importorskip("mpmath")
        K = energy_sections_mp(mp, P)["K"]
        th, ph = mp.mpf(P.theta), mp.mpf(P.p_h)
        for c in (0.6, 0.9, 1.4):
            with mp.workdps(50):
                c = mp.mpf(c)
                a_c = (4 * th * th * c * c - 1) / (8 * c * c)
                expect = -4 * th * ph * c**3 / (2 + ph * (1 + 2 * th * c))
                assert abs(mp.diff(K, a_c, 1) / expect - 1) < mp.mpf("1e-40")


class TestTails:
    def test_easy_prefactor_structure(self):
        c, T = 0.7, 100.0
        ta = tail_easy(P, c)
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

    @pytest.mark.parametrize("theta", [-1.0, -0.3, -5.0])
    @pytest.mark.parametrize("hurst", [0.51, 0.55, 0.75, 0.9, 0.99])
    def test_easy_log_prefactor_is_h_plus_k_at_the_saddle(self, theta, hurst):
        # log_prefactor = H(a_c) + K(a_c) - log(|a_c| sigma_c sqrt(2 pi)),
        # with H and K the 50-digit sections at the saddle a_c of level c,
        # on both sides of the mean up to 0.999 c*. The worst error, 7.9e-13,
        # is just above the mean, where a_c cancels in double precision.
        mp = pytest.importorskip("mpmath")
        p = ModelParams(theta=theta, hurst=hurst)
        f = energy_sections_mp(mp, p)
        mean, cs = -1.0 / (2.0 * theta), c_star(p)
        levels = [mean * x for x in (0.02, 0.3, 0.7, 0.99, 0.999)]
        levels += [mean + (cs - mean) * g for g in (1e-3, 1e-2, 0.3, 0.7, 0.99)] + [0.999 * cs]
        for c in levels:
            with mp.workdps(50):
                cc = mp.mpf(c)
                a_c = mp.mpf(theta) ** 2 / 2 - 1 / (8 * cc * cc)
                ref = f["H"](a_c) + f["K"](a_c) - mp.log(
                    abs(a_c) * mp.sqrt(4 * cc**3) * mp.sqrt(2 * mp.pi))
                err = abs(float(tail_easy(p, c).log_prefactor - ref))
            assert err <= 2e-12, (c, err)

    def test_lower_tail_orientation(self):
        ta = tail_easy(P, 0.3)
        assert ta.lower_tail
        assert ta.branch is EnergyBranch.GAUSSIAN
        assert ta.value(50.0) > 0

    def test_hard_prefactor_structure(self):
        c, T = 4.0, 80.0
        ta = tail_hard(P, c)
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
            tail_hard(P, 1.0)

    def test_boundary_quarter_power(self):
        ta = tail_boundary(P)
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
        ta = tail_easy(p_near, c)
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
                lead = tail_easy(P, c).value(T)
                corr = tail_easy(P, c, with_order1=True).value(T)
                assert abs(corr / exact - 1.0) < abs(lead / exact - 1.0)

    def test_coefficient_against_contour_oracle(self):
        # T (exact/leading - 1) converges to the coefficient like 1/T;
        # a Richardson step over T in {400, 800} removes the next order
        c = 0.7
        implied = {}
        for T in (400.0, 800.0):
            exact = contour_tail_mpmath(P.theta, P.hurst, 0.0, 1.0, c * T, T, 0.245,
                                        dps=40)
            lead = tail_easy(P, c).value(T)
            implied[T] = (exact / lead - 1.0) * T
        rich = 2.0 * implied[800.0] - implied[400.0]
        assert rich == pytest.approx(order1_coeff_easy(P, c), abs=0.6)

    def test_matches_a_50_digit_evaluation(self):
        # levels on both sides of the mean up to 0.999 c*, against the same
        # combination at 50 digits with every derivative by mp.diff. phi
        # rebuilt as sqrt(theta^2 - 2 a_c) cancels near c*: it lost 6.2e-8
        # at the level 19464.75 (0.961 c*) and 1.3e-6 at 0.999 c*. Near the
        # mean the rounding of a_c costs up to 3.8e-12
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        for theta in (-0.1, -0.5, -1.0, -2.0, -5.0):
            for hurst in (0.51, 0.6, 0.75, 0.9, 0.99):
                p = ModelParams(theta, hurst)
                mean, top = -0.5 / theta, 0.999 * c_star(p)
                levels = [mean * f for f in (0.01, 0.1, 0.3, 0.6, 0.9, 0.99, 0.999)]
                levels += [mean + (top - mean) * f
                           for f in (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0)]
                if (theta, hurst) == (-0.1, 0.51):
                    levels.append(19464.751441320615)
                for c in levels:
                    err = abs(order1_coeff_easy(p, c) / order1_coeff_mp(mp, p, c) - 1)
                    worst = max(worst, float(err))
        assert worst < 1e-11

    def test_rejects_outside_interior_branch(self):
        with pytest.raises(ValueError):
            order1_coeff_easy(P, c_star(P) + 0.5)
        with pytest.raises(ValueError):
            order1_coeff_easy(P, -0.2)

    def test_order1_correction_positivity_guard(self):
        ta = tail_easy(P, 0.7, with_order1=True)
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
        # L' + (H' + K')/T = c at a_T, the derivatives by mp.diff at 50 digits
        mp = pytest.importorskip("mpmath")
        f = energy_sections_mp(mp, P)
        for c in (c_star(P), 4.0, 8.0):
            for T in (50.0, 200.0):
                sol = saddle_solve(P, c, T)
                with mp.workdps(50):
                    a = mp.mpf(sol.a_T)
                    lhs = mp.diff(f["L"], a) + (mp.diff(f["H"], a) + mp.diff(f["K"], a)) / T
                assert float(lhs) == pytest.approx(c, rel=1e-9)
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

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_rejects_non_positive_levels(self, c):
        # classify_branch refuses the level before any bracket is built
        with pytest.raises(ValueError, match="tail level must be positive"):
            saddle_solve(P, c, 100.0)

    def test_solves_every_input_of_the_sweep(self, monkeypatch):
        # 2940 inputs from c* to 20 c* and T from 10 to 1e6, plus two deep
        # hard levels where a_T lies a few ulps below a_h; the root s_T is
        # the last float before the saddle equation changes sign
        roots = []
        bisect = energy._bisect

        def recorded(f, lo, hi):
            s = bisect(f, lo, hi)
            roots.append((f, s))
            return s

        monkeypatch.setattr(energy, "_bisect", recorded)
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
        assert len(roots) == len(inputs) == 2942
        for f, s in roots:
            below, at, above = f(math.nextafter(s, 0.0)), f(s), f(math.nextafter(s, math.inf))
            assert at == 0 or (below > 0) != (at > 0) or (at > 0) != (above > 0)

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
        # where a_T rounds to a_h, or the bracket underflows, the refusal is
        # an ArithmeticError that names that cause; none names the residual,
        # since K'/T stays finite where 2 phi^2 s is subnormal. Below c*
        # beyond the boundary window it is a ValueError. Every input below
        # the horizon listed for its (theta, c/c*), else for its theta, is
        # answered
        answered_below = {-1.0: 1e100, -0.3: math.inf, -5.0: 1e308, -0.001: 1e100,
                          (-1.0, 1e6): 1e12, (-0.001, 1e6): 1e15, (-0.3, 1e6): 1e308}
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
                    except ArithmeticError as exc:
                        assert T >= answered_below.get((theta, ratio), answered_below[theta])
                        assert "did not converge" not in str(exc)
                        assert "residual" not in str(exc)
                        continue
                    assert sol.a_T < p.a_h
                    assert math.isfinite(sol.phi_T)
                    assert math.isfinite(sol.a_expansion(T))

    def test_bisection_needs_a_sign_change(self):
        with pytest.raises(ArithmeticError, match="no sign change"):
            energy._bisect(lambda s: s * s + 1.0, 1.0, 2.0)
        # f must fall across the bracket, as the saddle equation does
        with pytest.raises(ArithmeticError, match="no sign change"):
            energy._bisect(lambda s: s - 1.5, 1.0, 2.0)

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
