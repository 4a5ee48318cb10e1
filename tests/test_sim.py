"""Tests of the path simulators: exactness, reproducibility, convergence."""

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import ks_2samp

from exact_law import energy_mean
from fousldp import sim
from fousldp.model import GenFnPoint, ModelParams, exact_lt
from fousldp.sim import (
    RngSpec,
    TimeGrid,
    _advance_batch,
    _fbm_map,
    _oracle_from_dy,
    _whiten,
    clt_statistics,
    fbm_increment_cholesky,
    kernel_weight_matrix,
    make_grid,
    simulate_fbm_batch,
    simulate_martingale_batch,
    simulate_martingale_path,
)

P = ModelParams(theta=-1.0, hurst=0.75)


def scheme_energy_mean(params, grid):
    """Exact ``E S_T`` of the trapezoidal martingale-domain scheme.

    The state ``x_i = (Y_i, J_i)`` with ``J_i = sum_{j<i} t_j^{2H-1} dY_j``
    evolves linearly, ``x_{i+1} = A_i x_i + b_i dM_i``, and
    ``Q_i = (l_H/2)(t_i^{2H-1}, 1) . x_i``, so the 2x2 state covariance
    recursion ``C_{i+1} = A_i C_i A_i^T + b_i b_i^T dq_i`` gives ``E Q_i^2``
    and hence ``E S_T = sum_i (E Q_i^2 + E Q_{i+1}^2) dq_i / 2``.
    """
    t = grid.nodes
    h = params.hurst
    dq = np.diff(t ** (2.0 - 2.0 * h)) / params.lambda_h
    half_lh = params.l_h / 2.0
    tr = t ** (2.0 * h - 1.0)
    cyy = cyj = cjj = 0.0
    eq2_left = 0.0
    mean = 0.0
    for i in range(t.size - 1):
        # Q_{i+1} = qn . x_{i+1}, x_{i+1} = x_i + e dY_i, and the implicit
        # drift solves to dY_i = (r . x_i + dM_i), r = k (q_i + qn) / den
        k = params.theta * dq[i] / 2.0
        qi0, qn0 = half_lh * tr[i], half_lh * tr[i + 1]
        e1 = tr[i]
        den = 1.0 - k * (qn0 + half_lh * e1)
        r0, r1 = k * (qi0 + qn0) / den, k * 2.0 * half_lh / den
        a00, a01, a10, a11 = 1.0 + r0, r1, e1 * r0, 1.0 + e1 * r1
        b0, b1 = 1.0 / den, e1 / den
        cyy, cyj, cjj = (
            a00 * a00 * cyy + 2.0 * a00 * a01 * cyj + a01 * a01 * cjj + b0 * b0 * dq[i],
            a00 * a10 * cyy + (a00 * a11 + a01 * a10) * cyj + a01 * a11 * cjj
            + b0 * b1 * dq[i],
            a10 * a10 * cyy + 2.0 * a10 * a11 * cyj + a11 * a11 * cjj + b1 * b1 * dq[i],
        )
        eq2 = half_lh**2 * (tr[i + 1] ** 2 * cyy + 2.0 * tr[i + 1] * cyj + cjj)
        mean += (eq2_left + eq2) / 2.0 * dq[i]
        eq2_left = eq2
    return mean


class _UnitImpulses:
    """Stand-in generator whose (n, m) "normals" are the identity matrix,
    so path j of a batch is driven by the single increment dM_j = sd_j."""

    def __init__(self):
        self.row = 0

    def standard_normal(self, out):
        rows = out.shape[0]
        out[...] = 0.0
        out[np.arange(rows), self.row + np.arange(rows)] = 1.0
        self.row += rows
        return out


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _reference_fbm_chunk(params, grid, z):
    """The physical route stepped per chunk: ``dW = chol z``, the Euler
    loop, ``Y = weights dX`` and ``_oracle_from_dy``; returns ``(S, num)``."""
    chol = fbm_increment_cholesky(params.hurst, grid)
    weights = kernel_weight_matrix(params, grid)
    n, m = z.shape
    dt = np.diff(grid.nodes)
    dW = chol @ z
    X = np.zeros(m)
    dX = np.empty((n, m))
    for i in range(n):
        Xn = X + params.theta * X * dt[i] + dW[i]
        dX[i] = Xn - X
        X = Xn
    Y = weights @ dX
    return _oracle_from_dy(params, grid, Y)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


class TestGrid:
    def test_structure(self):
        g = make_grid(50.0, 2000)
        t = g.nodes
        assert t[0] == 0.0
        assert t[-1] == 50.0
        assert np.all(np.diff(t) > 0)
        assert t[1] <= 50.0 * 1e-4
        assert g.n_intervals == 2000

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            make_grid(10.0, 50)
        with pytest.raises(ValueError):
            make_grid(-1.0, 500)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="T must be finite"):
            make_grid(T, 500)

    def test_geometric_phase_bounded(self):
        # at most half the intervals may be spent on the geometric ramp
        for n in (100, 500, 4000):
            g = make_grid(20.0, n)
            du = np.diff(g.nodes)
            uniform_count = np.sum(np.isclose(du, du[-1], rtol=1e-6))
            assert uniform_count >= n // 2

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(nodes=np.linspace(0.0, 1.0, 200))  # first node too coarse
        with pytest.raises(ValueError):
            TimeGrid(nodes=np.array([0.0, 1.0]))


class TestReproducibility:
    def test_path_bit_identical(self):
        g = make_grid(10.0, 200)
        a = simulate_martingale_path(P, g, RngSpec(seed=123, stream_id=7))
        b = simulate_martingale_path(P, g, RngSpec(seed=123, stream_id=7))
        assert np.array_equal(a.M, b.M)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.Q, b.Q)
        assert np.array_equal(a.S, b.S)

    def test_streams_independent(self):
        g = make_grid(10.0, 200)
        a = simulate_martingale_path(P, g, RngSpec(seed=123, stream_id=0))
        b = simulate_martingale_path(P, g, RngSpec(seed=123, stream_id=1))
        assert not np.array_equal(a.M, b.M)

    def test_batch_bit_identical_and_chunk_invariant_layout(self, monkeypatch):
        monkeypatch.setattr(sim, "BATCH_CHUNK", 64)
        g = make_grid(10.0, 200)
        r1 = simulate_martingale_batch(P, g, seed=5, replicates=300)
        r2 = simulate_martingale_batch(P, g, seed=5, replicates=300)
        assert np.array_equal(r1.s_terminal, r2.s_terminal)
        assert np.array_equal(r1.theta_hat, r2.theta_hat)

    # SHA-256 of the little-endian float64 bytes, pinned before the batch
    # ran its chunks on a thread pool; they change only with the scheme,
    # the draws or the stream layout
    @pytest.mark.parametrize(
        "T, n, seed, replicates, chunk, digest",
        [
            # four chunks, the last one partial
            (10.0, 200, 5, 1000, 256,
             "f2d7bff51946234d8a3eeedd65497fab2e8b29fc95eded1744ffe17f895b2e26"),
            # the default chunk plus a 5-path tail chunk
            (1.0, 100, 7, 32768 + 5, None,
             "f4057fdbb8bf69c9035152c2aff90a7ae057eccec7cf203c3c4105d25482b35f"),
        ],
    )
    def test_batch_golden_digest(
        self, T, n, seed, replicates, chunk, digest, monkeypatch
    ):
        if chunk is not None:
            monkeypatch.setattr(sim, "BATCH_CHUNK", chunk)
        r = simulate_martingale_batch(P, make_grid(T, n), seed, replicates)
        assert _digest(r.s_terminal, r.theta_hat) == digest

    def test_path_golden_digest(self):
        p = simulate_martingale_path(P, make_grid(10.0, 200), RngSpec(seed=123, stream_id=7))
        assert _digest(p.M, p.Y, p.Q, p.S, [p.theta_hat]) == (
            "60bd9db4a1ea8f0e2e362474d5a9f4295ce5bac9b259e828b9e3a3182e88aaa1"
        )

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_pooled_batch_equals_serial_chunks(self, cores, monkeypatch):
        # the worker count follows the usable cores; pin it so that the
        # pool runs with 1-6 workers on any machine
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        g = make_grid(10.0, 200)
        seed, replicates, chunk = 11, 700, 128
        monkeypatch.setattr(sim, "BATCH_CHUNK", chunk)
        r = simulate_martingale_batch(P, g, seed, replicates)
        s_parts, th_parts = [], []
        for k, lo in enumerate(range(0, replicates, chunk)):
            gen = RngSpec(seed=seed, stream_id=k).generator()
            S, num = _advance_batch(P, g, gen, min(chunk, replicates - lo))
            s_parts.append(S)
            th_parts.append(P.theta + num / S)
        assert np.array_equal(r.s_terminal, np.concatenate(s_parts))
        assert np.array_equal(r.theta_hat, np.concatenate(th_parts))

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_pooled_fbm_batch_equals_serial_chunks(self, cores, monkeypatch):
        # the physical route shares the driver; for a fixed BLAS thread
        # count its pooled chunks keep the bits of a serial loop
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        g = make_grid(10.0, 512)
        seed, replicates, chunk = 13, 700, 128
        monkeypatch.setattr(sim, "_FBM_CHUNK", chunk)
        r = simulate_fbm_batch(P, g, seed, replicates)
        K = _fbm_map(P, g)
        s_parts, th_parts = [], []
        for k, lo in enumerate(range(0, replicates, chunk)):
            gen = RngSpec(seed=seed, stream_id=k).generator()
            z = gen.standard_normal((g.n_intervals, min(chunk, replicates - lo)))
            S, num = _oracle_from_dy(P, g, _whiten(K, z))
            s_parts.append(S)
            th_parts.append(num / S)
        assert np.array_equal(r.s_terminal, np.concatenate(s_parts))
        assert np.array_equal(r.theta_hat, np.concatenate(th_parts))

    def test_fbm_batch_reproducible(self):
        g = make_grid(5.0, 128)
        r1 = simulate_fbm_batch(P, g, seed=5, replicates=64)
        r2 = simulate_fbm_batch(P, g, seed=5, replicates=64)
        assert np.array_equal(r1.s_terminal, r2.s_terminal)


class TestMartingaleRoute:
    def test_pathwise_invariants(self):
        g = make_grid(20.0, 500)
        for k in range(5):
            p = simulate_martingale_path(P, g, RngSpec(seed=11, stream_id=k))
            assert p.S[0] == 0.0
            assert p.M[0] == p.Y[0] == p.Q[0] == 0.0
            assert np.all(np.diff(p.S) >= 0.0)
            assert p.s_terminal > 0.0

    def test_martingale_terminal_variance(self):
        g = make_grid(50.0, 300)
        n = 600
        Ms = np.array(
            [
                simulate_martingale_path(P, g, RngSpec(seed=2, stream_id=k)).M[-1]
                for k in range(n)
            ]
        )
        target = 50.0 ** (2.0 - 2.0 * P.hurst) / P.lambda_h
        se = target * math.sqrt(2.0 / (n - 1))
        assert abs(Ms.mean()) < 3.0 * math.sqrt(target / n)
        assert abs(Ms.var(ddof=1) - target) < 3.0 * se

    def test_ergodic_means(self):
        g = make_grid(50.0, 2000)
        res = simulate_martingale_batch(P, g, seed=7, replicates=4000)
        s_mean = res.s_terminal.mean() / 50.0
        s_se = res.s_terminal.std(ddof=1) / 50.0 / math.sqrt(res.replicates)
        # S_T/T converges to -1/(2 theta) = 0.5; allow discretization slack
        assert abs(s_mean - 0.5) < 4.0 * s_se + 5e-3
        th_mean = res.theta_hat.mean()
        # the estimator carries an O(1/T) bias; at T=50 it is about -2/T
        assert abs(th_mean - (-1.0)) < 0.08

    def test_mgf_ties_to_exact_cgf(self):
        # empirical log-moment of exp(a S_T) against the closed form
        T, a_test = 5.0, 0.2
        g = make_grid(T, 2000)
        res = simulate_martingale_batch(P, g, seed=13, replicates=30000)
        w = np.exp(a_test * res.s_terminal)
        emp = math.log(w.mean()) / T
        se = w.std(ddof=1) / (w.mean() * math.sqrt(res.replicates)) / T
        exact = exact_lt(P, GenFnPoint(0.0, a_test, T))
        assert abs(emp - exact) < 3.0 * se + 2e-3

    def test_grid_refinement_convergence(self):
        T = 50.0
        res_a = simulate_martingale_batch(P, make_grid(T, 2000), seed=21, replicates=3000)
        res_b = simulate_martingale_batch(P, make_grid(T, 4000), seed=22, replicates=3000)
        se = math.hypot(
            res_a.s_terminal.std(ddof=1), res_b.s_terminal.std(ddof=1)
        ) / math.sqrt(3000)
        assert abs(res_a.s_terminal.mean() - res_b.s_terminal.mean()) < 3.0 * se

    @pytest.mark.parametrize("T, n", [(40.0, 4000), (100.0, 16000)])
    def test_discrete_scheme_mean_matches_exact(self, T, n):
        # deterministic grid bias of the energy's mean; the explicit Euler
        # drift this scheme replaced was 4.8e-3 too high at (40, 4000)
        bias = scheme_energy_mean(P, make_grid(T, n)) / energy_mean(P, T) - 1.0
        assert abs(bias) <= 1e-3

    def test_covariance_recursion_describes_the_kernel(self):
        # the scheme is linear in dM, so E S_T is the sum of the energies
        # of the n unit-impulse paths: run them through the batch kernel
        g = make_grid(5.0, 300)
        S, _ = _advance_batch(P, g, _UnitImpulses(), g.n_intervals)
        assert np.sum(S) == pytest.approx(scheme_energy_mean(P, g), rel=1e-12)

    def test_path_estimator_matches_batch(self):
        # a one-path batch uses stream 0 of the seed, as the path does
        g = make_grid(10.0, 200)
        path = simulate_martingale_path(P, g, RngSpec(seed=123, stream_id=0))
        batch = simulate_martingale_batch(P, g, seed=123, replicates=1)
        assert path.s_terminal == pytest.approx(batch.s_terminal[0], rel=1e-12)
        assert path.theta_hat == pytest.approx(batch.theta_hat[0], rel=1e-12)

    def test_theta_zero_injection(self):
        # with theta = 0 forced into the recurrence, Y equals M; build the
        # same recursion through a params object close to zero drift
        g = make_grid(10.0, 300)
        p_small = ModelParams(theta=-1e-12, hurst=0.75)
        path = simulate_martingale_path(p_small, g, RngSpec(seed=3, stream_id=0))
        assert np.allclose(path.Y, path.M, atol=1e-8)


class TestFbmRoute:
    def test_covariance_reproduction(self):
        g = make_grid(10.0, 128)
        chol = fbm_increment_cholesky(P.hurst, g)
        n = 4000
        zs = RngSpec(seed=9, stream_id=0).generator().standard_normal((g.n_intervals, n))
        W = np.cumsum(chol @ zs, axis=0)
        idx = [16, 40, 80, 100, 127]
        t = g.nodes[1:]
        for i in idx:
            for j in idx:
                ti, tj = t[i], t[j]
                target = 0.5 * (ti**1.5 + tj**1.5 - abs(ti - tj) ** 1.5)
                emp = np.mean(W[i] * W[j])
                spread = np.std(W[i] * W[j], ddof=1) / math.sqrt(n)
                assert abs(emp - target) < 4.0 * spread

    def test_cholesky_size_guard(self):
        g = make_grid(10.0, 8192)
        with pytest.raises(ValueError):
            fbm_increment_cholesky(0.75, g)

    def test_kernel_weights_reproduce_whitening_variance(self):
        # Var(Y_t) must equal <M>_t = t^{2-2H}/lambda_H when X = W^H
        g = make_grid(10.0, 256)
        chol = fbm_increment_cholesky(P.hurst, g)
        Wmat = kernel_weight_matrix(P, g)
        A = Wmat @ chol  # Y = A z for X = W^H (theta = 0)
        var_y = np.sum(A * A, axis=1)
        t = g.nodes[1:]
        target = t ** (2.0 - 2.0 * P.hurst) / P.lambda_h
        # quadrature bias shrinks with the grid; check at interior times
        mask = t > 0.5
        rel = np.abs(var_y[mask] - target[mask]) / target[mask]
        assert np.max(rel) < 0.02

    def test_h_near_half_matches_standard_ou(self):
        # at H = 0.5001 the fBM is numerically a Brownian motion and X is a
        # standard OU path: compare variance of X_T against the closed form
        q = ModelParams(theta=-1.0, hurst=0.5001)
        g = make_grid(5.0, 256)
        chol = fbm_increment_cholesky(q.hurst, g)
        cov = chol @ chol.T
        bm = np.diag(np.diff(g.nodes))
        assert np.max(np.abs(cov - bm)) < 1e-2

    def test_two_sample_agreement(self):
        g = make_grid(10.0, 512)
        rf = simulate_fbm_batch(P, g, seed=31, replicates=1500)
        rm = simulate_martingale_batch(P, g, seed=32, replicates=1500)
        stat = ks_2samp(rf.s_terminal, rm.s_terminal).statistic
        crit = 1.628 * math.sqrt(2.0 / 1500.0)
        assert stat < crit

    @pytest.mark.parametrize("T, n, replicates", [(5.0, 128, 64), (10.0, 512, 700)])
    def test_batch_matches_per_step_reference(self, T, n, replicates, monkeypatch):
        # 700 paths in chunks of 256 end on a partial chunk
        monkeypatch.setattr(sim, "_FBM_CHUNK", 256)
        g = make_grid(T, n)
        r = simulate_fbm_batch(P, g, seed=13, replicates=replicates)
        s_parts, th_parts = [], []
        for k, lo in enumerate(range(0, replicates, 256)):
            gen = RngSpec(seed=13, stream_id=k).generator()
            z = gen.standard_normal((n, min(256, replicates - lo)))
            S, num = _reference_fbm_chunk(P, g, z)
            s_parts.append(S)
            th_parts.append(num / S)
        assert _max_rel(r.s_terminal, np.concatenate(s_parts)) <= 1e-12
        assert _max_rel(r.theta_hat, np.concatenate(th_parts)) <= 1e-12

    def test_folded_map_is_lower_triangular(self):
        # the map is built in the factor's buffer, whose upper triangle
        # must be zero
        g = make_grid(5.0, 128)
        assert not np.any(np.triu(_fbm_map(P, g), 1))
        assert not np.any(np.triu(fbm_increment_cholesky(P.hurst, g), 1))

    def test_factor_cache(self, monkeypatch):
        monkeypatch.setattr(sim, "_fbm_cache", None)
        g = make_grid(5.0, 128)
        K = _fbm_map(P, g)
        again = _fbm_map(P, make_grid(5.0, 128))
        assert again is K
        with pytest.raises(ValueError):
            K[0, 0] = 1.0
        others = [
            (ModelParams(theta=-2.0, hurst=0.75), g),
            (ModelParams(theta=-1.0, hurst=0.6), g),
            (P, make_grid(5.0, 129)),
            (P, g),
        ]
        for params, grid in others:
            new_K = _fbm_map(params, grid)
            assert new_K is not K
            assert len(sim._fbm_cache) == 2 and sim._fbm_cache[1] is new_K
            K = new_K
        # only the last entry is kept: P on g was rebuilt, equal to the first
        assert K is not again
        assert np.array_equal(K, again)

    def test_factor_cache_shared_across_threads(self, monkeypatch):
        # more threads than cores race for one entry; all must get it
        monkeypatch.setattr(sim, "_fbm_cache", None)
        g = make_grid(5.0, 128)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_fbm_map, P, g) for _ in range(32)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert all(K is got[0] for K in got)


class TestCltStatistics:
    def test_standardization(self):
        g = make_grid(50.0, 1000)
        res = simulate_martingale_batch(P, g, seed=17, replicates=2000)
        e, m = clt_statistics(res, P)
        assert e.size == m.size == 2000
        assert abs(np.mean(e)) < 0.2
        assert 0.7 < np.std(e) < 1.3
        assert 0.7 < np.std(m) < 1.3

    def test_minimum_paths(self):
        g = make_grid(10.0, 200)
        res = simulate_martingale_batch(P, g, seed=1, replicates=100)
        with pytest.raises(ValueError):
            clt_statistics(res, P)
