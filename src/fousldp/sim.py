r"""Path simulation for the fractional Ornstein-Uhlenbeck functionals.

Two independent routes are provided.

The primary route simulates directly in the martingale domain: the
fundamental martingale ``M`` has deterministic quadratic variation
``<M>_t = t^{2-2H}/lambda_H``, so its increments are independent centered
Gaussians with known variances, and the system ``(M, Y, Q)`` closes through

.. math::
    dY = \theta Q\,d\langle M\rangle + dM, \qquad
    Q_t = \frac{l_H}{2}\Bigl(t^{2H-1} Y_t + \int_0^t s^{2H-1}\,dY_s\Bigr).

No singular-kernel quadrature is needed and the increments of ``M`` are
exact in distribution. The ``d<M>`` integrals are discretized by the
trapezoidal rule: the drift increment ``theta (Q_i + Q_{i+1})/2 dq_i`` is
implicit in ``Q_{i+1}`` but linear in ``dY_i``, so each step solves in
closed form, and the energy increment is ``(Q_i^2 + Q_{i+1}^2)/2 dq_i``.
An explicit (left-point) drift inflates the variance of ``Q`` and biases
the law of ``S_T`` by ``O(dt)``: +4.8e-3 of ``E S_T`` (relative) at
``T = 40`` on 4000 intervals, against -2.0e-4 for the trapezoidal scheme
(-3.99e-3 absolute, on ``E S_T = 19.85`` at ``theta = -1, H = 0.75``),
whose bias is still first order but about 24 times smaller. The
estimator is formed as ``theta_hat - theta = int Q dM / int Q^2 d<M>``
with the stochastic integral taken at the left point (Ito).

The physical route (batches only) simulates the physical process: an
exact fractional Brownian motion vector (dense covariance factorization),
an Euler scheme for ``dX = theta X dt + dW^H``, and the whitening
transform ``Y_t = \int_0^t w(t,s) dX_s`` with singularity-aware
quadrature weights. The two routes must agree in distribution; the test
suite compares them with a two-sample Kolmogorov-Smirnov statistic.

The physical route discretizes all its integrals with left-point
(Ito-consistent) sums.

Each route has one step, run by one driver. A single martingale path is
the batch kernel run on one path, keeping its trajectories. Both batches
go through ``_run_chunks``: chunks of a fixed size per route
(``BATCH_CHUNK`` and ``_FBM_CHUNK`` paths), chunk ``k`` drawing from
stream ``k`` of the seed, run concurrently on a thread pool with one
worker per core the process may use, and concatenated in chunk order.

Reproducibility contract: a batch is bit-identical for a given (seed,
grid, replicates), whatever the execution order. The martingale route
holds this regardless of thread count; the golden digests in
``tests/test_sim.py::TestReproducibility`` and the comparisons there of
each pooled batch with a serial loop over its chunks enforce it. The
physical route maps its normals through BLAS matrix products, whose
rounding depends on the number of BLAS threads: its output is
bit-identical for a fixed thread count and moves at rounding level (below
1e-13 relative) when that count changes.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

__all__ = [
    "TimeGrid",
    "RngSpec",
    "SimPath",
    "BatchResult",
    "make_grid",
    "simulate_martingale_path",
    "simulate_martingale_batch",
    "fbm_increment_cholesky",
    "kernel_weight_matrix",
    "simulate_fbm_batch",
    "clt_statistics",
]

#: first grid node as a fraction of the horizon
_FIRST_NODE_FRACTION = 1e-6

#: paths per chunk of a martingale batch; fixed so that results do not
#: depend on how chunks are scheduled
BATCH_CHUNK = 1 << 15

#: paths per chunk of a physical-route batch
_FBM_CHUNK = 256

#: time steps drawn per block; drawing the (n, m) normals of a chunk in row
#: blocks yields the same numbers as one draw and bounds the memory per chunk
_DRAW_ROWS = 32


@dataclass(frozen=True)
class TimeGrid:
    """A strictly increasing grid 0 = t_0 < ... < t_N = T.

    The grid is geometric near the origin (to resolve the ``t^{1-2H}``
    singularity of the quadratic-variation density) and uniform afterwards.
    """

    nodes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", t)
        if t.ndim != 1 or t.size < 101:
            raise ValueError("grid must be one-dimensional with at least 100 intervals")
        if t[0] != 0.0 or not np.all(np.diff(t) > 0):
            raise ValueError("grid nodes must start at 0 and increase strictly")
        if t[1] > t[-1] * 1e-4:
            raise ValueError(
                f"first positive node {t[1]} too coarse for horizon {t[-1]}"
            )

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream index; each replicate gets an independent stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class SimPath:
    """A single simulated path of the martingale-domain system.

    ``M`` is the fundamental martingale; ``S`` is the running trapezoidal
    energy ``int_0^t Q^2 d<M>`` (nondecreasing, S_0=0); ``theta_hat`` is the
    drift estimator at the horizon, formed as in the martingale batch.
    """

    grid: TimeGrid
    M: np.ndarray
    Y: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    theta_hat: float

    @property
    def s_terminal(self) -> float:
        return float(self.S[-1])


@dataclass(frozen=True)
class BatchResult:
    """Terminal statistics of a batch of independent paths."""

    s_terminal: np.ndarray
    theta_hat: np.ndarray
    grid: TimeGrid = field(repr=False)

    @property
    def replicates(self) -> int:
        return self.s_terminal.size


def make_grid(T: float, n: int) -> TimeGrid:
    """Build a simulation grid with ``n`` intervals on ``[0, T]``.

    Starts geometrically at ``T * 1e-6`` with stretch factor at least 1.05
    (increased automatically so that the geometric phase never uses more
    than half the intervals), then switches to uniform spacing once the
    geometric step reaches the uniform step.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"horizon T must be finite and positive, got T={T}")
    if n < 100:
        raise ValueError(f"need at least 100 intervals, got n={n}")
    t1 = T * _FIRST_NODE_FRACTION
    stretch = 1.05
    for _ in range(100):
        geo = [t1]
        du = None
        while True:
            step = geo[-1] * (stretch - 1.0)
            remaining = n - 1 - len(geo)
            if remaining <= 0:
                break
            du = (T - geo[-1]) / remaining
            if step >= du:
                break
            geo.append(geo[-1] * stretch)
        if len(geo) <= n // 2 and du is not None:
            uniform = np.linspace(geo[-1], T, n - len(geo) + 1)[1:]
            nodes = np.concatenate(([0.0], np.asarray(geo), uniform))
            return TimeGrid(nodes=nodes)
        stretch *= 1.2
    raise ArithmeticError(f"could not construct grid for T={T}, n={n}")


def _dq_increments(params: ModelParams, grid: TimeGrid) -> np.ndarray:
    # exact quadratic-variation increments <M>_{t_{i+1}} - <M>_{t_i}
    t = grid.nodes
    expo = 2.0 - 2.0 * params.hurst
    return np.diff(t**expo) / params.lambda_h


def _trapezoid_coefficients(params: ModelParams, grid: TimeGrid):
    """Per-step constants of the trapezoidal martingale-domain scheme.

    With ``P_i = Q_i + (l_H/2)(t_{i+1}^{2H-1} - t_i^{2H-1}) Y_i``, the value
    ``Q`` would take if ``dY_i`` were zero, the step is

        dY_i = c_q[i] (Q_i + P_i) + c_dm[i] dM_i,   Q_{i+1} = P_i + g[i] dY_i,

    the closed-form solution of ``dY_i = k_i (Q_i + Q_{i+1}) + dM_i`` with
    ``k_i = theta dq_i / 2`` and ``g_i = (l_H/2)(t_{i+1}^{2H-1} +
    t_i^{2H-1})``. Returns ``(dq, h_dtr, c_q, c_dm, g, w)``: the variances
    of ``dM_i``, the coefficient of ``Y_i`` in ``P_i``, the three step
    coefficients, and the trapezoidal energy weights
    ``w_i = (dq_i + dq_{i+1})/2`` of ``Q_{i+1}^2`` (``dq_{n-1}/2`` at the
    horizon).
    """
    dq = _dq_increments(params, grid)
    half_lh = params.l_h / 2.0
    tr = grid.nodes ** (2.0 * params.hurst - 1.0)
    k = params.theta * dq / 2.0
    g = half_lh * (tr[1:] + tr[:-1])
    c_dm = 1.0 / (1.0 - k * g)
    w = np.append(dq[:-1] + dq[1:], dq[-1]) / 2.0
    return dq, half_lh * np.diff(tr), k * c_dm, c_dm, g, w


def simulate_martingale_path(
    params: ModelParams, grid: TimeGrid, rng: RngSpec
) -> SimPath:
    """Simulate one path of ``(M, Y, Q, S)`` in the martingale domain.

    The batch kernel run on one path, keeping its trajectories. ``S`` is
    the running trapezoidal sum ``sum_i (Q_i^2 + Q_{i+1}^2)/2 dq_i``, and
    ``theta_hat`` divides the Ito sum by its last value.
    """
    dM, Y, Q = (np.zeros((grid.n_intervals + 1, 1)) for _ in range(3))
    _, num = _advance_batch(params, grid, rng.generator(), 1, trajectories=(dM, Y, Q))
    Q = Q[:, 0]
    S = np.cumsum((Q[:-1] ** 2 + Q[1:] ** 2) / 2.0 * _dq_increments(params, grid))
    return SimPath(
        grid=grid,
        M=np.cumsum(dM[:, 0]),
        Y=Y[:, 0],
        Q=Q,
        S=np.concatenate(([0.0], S)),
        theta_hat=params.theta + float(num[0]) / float(S[-1]),
    )


def _advance_batch(
    params: ModelParams,
    grid: TimeGrid,
    gen: np.random.Generator,
    m: int,
    trajectories: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal energy ``S`` and Ito sum ``sum_i Q_i dM_i`` for ``m`` paths.

    The standard normals are drawn from ``gen`` as one ``(n_intervals, m)``
    array, in row blocks into one reused buffer; see
    ``_trapezoid_coefficients`` for the step. ``trajectories``, if given,
    is a tuple of three ``(n_intervals + 1, m)`` arrays whose rows 1..n
    receive ``dM``, ``Y`` and ``Q`` after each step; row 0 is left as it is.
    """
    dq, h_dtr, c_q, c_dm, g, w = _trapezoid_coefficients(params, grid)
    sd = np.sqrt(dq)
    n = grid.n_intervals
    Y = np.zeros(m)
    Q = np.zeros(m)
    S = np.zeros(m)
    num = np.zeros(m)
    P = np.empty(m)
    dY = np.empty(m)
    tmp = np.empty(m)
    buf = np.empty((min(_DRAW_ROWS, n), m))
    for lo in range(0, n, _DRAW_ROWS):
        block = buf[: min(_DRAW_ROWS, n - lo)]
        gen.standard_normal(out=block)
        block *= sd[lo : lo + block.shape[0], None]
        if trajectories is not None:
            trajectories[0][lo + 1 : lo + 1 + block.shape[0]] = block
        for i, dM in enumerate(block, start=lo):
            np.multiply(Q, dM, out=tmp)
            num += tmp
            np.multiply(Y, h_dtr[i], out=P)
            P += Q
            np.add(Q, P, out=dY)
            dY *= c_q[i]
            np.multiply(dM, c_dm[i], out=tmp)
            dY += tmp
            np.multiply(dY, g[i], out=Q)
            Q += P
            Y += dY
            np.multiply(Q, Q, out=tmp)
            tmp *= w[i]
            S += tmp
            if trajectories is not None:
                trajectories[1][i + 1] = Y
                trajectories[2][i + 1] = Q
    return S, num


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunks(
    grid: TimeGrid, seed: int, replicates: int, chunk: int, step
) -> BatchResult:
    """The batch driver shared by both routes.

    Splits ``replicates`` paths into chunks of ``chunk``, the route's fixed
    size (the last one partial), and runs ``step(gen, m) -> (S_T,
    theta_hat)`` on chunk ``k`` with the generator of stream ``k``, so the
    output is bit-identical for a given (seed, grid, replicates) regardless
    of scheduling. The chunks run concurrently on a thread pool with one
    worker per core the process may use (its CPU affinity), at most one per
    chunk; numpy and BLAS release the GIL in the draws, the ufunc loops and
    the products.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    sizes = [min(chunk, replicates - lo) for lo in range(0, replicates, chunk)]

    def run(k):
        return step(RngSpec(seed=seed, stream_id=k).generator(), sizes[k])

    with ThreadPoolExecutor(max_workers=min(_usable_cores(), len(sizes))) as pool:
        parts = list(pool.map(run, range(len(sizes))))
    s_parts, th_parts = zip(*parts)
    return BatchResult(
        s_terminal=np.concatenate(s_parts),
        theta_hat=np.concatenate(th_parts),
        grid=grid,
    )


def simulate_martingale_batch(
    params: ModelParams,
    grid: TimeGrid,
    seed: int,
    replicates: int,
) -> BatchResult:
    """Simulate terminal ``(S_T, theta_hat_T)`` for many independent paths.

    Paths are generated in chunks of ``BATCH_CHUNK``, one RNG stream per
    chunk (stream index = chunk index), run concurrently by ``_run_chunks``.
    The golden digests and the serial-loop comparison in
    ``tests/test_sim.py::TestReproducibility`` enforce that the output does
    not depend on the number of cores.
    """

    def step(gen, m):
        S, num = _advance_batch(params, grid, gen, m)
        return S, params.theta + num / S

    return _run_chunks(grid, seed, replicates, BATCH_CHUNK, step)


# ---------------------------------------------------------------------------
# physical route: fractional Brownian motion + whitening kernel
# ---------------------------------------------------------------------------

_FBM_MAX_N = 4096


def fbm_increment_cholesky(hurst: float, grid: TimeGrid) -> np.ndarray:
    """Cholesky factor of the covariance of the fBM increments on the grid.

    Exact in distribution: the increment vector is Gaussian with
    ``Cov(dW_i, dW_j)`` computed from the fBM covariance function. A single
    jitter retry with ridge 1e-12 is attempted if the matrix is numerically
    not positive definite.
    """
    if grid.n_intervals > _FBM_MAX_N:
        raise ValueError(
            f"dense factorization limited to {_FBM_MAX_N} intervals, "
            f"got {grid.n_intervals}"
        )
    t = grid.nodes
    # Cov(dW_i, dW_j) via the rectangle rule on R(t,s) = (t^2H+s^2H-|t-s|^2H)/2:
    # the second difference of F[a, b] = |t_a - t_b|^2H,
    # (F[i+1, j] + F[i, j+1] - F[i, j] - F[i+1, j+1]) / 2
    F = np.abs(t[:, None] - t[None, :])
    F **= 2.0 * hurst
    cov = F[1:, :-1] + F[:-1, 1:]
    cov -= F[:-1, :-1]
    cov -= F[1:, 1:]
    cov *= 0.5
    del F
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        scale = np.mean(np.diag(cov))
        return np.linalg.cholesky(cov + 1e-12 * scale * np.eye(cov.shape[0]))


def kernel_weight_matrix(params: ModelParams, grid: TimeGrid) -> np.ndarray:
    """Quadrature weights for ``Y_{t_j} = sum_i W[j, i] dX_i``.

    ``W[j, i]`` is the average of the whitening kernel ``w(t_j, s)`` over
    the interval ``(t_i, t_{i+1})``, computed exactly through the
    regularized incomplete beta function (the kernel is a shifted beta
    density in ``s/t_j``), so the integrable endpoint singularities at
    ``s = 0`` and ``s = t_j`` are handled without special-casing.
    """
    # only the physical route needs scipy, which is slow to import
    from scipy.special import betainc

    t = grid.nodes
    n = grid.n_intervals
    alpha = 1.5 - params.hurst
    beta_full = math.gamma(alpha) ** 2 / math.gamma(2.0 * alpha)
    W = np.zeros((n, n))
    for j in range(1, n + 1):
        tj = t[j]
        x = np.clip(t[: j + 1] / tj, 0.0, 1.0)
        reg = betainc(alpha, alpha, x)
        seg = np.diff(reg) * beta_full * tj ** (2.0 * alpha - 1.0)
        W[j - 1, :j] = seg / np.diff(t[: j + 1]) / params.kappa_h
    return W


def _oracle_from_dy(params: ModelParams, grid: TimeGrid, Y: np.ndarray):
    # derive (S, numerator) from a Y path on the grid; Y has shape
    # (n, m) for n grid times t_1..t_n (Y at t_0 = 0 implicit)
    dq = _dq_increments(params, grid)
    # t^{2H-1} at every node, zero at the origin since 2H-1 > 0
    tr = grid.nodes ** (2.0 * params.hurst - 1.0)
    dY = np.empty_like(Y)
    dY[0] = Y[0]
    np.subtract(Y[1:], Y[:-1], out=dY[1:])
    # Q = (l_H/2)(t^{2H-1} Y + J), J the running sum of s^{2H-1} dY at the
    # left nodes
    Q = np.multiply(tr[:-1, None], dY)
    np.cumsum(Q, axis=0, out=Q)
    Q += tr[1:, None] * Y
    Q *= params.l_h / 2.0
    # left-point sums; Q at t_0 is zero
    S = dq[1:] @ np.square(Q[:-1])
    dY[1:] *= Q[:-1]
    num = dY[1:].sum(axis=0)
    return S, num


#: the physical route's map ``K`` for the last (theta, hurst, grid) it ran
#: on, as ``(key, K)``; see ``_fbm_map``
_fbm_cache = None
_fbm_cache_lock = threading.Lock()


def _fbm_map(params: ModelParams, grid: TimeGrid) -> np.ndarray:
    """Read-only lower-triangular ``K`` with ``Y = K z`` on ``grid``.

    ``K`` maps standard normals ``z`` to the whitened process at
    ``t_1..t_n``. The route is linear in ``z``, so ``K`` is the Euler step
    ``dX_i = theta X_i dt_i + dW_i`` run once on the columns of the fBM
    increment factor, whitened by the kernel weights. One entry is kept,
    keyed by the parameters and the grid nodes, so equal grids from
    separate ``make_grid`` calls share it.
    """
    global _fbm_cache
    key = (params.theta, params.hurst, grid.nodes.tobytes())
    with _fbm_cache_lock:
        if _fbm_cache is None or _fbm_cache[0] != key:
            _fbm_cache = None  # free the old entry before building the new one
            _fbm_cache = (key, _build_fbm_map(params, grid))
        return _fbm_cache[1]


def _build_fbm_map(params: ModelParams, grid: TimeGrid) -> np.ndarray:
    # the Euler step runs in the buffer of the Cholesky factor: row i of
    # dX depends on z_0..z_i only and is read from the factor at step i
    dX = fbm_increment_cholesky(params.hurst, grid)
    dt = np.diff(grid.nodes)
    X = np.zeros(grid.n_intervals)
    for i in range(grid.n_intervals):
        row = dX[i, : i + 1]
        row += X[: i + 1] * (params.theta * dt[i])
        X[: i + 1] += row
    K = _whiten(kernel_weight_matrix(params, grid), dX)
    K.flags.writeable = False
    return K


def _whiten(K: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``K z`` for a lower-triangular ``K`` and an ``(n, m)`` array ``z``,
    in the buffer of ``z``.

    Computed as ``(K z)^T = z^T K^T``, so that both operands are already in
    BLAS's column-major layout and nothing is copied.
    """
    from scipy.linalg.blas import dtrmm

    return dtrmm(1.0, K.T, z.T, side=1, lower=0, overwrite_b=1).T


def simulate_fbm_batch(
    params: ModelParams,
    grid: TimeGrid,
    seed: int,
    replicates: int,
) -> BatchResult:
    """Terminal statistics for many physical-route paths.

    Same driver and streams as the martingale batch, in chunks of
    ``_FBM_CHUNK`` paths: chunk ``k`` draws its ``(n, m)`` standard normals
    ``z`` from stream ``k``, and the chunks run concurrently on the same
    thread pool. The whole map from ``z`` to ``Y`` (fBM factor, Euler
    step, kernel weights) is one fixed lower-triangular matrix ``K``, built
    once per (theta, hurst, grid) by ``_fbm_map``, so each chunk costs a
    single triangular product ``Y = K z``. The last ``K`` built stays
    cached, one grid at a time: it holds ``8 n^2`` bytes, 33.5 MB at
    ``n = 2048`` and 134 MB at the ``n = 4096`` limit. The output depends on the number of BLAS threads
    at rounding level; see the module docstring.
    """
    K = _fbm_map(params, grid)
    n = grid.n_intervals

    def step(gen, m):
        Y = _whiten(K, gen.standard_normal((n, m)))
        S, num = _oracle_from_dy(params, grid, Y)
        return S, num / S

    return _run_chunks(grid, seed, replicates, _FBM_CHUNK, step)


def clt_statistics(
    result: BatchResult, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Standardized central-limit samples for the energy and the estimator.

    Energy: ``(S_T + T/(2 theta)) / sqrt(T)`` has limiting variance
    ``-1/(2 theta^3)``. Estimator: ``sqrt(T)(theta_hat - theta)`` has
    limiting variance ``-2 theta``, with ``T = result.grid.T``. Both samples
    are divided by the theoretical standard deviations, so each converges
    to N(0, 1).
    """
    if result.replicates < 1000:
        raise ValueError("need at least 1000 paths for CLT statistics")
    T = result.grid.T
    theta = params.theta
    energy = (result.s_terminal + T / (2.0 * theta)) / math.sqrt(T)
    energy = energy / math.sqrt(-1.0 / (2.0 * theta**3))
    mle = math.sqrt(T) * (result.theta_hat - theta) / math.sqrt(-2.0 * theta)
    return energy, mle
