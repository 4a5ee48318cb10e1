"""The layer probe: every per-layer metric, measured the same way in each
traced run, whatever the workload.

Each item calls the package as the workload that the layer serves does, at
that workload's sizes, so each per-layer number has one meaning everywhere:

* closed-form layers: one round of the ``closed-form`` sweep, per call;
* the martingale simulator: one 32768-path chunk at ``T = 40``,
  ``n = 4000`` (a quarter of an ``mc-tail`` round), split into the normal
  draws, redrawn apart from the same stream in the same 64-row blocks, and
  the rest; its peak traced allocation;
* ``validate.mc_tail`` and ``validate.clt_test`` on a 131072-path result,
  the chunk's result repeated four times;
* the physical route at ``T = 20``, ``n = 2048``: the Cholesky factor, the
  kernel weights, and the cost per path of a 1024-path batch beyond them;
* the CLI: importing ``fousldp.cli`` in a fresh interpreter, ``cli.run`` in
  process for each command of the ``cli`` workload, and one scalar path.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np

import workloads as W
from fousldp import cli, validate
from fousldp.sim import (
    BatchResult,
    RngSpec,
    fbm_increment_cholesky,
    kernel_weight_matrix,
    make_grid,
    simulate_fbm_batch,
    simulate_martingale_batch,
    simulate_martingale_path,
)

#: the block height in which the batch draws its normals
_DRAW_ROWS = 64
_FBM_PROBE_PATHS = 1024
_IMPORT_PROBES = 3
_PATH_PROBES = 5


def _martingale_chunk(seed, tr):
    grid = make_grid(W.MC_T, W.MC_N)
    m = W.BATCH_CHUNK
    tracemalloc.start()
    with tr.span("sim.martingale_chunk"):
        res = simulate_martingale_batch(W.P, grid, seed, m)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    gen = RngSpec(seed, 0).generator()
    n = grid.n_intervals
    with tr.span("sim.normal_draw"):
        for lo in range(0, n, _DRAW_ROWS):
            gen.standard_normal((min(_DRAW_ROWS, n - lo), m))
    full = BatchResult(np.tile(res.s_terminal, 4), np.tile(res.theta_hat, 4), grid)
    reps = full.replicates
    mc_tail = tr.wrap("validate.mc_tail", validate.mc_tail)
    mc_tail(W.P, "energy", W.MC_C_ENERGY, W.MC_T, reps, seed, result=full)
    mc_tail(W.P, "mle", W.MC_C_MLE, W.MC_T, reps, seed, result=full)
    tr.wrap("validate.clt_test", validate.clt_test)(W.P, W.MC_T, reps, seed, result=full)
    return peak


def _fbm(seed, tr):
    grid = make_grid(W.FBM_T, W.FBM_N)
    with tr.span("sim.fbm_cholesky"):
        fbm_increment_cholesky(W.HURST, grid)
    with tr.span("sim.kernel_weights"):
        kernel_weight_matrix(W.P, grid)
    with tr.span("sim.fbm_probe_batch"):
        simulate_fbm_batch(W.P, grid, seed, _FBM_PROBE_PATHS)


def _cli(seed, tr):
    code = ("import time; t = time.perf_counter(); import fousldp.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(_IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=W.cli_env(), check=True, timeout=60)
        imports.append(float(proc.stdout))
    out_dir = os.path.join(W.OUT, f"probe-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for _, argv in W.cli_commands(seed, out_dir):
            with contextlib.redirect_stdout(io.StringIO()), tr.span("cli.run"):
                code = cli.run(argv)
            if code:
                raise RuntimeError(f"cli.run {argv} exited {code}")
    finally:
        shutil.rmtree(out_dir)
    grid = make_grid(W.CLI_SIM_T, 2000)
    path = tr.wrap("sim.martingale_path", simulate_martingale_path)
    for k in range(_PATH_PROBES):
        path(W.P, grid, RngSpec(seed, k))
    return statistics.median(imports)


def layer_metrics(seed: int, tr) -> dict:
    """Run the probe and return ``{name: (value, unit)}``."""
    W.cf_round(W.cf_inputs(seed), tr)
    peak = _martingale_chunk(seed, tr)
    _fbm(seed, tr)
    import_s = _cli(seed, tr)
    chunk, draw = tr.total("sim.martingale_chunk"), tr.total("sim.normal_draw")
    chol, kern = tr.total("sim.fbm_cholesky"), tr.total("sim.kernel_weights")
    per_path = (tr.total("sim.fbm_probe_batch") - chol - kern) / _FBM_PROBE_PATHS
    us, ms = 1e6, 1e3
    return {
        "special.r_h_scaled_us": (tr.median("special.r_h_scaled") * us, "us"),
        "model.exact_lt_us": (tr.median("model.exact_lt") * us, "us"),
        "energy.tail_energy_us": (tr.median("energy.tail_energy") * us, "us"),
        "energy.saddle_solve_us": (tr.median("energy.saddle_solve") * us, "us"),
        "mle.tail_mle_us": (tr.median("mle.tail_mle") * us, "us"),
        "validate.legendre_oracle_ms": (tr.median("validate.legendre_oracle") * ms, "ms"),
        "validate.gamma_contour_oracle_ms": (tr.median("validate.gamma_contour_oracle") * ms, "ms"),
        "validate.mc_tail_ms": (tr.median("validate.mc_tail") * ms, "ms"),
        "validate.clt_test_ms": (tr.median("validate.clt_test") * ms, "ms"),
        "sim.martingale_batch_s": (chunk, "s"),
        "sim.path_steps_per_s": (W.BATCH_CHUNK * W.MC_N / chunk, "1/s"),
        "sim.normal_draw_s": (draw, "s"),
        "sim.recurrence_s": (chunk - draw, "s"),
        "sim.chunk_peak_mb": (peak / 2**20, "MB"),
        "sim.fbm_cholesky_s": (chol, "s"),
        "sim.kernel_weights_s": (kern, "s"),
        "sim.fbm_per_path_ms": (per_path * ms, "ms"),
        "sim.martingale_path_ms": (tr.median("sim.martingale_path") * ms, "ms"),
        "cli.import_s": (import_s, "s"),
        "cli.run_ms": (tr.total("cli.run") * ms, "ms"),
    }
