"""Self-checks of the benchmark's judges.

    python3 perfbench/selfcheck.py [--seeds 606 1 2]

1. Power. The martingale route used an explicit left-point drift before it
   moved to the trapezoidal scheme; that scheme biased ``E S_T`` by about
   +0.48% at ``T = 40``, ``n = 4000``. It is rebuilt here on the same
   normal streams as the package's batch, and the ``mc-tail`` statistical
   checks are applied to its 131072-path sample at each seed. The mean
   check must reject it; the lines show what the others read.
2. The ``fbm-oracle`` scheme-mean check: the exact mean of the physical
   route's discrete scheme at ``n = 1024`` and ``2048`` against the exact
   ``E S_T`` at ``T = 20``; it must read about +1.08% and +0.46%.

Exits non-zero if either expectation fails. Takes about a minute per seed.
"""

import argparse
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import exact_ref as X  # noqa: E402
import judges as J  # noqa: E402
import workloads as W  # noqa: E402
from fousldp.sim import (  # noqa: E402
    RngSpec,
    fbm_increment_cholesky,
    kernel_weight_matrix,
    make_grid,
)


def explicit_scheme_batch(theta, hurst, nodes, seed, paths, chunk=W.BATCH_CHUNK):
    """Terminal ``(S_T, theta_hat)`` of the explicit left-point scheme

        dY_i = theta Q_i dq_i + dM_i,  S += Q_i^2 dq_i,  sum += Q_i dY_i,
        Q_{i+1} = (l_H/2)(t_{i+1}^{2H-1} Y_{i+1} + sum_{k<=i} t_k^{2H-1} dY_k),

    with ``theta_hat = sum / S``, on the package's normal streams (one per
    chunk, drawn in 64-row blocks)."""
    lam, half_l = W.qv_constants(hurst)
    dq = np.diff(nodes ** (2.0 - 2.0 * hurst)) / lam
    sd = np.sqrt(dq)
    power = nodes ** (2.0 * hurst - 1.0)
    n = nodes.size - 1
    s_parts, th_parts = [], []
    for k in range(0, paths // chunk):
        gen = RngSpec(seed, k).generator()
        Y, Q, Jc, S, num = (np.zeros(chunk) for _ in range(5))
        for lo in range(0, n, 64):
            block = gen.standard_normal((min(64, n - lo), chunk))
            for i, z in enumerate(block, start=lo):
                dY = theta * Q * dq[i] + sd[i] * z
                S += Q * Q * dq[i]
                num += Q * dY
                Y += dY
                Jc += power[i] * dY
                Q = half_l * (power[i + 1] * Y + Jc)
        s_parts.append(S)
        th_parts.append(num / S)
    return np.concatenate(s_parts), np.concatenate(th_parts)


def power_check(seeds) -> bool:
    ref = W.mc_references()
    grid = make_grid(W.MC_T, W.MC_N)
    ok = True
    for seed in seeds:
        s, th = explicit_scheme_batch(W.THETA, W.HURST, grid.nodes, seed, W.MC_PATHS)
        checks = J.Checks()
        n = s.size
        J.tail_check(checks, "energy tail", int(np.count_nonzero(s / W.MC_T >= W.MC_C_ENERGY)),
                     n, ref["p_energy"])
        J.tail_check(checks, "estimator tail", int(np.count_nonzero(th >= W.MC_C_MLE)), n,
                     ref["p_mle"])
        J.mean_check(checks, "mean of S_T", s, ref["mean"])
        J.law_check(checks, "law of S_T", s, ref["e_levels"], ref["e_cdf"])
        J.law_check(checks, "law of theta_hat", th, ref["m_levels"], ref["m_cdf"])
        bias = float(np.mean(s)) / ref["mean"] - 1.0
        print(f"explicit scheme, seed {seed}: sample mean bias {bias:+.3%}")
        for line in checks.lines:
            print("   ", line.replace("PASS", "accepts").replace("FAIL", "rejects"))
        ok = ok and "mean of S_T" in checks.wrong
    return ok


def scheme_mean_check() -> bool:
    exact = X.energy_mean(X.Model(W.THETA, W.HURST), W.FBM_T)
    biases = {}
    for n in (1024, 2048):
        grid = make_grid(W.FBM_T, n)
        mean = W.fbm_scheme_energy_mean(W.THETA, W.HURST, grid.nodes,
                                        fbm_increment_cholesky(W.HURST, grid),
                                        kernel_weight_matrix(W.P, grid))
        biases[n] = mean / exact - 1.0
        print(f"physical route scheme mean, n = {n}: {mean:.6f} vs exact {exact:.6f}: "
              f"{biases[n]:+.3%}")
    return abs(biases[1024] - 0.0108) < 5e-4 and abs(biases[2048] - 0.0046) < 5e-4


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[606, 1, 2])
    args = ap.parse_args()
    ok = scheme_mean_check()
    ok = power_check(args.seeds) and ok
    print("self-checks", "pass" if ok else "FAIL")
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
