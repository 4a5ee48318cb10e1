"""The four workloads: their inputs, one timed round each, and their checks.

A round is a fixed amount of work; a run repeats whole rounds. Inputs come
from the run's seed. Each ``*_round`` function calls only the package, so
its time is the package's; the ``check_*`` functions judge the outputs
afterwards against ``exact_ref`` and ``judges``, which never import the
package. They are imported lazily so that they stay out of the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np

from fousldp import cli, energy, mle, model, special, validate
from fousldp.model import GenFnPoint, ModelParams
from fousldp.sim import (
    BATCH_CHUNK,
    RngSpec,
    make_grid,
    simulate_fbm_batch,
    simulate_martingale_batch,
    simulate_martingale_path,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

#: the parameter point of the Monte Carlo workloads
THETA, HURST = -1.0, 0.75
P = ModelParams(THETA, HURST)


def round_seed(seed: int, r: int) -> int:
    """Batch seed of round ``r``; round 0 uses the run's seed itself."""
    return seed + 1_000_003 * r


# ---------------------------------------------------------------------------
# mc-tail: one martingale batch shaped like acceptance criterion 6
# ---------------------------------------------------------------------------

MC_T, MC_N, MC_PATHS = 40.0, 4000, 4 * BATCH_CHUNK
MC_C_ENERGY, MC_C_MLE = 0.7, -0.6


def mc_warm_up():
    simulate_martingale_batch(P, make_grid(1.0, 100), 0, 16)


def mc_round(seed, tr):
    grid = make_grid(MC_T, MC_N)
    res = tr.wrap("sim.simulate_martingale_batch", simulate_martingale_batch)(
        P, grid, seed, MC_PATHS
    )
    tail = tr.wrap("validate.mc_tail", validate.mc_tail)
    rep_e = tail(P, "energy", MC_C_ENERGY, MC_T, MC_PATHS, seed, result=res)
    rep_m = tail(P, "mle", MC_C_MLE, MC_T, MC_PATHS, seed, result=res)
    clt = tr.wrap("validate.clt_test", validate.clt_test)(P, MC_T, MC_PATHS, seed, result=res)
    return {"seed": seed, "res": res, "rep_e": rep_e, "rep_m": rep_m, "clt": clt}


def mc_references():
    import exact_ref as X
    import judges as J

    m = X.Model(THETA, HURST)
    return {
        **J.law_references(m, MC_T),
        "p_energy": X.energy_tail(m, MC_C_ENERGY, MC_T),
        "p_mle": X.mle_tail(m, MC_C_MLE, MC_T),
    }


def check_sample(checks, name, s, th):
    checks.check(f"{name} S_T > 0, theta_hat finite",
                 bool(np.all(s > 0) and np.all(np.isfinite(th))), f"{s.size} paths")


def check_mc(out, ref, checks):
    import judges as J

    tag = f"mc-tail seed {out['seed']}"
    s, th = out["res"].s_terminal, out["res"].theta_hat
    n = s.size
    check_sample(checks, tag, s, th)
    hits_e = int(np.count_nonzero(s / MC_T >= MC_C_ENERGY))
    hits_m = int(np.count_nonzero(th >= MC_C_MLE))
    for rep, hits in ((out["rep_e"], hits_e), (out["rep_m"], hits_m)):
        checks.check(f"{tag} {rep.label} estimate is the hit fraction",
                     rep.estimate == hits / n, f"{rep.estimate!r} vs {hits}/{n}")
    e_std = (s + MC_T / (2.0 * THETA)) / math.sqrt(MC_T) / math.sqrt(-1.0 / (2.0 * THETA**3))
    m_std = math.sqrt(MC_T) * (th - THETA) / math.sqrt(-2.0 * THETA)
    gaps = [abs(rep.statistic - J.ks_normal(x)) for rep, x in zip(out["clt"], (e_std, m_std))]
    checks.check(f"{tag} clt_test statistics are the KS distances to N(0, 1)",
                 max(gaps) <= 1e-12, f"largest difference {max(gaps):.2e}")
    J.tail_check(checks, f"{tag} energy tail c={MC_C_ENERGY}", hits_e, n, ref["p_energy"])
    J.tail_check(checks, f"{tag} estimator tail c={MC_C_MLE}", hits_m, n, ref["p_mle"])
    J.mean_check(checks, f"{tag} mean of S_T", s, ref["mean"])
    J.law_check(checks, f"{tag} law of S_T", s, ref["e_levels"], ref["e_cdf"])
    J.law_check(checks, f"{tag} law of theta_hat", th, ref["m_levels"], ref["m_cdf"])


# ---------------------------------------------------------------------------
# closed-form: rates, tails, saddlepoints, the exact CGF and the oracles
# ---------------------------------------------------------------------------

CF_THETAS = (-0.5, -1.0, -2.0)
CF_HURSTS = (0.55, 0.75, 0.9)
CF_HORIZONS = (100.0, 200.0, 400.0, 1000.0)
#: exact_lt tilts per (parameters, horizon); the largest share of a round
CF_TILTS = 96
#: r_h_scaled arguments per parameter point, half on each side of z = 20
CF_Z = 32
CF_GAMMA = ((1.0, 0, 10.0), (2.5, 1, 40.0), (1.5, 0, 40.0), (0.5, 1, 10.0))


def cf_inputs(seed: int) -> list[dict]:
    """Levels on every branch, interior tilts and Bessel arguments.

    Energy levels: Gaussian (lower tail), easy, the threshold ``c*`` and
    hard; estimator levels: easy (upper tail), the threshold ``theta/3``,
    hard and zero. The easy levels sit in the lower part of their branch,
    where the leading-order error is well inside its ``1/T`` regime at the
    horizons swept.
    """
    rng = np.random.default_rng(seed)
    points = []
    for theta in CF_THETAS:
        for hurst in CF_HURSTS:
            p = ModelParams(theta, hurst)
            lln, cs = -1.0 / (2.0 * theta), energy.c_star(p)
            easy = lln + rng.uniform(0.15, 0.35) * min(cs - lln, 4.0 * lln)
            e_levels = {
                "GAUSSIAN": lln * rng.uniform(0.4, 0.8),
                "EASY": easy,
                "BOUNDARY": cs,
                "HARD": cs * rng.uniform(1.2, 2.0),
            }
            m_levels = {
                "EASY": theta + rng.uniform(0.3, 0.7) * (theta / 3.0 - theta),
                "BOUNDARY": theta / 3.0,
                "HARD": theta / 3.0 * rng.uniform(0.3, 0.7),
                "ZERO": 0.0,
            }
            # interior tilts: b below theta^2/2 by a margin, a inside the
            # effective domain at that b
            tilts = []
            while len(tilts) < CF_TILTS:
                b = theta * theta / 2.0 * rng.uniform(-1.0, 0.9)
                phi = math.sqrt(theta * theta - 2.0 * b)
                lo, hi = -phi / p.delta_h - theta, phi - theta
                tilts.append((lo + (hi - lo) * rng.uniform(0.05, 0.95), b))
            z = np.concatenate([rng.uniform(1.0, 19.0, CF_Z // 2),
                                rng.uniform(21.0, 200.0, CF_Z // 2)])
            order1 = energy.order1_coeff_easy(p, easy)
            points.append({
                "params": p,
                "e_levels": e_levels,
                "m_levels": m_levels,
                "tilts": tilts,
                "z": z.tolist(),
                # the order-1 factor 1 + order1/T must stay positive
                "order1_T": [T for T in CF_HORIZONS if 1.0 + order1 / T > 0],
                "legendre": (("energy", e_levels["HARD"]) if len(points) % 2
                             else ("mle", m_levels["EASY"])),
            })
    return points


def cf_warm_up():
    p = ModelParams(-1.0, 0.75)
    model.exact_lt(p, GenFnPoint(0.1, 0.1, 10.0))
    energy.saddle_solve(p, 4.0, 100.0)
    energy.tail_energy(p, 0.7, 100.0, with_order1=True).value(100.0)
    mle.tail_mle(p, -0.6, 100.0).value(100.0)
    validate.gamma_contour_oracle(1.0, 0.5, 1.0, 1.0, 10.0)


def cf_round(points, tr):
    exact_lt = tr.wrap("model.exact_lt", model.exact_lt)
    r_h_scaled = tr.wrap("special.r_h_scaled", special.r_h_scaled)
    rate_energy = tr.wrap("energy.rate_energy", energy.rate_energy)
    rate_mle = tr.wrap("mle.rate_mle", mle.rate_mle)
    tail_energy = tr.wrap("energy.tail_energy", energy.tail_energy)
    tail_mle = tr.wrap("mle.tail_mle", mle.tail_mle)
    saddle_solve = tr.wrap("energy.saddle_solve", energy.saddle_solve)
    legendre = tr.wrap("validate.legendre_oracle", validate.legendre_oracle)
    gamma = tr.wrap("validate.gamma_contour_oracle", validate.gamma_contour_oracle)
    outs = []
    for pt in points:
        p = pt["params"]
        o = {
            "rate_e": {k: rate_energy(p, c) for k, c in pt["e_levels"].items()},
            "rate_m": {k: rate_mle(p, c) for k, c in pt["m_levels"].items()},
            "r_h": [r_h_scaled(p.hurst, z) for z in pt["z"]],
            "lt": {},
            "tail_e": {},
            "tail_m": {},
            "order1": {},
            "saddle": {},
        }
        for T in CF_HORIZONS:
            o["lt"][T] = [exact_lt(p, GenFnPoint(a, b, T)) for a, b in pt["tilts"]]
            for k, c in pt["e_levels"].items():
                o["tail_e"][k, T] = tail_energy(p, c, T)
            for k, c in pt["m_levels"].items():
                o["tail_m"][k, T] = tail_mle(p, c, T)
            if T in pt["order1_T"]:
                o["order1"][T] = tail_energy(p, pt["e_levels"]["EASY"], T, with_order1=True)
            for k in ("BOUNDARY", "HARD"):
                o["saddle"][k, T] = saddle_solve(p, pt["e_levels"][k], T)
        o["legendre"] = legendre(p, *pt["legendre"])
        outs.append(o)
    gam = [gamma(a, 0.5, 1.0, 1.0, T, ell, 2) for a, ell, T in CF_GAMMA]
    return {"points": outs, "gamma": gam}


def _rel(x, ref):
    return abs(x - ref) / max(1.0, abs(ref))


def _log_err(approx, T, exact_log):
    return abs(approx.log_value(T) - exact_log)


def check_cf(points, first, later, checks):
    """Judge the first round in full; ``later`` holds, for each later round,
    whether it repeated the first."""
    import exact_ref as X
    import judges as J

    for pt, o in zip(points, first["points"]):
        p = pt["params"]
        m = X.Model(p.theta, p.hurst)
        tag = f"closed-form theta={p.theta} H={p.hurst}"
        err = max(_rel(v, X.cgf(m, a, b, T) / T)
                  for T in CF_HORIZONS for v, (a, b) in zip(o["lt"][T], pt["tilts"]))
        checks.check(f"{tag} exact_lt vs ive closed form", err <= 1e-10,
                     f"{len(CF_HORIZONS) * CF_TILTS} tilts, worst {err:.2e}")
        ref = X.r_h_scaled(p.hurst, pt["z"])
        err = max(abs(v - r) / r for v, r in zip(o["r_h"], ref))
        checks.check(f"{tag} r_h_scaled vs ive", err <= 1e-10, f"worst {err:.2e}")
        err = max([_rel(o["rate_e"][k], J.rate_numeric(m, "energy", c)) for k, c in pt["e_levels"].items()]
                  + [_rel(o["rate_m"][k], J.rate_numeric(m, "mle", c)) for k, c in pt["m_levels"].items()])
        checks.check(f"{tag} rates vs numerical Legendre transform", err <= 1e-8, f"worst {err:.2e}")
        # branch labels: the levels sit at the thresholds exactly or well
        # away from them, so plain comparisons give the expected branch
        wrong = [(k, T) for (k, T), a in o["tail_e"].items() if a.branch.name != k]
        wrong += [(k, T) for (k, T), a in o["tail_m"].items() if a.branch.name != k]
        checks.check(f"{tag} branch labels", not wrong, f"mislabelled {wrong}")
        resid = []
        for (k, T), sol in o["saddle"].items():
            c = pt["e_levels"][k]
            resid.append(abs(J.saddle_residual(m, sol.a_T, c, T)) / max(1.0, c))
            resid.append(math.inf if not sol.a_T < m.a_h else 0.0)
        checks.check(f"{tag} saddle_solve residual and a_T < a_h", max(resid) <= 1e-8,
                     f"worst residual {max(resid):.2e}")
        exact_e = {T: X.log_energy_tail(m, pt["e_levels"]["EASY"], T) for T in CF_HORIZONS}
        exact_m = {T: X.log_mle_tail(m, pt["m_levels"]["EASY"], T) for T in CF_HORIZONS}
        for name, tails, c, exact in (
            ("energy", o["tail_e"], pt["e_levels"]["EASY"], exact_e),
            ("estimator", o["tail_m"], pt["m_levels"]["EASY"], exact_m),
        ):
            errs = [_log_err(tails["EASY", T], T, exact[T]) for T in CF_HORIZONS]
            falls = all(b < a for a, b in zip(errs, errs[1:])) and errs[-1] <= 0.5 * errs[0]
            checks.check(f"{tag} {name} easy-branch tail c={c:.4g} vs exact, log error falls with T",
                         falls, " ".join(f"{e:.2e}" for e in errs))
        if o["order1"]:
            # at the longest horizon where it applies, the order-1 factor
            # must bring the energy tail closer to the exact one
            T = max(o["order1"])
            lead = _log_err(o["tail_e"]["EASY", T], T, exact_e[T])
            corr = _log_err(o["order1"][T], T, exact_e[T])
            checks.check(f"{tag} order-1 energy tail at T={T} beats leading order", corr < lead,
                         f"log errors {corr:.2e} and {lead:.2e}")
        target, c = pt["legendre"]
        lg = o["legendre"]
        err = _rel(lg.lhs, J.rate_numeric(m, target, c))
        checks.check(f"{tag} legendre_oracle {target} c={c:.4g}", err <= 1e-7, f"{err:.2e}")
    for (a, ell, T), r in zip(CF_GAMMA, first["gamma"]):
        v = J.gamma_contour_trapezoid(a, 0.5, 1.0, 1.0, T, ell)
        v = v.real if ell % 2 == 0 else v.imag
        checks.check(f"closed-form gamma_contour_oracle a={a} ell={ell} T={T}",
                     abs(r.lhs - v) <= 1e-9 * abs(v), f"{r.lhs!r} vs trapezoid {v!r}")
    for r, same in enumerate(later, start=1):
        checks.check(f"closed-form round {r} repeats round 0", same, "")


def same_outputs(x, y) -> bool:
    """Whether two ``cf_round`` outputs are equal, value for value."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same_outputs(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(same_outputs(a, b) for a, b in zip(x, y))
    return x == y


# ---------------------------------------------------------------------------
# fbm-oracle: the physical route against the martingale route
# ---------------------------------------------------------------------------

FBM_T, FBM_N, FBM_PATHS = 20.0, 2048, 4096
#: the scheme-mean check fails on every run: the route's left-point
#: integrals bias E S_T by +0.46% at n = 2048
FBM_MEAN_TOL = 1e-3


def fbm_warm_up():
    simulate_fbm_batch(P, make_grid(1.0, 100), 0, 8)


def fbm_round(seed, tr):
    grid = make_grid(FBM_T, FBM_N)
    rf = tr.wrap("sim.simulate_fbm_batch", simulate_fbm_batch)(P, grid, 2 * seed, FBM_PATHS)
    rm = tr.wrap("sim.simulate_martingale_batch", simulate_martingale_batch)(
        P, grid, 2 * seed + 1, FBM_PATHS
    )
    return {"seed": seed, "fbm": rf, "mart": rm}


def qv_constants(hurst: float) -> tuple[float, float]:
    """``lambda_H``, the normalizer of ``<M>_t = t^{2-2H}/lambda_H``, and
    ``l_H/2 = lambda_H/(4(1-H))``, the factor in ``Q``."""
    lam = (8.0 * hurst * (1.0 - hurst) * math.gamma(1.0 - 2.0 * hurst)
           * math.gamma(hurst + 0.5) / math.gamma(0.5 - hurst))
    return lam, lam / (4.0 * (1.0 - hurst))


def fbm_scheme_energy_mean(theta, hurst, nodes, chol, weights) -> float:
    """Exact ``E S_T`` of the physical route's discrete scheme.

    The route is linear in its standard normals ``z``: ``dW = chol z``, the
    Euler step ``X_{i+1} = X_i + theta X_i dt_i + dW_i``, ``Y = weights dX``,
    ``Q_j = (l_H/2)(t_j^{2H-1} Y_j + sum_{i<j} t_i^{2H-1} (Y_{i+1} - Y_i))``
    and ``S = sum_j Q_j^2 dq_j`` with ``dq_j`` the increments of
    ``t^{2-2H}/lambda_H``. Running the scheme on the columns of ``chol``
    gives each ``Q_j`` as a row vector in ``z``, whose squared norm is its
    variance.
    """
    n = nodes.size - 1
    dt = np.diff(nodes)
    X = np.zeros(n)
    dX = np.empty((n, n))
    for i in range(n):
        step = theta * X * dt[i] + chol[i]
        dX[i] = step
        X += step
    Y = weights @ dX
    del dX
    lam, half_l = qv_constants(hurst)
    power = nodes ** (2.0 * hurst - 1.0)
    dY = np.diff(np.vstack([np.zeros((1, n)), Y]), axis=0)
    Q = half_l * (power[1:, None] * Y + np.cumsum(power[:-1, None] * dY, axis=0))
    var_q = np.concatenate([[0.0], np.einsum("ij,ij->i", Q[:-1], Q[:-1])])
    dq = np.diff(nodes ** (2.0 - 2.0 * hurst)) / lam
    return float(np.dot(var_q, dq))


def fbm_references():
    import exact_ref as X
    import judges as J
    from fousldp.sim import fbm_increment_cholesky, kernel_weight_matrix

    grid = make_grid(FBM_T, FBM_N)
    chol = fbm_increment_cholesky(HURST, grid)
    weights = kernel_weight_matrix(P, grid)
    return {
        **J.law_references(X.Model(THETA, HURST), FBM_T),
        "scheme_mean": fbm_scheme_energy_mean(THETA, HURST, grid.nodes, chol, weights),
    }


def check_fbm(out, ref, checks):
    import judges as J

    tag = f"fbm-oracle seed {out['seed']}"
    rf, rm = out["fbm"], out["mart"]
    check_sample(checks, f"{tag} physical route", rf.s_terminal, rf.theta_hat)
    check_sample(checks, f"{tag} martingale route", rm.s_terminal, rm.theta_hat)
    J.law_check(checks, f"{tag} physical route law of theta_hat", rf.theta_hat,
                ref["m_levels"], ref["m_cdf"])
    J.law_check(checks, f"{tag} martingale route law of S_T", rm.s_terminal,
                ref["e_levels"], ref["e_cdf"])
    J.law_check(checks, f"{tag} martingale route law of theta_hat", rm.theta_hat,
                ref["m_levels"], ref["m_cdf"])
    J.two_sample_check(checks, f"{tag} routes agree on S_T", rf.s_terminal, rm.s_terminal)
    J.two_sample_check(checks, f"{tag} routes agree on theta_hat", rf.theta_hat, rm.theta_hat)
    J.mean_check(checks, f"{tag} physical route mean of S_T vs its scheme's exact mean",
                 rf.s_terminal, ref["scheme_mean"])
    bias = ref["scheme_mean"] / ref["mean"] - 1.0
    checks.check(f"{tag} physical route E S_T vs exact (scheme mean)",
                 abs(bias) <= FBM_MEAN_TOL,
                 f"scheme mean {ref['scheme_mean']:.6g} vs exact {ref['mean']:.6g}: {bias:+.3%}",
                 known_fault=True)


# ---------------------------------------------------------------------------
# cli: separate fousldp processes
# ---------------------------------------------------------------------------

CLI_MODEL = ["--theta", "-1", "--hurst", "0.75"]
CLI_RATE_C = (0.3, 0.7, 1.5, 4.0)
CLI_SADDLE_C, CLI_SADDLE_T = 4.0, 100.0
CLI_SIM_T, CLI_SIM_PATHS, CLI_DUMP_PATHS = 20.0, 2000, 3
CLI_MC_PATHS = 10_000


def cli_commands(seed: int, out_dir: str) -> list[tuple[str, list[str]]]:
    rate = ["rate", *CLI_MODEL, "--target", "energy"]
    for c in CLI_RATE_C:
        rate += ["--c", str(c)]
    return [
        ("rate", rate),
        ("tail-energy", ["tail", *CLI_MODEL, "--target", "energy", "--c", str(MC_C_ENERGY),
                         "--T", str(MC_T)]),
        ("tail-mle", ["tail", *CLI_MODEL, "--target", "mle", "--c", str(MC_C_MLE),
                      "--T", str(MC_T)]),
        ("saddle", ["saddle", *CLI_MODEL, "--c", str(CLI_SADDLE_C), "--T", str(CLI_SADDLE_T)]),
        ("oracle", ["oracle", "--kind", "legendre", *CLI_MODEL, "--target", "energy",
                    "--c", str(MC_C_ENERGY)]),
        ("simulate", ["simulate", *CLI_MODEL, "--T", str(CLI_SIM_T), "--replicates",
                      str(CLI_SIM_PATHS), "--seed", str(seed)]),
        ("dump", ["simulate", *CLI_MODEL, "--T", str(CLI_SIM_T), "--replicates",
                  str(CLI_DUMP_PATHS), "--seed", str(seed), "--dump-paths",
                  "--out", os.path.join(out_dir, "dump")]),
        ("mc", ["mc", *CLI_MODEL, "--target", "energy", "--c", str(MC_C_ENERGY), "--T",
                str(MC_T), "--replicates", str(CLI_MC_PATHS), "--seed", str(seed + 1)]),
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_warm_up():
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["rate", *CLI_MODEL, "--target", "energy", "--c", "0.7"])


def cli_round(seed, tr):
    out_dir = os.path.join(OUT, f"cli-{os.getpid()}-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    env = cli_env()
    results = {}
    for name, argv in cli_commands(seed, out_dir):
        with tr.span(f"cli.{name}"):
            proc = subprocess.run(
                [sys.executable, "-c", "from fousldp.cli import main; main()", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
        results[name] = proc
    files = {}
    for rep in range(CLI_DUMP_PATHS):
        path = os.path.join(out_dir, f"dump_{rep}.csv")
        with open(path) as fh:
            files[rep] = fh.read()
        os.remove(path)
    summary = os.path.join(out_dir, "dump")
    with open(summary) as fh:
        files["summary"] = fh.read()
    os.remove(summary)
    os.rmdir(out_dir)
    return {"seed": seed, "procs": results, "dump": files}


def _csv(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _fmt(x) -> str:
    return f"{x:.17e}" if isinstance(x, float) else str(x)


def _format(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)] + [",".join(_fmt(r[k]) for k in header) for r in rows]
    return "\n".join(lines) + "\n"


def cli_references():
    import exact_ref as X
    import judges as J

    m = X.Model(THETA, HURST)
    return {
        **J.law_references(m, CLI_SIM_T),
        "model": m,
        "p_energy": X.energy_tail(m, MC_C_ENERGY, MC_T),
        "p_mle": X.mle_tail(m, MC_C_MLE, MC_T),
        "rates": {c: J.rate_numeric(m, "energy", c) for c in CLI_RATE_C},
    }


def check_cli(out, ref, checks):
    import judges as J

    m = ref["model"]
    tag = f"cli seed {out['seed']}"
    procs = out["procs"]
    bad = {k: (p.returncode, p.stderr.strip()[-200:]) for k, p in procs.items() if p.returncode}
    checks.check(f"{tag} every invocation exits 0", not bad, f"{bad}")
    if bad:
        return
    rows = _csv(procs["rate"].stdout)
    err = max(_rel(float(r["rate"]), ref["rates"][float(r["c"])]) for r in rows)
    labels = [r["branch"] for r in rows]
    expect = ["GAUSSIAN" if c < -0.5 / THETA else "EASY" if c < m.c_star else "HARD"
              for c in CLI_RATE_C]
    checks.check(f"{tag} rate rows vs numerical Legendre transform and branches",
                 err <= 1e-8 and labels == expect, f"worst {err:.2e}, branches {labels}")
    for name, p_exact in (("tail-energy", ref["p_energy"]), ("tail-mle", ref["p_mle"])):
        row = _csv(procs[name].stdout)[0]
        log_err = abs(math.log(float(row["value"]) / p_exact))
        checks.check(f"{tag} {name} leading order within 20/T of the exact tail on the log scale",
                     row["branch"] == "EASY" and log_err <= 20.0 / MC_T,
                     f"{row['value']} vs exact {p_exact:.6g}, log error {log_err:.3f}")
    row = _csv(procs["saddle"].stdout)[0]
    a_t = float(row["a_T"])
    resid = abs(J.saddle_residual(m, a_t, CLI_SADDLE_C, CLI_SADDLE_T))
    checks.check(f"{tag} saddle row residual and a_T < a_h",
                 resid <= 1e-8 * CLI_SADDLE_C and a_t < m.a_h, f"residual {resid:.2e}")
    row = _csv(procs["oracle"].stdout)[0]
    err = _rel(float(row["lhs"]), ref["rates"][MC_C_ENERGY])
    checks.check(f"{tag} oracle legendre row vs numerical Legendre transform", err <= 1e-7,
                 f"{err:.2e}")
    seed = out["seed"]
    grid = make_grid(CLI_SIM_T, 2000)
    res = simulate_martingale_batch(P, grid, seed, CLI_SIM_PATHS)
    expect = _format([{"replicate": i, "S_T": float(s), "theta_hat": float(th)}
                      for i, (s, th) in enumerate(zip(res.s_terminal, res.theta_hat))])
    checks.check(f"{tag} simulate is byte-identical to the in-process batch",
                 procs["simulate"].stdout == expect, "")
    J.law_check(checks, f"{tag} simulate law of S_T", res.s_terminal, ref["e_levels"], ref["e_cdf"])
    J.law_check(checks, f"{tag} simulate law of theta_hat", res.theta_hat, ref["m_levels"],
                ref["m_cdf"])
    same = True
    summary = []
    for rep in range(CLI_DUMP_PATHS):
        path = simulate_martingale_path(P, grid, RngSpec(seed, rep))
        dump = _format([{"t": t, "M": a, "Y": y, "Q": q, "S": s}
                        for t, a, y, q, s in zip(path.grid.nodes, path.M, path.Y, path.Q, path.S)])
        same = same and out["dump"][rep] == dump
        summary.append({"replicate": rep, "S_T": path.s_terminal, "theta_hat": path.theta_hat})
    same = same and out["dump"]["summary"] == _format(summary)
    checks.check(f"{tag} simulate --dump-paths files are byte-identical to in-process paths",
                 same, "")
    row = _csv(procs["mc"].stdout)[0]
    tail_row = _csv(procs["tail-energy"].stdout)[0]
    hits = round(float(row["estimate"]) * CLI_MC_PATHS)
    J.tail_check(checks, f"{tag} mc energy tail c={MC_C_ENERGY}", hits, CLI_MC_PATHS,
                 ref["p_energy"])
    checks.check(f"{tag} mc closed_form equals the tail row",
                 row["closed_form"] == tail_row["value"], "")


# ---------------------------------------------------------------------------

WORKLOADS = {
    "mc-tail": {"warm_up": mc_warm_up, "round": mc_round},
    "closed-form": {"warm_up": cf_warm_up, "round": cf_round},
    "fbm-oracle": {"warm_up": fbm_warm_up, "round": fbm_round},
    "cli": {"warm_up": cli_warm_up, "round": cli_round},
}
