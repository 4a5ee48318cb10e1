"""Run one workload in this fresh interpreter and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

The package is imported from ``src`` of the checkout. The process first
imports the package and warms up the layers the workload uses; the monotonic
clock at that moment is reported as ``ready_at``, from which ``run.py``
measures set-up time. It then repeats whole rounds of the workload within
``--seconds``, reads its peak resident memory, and only then
computes the references and checks every round's outputs. With
``--trace 1`` the rounds run inside spans and the layer probe measures every
per-layer metric; the spans are written to ``.bench_out/``.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402  (imports the package)
from spans import Tracer  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=606)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def timed_rounds(name, seed, seconds, tr):
    """Whole rounds within ``seconds``; returns outputs and times.

    A round starts only if it should end within the window, judged by the
    round before; the first round always runs. A later ``closed-form`` round
    is kept only as whether it repeats round 0, after its time is taken, so
    that memory does not grow with the number of rounds."""
    if name == "closed-form":
        points = W.cf_inputs(seed)
        step = lambda r: W.cf_round(points, tr)
    else:
        fn = W.WORKLOADS[name]["round"]
        step = lambda r: fn(W.round_seed(seed, r), tr)
    outs, times = [], []
    start = time.monotonic()
    while not times or time.monotonic() - start + times[-1] <= seconds:
        with tr.span("round"):
            t0 = time.perf_counter()
            out = step(len(outs))
            times.append(time.perf_counter() - t0)
        if name == "closed-form" and outs:
            out = W.same_outputs(outs[0], out)
        outs.append(out)
    return outs, times


def round_time(times) -> float:
    """Time of one round: the rounds' total time over their number.

    Round times on a shared machine fall into a fast and a slow mode, and
    the share of each drifts over tens of seconds. The mean moves with that
    share; the median jumps between the modes. Over 20-second windows of
    ``closed-form`` rounds, the quartile distance of the medians was 33% of
    their median, and that of the means 19%."""
    return sum(times) / len(times)


def judge(name, seed, outs):
    from judges import Checks

    checks = Checks()
    if name == "closed-form":
        W.check_cf(W.cf_inputs(seed), outs[0], outs[1:], checks)
        return checks
    refs, check = {
        "mc-tail": (W.mc_references, W.check_mc),
        "fbm-oracle": (W.fbm_references, W.check_fbm),
        "cli": (W.cli_references, W.check_cli),
    }[name]
    ref = refs()
    for out in outs:
        check(out, ref, checks)
    return checks


def main():
    args = parse_args()
    W.WORKLOADS[args.workload]["warm_up"]()
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return
    tr = Tracer(bool(args.trace))
    outs, times = timed_rounds(args.workload, args.seed, args.seconds, tr)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if args.trace:
        from probe import layer_metrics

        metrics = layer_metrics(args.seed, tr)
        metrics["trace.wall_s"] = (round_time(times), "s")
        os.makedirs(W.OUT, exist_ok=True)
        tr.write(os.path.join(W.OUT, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = {"wall_s": (round_time(times), "s"), "peak_rss_mb": (peak_mb, "MB")}
    checks = judge(args.workload, args.seed, outs)
    for line in checks.lines:
        print(line, file=sys.stderr)
    print(json.dumps({
        "ready_at": ready_at,
        "rounds": len(times),
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
