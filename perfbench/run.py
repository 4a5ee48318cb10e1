"""Benchmark of fousldp: one workload per call, judged against exact laws.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a fresh interpreter
(``worker.py``) on the package in ``src``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics ``setup_s``,
``wall_s`` and ``peak_rss_mb``, with ``--trace 1`` the per-layer metrics.
``setup_s`` is the median over the workload process and four more fresh
interpreters of the time from spawning the interpreter to the package being
imported and warmed up. Check lines go to standard error. See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("mc-tail", "closed-form", "fbm-oracle", "cli")
SETUP_PROBES = 4
#: a run must end within 180 s
DEADLINE_S = 170.0


def spawn(argv: list, deadline: float) -> tuple:
    """Run the worker; return the monotonic time of the spawn and its JSON."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {argv} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"worker {argv} exited with {proc.returncode}")
    return t0, json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=606)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fousldp", "__init__.py")):
        raise SystemExit("no package source at src/fousldp: run from a checkout of the repo")
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t0, res = spawn(["--workload", args.workload, "--setup-only"], deadline)
            setups.append(res["ready_at"] - t0)
    t0, res = spawn(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["ready_at"] - t0)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(f"{args.workload}: {res['rounds']} rounds, {res['attempted']} checks, "
          f"{res['failed']} failed as known", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
