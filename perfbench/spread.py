"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1 2 ... 10] [--seconds 10]

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the distance between the quartiles as a share of the median,
next to the bound in ``BENCHMARK.json``. Also prints the share of failed
operations of each run, which must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values, shares = {}, []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: outputs judged incorrect")
        shares.append(f"{res['failed']}/{res['attempted']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {m['value']:.4g}" for k, m in res["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"failed/attempted per run: {shares}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {med:.4g}, quartiles {q1:.4g} .. {q3:.4g}, "
              f"spread {(q3 - q1) / med:.2%} (bound {bounds[name]:.0%})")


if __name__ == "__main__":
    main()
