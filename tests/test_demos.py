"""Smoke test of the demos: each runs to completion without a traceback."""

import os
import subprocess
import sys

import pytest

import fousldp

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

#: extra arguments that keep a demo small
ARGS = {"monte_carlo_checks.py": ["--replicates", "10000"]}


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(name):
    # the demos import the package from this source tree
    src = os.path.dirname(os.path.dirname(os.path.abspath(fousldp.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name), *ARGS.get(name, [])],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
