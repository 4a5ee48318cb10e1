"""Run the CLI corpus and rewrite its expected files.

``invocations.json`` lists argument lists, each with an ``id`` and, for a
config run, the ``config`` object that is written to ``config.json``
before the run. Each invocation runs through ``cli.run`` in a fresh
temporary directory, and ``expected/<id>.json`` records its exit code,
its stdout, the first line of its stderr and every file it wrote, each
text as a list of lines.

    PYTHONPATH=src python tests/cli_corpus/regen.py

rewrites every expected file and deletes those of ids no longer listed.
A change that moves an expected file says which ids moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import tempfile

from fousldp import cli

CORPUS = pathlib.Path(__file__).resolve().parent
EXPECTED = CORPUS / "expected"
CONFIG_NAME = "config.json"


def load_invocations() -> list[dict]:
    with open(CORPUS / "invocations.json") as fh:
        return json.load(fh)


def run_invocation(entry: dict, workdir: pathlib.Path) -> dict:
    """Run one invocation in the empty directory ``workdir``; its record."""
    if "config" in entry:
        (workdir / CONFIG_NAME).write_text(json.dumps(entry["config"]))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(entry["argv"]))
    finally:
        os.chdir(cwd)
    files = {path.name: path.read_text().splitlines()
             for path in sorted(workdir.iterdir()) if path.name != CONFIG_NAME}
    return {
        "argv": entry["argv"],
        "exit": code,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue().partition("\n")[0],
        "files": files,
    }


def main() -> None:
    entries = load_invocations()
    EXPECTED.mkdir(exist_ok=True)
    for entry in entries:
        with tempfile.TemporaryDirectory() as tmp:
            record = run_invocation(entry, pathlib.Path(tmp))
        with open(EXPECTED / f"{entry['id']}.json", "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    listed = {f"{entry['id']}.json" for entry in entries}
    for path in EXPECTED.glob("*.json"):
        if path.name not in listed:
            path.unlink()


if __name__ == "__main__":
    main()
