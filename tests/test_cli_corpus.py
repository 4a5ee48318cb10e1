"""The committed CLI corpus: every invocation in ``cli_corpus/invocations.json``
gives the exit code, stdout, first stderr line and written files recorded in
``cli_corpus/expected``.

Exit codes and text cells compare exactly. Numeric cells compare within
``ULPS`` units in the last place: ``theta**2`` goes through libm ``pow``,
which is not correctly rounded, so another libm may move a last bit. A
change that moves the output on purpose regenerates the expected files
with ``cli_corpus/regen.py``.
"""

import json
import math

from cli_corpus.regen import EXPECTED, load_invocations, run_invocation

ULPS = 4


def _same_cell(want: str, got: str) -> bool:
    if want == got:
        return True
    try:
        a, b = float(want), float(got)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= ULPS * math.ulp(max(abs(a), abs(b)))


def _text_mismatches(where: str, want: list[str], got: list[str]) -> list[str]:
    if len(want) != len(got):
        return [f"{where}: {len(got)} lines, expected {len(want)}"]
    found = []
    header = want[0].split(",") if want else []
    for n, (w, g) in enumerate(zip(want, got), 1):
        wc, gc = w.split(","), g.split(",")
        if len(wc) != len(gc):
            found.append(f"{where} line {n}: {g!r}, expected {w!r}")
            continue
        found += [f"{where} line {n} {header[k] if k < len(header) else k}: {b}, expected {a}"
                  for k, (a, b) in enumerate(zip(wc, gc)) if not _same_cell(a, b)]
    return found


def _mismatches(want: dict, got: dict) -> list[str]:
    found = []
    for key in ("argv", "exit", "stderr"):
        if want[key] != got[key]:
            found.append(f"{key}: {got[key]!r}, expected {want[key]!r}")
    found += _text_mismatches("stdout", want["stdout"], got["stdout"])
    if sorted(want["files"]) != sorted(got["files"]):
        found.append(f"files: {sorted(got['files'])}, expected {sorted(want['files'])}")
    else:
        for name in want["files"]:
            found += _text_mismatches(name, want["files"][name], got["files"][name])
    return found


def test_corpus_matches_expected(tmp_path):
    entries = load_invocations()
    ids = [entry["id"] for entry in entries]
    assert len(set(ids)) == len(ids), "duplicate ids"
    assert sorted(p.stem for p in EXPECTED.glob("*.json")) == sorted(ids)
    failures = []
    for entry in entries:
        workdir = tmp_path / entry["id"]
        workdir.mkdir()
        with open(EXPECTED / f"{entry['id']}.json") as fh:
            want = json.load(fh)
        failures += [f"{entry['id']}: {m}"
                     for m in _mismatches(want, run_invocation(entry, workdir))]
    assert not failures, "\n".join(failures)
