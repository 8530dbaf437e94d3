"""Every CLI output of tests/golden.py's cases against the digests in tests/golden.json.

meta.json is digested without its timing block, re-dumped, so each .json
output's own bytes are also checked against json.dumps of its data.

A PR that changes outputs on purpose rewrites the digests with
`PYTHONPATH=src python -m tests.golden` and lists the moved files.
"""

import json

import pytest

from .golden import (CASES, GOLDEN, SEEDS, canonical, digest, environment, key, line_marks,
                     run_case)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _first_moved_line(path, want: dict) -> str:
    """The number and text of the first line of path whose fingerprint differs from want's."""
    data = path.read_bytes()
    lines = canonical(path.name, data).splitlines(keepends=True)
    marks, old = line_marks(digest(path.name, data)), line_marks(want)
    at = next((i for i, (a, b) in enumerate(zip(marks, old)) if a != b), min(len(marks), len(old)))
    text = lines[at].decode(errors="replace").rstrip("\n") if at < len(lines) else "<end of file>"
    return f"line {at + 1} ({len(old)} lines golden, {len(marks)} now): {text[:200]!r}"


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_outputs_match_the_golden_digests(tmp_path, golden, case):
    problems = []
    for seed in SEEDS:
        run = key(case, seed)
        out = tmp_path / str(seed)
        got, want = run_case(case, seed, out), golden["runs"][run]
        if got["exit"] != want["exit"]:
            problems.append(f"{run}: exit code {got['exit']}, golden {want['exit']}")
        for name in sorted(set(got["files"]) | set(want["files"])):
            if name not in got["files"] or name not in want["files"]:
                state = "not written" if name in want["files"] else "not in golden.json"
                problems.append(f"{run}/{name}: {state}")
            elif got["files"][name]["sha256"] != want["files"][name]["sha256"]:
                problems.append(f"{run}/{name} differs first at "
                                f"{_first_moved_line(out / name, want['files'][name])}")
        for path in sorted(out.glob("*.json")):
            data = path.read_bytes()
            if data != (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode():
                problems.append(f"{run}/{path.name} is not json.dumps's text of its data")
    if problems and environment() != golden["environment"]:
        problems.append(f"golden.json was taken with {golden['environment']}, "
                        f"this run has {environment()}")
    assert not problems, "\n".join(problems)
