"""The command line's observable surface, pinned byte for byte.

``tests/data/cli_surface.json`` holds, for each scripted invocation, the exit
code, stdout and stderr of ``macregion <argv>`` and every file it wrote.  Each
invocation runs in-process through ``cli.main`` in a fresh working directory
that holds the fixture's spec files, with ``COLUMNS=80`` so argparse wraps its
help text the same way everywhere.  Regenerate the fixture (only when a CLI
change is meant to show) with

    PYTHONPATH=src python tests/test_cli_surface.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from macregion import cli

FIXTURE = Path(__file__).parent / "data" / "cli_surface.json"

SUBCOMMANDS = [
    "binary-region", "binary-outer", "binary-capacity", "binary-dpc",
    "gaussian-region", "gaussian-outer", "asymptotic-region", "asymptotic-outer",
    "r2max-curve", "dm-eval", "figure", "verify",
]
BIN = ["--p1", "0.1", "--p2", "0.4", "--q", "0.2"]
GAUSS = ["--P1", "15", "--P2", "50", "--Q", "20", "--N", "60"]
ASYM = ["--P1", "120", "--P2", "50", "--N", "60"]
SMALL = ["--rho-steps", "5", "--alpha-steps", "9"]
CURVE = ["r2max-curve", "--P1", "15", "--P2", "50", "--N", "60"]

INVOCATIONS: list[list[str]] = [
    ["-h"],
    *([name, "-h"] for name in SUBCOMMANDS),
    [],
    ["nonsense"],
    # each export command with its defaults
    ["binary-region", *BIN],
    ["binary-outer", *BIN],
    ["binary-capacity", "--p1", "0.4", "--p2", "0.3"],
    ["binary-dpc", *BIN],
    ["gaussian-region", *GAUSS],
    ["gaussian-outer", "--P1", "15", "--P2", "50", "--N", "60"],
    ["asymptotic-region", *ASYM],
    ["asymptotic-outer", *ASYM],
    CURVE,
    ["dm-eval", "--spec", "spec.json"],
    # ... and with options
    ["binary-region", *BIN, "--grid", "11", "--nats", "--sample-step", "0.1",
     "--out", "r.csv", "--out", "r.json"],
    ["binary-outer", *BIN, "--out", "r.csv"],
    ["binary-capacity", "--p1", "0.4", "--p2", "0.3", "--q", "0.5", "--sample-step", "0.2"],
    ["binary-dpc", *BIN, "--nats", "--out", "r.json"],
    ["gaussian-region", *GAUSS, *SMALL, "--dpc-only"],
    ["gaussian-region", *GAUSS, *SMALL, "--explore-positive-rho", "--nats"],
    ["gaussian-region", *GAUSS, *SMALL, "--dpc-only", "--explore-positive-rho",
     "--sample-step", "0.5", "--out", "g.json"],
    ["gaussian-outer", *GAUSS, "--nats"],
    ["asymptotic-region", *ASYM, *SMALL, "--sample-step", "0.25"],
    ["asymptotic-outer", *ASYM, "--nats", "--out", "a.csv"],
    [*CURVE, "--q-values", "1, 20,,100", "--rho-steps", "5", "--out", "c.csv", "--out", "c.json"],
    ["r2max-curve", "--P1", "60", "--P2", "50", "--N", "60", "--q-values", "5", "--rho-steps", "5",
     "--nats", "--sample-step", "0.1"],
    ["dm-eval", "--spec", "spec.json", "--nats", "--sample-step", "0.1", "--out", "d.json"],
    ["dm-eval", "--spec", "advisory_spec.json", "--out", "d.csv"],
    ["figure", "fig2", "--out-dir", "figs", "--format", "csv"],
    ["figure", "fig6", "--format", "json", "--nats"],
    # error paths
    ["binary-region", "--p1", "0.1", "--p2", "0.4"],
    ["dm-eval"],
    ["figure"],
    ["gaussian-region", "--P1", "abc", "--P2", "50", "--Q", "20", "--N", "60"],
    ["binary-region", *BIN, "--grid", "1.5"],
    ["binary-region", "--p1", "0.7", "--p2", "0.4", "--q", "0.2"],
    ["binary-capacity", "--p1", "0.4", "--p2", "0.3", "--q", "0.3"],
    ["gaussian-region", *GAUSS, "--rho-steps", "1"],
    ["gaussian-outer", "--P1", "15", "--P2", "50", "--N", "-1"],
    ["asymptotic-region", "--P1", "inf", "--P2", "50", "--N", "60"],
    ["binary-dpc", *BIN, "--sample-step", "nan"],
    ["binary-dpc", *BIN, "--sample-step", "0"],
    ["binary-outer", *BIN, "--out", "r.txt"],
    ["binary-outer", *BIN, "--out", "missing_dir/r.json"],
    ["dm-eval", "--spec", "bad_rows_spec.json"],
    ["dm-eval", "--spec", "nan_spec.json"],
    ["dm-eval", "--spec", "missing.json"],
    ["dm-eval", "--spec", "not_json.json"],
    [*CURVE, "--q-values", "1,abc"],
    [*CURVE, "--q-values", ","],
    [*CURVE, "--q-values", "5", "--alpha-steps", "9"],
    ["gaussian-region", *GAUSS, "--dpc-only", "--alpha-steps", "0"],
    ["gaussian-region", "--P1", "1e300", "--P2", "50", "--Q", "20", "--N", "60"],
    [*CURVE, "--q-values", "1e307"],
    ["figure", "fig99"],
    ["verify", "nonsense"],
]


def spec_files() -> dict[str, str]:
    """The spec files the invocations read, built from the binary construction."""
    from macregion.binary_mac import BinaryDpcParams, BinaryMacParams, induced_dm_spec

    spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
    doc = {
        "alphabets": {"Q": 1, "S": 2, "U1": 2, "X1": 2, "X2": 2, "Y": 2},
        "q_dist": spec.q_dist.atoms.tolist(),
        "s_dist": spec.s_dist.atoms.tolist(),
        "u1_given_sq": spec.u1_given_sq.tolist(),
        "x1_given_u1sq": spec.x1_given_u1sq.tolist(),
        "x2_given_q": spec.x2_given_q.tolist(),
        "y_given_x1x2s": spec.y_given_x1x2s.tolist(),
    }
    # five time-sharing atoms: |Q| over the advisory cap, same region
    advisory = json.loads(json.dumps(doc))
    advisory["alphabets"]["Q"] = 5
    advisory["q_dist"] = [0.2] * 5
    advisory["u1_given_sq"] = [[row[0]] * 5 for row in doc["u1_given_sq"]]
    advisory["x1_given_u1sq"] = [[[t[0]] * 5 for t in u] for u in doc["x1_given_u1sq"]]
    advisory["x2_given_q"] = doc["x2_given_q"] * 5
    bad_rows = json.loads(json.dumps(doc))
    bad_rows["u1_given_sq"][1][0] = [0.49, 0.49]
    nan_entry = json.loads(json.dumps(doc))
    nan_entry["y_given_x1x2s"][1][0][1][0] = float("nan")
    return {
        "spec.json": json.dumps(doc),
        "advisory_spec.json": json.dumps(advisory),
        "bad_rows_spec.json": json.dumps(bad_rows),
        "nan_spec.json": json.dumps(nan_entry),
        "not_json.json": "not json {",
    }


def run_invocation(argv: list[str], files: dict[str, str]) -> dict:
    """Exit code, stdout, stderr and written files of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).write_text(text)
        os.chdir(work)
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        written = {
            path.relative_to(work).as_posix(): path.read_text()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name not in files
        }
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": written}


def _recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_scripted_set():
    recorded = _recorded()
    assert [case["argv"] for case in recorded["cases"]] == INVOCATIONS
    assert recorded["files"] == spec_files()


@pytest.mark.parametrize(
    "index", range(len(INVOCATIONS)), ids=[" ".join(argv) or "<none>" for argv in INVOCATIONS]
)
def test_invocation_matches_recording(index):
    recorded = _recorded()
    expected = recorded["cases"][index]
    assert run_invocation(expected["argv"], recorded["files"]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    files = spec_files()
    cases = [run_invocation(argv, files) for argv in INVOCATIONS]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"files": files, "cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} invocations to {FIXTURE}")
