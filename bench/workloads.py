"""The three benchmark workloads: seeded inputs, one op, and its output check.

Each workload is a single closed-loop client with one op outstanding.  Every
op of a workload is the same kind of call; only its seeded inputs vary.  CLI
ops go through ``macregion.cli.main(argv)`` in this process.

Checks never call the functions under test (see ``reference``), except that
the figure exports must be rebuilt byte for byte by
``cli.rebuild_from_metadata``, which is itself a shipped promise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from reference import CheckFailure

P2, N = 50.0, 60.0  # uninformed power and noise variance of the paper's Gaussian examples


@dataclass
class Outcome:
    """Result of checking one op.

    ``wrong`` marks an output the program got wrong (fails the run; the JSON
    ``failed`` counts these); ``counts_as_error`` marks an op counted in
    ``error_rate``: every wrong op, and also a malformed spec rejected
    without a JSON pointer.
    """

    counts_as_error: bool = False
    wrong: bool = False
    reason: str = ""
    hausdorff: dict = field(default_factory=dict)  # layer -> worst distance in bits


def _cli_call(cli, argv):
    """Run ``cli.main(argv)`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects before main's own handler
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# dense_sweep
# ---------------------------------------------------------------------------

# Ten strata spanning Q 1..500 and P1 15..2000 (with P2 = 50, N = 60) and
# binary (p1, p2, q) across [0, 0.5], including the large-Q corner.  Op time
# follows the number of feasible grid points (Gaussian and binary alike, about
# 6.5 s per unit of feasible share on a 2-CPU machine).  Eight light strata
# are balanced to about the same op time (1.5 s, a feasible share near 0.23);
# two heavy ones reach the ends that are dense by nature: Q = 1.02 with a
# large binary p1 (half of both grids feasible), and P1 = 1980 (all of the
# Gaussian grid feasible), about 5.8 s each.  Each cycle of ten ops runs four
# light ops, a heavy one, four light ops and the other heavy one, and a run
# ends after whole groups of five, so light ops are four in five in every run
# and the median op is a median of comparable light ops.  The seed shuffles the light and the heavy strata
# within each cycle and perturbs each stratum's Q, P1 and p2 by up to 1%, once
# per run, so a stratum's reference is computed once.  Binary p1 and q
# stay fixed and off the 201-point grid: the binary grid error jumps tenfold
# as the weight boundary crosses grid nodes, and these values show the
# typical, unaligned error.
DENSE_LIGHT = (
    {"Q": 495.0, "P1": 15.5, "p1": 0.2413, "p2": 0.05, "q": 0.4021},
    {"Q": 20.0, "P1": 15.0, "p1": 0.0513, "p2": 0.30, "q": 0.1017},
    {"Q": 50.0, "P1": 15.0, "p1": 0.1487, "p2": 0.15, "q": 0.2033},
    {"Q": 100.0, "P1": 30.0, "p1": 0.0313, "p2": 0.40, "q": 0.4517},
    {"Q": 250.0, "P1": 36.0, "p1": 0.0713, "p2": 0.25, "q": 0.3517},
    {"Q": 180.0, "P1": 15.0, "p1": 0.2213, "p2": 0.50, "q": 0.3021},
    {"Q": 400.0, "P1": 25.0, "p1": 0.0887, "p2": 0.20, "q": 0.0487},
    {"Q": 70.0, "P1": 20.0, "p1": 0.1313, "p2": 0.35, "q": 0.2513},
)
DENSE_HEAVY = (
    {"Q": 1.02, "P1": 20.0, "p1": 0.4513, "p2": 0.10, "q": 0.2017},
    {"Q": 5.0, "P1": 1980.0, "p1": 0.0513, "p2": 0.45, "q": 0.3021},
)
DENSE_JITTER = 0.01
GAUSS_GRID = (101, 401)
BINARY_GRID = 201


class DenseSweep:
    name = "dense_sweep"
    why = ("the ROADMAP's dense grids: Gaussian 101x401 plus binary 201 regions through the "
           "library, time in region_geometry hulls and rate kernels")
    defer_check = True  # references need memory: check after peak RSS is read
    group = 5  # runs end after whole groups of four light ops and one heavy, so every run has the same mix

    def __init__(self, mr, cli, workdir: Path, seed: int):
        self.mr = mr
        self.rng = np.random.default_rng(seed)
        self.strata = {}  # stratum name -> its seeded inputs, fixed for the run
        for kind, table in (("light", DENSE_LIGHT), ("heavy", DENSE_HEAVY)):
            for i, st in enumerate(table):
                f = 1.0 + DENSE_JITTER * (2.0 * self.rng.random(3) - 1.0)
                self.strata[f"{kind} {i}"] = {"Q": st["Q"] * f[0], "P1": st["P1"] * f[1], "p1": st["p1"],
                                              "p2": min(0.5, st["p2"] * f[2]), "q": st["q"]}
        self.refs = {}  # stratum name -> references, computed at its first check

    def ops(self):
        k = 0
        half = len(DENSE_LIGHT) // 2
        while True:
            light = [f"light {i}" for i in self.rng.permutation(len(DENSE_LIGHT))]
            heavy = [f"heavy {i}" for i in self.rng.permutation(len(DENSE_HEAVY))]
            for name in light[:half] + heavy[:1] + light[half:] + heavy[1:]:
                yield {"id": k, "stratum": name, **self.strata[name]}
                k += 1

    def run(self, op):
        mr = self.mr
        g = mr.gaussian_inner_region(mr.GaussianMacParams(op["P1"], P2, op["Q"], N), *GAUSS_GRID)
        b = mr.binary_inner_region(mr.BinaryMacParams(op["p1"], op["p2"], op["q"]), BINARY_GRID)
        return g, b

    def same_output(self, a, b) -> bool:
        return all(x.vertices == y.vertices for x, y in zip(a, b))

    def references(self, op):
        """(Gaussian reference, its outer bound, binary reference, its outer bound)."""
        if op["stratum"] not in self.refs:
            self.refs[op["stratum"]] = (
                ref.gaussian_region(op["P1"], P2, op["Q"], N), ref.gaussian_outer(op["P1"], P2, N),
                ref.binary_region(op["p1"], op["p2"], op["q"]), ref.binary_outer(op["p1"], op["p2"], op["q"]))
        return self.refs[op["stratum"]]

    def check(self, op, result) -> Outcome:
        g, b = (np.array(r.vertices) for r in result)
        g_ref, g_outer, b_ref, b_outer = self.references(op)
        out = Outcome()
        try:
            out.hausdorff["gaussian_mac"] = ref.check_region(g, g_ref, "gaussian", outer=g_outer)
            out.hausdorff["binary_mac"] = ref.check_region(b, b_ref, "binary", outer=b_outer)
        except CheckFailure as exc:
            out.counts_as_error = out.wrong = True
            out.reason = f"op {op['id']} ({op['stratum']}): {exc}"
        return out


# ---------------------------------------------------------------------------
# figure_set
# ---------------------------------------------------------------------------

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


def _csv_rows(text: str, header_prefix: str) -> np.ndarray:
    if not text.endswith("\n"):
        raise CheckFailure("CSV does not end with a newline (truncated?)")
    lines = text[:-1].split("\n")
    if not lines[0].startswith(header_prefix):
        raise CheckFailure(f"CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise CheckFailure(f"CSV row {line!r} does not hold two fields")
        rows.append([float(parts[0]), float(parts[1])])
    return np.array(rows).reshape(-1, 2)


def check_csv_matches_json(csv_text: str, doc: dict) -> None:
    """The CSV twin of a JSON export must hold the same rows, complete."""
    key = "points" if "points" in doc else "vertices"
    header = "Q," if key == "points" else "R1_"
    rows = _csv_rows(csv_text, header)
    expect = np.array(doc[key], dtype=float).reshape(-1, 2)
    if rows.shape != expect.shape or not np.array_equal(rows, expect):
        raise CheckFailure(f"CSV holds {len(rows)} rows, JSON {len(expect)}, or they differ")


def _export_reference(meta: dict):
    """(route, reference region, outer region or None) for a region export."""
    cmd, p, grid = meta["command"], meta["parameters"], meta.get("grid", {})
    if cmd.startswith("binary-"):
        p1, p2, q = p["p1"], p["p2"], p["q"]
        outer = ref.binary_capacity(p1, p2, q) if q == 0.5 else ref.binary_outer(p1, p2, q)
        if cmd == "binary-region":
            return "binary", ref.binary_region(p1, p2, q), outer
        exact = {"binary-dpc": ref.binary_dpc, "binary-outer": ref.binary_outer,
                 "binary-capacity": ref.binary_capacity}[cmd]
        return "exact", exact(p1, p2, q), outer
    if cmd == "gaussian-region":
        rhos = [0.0] if grid.get("dpc_only") else None
        region = ref.gaussian_region(p["P1"], p["P2"], p["Q"], p["N"], rhos=rhos)
        return "gaussian", region, ref.gaussian_outer(p["P1"], p["P2"], p["N"])
    if cmd == "gaussian-outer":
        return "exact", ref.gaussian_outer(p["P1"], p["P2"], p["N"]), None
    if cmd == "asymptotic-region":
        return "asymptotic", ref.asymptotic_region(p["P1"], p["P2"], p["N"]), \
            ref.asymptotic_outer(p["P1"], p["P2"], p["N"])
    if cmd == "asymptotic-outer":
        return "exact", ref.asymptotic_outer(p["P1"], p["P2"], p["N"]), None
    raise CheckFailure(f"no reference for export command {cmd!r}")


def check_export(doc: dict) -> tuple[str, float]:
    """Check one JSON export against its reference; returns (layer, distance)."""
    meta = doc["metadata"]
    if meta.get("units") != "bits":
        raise CheckFailure(f"unexpected units {meta.get('units')!r}")
    if meta["command"] == "r2max-curve":
        p = meta["parameters"]
        worst = 0.0
        for q, r in doc["points"]:
            worst = max(worst, abs(r - ref.r2max(p["P1"], p["P2"], q, p["N"])))
        if not worst <= ref.TOLERANCE["r2max"]:
            raise CheckFailure(f"r2max curve {worst:.3e} bits from the fine search")
        return "gaussian_mac", worst
    route, reference, outer = _export_reference(meta)
    layer = "binary_mac" if meta["command"].startswith("binary") else "gaussian_mac"
    return layer, ref.check_region(doc["vertices"], reference, route, outer=outer)


class FigureSet:
    name = "figure_set"
    why = ("the shipped-default end-to-end path: figure fig2..fig8 (CSV+JSON) then verify all "
           "through cli.main; small grids, serialisation and all oracle suites")

    def __init__(self, mr, cli, workdir: Path, seed: int):
        self.cli = cli
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.first: dict[str, bytes] | None = None  # file name -> bytes of the first op

    def ops(self):
        k = 0
        while True:
            order = [FIGURES[i] for i in self.rng.permutation(len(FIGURES))]
            out_dir = self.workdir / f"figures_{k}"
            yield {"id": k, "order": order, "out_dir": out_dir}
            k += 1

    def prepare(self, op):
        op["out_dir"].mkdir(parents=True)

    def run(self, op):
        codes = []
        for fig in op["order"]:
            codes.append(_cli_call(self.cli, ["figure", fig, "--out-dir", str(op["out_dir"])])[0])
        rc, text, _ = _cli_call(self.cli, ["verify", "all"])
        codes.append(rc)
        return codes, text

    def same_output(self, a, b) -> bool:
        return a[0] == b[0]

    def written(self, op) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(op["out_dir"].iterdir())}

    def check(self, op, result) -> Outcome:
        codes, verify_text = result
        out = Outcome()
        try:
            if any(codes):
                raise CheckFailure(f"exit codes {codes}")
            lines = [ln for ln in verify_text.splitlines() if ln.startswith("[")]
            if not lines or any(not ln.startswith("[PASS]") for ln in lines):
                raise CheckFailure("verify all reported a FAIL:\n" + verify_text)
            files = self.written(op)
            if self.first is None:
                self.first = files
            elif files != self.first:
                diff = sorted(set(files) ^ set(self.first)) or sorted(
                    n for n in files if files[n] != self.first[n])
                raise CheckFailure(f"exports differ from the first op's: {diff[:4]}")
        except CheckFailure as exc:
            out.counts_as_error = out.wrong = True
            out.reason = f"op {op['id']}: {exc}"
        finally:
            shutil.rmtree(op["out_dir"], ignore_errors=True)
        return out

    def finish(self) -> Outcome | None:
        """Reference, CSV/JSON agreement and rebuild checks of the exports.

        Run once, after the timed loop: every op wrote the same bytes as the
        first, so the verdict holds for all of them.
        """
        if self.first is None:
            return None
        files = self.first
        out = Outcome()
        try:
            if len(files) < 2 * len(FIGURES):
                raise CheckFailure(f"only {len(files)} export files written")
            for name, blob in files.items():
                if not name.endswith(".json"):
                    continue
                doc = json.loads(blob)
                csv_name = name[:-5] + ".csv"
                if csv_name not in files:
                    raise CheckFailure(f"{csv_name} missing")
                check_csv_matches_json(files[csv_name].decode(), doc)
                layer, dist = check_export(doc)
                out.hausdorff[layer] = max(out.hausdorff.get(layer, 0.0), dist)
                rebuilt = self.cli.rebuild_from_metadata(doc["metadata"])
                text = json.dumps(rebuilt.json_doc(), indent=2, sort_keys=True) + "\n"
                if text.encode() != blob or rebuilt.csv_text().encode() != files[csv_name]:
                    raise CheckFailure(f"rebuild_from_metadata does not reproduce {name}")
        except (CheckFailure, KeyError, ValueError) as exc:  # a malformed export is wrong too
            out.counts_as_error = out.wrong = True
            out.reason = f"exports: {type(exc).__name__}: {exc}"
        return out


# ---------------------------------------------------------------------------
# spec_eval
# ---------------------------------------------------------------------------

SPEC_POOL = 200
MALFORMED_KINDS = ("nan", "inf", "negative", "shape", "missing")
MALFORMED_EACH = 8  # 40 of 200 specs (20%) are malformed, 8 of each kind
SPEC_SIZES = {"Q": (1, 4), "S": (2, 4), "U1": (2, 8), "X1": (2, 4), "X2": (2, 4), "Y": (2, 8)}
SPEC_AXES = {
    "q_dist": ("Q",),
    "s_dist": ("S",),
    "u1_given_sq": ("S", "Q", "U1"),
    "x1_given_u1sq": ("U1", "S", "Q", "X1"),
    "x2_given_q": ("Q", "X2"),
    "y_given_x1x2s": ("X1", "X2", "S", "Y"),
}


def make_spec(rng, sizes: dict) -> dict:
    doc = {"alphabets": dict(sizes)}
    for key, axes in SPEC_AXES.items():
        shape = tuple(sizes[a] for a in axes)
        conc = 1.0 if len(axes) == 1 else 0.5
        doc[key] = rng.dirichlet(np.full(shape[-1], conc), size=shape[:-1]).tolist()
    return doc


def _get(doc, path):
    node = doc
    for i in path:
        node = node[i]
    return node


def corrupt_spec(rng, doc: dict, kind: str) -> str:
    """Corrupt ``doc`` in place; returns the JSON pointer the rejection should name."""
    keys = [k for k in SPEC_AXES if kind != "negative" or doc["alphabets"][SPEC_AXES[k][-1]] > 1]
    key = keys[rng.integers(len(keys))]
    if kind == "missing":
        del doc[key]
        return f"/{key}"
    if kind == "shape":
        table = doc[key]
        if len(SPEC_AXES[key]) == 1:
            table.append(0.0)
        else:
            table.pop() if len(table) > 1 else table.append(table[0])
        return f"/{key}"
    shape = np.array(doc[key]).shape
    idx = [int(rng.integers(n)) for n in shape]
    row = _get(doc[key], idx[:-1])
    if kind == "nan":
        row[idx[-1]] = math.nan
    elif kind == "inf":
        row[idx[-1]] = math.inf if rng.random() < 0.5 else -math.inf
    else:  # negative entry, row still sums to one
        delta = row[idx[-1]] + 0.25
        row[idx[-1]] -= delta
        row[(idx[-1] + 1) % len(row)] += delta
    return "/" + "/".join([key, *map(str, idx)])


def names_pointer(message: str, pointer: str) -> bool:
    """Whether an error message locates ``pointer``: it names the pointer, a
    parent of it below the top level, or (for a missing key) the key."""
    key = pointer.split("/")[1]
    for found in re.findall(r"(/[A-Za-z0-9_]+(?:/\d+)*)", message):
        if (pointer + "/").startswith(found + "/") and found.split("/")[1] == key:
            return True
    return f"missing key {key!r}" in message


class SpecEval:
    name = "spec_eval"
    why = ("dm-eval on seeded random channel-spec files via cli.main; time in CLI parsing, spec "
           "loading/validation, the DM table build and CMI; 20% malformed specs")

    def __init__(self, mr, cli, workdir: Path, seed: int):
        self.cli = cli
        self.rng = np.random.default_rng(seed)
        spec_dir = workdir / "specs"
        spec_dir.mkdir(parents=True)
        self.out_json = workdir / "out.json"
        self.out_csv = workdir / "out.csv"
        self.pool = self._make_pool(spec_dir)

    def _make_pool(self, spec_dir: Path) -> list[dict]:
        rng = self.rng
        # Each alphabet size appears equally often, so pools of any seed hold
        # the same mix of table sizes.
        sizes = {}
        for name, (lo, hi) in SPEC_SIZES.items():
            values = np.resize(np.arange(lo, hi + 1), SPEC_POOL)
            sizes[name] = rng.permutation(values)
        kinds = [None] * (SPEC_POOL - MALFORMED_EACH * len(MALFORMED_KINDS))
        kinds += [k for k in MALFORMED_KINDS for _ in range(MALFORMED_EACH)]
        kinds = [kinds[i] for i in rng.permutation(SPEC_POOL)]
        pool = []
        for i, kind in enumerate(kinds):
            doc = make_spec(rng, {n: int(sizes[n][i]) for n in SPEC_SIZES})
            entry = {"kind": kind, "path": spec_dir / f"spec_{i}.json"}
            if kind is None:
                entry["caps"] = ref.dm_caps(doc)
            else:
                entry["pointer"] = corrupt_spec(rng, doc, kind)
            entry["path"].write_text(json.dumps(doc))
            pool.append(entry)
        return pool

    def ops(self):
        k = 0
        while True:
            for i in self.rng.permutation(SPEC_POOL):
                yield {"id": k, "spec": self.pool[i]}
                k += 1

    def prepare(self, op):
        self.out_json.unlink(missing_ok=True)
        self.out_csv.unlink(missing_ok=True)

    def argv(self, op):
        return ["dm-eval", "--spec", str(op["spec"]["path"]),
                "--out", str(self.out_json), "--out", str(self.out_csv)]

    def run(self, op):
        return _cli_call(self.cli, self.argv(op))

    def same_output(self, a, b) -> bool:
        return a[0] == b[0]

    def malformed(self, op) -> bool:
        return op["spec"]["kind"] is not None

    def written(self, op) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in (self.out_json, self.out_csv) if p.exists()}

    def check(self, op, result) -> Outcome:
        rc, _, err = result
        spec = op["spec"]
        out = Outcome()
        try:
            if spec["kind"] is not None:
                if rc == 0 or self.out_json.exists():
                    out.wrong = True
                    raise CheckFailure(f"malformed spec ({spec['kind']}) was accepted")
                if not names_pointer(err, spec["pointer"]):
                    raise CheckFailure(
                        f"{spec['kind']} spec rejected without naming {spec['pointer']}: {err.strip()!r}")
                return out
            if rc != 0:
                out.wrong = True
                raise CheckFailure(f"exit {rc}: {err.strip()!r}")
            doc = json.loads(self.out_json.read_text())
            check_csv_matches_json(self.out_csv.read_text(), doc)
            c1, c2, c12 = spec["caps"]
            got = doc["metadata"]["caps"]
            cap_err = max(abs(got["c1"] - c1), abs(got["c2"] - c2), abs(got["c12"] - c12))
            if not cap_err <= ref.TOLERANCE["exact"]:
                raise CheckFailure(f"caps {cap_err:.3e} bits from the reference table")
            out.hausdorff["dm_eval"] = ref.check_region(doc["vertices"], ref.pentagon_region(c1, c2, c12), "exact")
        except CheckFailure as exc:
            out.counts_as_error = True
            out.wrong = out.wrong or spec["kind"] is None
            out.reason = f"op {op['id']} ({spec['path'].name}): {exc}"
        except (ValueError, KeyError, OSError) as exc:
            out.counts_as_error = out.wrong = True
            out.reason = f"op {op['id']} ({spec['path'].name}): unreadable output: {exc}"
        return out


WORKLOADS = {w.name: w for w in (DenseSweep, FigureSet, SpecEval)}
