"""Tests of the benchmark itself: its checker, its references and its output.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import macregion  # noqa: E402
import reference as ref  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as W  # noqa: E402
from macregion import cli  # noqa: E402
from reference import CheckFailure  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").split("\n")[-1])


@pytest.fixture(scope="module")
def spec_eval(tmp_path_factory):
    return W.SpecEval(macregion, cli, tmp_path_factory.mktemp("spec_eval"), seed=7)


def _op(wl, kind):
    spec = next(s for s in wl.pool if s["kind"] == kind)
    return {"id": 0, "spec": spec}


def _run(wl, op):
    wl.prepare(op)
    return wl.run(op)


# ---------------------------------------------------------------------------
# The checker flags wrong output
# ---------------------------------------------------------------------------


def test_well_formed_spec_passes(spec_eval):
    op = _op(spec_eval, None)
    out = spec_eval.check(op, _run(spec_eval, op))
    assert not out.counts_as_error, out.reason
    assert out.hausdorff["dm_eval"] < 1e-12


def test_vertex_moved_by_a_micro_bit_is_flagged(spec_eval):
    op = _op(spec_eval, None)
    result = _run(spec_eval, op)
    doc = json.loads(spec_eval.out_json.read_text())
    k = max(range(len(doc["vertices"])), key=lambda i: sum(doc["vertices"][i]))
    doc["vertices"][k][1] += 1e-6
    spec_eval.out_json.write_text(json.dumps(doc))
    spec_eval.out_csv.write_text(
        "R1_bits,R2_bits\n" + "".join(f"{x!r},{y!r}\n" for x, y in doc["vertices"]))
    out = spec_eval.check(op, result)
    assert out.counts_as_error and out.wrong
    assert "from its reference" in out.reason


def test_vertex_moved_inward_is_flagged():
    region = ref.pentagon_region(0.4, 0.3, 0.6)
    moved = region.copy()
    moved[2] -= 1e-6
    with pytest.raises(CheckFailure):
        ref.check_region(moved, region, "exact")


def test_small_pentagon_matches_after_the_documented_collinear_rule():
    caps = (0.0589892464097, 3.24495199822e-07, 0.0589895297743)  # from a seeded spec
    lib = np.array(macregion.pentagon_vertices(macregion.RatePentagon(*caps)).vertices)
    exact = ref.pentagon_region(*caps)
    assert len(exact) == len(lib) + 1  # the library drops a vertex 3.6e-8 bits out
    assert ref.check_region(lib, exact, "exact") < 1e-12
    lib[2, 1] += 1e-6
    with pytest.raises(CheckFailure):
        ref.check_region(lib, exact, "exact")


def test_truncated_csv_is_flagged(spec_eval):
    op = _op(spec_eval, None)
    result = _run(spec_eval, op)
    text = spec_eval.out_csv.read_text()
    spec_eval.out_csv.write_text(text[: text.rindex("\n", 0, len(text) - 1) + 1])
    out = spec_eval.check(op, result)
    assert out.counts_as_error and out.wrong
    with pytest.raises(CheckFailure):
        W.check_csv_matches_json(text[:-3], json.loads(spec_eval.out_json.read_text()))


def test_accepted_nan_spec_is_wrong(spec_eval):
    op = _op(spec_eval, "nan")
    spec_eval.prepare(op)
    out = spec_eval.check(op, (0, "", ""))
    assert out.counts_as_error and out.wrong


def test_nan_rejection_must_name_the_pointer(spec_eval):
    op = _op(spec_eval, "nan")
    pointer = op["spec"]["pointer"]
    spec_eval.prepare(op)
    bare = spec_eval.check(op, (2, "", "error: c1 is NaN\n"))
    assert bare.counts_as_error and not bare.wrong
    named = spec_eval.check(op, (2, "", f"error: {pointer}: entry is NaN\n"))
    assert not named.counts_as_error


@pytest.mark.parametrize("kind", ["inf", "negative", "shape", "missing"])
def test_other_malformed_specs_are_rejected_with_a_pointer(spec_eval, kind):
    op = _op(spec_eval, kind)
    out = spec_eval.check(op, _run(spec_eval, op))
    assert not out.counts_as_error, out.reason


def test_names_pointer():
    assert W.names_pointer("error: /u1_given_sq/0/1: row sums to inf, not 1", "/u1_given_sq/0/1/1")
    assert W.names_pointer("error: /: missing key 'q_dist'", "/q_dist")
    assert not W.names_pointer("error: /s_dist: bad", "/u1_given_sq/0/1")
    assert not W.names_pointer("error: c1 is NaN", "/q_dist/0")


def test_figure_exports_pass_their_references(tmp_path):
    wl = W.FigureSet(macregion, cli, tmp_path, seed=3)
    op = next(wl.ops())
    wl.prepare(op)
    assert not wl.check(op, wl.run(op)).counts_as_error
    final = wl.finish()
    assert not final.counts_as_error, final.reason
    assert set(final.hausdorff) == {"binary_mac", "gaussian_mac"}


def test_changed_figure_export_is_flagged(tmp_path):
    wl = W.FigureSet(macregion, cli, tmp_path, seed=3)
    ops = wl.ops()
    first = next(ops)
    wl.prepare(first)
    wl.check(first, wl.run(first))
    second = next(ops)
    wl.prepare(second)
    result = wl.run(second)
    path = second["out_dir"] / "fig4_outer.csv"
    path.write_text(path.read_text().replace("0", "1", 1))
    assert wl.check(second, result).wrong


# ---------------------------------------------------------------------------
# The references agree with the library's own independent routes
# ---------------------------------------------------------------------------


def test_gdpc_caps_match_covariance_route():
    rng = np.random.default_rng(0)
    for _ in range(50):
        P1, P2, Q, N = rng.uniform(1, 500, 4)
        rho, alpha = rng.uniform(-0.99, 0.0), rng.uniform(-0.5, 2.0)
        mine = ref.gdpc_caps(P1, P2, Q, N, rho, alpha)
        oracle = macregion.rates_from_covariance(
            macregion.GaussianMacParams(P1, P2, Q, N), macregion.GdpcParams(rho, alpha))
        assert np.allclose(mine, oracle, rtol=0, atol=1e-9)


def test_feasible_alpha_roots_bound_r1():
    lo, hi = ref.feasible_alpha_roots(15.0, 20.0, 60.0, np.array([0.0, -0.5]))
    for a, b, rho in zip(lo, hi, (0.0, -0.5)):
        r1 = ref.gdpc_caps(15.0, 50.0, 20.0, 60.0, rho, np.array([a, b, (a + b) / 2]))[0]
        assert abs(r1[0]) < 1e-12 and abs(r1[1]) < 1e-12 and r1[2] > 0


def test_dm_caps_match_table_evaluator():
    rng = np.random.default_rng(1)
    for _ in range(5):
        doc = W.make_spec(rng, {"Q": 2, "S": 3, "U1": 4, "X1": 2, "X2": 3, "Y": 4})
        caps = macregion.inner_bound_pentagon(cli.dm_spec_from_dict(doc))
        assert np.allclose(ref.dm_caps(doc), (caps.c1, caps.c2, caps.c12), rtol=0, atol=1e-12)


def test_reference_regions_contain_library_grid_regions():
    g = macregion.gaussian_inner_region(macregion.GaussianMacParams(15.0, 50.0, 20.0, 60.0), 11, 41)
    assert ref.point_distances(np.array(g.vertices), ref.gaussian_region(15.0, 50.0, 20.0, 60.0)).max() < 1e-7
    b = macregion.binary_inner_region(macregion.BinaryMacParams(0.1, 0.4, 0.2), 21)
    assert ref.point_distances(np.array(b.vertices), ref.binary_region(0.1, 0.4, 0.2)).max() < 1e-9


def test_dense_cycle_is_four_light_ops_in_five():
    ops = W.DenseSweep(macregion, cli, None, seed=3).ops()
    cycle = [next(ops)["stratum"] for _ in range(10)]
    assert [s.split()[0] for s in cycle] == ["light"] * 4 + ["heavy"] + ["light"] * 4 + ["heavy"]
    assert sorted(cycle) == sorted([f"light {i}" for i in range(8)] + ["heavy 0", "heavy 1"])


def test_hausdorff_of_shifted_square():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert ref.hausdorff(sq, sq) == 0.0
    assert ref.hausdorff(sq, sq * 1.5) == pytest.approx(np.hypot(0.5, 0.5))


# ---------------------------------------------------------------------------
# The command's output
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    doc = _bench_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == bench_run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_emits_every_per_layer_metric():
    proc = _bench("--workload", "spec_eval", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in _bench_json()["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["metrics"]["dm_eval.inner_bound_pentagon_ms"]["value"] > 0


def test_untraced_run_emits_every_end_to_end_metric():
    proc = _bench("--workload", "spec_eval", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    names = [m["name"] for m in _bench_json()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert result["correct"] and result["attempted"] >= 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "spec_eval", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
