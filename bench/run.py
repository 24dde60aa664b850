#!/usr/bin/env python3
"""Benchmark of macregion: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload dense_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Each workload is one closed-loop client with one op
outstanding, at the library's shipped defaults (MACREGION_THREADS unset).
Every op's output is checked against the benchmark's own reference (not
timed).  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts ops whose output is wrong (or that raised); the printed
``error_rate`` also counts malformed specs rejected without a JSON pointer.
The exit code is non-zero when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# (name, unit, better, bound): what a user of the library sees.
# The time bounds are the largest allowed: on a shared 2-CPU machine op times
# drift by 10-20% between runs a minute apart, with the library's two sweep
# threads contending for the GIL.  Peak RSS on dense_sweep is bimodal (80 or
# 88-90 MB, depending on how the sweep threads' allocations interleave).
END_TO_END = [
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("ref_hausdorff_bits", "bits", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]
# (name, unit, better): one layer each, from the traced run.
PER_LAYER = [
    ("region_geometry.hull_ms", "ms", "lower"),
    ("region_geometry.corners_ms", "ms", "lower"),
    ("region_geometry.pentagon_vertices_us", "us", "lower"),
    ("region_geometry.hull_input_points", "count", "lower"),
    ("region_geometry.hull_vertices", "count", "lower"),
    ("region_geometry.hull_kept_ratio", "ratio", "higher"),
    ("gaussian_mac.gdpc_rates_us", "us", "lower"),
    ("gaussian_mac.kernel_ms", "ms", "lower"),
    ("gaussian_mac.grid_points", "count", "lower"),
    ("gaussian_mac.feasible_ratio", "ratio", "higher"),
    ("gaussian_mac.r2max_curve_ms", "ms", "lower"),
    ("gaussian_mac.asymptotic_region_ms", "ms", "lower"),
    ("gaussian_mac.ref_hausdorff_bits", "bits", "lower"),
    ("binary_mac.feasible_grid_ms", "ms", "lower"),
    ("binary_mac.inner_pentagon_us", "us", "lower"),
    ("binary_mac.feasible_ratio", "ratio", "higher"),
    ("binary_mac.ref_hausdorff_bits", "bits", "lower"),
    ("dm_eval.validate_spec_ms", "ms", "lower"),
    ("dm_eval.induced_joint_ms", "ms", "lower"),
    ("dm_eval.inner_bound_pentagon_ms", "ms", "lower"),
    ("dm_eval.table_cells", "count", "lower"),
    ("info_measures.cmi_us", "us", "lower"),
    ("cli.parse_ms", "ms", "lower"),
    ("cli.load_spec_ms", "ms", "lower"),
    ("cli.export_build_ms", "ms", "lower"),
    ("cli.serialise_ms", "ms", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.dm_eval_overhead_ratio", "ratio", "lower"),
    ("verification.binary_oracle_ms", "ms", "lower"),
    ("verification.gaussian_oracle_ms", "ms", "lower"),
    ("verification.asymptotic_limit_ms", "ms", "lower"),
    ("verification.containment_ms", "ms", "lower"),
    ("parallel.threads", "count", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
SETUP_PROBES = 30  # fresh interpreters per run, spread through it; setup_s is their median


def load_library():
    """Import macregion from this checkout's src, or exit 2 without a result."""
    if not (SRC / "macregion" / "__init__.py").is_file():
        print(f"error: no macregion sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import macregion
    from macregion import cli

    if Path(macregion.__file__).resolve().parent != (SRC / "macregion").resolve():
        print(f"error: imported macregion from {macregion.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return macregion, cli


def shipped_threads() -> int:
    try:
        from macregion._parallel import thread_count
    except ImportError:  # no sweep thread pool: sweeps run on the calling thread
        return 1
    return thread_count()


def setup_probe(workload: str, scratch: Path) -> float:
    """Seconds from launching a fresh interpreter to the end of its warm-up call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(BENCH / "probe.py"), workload, str(scratch)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    shutil.rmtree(scratch, ignore_errors=True)
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} exited {rc}")
    return elapsed


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it.

    Below 20 samples no percentile above the median has ten beyond it; the
    median is reported then.
    """
    n = len(values)
    if n < 20:
        return statistics.median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


class Run:
    """One workload run: ops in a closed loop until the time is up."""

    def __init__(self, workload, mr, cli, workdir: Path, seed: int, seconds: float):
        self.wl = workload(mr, cli, workdir, seed)
        self.workdir = workdir
        self.seconds = seconds
        self.ops = self.wl.ops()
        self.records = []  # (op, seconds, well_formed, outcome)
        self.deferred = []  # (index, op, result) checked after the timed loop

    def attempt(self, op):
        """Run one op untraced; returns (result or None, seconds, traceback)."""
        prepare = getattr(self.wl, "prepare", None)
        if prepare:
            prepare(op)
        t0 = time.perf_counter()
        try:
            result = self.wl.run(op)
        except Exception:  # an op that raises is a failed op, the loop goes on
            return None, time.perf_counter() - t0, traceback.format_exc(limit=3)
        return result, time.perf_counter() - t0, ""

    def record(self, op, result, dt, error):
        well_formed = not getattr(self.wl, "malformed", lambda _: False)(op)
        if result is None:
            outcome = Outcome(counts_as_error=True, wrong=True, reason=f"op {op['id']} raised:\n{error}")
        elif getattr(self.wl, "defer_check", False):
            self.deferred.append((len(self.records), op, result))
            outcome = None
        else:
            outcome = self.wl.check(op, result)
        self.records.append([op, dt, well_formed, outcome])

    def loop(self, step, after=None):
        """Call ``step()`` until ``seconds`` of op time are spent.

        ``after(busy)`` runs between ops with the op time spent so far; its
        own time is not counted.  The run ends only after a whole group of
        the workload's ops, so every run has the same mix of ops.
        """
        group = getattr(self.wl, "group", 1)
        busy = 0.0
        done = 0
        while True:
            t0 = time.perf_counter()
            step()
            busy += time.perf_counter() - t0
            done += 1
            if after:
                after(busy)
            if busy >= self.seconds and done % group == 0:
                return

    def finish_checks(self):
        for index, op, result in self.deferred:
            self.records[index][3] = self.wl.check(op, result)
        finish = getattr(self.wl, "finish", None)
        extra = finish() if finish else None
        if extra is not None:  # a verdict on output that every op shares
            for rec in self.records:
                rec[3].hausdorff.update(extra.hausdorff)
                if extra.wrong:
                    rec[3].counts_as_error = rec[3].wrong = True
                    rec[3].reason = rec[3].reason or extra.reason

    def summary(self):
        attempted = len(self.records)
        errors = sum(1 for r in self.records if r[3].counts_as_error)
        wrong = [r[3].reason for r in self.records if r[3].wrong]
        return attempted, errors, wrong

    def worst_hausdorff(self, layer=None) -> float:
        worst = 0.0
        for rec in self.records:
            for name, dist in rec[3].hausdorff.items():
                if layer is None or name == layer:
                    worst = max(worst, dist)
        return max(worst, reference.HAUSDORFF_FLOOR)


def run_end_to_end(run: Run, name: str):
    setups = []

    def step():
        op = next(run.ops)
        run.record(op, *run.attempt(op))

    def probes(busy):
        while len(setups) < min(SETUP_PROBES, int(SETUP_PROBES * busy / run.seconds) + 1):
            setups.append(setup_probe(name, run.workdir / f"probe_{len(setups)}"))

    run.loop(step, probes)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(name, run.workdir / f"probe_{len(setups)}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.finish_checks()

    all_times = [r[1] for r in run.records]
    lat = [r[1] * 1e3 for r in run.records if r[2]]
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "throughput_ops_s": len(all_times) / sum(all_times),
        "ref_hausdorff_bits": run.worst_hausdorff(),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    q = statistics.quantiles(setups, n=4)
    notes = {
        "latency_p50_ms": f"median of {len(lat)} well-formed ops",
        "latency_tail_ms": f"p{tail_pct:.1f} of {len(lat)} ops, {min(10, len(lat) // 2)} beyond it",
        "throughput_ops_s": f"{len(all_times)} ops in {sum(all_times):.2f} s of op time",
        "ref_hausdorff_bits": f"worst over ops, floor {1e-12:g}",
        "setup_s": f"median of {len(setups)} fresh interpreters, quartiles {q[0]:.4f}..{q[2]:.4f}",
    }
    return metrics, notes


def run_traced(run: Run):
    tracer = Tracer()
    extra = {}
    changed = []  # records whose traced twin returned another output
    os.environ["MACREGION_THREADS"] = "1"  # spans then nest on one thread

    def step():
        op = next(run.ops)
        result, dt, error = run.attempt(op)
        written = getattr(run.wl, "written", lambda _: {})(op)
        run.record(op, result, dt, error)
        twin = dict(op, out_dir=run.workdir / f"traced_{op['id']}") if "out_dir" in op else op
        prepare = getattr(run.wl, "prepare", None)
        if prepare:
            prepare(twin)
        tracer.op = op["id"]
        tracer.install()
        try:
            with tracer.span("op"):
                traced = run.wl.run(twin)
        except Exception:
            traced = None
        finally:
            tracer.uninstall()
        if "out_dir" in twin:
            shutil.rmtree(twin["out_dir"], ignore_errors=True)
        if result is not None and (traced is None or not run.wl.same_output(result, traced)):
            changed.append(run.records[-1])
        extra[op["id"]] = {"bytes": sum(len(b) for b in written.values()), "untraced_s": dt}

    try:
        run.loop(step)
    finally:
        os.environ.pop("MACREGION_THREADS", None)
    run.finish_checks()
    for rec in changed:
        rec[3].counts_as_error = rec[3].wrong = True
        rec[3].reason = f"op {rec[0]['id']}: the traced run changed the output"
    metrics = layer_metrics(tracer, extra)
    metrics["parallel.threads"] = float(shipped_threads())
    for layer in ("gaussian_mac", "binary_mac"):
        metrics[f"{layer}.ref_hausdorff_bits"] = run.worst_hausdorff(layer)
    notes = {"trace.coverage_ratio": f"{len(extra)} traced ops, {len(tracer.spans)} spans, "
                                     f"{len(tracer.leaves)} leaf-call groups"}
    return metrics, notes


def run_one(args) -> int:
    mr, cli = load_library()
    os.environ.pop("MACREGION_THREADS", None)  # shipped defaults
    nproc = len(os.sched_getaffinity(0))
    threads = shipped_threads()
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=work_parent))
    try:
        (workdir / "warm_spec.json").write_text(json.dumps(WARM_SPEC))
        run = Run(WORKLOADS[args.workload], mr, cli, workdir, args.seed, args.seconds)
        if args.trace:
            metrics, notes = run_traced(run)
            spec = PER_LAYER
        else:
            metrics, notes = run_end_to_end(run, args.workload)
            spec = [(n, u, b) for n, u, b, _ in END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _rmdir_if_empty(work_parent)
    attempted, errors, wrong = run.summary()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  nproc {nproc}  sweep threads {threads} (MACREGION_THREADS unset)  python {sys.version.split()[0]}")
    for name, unit, _ in spec:
        note = notes.get(name, "")
        print(f"  {name:38s} {metrics[name]:.6g} {unit}" + (f"   ({note})" if note else ""))
    print(f"  {'error_rate':38s} {errors / attempted:.6g} ratio   "
          f"({errors} errors of {attempted} attempted, {len(wrong)} with wrong output)")
    for reason in [r[3].reason for r in run.records if r[3].counts_as_error][:5]:
        print(f"  failed: {reason}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def _rmdir_if_empty(path: Path):
    try:
        path.rmdir()
    except OSError:  # another run still has its directory there
        pass


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    results = {}
    status = 0
    for name in ("dense_sweep", "figure_set", "spec_eval"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = None
        if proc.returncode != 0 or not results[name] or not results[name]["correct"]:
            status = 1
    print(json.dumps({"workloads": results}))
    return status


# The channel spec of the README, used by the spec_eval warm-up call.
WARM_SPEC = {
    "alphabets": {"Q": 1, "S": 2, "U1": 2, "X1": 2, "X2": 2, "Y": 2},
    "q_dist": [1.0],
    "s_dist": [0.8, 0.2],
    "u1_given_sq": [[[0.9, 0.1]], [[0.1, 0.9]]],
    "x1_given_u1sq": [[[[1, 0]], [[0, 1]]], [[[0, 1]], [[1, 0]]]],
    "x2_given_q": [[0.6, 0.4]],
    "y_given_x1x2s": [[[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("dense_sweep", "figure_set", "spec_eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
