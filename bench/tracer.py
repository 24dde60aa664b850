"""Span tracing for the traced run, recorded from the benchmark's own files.

While a ``Tracer`` is installed, the public functions of each macregion
module are replaced, in every module namespace that refers to them, by
wrappers that record a span (name, start, end, parent, op id, counts) around
each call.  The op itself runs through its usual entry point; uninstalling
restores the original functions.  Spans are kept in memory and reduced to
per-layer metrics at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter

# (module, attribute, span name, namespaces left alone).  convex_hull_2d is
# not traced inside region_geometry itself, so the hulls that
# pentagon_vertices builds for each pentagon count as corner time and
# region_geometry.hull means the hull of a whole sweep.
POINTS = [
    ("region_geometry", "convex_hull_2d", "region_geometry.hull", ("region_geometry",)),
    ("region_geometry", "pentagon_vertices", "region_geometry.pentagon_vertices", ()),
    ("gaussian_mac", "gdpc_rates", "gaussian_mac.gdpc_rates", ()),
    ("gaussian_mac", "asymptotic_rates", "gaussian_mac.asymptotic_rates", ()),
    ("gaussian_mac", "inner_region", "gaussian_mac.inner_region", ()),
    ("gaussian_mac", "dpc_only_region", "gaussian_mac.dpc_only_region", ()),
    ("gaussian_mac", "asymptotic_inner_region", "gaussian_mac.asymptotic_inner_region", ()),
    ("gaussian_mac", "r2_max_curve", "gaussian_mac.r2_max_curve", ()),
    ("binary_mac", "feasible_grid", "binary_mac.feasible_grid", ()),
    ("binary_mac", "inner_pentagon", "binary_mac.inner_pentagon", ()),
    ("binary_mac", "inner_region", "binary_mac.inner_region", ()),
    ("dm_eval", "validate_spec", "dm_eval.validate_spec", ()),
    ("dm_eval", "induced_joint", "dm_eval.induced_joint", ()),
    ("dm_eval", "inner_bound_pentagon", "dm_eval.inner_bound_pentagon", ()),
    ("info_measures", "conditional_mutual_information", "info_measures.cmi", ()),
    ("cli", "build_parser", "cli.parse", ()),
    ("cli", "load_dm_spec", "cli.load_spec", ()),
    ("cli", "build_region_export", "cli.export_build", ()),
    ("cli", "build_curve_export", "cli.export_build", ()),
    ("cli", "_json_text", "cli.serialise", ()),
    ("cli", "_write_export", "cli.write", ()),
    ("verification", "binary_oracle_suite", "verification.binary_oracle", ()),
    ("verification", "gaussian_oracle_suite", "verification.gaussian_oracle", ()),
    ("verification", "asymptotic_limit_suite", "verification.asymptotic_limit", ()),
    ("verification", "containment_suite", "verification.containment", ()),
]
METHODS = [  # (module, class, method, span name)
    ("cli", "RegionExport", "csv_text", "cli.serialise"),
    ("cli", "RegionExport", "json_doc", "cli.serialise"),
    ("cli", "CurveExport", "csv_text", "cli.serialise"),
    ("cli", "CurveExport", "json_doc", "cli.serialise"),
]
MODULES = ("region_geometry", "gaussian_mac", "binary_mac", "dm_eval", "info_measures",
           "cli", "verification")


def _hull_counts(tracer, args, kwargs, result):
    pts = args[0] if args else kwargs.get("points")
    return {"in": len(pts) if hasattr(pts, "__len__") else 0, "out": len(result.vertices)}


def _grid_counts(tracer, args, kwargs, result):
    steps = args[1] if len(args) > 1 else kwargs.get("grid_steps", 0)
    return {"grid": steps * steps, "feasible": len(result)}


def _table_counts(tracer, args, kwargs, result):
    return {"cells": int(result.mass.size)}


def _trace_parse_args(tracer, args, kwargs, parser):
    parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)


# Work counts recorded with a span, by span name.
POST = {
    "region_geometry.hull": _hull_counts,
    "binary_mac.feasible_grid": _grid_counts,
    "dm_eval.induced_joint": _table_counts,
}


# Functions with no traced calls below them.  Their calls are summed per
# (name, parent span, op) instead of kept one by one, so memory grows with
# the number of composite calls only, however fast the kernels get.
LEAVES = {
    "region_geometry.hull", "region_geometry.pentagon_vertices", "gaussian_mac.gdpc_rates",
    "gaussian_mac.asymptotic_rates", "binary_mac.feasible_grid", "binary_mac.inner_pentagon",
    "dm_eval.validate_spec", "info_measures.cmi", "cli.serialise", "cli.parse",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.leaves: dict[tuple, list] = {}  # (name, parent, op) -> [calls, seconds, counts]
        self.stack: list[int] = []
        self.op = None
        self._undo: list = []

    def wrap(self, name, fn, post=None):
        stack, leaves = self.stack, self.leaves

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if post is not None:
                rec[5] = post(self, args, kwargs, result)
            return result

        def traced_leaf(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (name, stack[-1] if stack else -1, self.op)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, {}]
                agg[0] += 1
                agg[1] += dt
            if post is not None:
                for k, v in (post(self, args, kwargs, result) or {}).items():
                    agg[2][k] = agg[2].get(k, 0) + v
            return result

        wrapper = traced_leaf if name in LEAVES else traced
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"macregion.{m}") for m in MODULES}
        namespaces = {**mods, "macregion": importlib.import_module("macregion")}
        for mod, attr, name, skip in POINTS:
            fn = getattr(mods[mod], attr, None)
            if fn is None:  # the function no longer exists: nothing to trace
                continue
            post = _trace_parse_args if attr == "build_parser" else POST.get(name)
            wrapper = self.wrap(name, fn, post)
            for ns_name, ns in namespaces.items():
                if ns_name in skip:
                    continue
                for alias, value in list(vars(ns).items()):  # also re-exports under other names
                    if value is fn:
                        self._set(ns, alias, wrapper)
        suites = getattr(mods["verification"], "SUITES", None)
        if isinstance(suites, dict):
            for key, fn in list(suites.items()):
                replaced = getattr(mods["verification"], fn.__name__, fn)
                if replaced is not fn:
                    self._undo.append((suites, key, fn))
                    suites[key] = replaced
        for mod, cls, meth, name in METHODS:
            klass = getattr(mods[mod], cls, None)
            if klass is not None and hasattr(klass, meth):
                self._set(klass, meth, self.wrap(name, getattr(klass, meth)))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def entries(self):
        """(name, parent, op, calls, inclusive s, self s, counts) per span or leaf group."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, parent, op), (n, total, counts) in self.leaves.items():
            if parent >= 0:
                child[parent] += total
        out = [(name, parent, op, 1, t1 - t0, t1 - t0 - child[i], counts or {})
               for i, (name, t0, t1, parent, op, counts) in enumerate(self.spans)]
        out += [(name, parent, op, n, total, total, counts)
                for (name, parent, op), (n, total, counts) in self.leaves.items()]
        return out


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, op_extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ops.

    Times ending in ``_ms`` are per op; ``_us`` are per call.  CLI and
    dm_eval table-build times are self times (their children are counted in
    their own layers); region, suite and kernel times are inclusive.
    ``op_extra[op]`` holds what the benchmark measured outside the spans:
    ``bytes`` written by the op and ``untraced_s``, the same op untraced.
    """
    ops = list(op_extra)
    incl = {op: {} for op in ops}
    self_t = {op: {} for op in ops}
    calls: dict[str, list] = {}  # name -> [calls, seconds]
    counts = {op: {} for op in ops}
    op_time = {}
    for name, parent, op, n, total, own, extra in tracer.entries():
        if op not in incl:
            continue
        if name == "op":
            op_time[op] = total
            counts[op]["attributed"] = total - own
            continue
        incl[op][name] = incl[op].get(name, 0.0) + total
        self_t[op][name] = self_t[op].get(name, 0.0) + own
        c = calls.setdefault(name, [0, 0.0])
        c[0] += n
        c[1] += total
        cnt = counts[op]
        for k, v in extra.items():
            cnt[f"{name}.{k}"] = cnt.get(f"{name}.{k}", 0) + v
        cnt[f"{name}.calls"] = cnt.get(f"{name}.calls", 0) + n
        parent_name = tracer.spans[parent][0] if parent >= 0 else None
        if parent_name in ("gaussian_mac.inner_region", "gaussian_mac.dpc_only_region"):
            if name == "gaussian_mac.gdpc_rates":
                cnt["grid"] = cnt.get("grid", 0) + n
            elif name == "region_geometry.pentagon_vertices":
                cnt["feasible"] = cnt.get("feasible", 0) + n

    def per_op_ms(*names, table=incl):
        return 1e3 * _mean([sum(table[op].get(n, 0.0) for n in names) for op in ops])

    def per_call(name, scale):
        n, total = calls.get(name, [0, 0.0])
        return scale * total / n if n else 0.0

    def ratio(num, den):
        d = sum(counts[op].get(den, 0) for op in ops)
        return sum(counts[op].get(num, 0) for op in ops) / d if d else 0.0

    def count(key):
        return _mean([counts[op].get(key, 0) for op in ops])

    # dm-eval ops are the ones that load a spec file.
    dm_ops = [op for op in ops if "cli.load_spec" in incl[op]]
    ibp = per_call("dm_eval.inner_bound_pentagon", 1.0)
    return {
        "region_geometry.hull_ms": per_op_ms("region_geometry.hull"),
        "region_geometry.corners_ms": per_op_ms("region_geometry.pentagon_vertices"),
        "region_geometry.pentagon_vertices_us": per_call("region_geometry.pentagon_vertices", 1e6),
        "region_geometry.hull_input_points": count("region_geometry.hull.in"),
        "region_geometry.hull_vertices": count("region_geometry.hull.out"),
        "region_geometry.hull_kept_ratio": ratio("region_geometry.hull.out", "region_geometry.hull.in"),
        "gaussian_mac.gdpc_rates_us": per_call("gaussian_mac.gdpc_rates", 1e6),
        "gaussian_mac.kernel_ms": per_op_ms("gaussian_mac.gdpc_rates", "gaussian_mac.asymptotic_rates"),
        "gaussian_mac.grid_points": count("grid"),
        "gaussian_mac.feasible_ratio": ratio("feasible", "grid"),
        "gaussian_mac.r2max_curve_ms": per_op_ms("gaussian_mac.r2_max_curve"),
        "gaussian_mac.asymptotic_region_ms": per_op_ms("gaussian_mac.asymptotic_inner_region"),
        "binary_mac.feasible_grid_ms": per_op_ms("binary_mac.feasible_grid"),
        "binary_mac.inner_pentagon_us": per_call("binary_mac.inner_pentagon", 1e6),
        "binary_mac.feasible_ratio": ratio("binary_mac.feasible_grid.feasible", "binary_mac.feasible_grid.grid"),
        "dm_eval.validate_spec_ms": per_op_ms("dm_eval.validate_spec"),
        "dm_eval.induced_joint_ms": per_op_ms("dm_eval.induced_joint", table=self_t),
        "dm_eval.inner_bound_pentagon_ms": 1e3 * ibp,
        "dm_eval.table_cells": ratio("dm_eval.induced_joint.cells", "dm_eval.induced_joint.calls"),
        "info_measures.cmi_us": per_call("info_measures.cmi", 1e6),
        "cli.parse_ms": per_op_ms("cli.parse", table=self_t),
        "cli.load_spec_ms": per_op_ms("cli.load_spec", table=self_t),
        "cli.export_build_ms": per_op_ms("cli.export_build", table=self_t),
        "cli.serialise_ms": per_op_ms("cli.serialise", table=self_t),
        "cli.bytes_written": _mean([op_extra[op]["bytes"] for op in ops]),
        "cli.dm_eval_overhead_ratio": (
            _mean([op_time[op] for op in dm_ops]) / ibp if dm_ops and ibp else 0.0),
        "verification.binary_oracle_ms": per_op_ms("verification.binary_oracle"),
        "verification.gaussian_oracle_ms": per_op_ms("verification.gaussian_oracle"),
        "verification.asymptotic_limit_ms": per_op_ms("verification.asymptotic_limit"),
        "verification.containment_ms": per_op_ms("verification.containment"),
        "trace.coverage_ratio": sum(counts[op]["attributed"] for op in ops) / sum(op_time.values()),
        "trace.overhead_ratio": sum(op_time.values()) / sum(op_extra[op]["untraced_s"] for op in ops),
    }
