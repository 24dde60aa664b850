"""Command-line surface: region computation, export, presets, verification.

Every export carries a metadata block (command, parameters, units, grid
settings) sufficient to reproduce it bit for bit; CSV and JSON exports of the
same run hold identical vertex lists.  Rates are exported in bits unless
``--nats`` rescales them by ln 2 at this presentation layer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import binary_mac, gaussian_mac
from .dm_eval import Diagnostic, DmChannelSpec, inner_bound_pentagon, validate_spec
from .info_measures import Pmf
from .region_geometry import RegionPolygon, max_r2_at, pentagon_vertices
from .verification import SUITES, run_suite

LN2 = math.log(2.0)

SPEC_TABLE_AXES = {
    "q_dist": ("Q",),
    "s_dist": ("S",),
    "u1_given_sq": ("S", "Q", "U1"),
    "x1_given_u1sq": ("U1", "S", "Q", "X1"),
    "x2_given_q": ("Q", "X2"),
    "y_given_x1x2s": ("X1", "X2", "S", "Y"),
}

ALPHABET_NAMES = ("Q", "S", "U1", "X1", "X2", "Y")


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


@dataclass
class RegionExport:
    """One exported polygon plus the metadata that reproduces it."""

    metadata: dict
    vertices: list[tuple[float, float]]
    boundary_samples: list[tuple[float, float]] | None = None

    def csv_text(self) -> str:
        unit = self.metadata["units"]
        lines = [f"R1_{unit},R2_{unit}"]
        lines += [f"{x:.12g},{y:.12g}" for x, y in self.vertices]
        return "\n".join(lines) + "\n"

    def json_doc(self) -> dict:
        doc = {
            "metadata": self.metadata,
            "vertices": [[_round12(x), _round12(y)] for x, y in self.vertices],
        }
        if self.boundary_samples is not None:
            doc["boundary_samples"] = [
                [_round12(x), _round12(y)] for x, y in self.boundary_samples
            ]
        return doc


@dataclass
class CurveExport:
    """Exported (Q, R2max) curve with reproducing metadata."""

    metadata: dict
    points: list[tuple[float, float]]

    def csv_text(self) -> str:
        unit = self.metadata["units"]
        lines = [f"Q,R2max_{unit}"]
        lines += [f"{x:.12g},{y:.12g}" for x, y in self.points]
        return "\n".join(lines) + "\n"

    def json_doc(self) -> dict:
        return {
            "metadata": self.metadata,
            "points": [[_round12(x), _round12(y)] for x, y in self.points],
        }


class DmSpecError(ValueError):
    """Channel-spec file rejected; ``pointer`` locates the offending node."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


def _checked_spec(doc: dict) -> tuple[DmChannelSpec, list[Diagnostic]]:
    """Build a channel spec and validate it once: errors raise, advisories return."""
    if not isinstance(doc, dict):
        raise DmSpecError("", "top level must be an object")
    for key in ("alphabets", *SPEC_TABLE_AXES):
        if key not in doc:
            raise DmSpecError("", f"missing key {key!r}")
    alphabets = doc["alphabets"]
    if not isinstance(alphabets, dict):
        raise DmSpecError("/alphabets", "must be an object")
    sizes = {}
    for name in ALPHABET_NAMES:
        if name not in alphabets:
            raise DmSpecError("/alphabets", f"missing alphabet size {name!r}")
        size = alphabets[name]
        if not isinstance(size, int) or size < 1:
            raise DmSpecError(f"/alphabets/{name}", f"must be a positive integer, got {size!r}")
        sizes[name] = size

    arrays = {}
    for key, axes in SPEC_TABLE_AXES.items():
        try:
            arr = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError):
            raise DmSpecError(f"/{key}", "must be a rectangular numeric array")
        expected = tuple(sizes[a] for a in axes)
        if arr.shape != expected:
            raise DmSpecError(
                f"/{key}",
                f"shape {arr.shape} does not match alphabets "
                f"{dict(zip(axes, expected))} (expected {expected})",
            )
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            idx = tuple(bad[0])
            raise DmSpecError(
                "/" + "/".join([key, *map(str, idx)]), f"entry {float(arr[idx])!r} is not finite"
            )
        arrays[key] = arr

    try:
        q_dist = Pmf(arrays["q_dist"])
    except ValueError as exc:
        raise DmSpecError("/q_dist", str(exc))
    try:
        s_dist = Pmf(arrays["s_dist"])
    except ValueError as exc:
        raise DmSpecError("/s_dist", str(exc))

    spec = DmChannelSpec(
        q_dist=q_dist,
        s_dist=s_dist,
        u1_given_sq=arrays["u1_given_sq"],
        x1_given_u1sq=arrays["x1_given_u1sq"],
        x2_given_q=arrays["x2_given_q"],
        y_given_x1x2s=arrays["y_given_x1x2s"],
    )
    diagnostics = validate_spec(spec)
    for diag in diagnostics:
        if diag.level == "error":
            pointer = "/" + diag.location.replace("[", "/").replace("]", "")
            raise DmSpecError(pointer, diag.message)
    return spec, diagnostics


def dm_spec_from_dict(doc: dict) -> DmChannelSpec:
    """Build and fully validate a channel spec from its JSON document."""
    return _checked_spec(doc)[0]


def _read_spec_doc(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DmSpecError("", f"not valid JSON: {exc}")


def load_dm_spec(path: str | Path) -> DmChannelSpec:
    """Read and validate a channel-spec JSON file."""
    return dm_spec_from_dict(_read_spec_doc(path))


# ---------------------------------------------------------------------------
# The export commands: each one's help, flags and polygon, spelled once.
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """One export command of the CLI.

    ``flags`` are ``(option, argparse kwargs)`` pairs; a flag's argparse dest is
    its metadata key, under ``grid`` if it is in ``GRID_KEYS`` and under
    ``parameters`` otherwise.  ``polygon`` maps (parameters, grid) to the
    region; it is None for ``r2max-curve`` (a curve) and ``dm-eval`` (its
    export also carries the caps).
    """

    help: str
    flags: tuple[tuple[str, dict], ...]
    polygon: Callable[[dict, dict], RegionPolygon] | None = None


GRID_KEYS = frozenset({"grid_steps", "rho_steps", "alpha_steps", "dpc_only", "explore_positive_rho"})


def _required(help_text: str) -> dict:
    return {"type": float, "required": True, "help": help_text}


def _sweep(rho_steps: int, alpha_steps: int) -> tuple[tuple[str, dict], ...]:
    return (("--rho-steps", {"type": int, "default": rho_steps}),
            ("--alpha-steps", {"type": int, "default": alpha_steps}))


_WEIGHTS = (("--p1", _required("weight constraint of the informed encoder")),
            ("--p2", _required("weight constraint of the uninformed encoder")))
_BIAS = ("--q", _required("state bias in [0, 0.5]"))
_POWERS = (("--P1", _required("informed-encoder power")), ("--P2", _required("uninformed-encoder power")))
_NOISE = ("--N", _required("noise variance"))


def _binary(p: dict) -> binary_mac.BinaryMacParams:
    return binary_mac.BinaryMacParams(p["p1"], p["p2"], p["q"])


def _gaussian(p: dict, q: float) -> gaussian_mac.GaussianMacParams:
    return gaussian_mac.GaussianMacParams(p["P1"], p["P2"], q, p["N"])


def _gaussian_region(p: dict, grid: dict) -> RegionPolygon:
    m = _gaussian(p, p["Q"])
    if grid.get("dpc_only"):
        return gaussian_mac.dpc_only_region(m, alpha_steps=grid["alpha_steps"])
    return gaussian_mac.inner_region(
        m, rho_steps=grid["rho_steps"], alpha_steps=grid["alpha_steps"],
        explore_positive_rho=bool(grid.get("explore_positive_rho", False)),
    )


COMMANDS: dict[str, Command] = {
    "binary-region": Command(
        "swept binary inner bound polygon",
        (*_WEIGHTS, _BIAS, ("--grid", {"type": int, "default": 41, "dest": "grid_steps",
                                       "metavar": "GRID", "help": "grid steps per coding axis"})),
        lambda p, g: binary_mac.inner_region(_binary(p), grid_steps=g["grid_steps"]),
    ),
    "binary-outer": Command(
        "binary informed-decoder outer bound", (*_WEIGHTS, _BIAS),
        lambda p, g: pentagon_vertices(binary_mac.outer_region(_binary(p))),
    ),
    "binary-capacity": Command(
        "exact binary capacity region at q = 0.5",
        (*_WEIGHTS, ("--q", {"type": float, "default": 0.5, "help": "state bias (must stay 0.5)"})),
        lambda p, g: pentagon_vertices(binary_mac.capacity_max_entropy_state(_binary(p))),
    ),
    "binary-dpc": Command(
        "plain binary DPC pentagon", (*_WEIGHTS, _BIAS),
        lambda p, g: pentagon_vertices(binary_mac.standard_dpc_pentagon(_binary(p))),
    ),
    "gaussian-region": Command(
        "swept Gaussian GDPC inner bound",
        (*_POWERS, ("--Q", _required("state variance")), _NOISE, *_sweep(21, 81),
         ("--dpc-only", {"action": "store_true", "help": "sweep rho = 0 only"}),
         ("--explore-positive-rho", {"action": "store_true", "help": "expert: extend the sweep "
                                     "to positive correlation (report separately)"})),
        _gaussian_region,
    ),
    "gaussian-outer": Command(
        "state-free Gaussian MAC outer bound",
        (*_POWERS, _NOISE, ("--Q", {"type": float, "default": 0.0,
                                    "help": "state variance (unused by the bound)"})),
        lambda p, g: pentagon_vertices(gaussian_mac.outer_region(_gaussian(p, p.get("Q", 0.0)))),
    ),
    "asymptotic-region": Command(
        "large-state-variance inner bound", (*_POWERS, _NOISE, *_sweep(21, 81)),
        lambda p, g: gaussian_mac.asymptotic_inner_region(
            _gaussian(p, 0.0), rho_steps=g["rho_steps"], alpha_steps=g["alpha_steps"]),
    ),
    "asymptotic-outer": Command(
        "large-state-variance outer bound", (*_POWERS, _NOISE),
        lambda p, g: pentagon_vertices(gaussian_mac.asymptotic_outer_region(_gaussian(p, 0.0))),
    ),
    "r2max-curve": Command(
        "max uninformed rate at R1 = 0 versus Q",
        (*_POWERS, _NOISE,
         ("--q-values", {"default": "1,5,20,100,500", "help": "comma-separated state variances"}),
         ("--rho-steps", {"type": int, "default": 41, "help": "coarse rho grid size (alpha "
                          "is exact per rho)"})),
    ),
    "dm-eval": Command(
        "evaluate a channel-spec JSON file",
        (("--spec", {"required": True, "metavar": "PATH", "help": "channel spec JSON"}),),
    ),
}

# Added to every export command after its own flags.
_EXPORT_FLAGS = (
    ("--out", {"action": "append", "default": [], "metavar": "PATH", "help": "write the export "
               "to PATH (.csv or .json; repeatable); default prints JSON"}),
    ("--nats", {"action": "store_true", "help": "report rates in nats instead of bits"}),
)


def _dest(option: str, kwargs: dict) -> str:
    """The argparse dest of a flag, which is also its metadata key."""
    return kwargs.get("dest", option.lstrip("-").replace("-", "_"))


# ---------------------------------------------------------------------------
# Export builders, keyed by command name so metadata blocks can be re-run.
# ---------------------------------------------------------------------------


def _metadata(command: str, parameters: dict, grid: dict, nats: bool) -> dict:
    return {"command": command, "parameters": parameters, "units": "nats" if nats else "bits",
            "grid": grid}


def build_region_export(command: str, parameters: dict, grid: dict, nats: bool = False,
                        sample_step: float | None = None) -> RegionExport:
    if command == "dm-eval":
        return _dm_eval_export(dm_spec_from_dict(parameters["spec"]), parameters, nats, sample_step)
    entry = COMMANDS.get(command)
    if entry is None or entry.polygon is None:
        raise ValueError(f"unknown region command {command!r}")
    polygon = entry.polygon(parameters, grid)
    return _region_export(command, parameters, grid, polygon, nats, sample_step)


def _dm_eval_export(spec: DmChannelSpec, parameters: dict, nats: bool,
                    sample_step: float | None) -> RegionExport:
    """The spec's pentagon, with its caps in the metadata."""
    pentagon = inner_bound_pentagon(spec)
    export = _region_export("dm-eval", parameters, {}, pentagon_vertices(pentagon), nats, sample_step)
    scale = LN2 if nats else 1.0
    export.metadata["caps"] = {
        cap: _round12(getattr(pentagon, cap) * scale) for cap in ("c1", "c2", "c12")
    }
    return export


def _region_export(command: str, parameters: dict, grid: dict, polygon: RegionPolygon,
                   nats: bool, sample_step: float | None) -> RegionExport:
    scale = LN2 if nats else 1.0
    vertices = [(x * scale, y * scale) for x, y in polygon.vertices]
    samples = None
    grid_meta = dict(grid)
    if sample_step is not None:
        if not math.isfinite(sample_step):
            raise ValueError(f"sample step must be finite, got {sample_step!r}")
        if sample_step <= 0.0:
            raise ValueError(f"sample step must be positive, got {sample_step!r}")
        r1s = list(np.arange(0.0, polygon.max_r1, sample_step))
        r1s.append(polygon.max_r1)
        samples = [(r1 * scale, max_r2_at(polygon, r1) * scale) for r1 in r1s]
        grid_meta["sample_step"] = sample_step
    metadata = _metadata(command, parameters, grid_meta, nats)
    return RegionExport(metadata=metadata, vertices=vertices, boundary_samples=samples)


def build_curve_export(parameters: dict, grid: dict, nats: bool = False) -> CurveExport:
    if set(grid) != {"rho_steps"}:
        raise ValueError(f"r2max-curve grid takes rho_steps only, got {sorted(grid)}")
    m = _gaussian(parameters, 1.0)
    curve = gaussian_mac.r2_max_curve(m, parameters["q_values"], rho_steps=grid["rho_steps"])
    scale = LN2 if nats else 1.0
    metadata = _metadata("r2max-curve", parameters, dict(grid), nats)
    return CurveExport(metadata=metadata, points=[(q, r * scale) for q, r in curve])


def _build_export(command: str, parameters: dict, grid: dict, nats: bool = False,
                  sample_step: float | None = None) -> RegionExport | CurveExport:
    """Any export command's export from its metadata parts."""
    if command == "r2max-curve":
        return build_curve_export(parameters, grid, nats=nats)
    return build_region_export(command, parameters, grid, nats=nats, sample_step=sample_step)


def rebuild_from_metadata(metadata: dict) -> RegionExport | CurveExport:
    """Recompute an export purely from its own metadata block."""
    grid = dict(metadata.get("grid", {}))
    sample_step = grid.pop("sample_step", None)
    nats = metadata.get("units") == "nats"
    return _build_export(metadata["command"], metadata["parameters"], grid, nats, sample_step)


# ---------------------------------------------------------------------------
# Figure presets: each part is one base-command invocation.
# ---------------------------------------------------------------------------

_BIN_FIG2 = {"p1": 0.1, "p2": 0.4, "q": 0.2}
_GAUSS_FIG4 = {"P1": 15.0, "P2": 50.0, "Q": 20.0, "N": 60.0}
_SWEEP = {"rho_steps": 21, "alpha_steps": 81}

FIGURE_PRESETS: dict[str, list[tuple[str, str, dict, dict]]] = {
    "fig2": [
        ("gdpc_inner", "binary-region", _BIN_FIG2, {"grid_steps": 41}),
        ("dpc_pentagon", "binary-dpc", _BIN_FIG2, {}),
        ("outer", "binary-outer", _BIN_FIG2, {}),
    ],
    "fig3": [
        ("capacity_p1_02", "binary-capacity", {"p1": 0.2, "p2": 0.3, "q": 0.5}, {}),
        ("inner_p1_02", "binary-region", {"p1": 0.2, "p2": 0.3, "q": 0.5}, {"grid_steps": 41}),
        ("capacity_p1_04", "binary-capacity", {"p1": 0.4, "p2": 0.3, "q": 0.5}, {}),
        ("inner_p1_04", "binary-region", {"p1": 0.4, "p2": 0.3, "q": 0.5}, {"grid_steps": 41}),
    ],
    "fig4": [
        ("gdpc_inner", "gaussian-region", _GAUSS_FIG4, dict(_SWEEP)),
        ("dpc_inner", "gaussian-region", _GAUSS_FIG4, {**_SWEEP, "dpc_only": True}),
        ("outer", "gaussian-outer", _GAUSS_FIG4, {}),
    ],
    "fig5": [
        (
            "r2max_P1_15",
            "r2max-curve",
            {"P1": 15.0, "P2": 50.0, "N": 60.0, "q_values": [1.0, 5.0, 20.0, 100.0, 500.0]},
            {"rho_steps": 41},
        ),
        (
            "r2max_P1_60",
            "r2max-curve",
            {"P1": 60.0, "P2": 50.0, "N": 60.0, "q_values": [1.0, 5.0, 20.0, 100.0, 500.0]},
            {"rho_steps": 41},
        ),
    ],
    "fig6": [
        ("asym_inner", "asymptotic-region", {"P1": 50.0, "P2": 50.0, "N": 60.0}, dict(_SWEEP)),
        ("asym_outer", "asymptotic-outer", {"P1": 50.0, "P2": 50.0, "N": 60.0}, {}),
    ],
    "fig7": [
        ("asym_inner", "asymptotic-region", {"P1": 120.0, "P2": 50.0, "N": 60.0}, dict(_SWEEP)),
        ("asym_outer", "asymptotic-outer", {"P1": 120.0, "P2": 50.0, "N": 60.0}, {}),
    ],
    "fig8": [
        ("asym_inner", "asymptotic-region", {"P1": 2000.0, "P2": 50.0, "N": 60.0}, dict(_SWEEP)),
        ("asym_outer", "asymptotic-outer", {"P1": 2000.0, "P2": 50.0, "N": 60.0}, {}),
    ],
}


# ---------------------------------------------------------------------------
# Argument parsing and command dispatch.
# ---------------------------------------------------------------------------


def _json_text(doc: dict) -> str:
    """Export JSON text; a NaN or infinite number is a ValueError, never invalid JSON."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_export(export: RegionExport | CurveExport, out_paths: list[str]) -> None:
    if not out_paths:
        sys.stdout.write(_json_text(export.json_doc()))
        return
    for raw in out_paths:
        path = Path(raw)
        if path.suffix == ".csv":
            path.write_text(export.csv_text())
        elif path.suffix == ".json":
            path.write_text(_json_text(export.json_doc()))
        else:
            raise ValueError(f"output path {raw!r} must end in .csv or .json")
        print(f"wrote {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser: one subcommand per ``COMMANDS`` entry, plus ``figure`` and ``verify``."""
    parser = argparse.ArgumentParser(
        prog="macregion",
        description="Capacity-region bounds for two-encoder MACs with one state-informed encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        p = sub.add_parser(name, help=entry.help)
        for option, kwargs in (*entry.flags, *_EXPORT_FLAGS):
            p.add_argument(option, **kwargs)
        if name == "r2max-curve":  # a curve has no boundary to sample
            p.set_defaults(sample_step=None)
        else:
            p.add_argument("--sample-step", type=float, default=None, metavar="STEP",
                           help="also emit dense boundary samples every STEP along R1")

    p = sub.add_parser("figure", help="export the polygons behind a reference figure")
    p.add_argument("name", choices=sorted(FIGURE_PRESETS))
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--nats", action="store_true")

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    return parser


def _metadata_parts(args: argparse.Namespace) -> tuple[dict, dict]:
    """The (parameters, grid) an export command's flags record."""
    parameters: dict = {}
    grid: dict = {}
    for option, kwargs in COMMANDS[args.command].flags:
        key = _dest(option, kwargs)
        value = getattr(args, key)
        if kwargs.get("action") == "store_true" and not value:
            continue
        if key == "q_values":
            value = [float(v) for v in value.split(",") if v.strip()]
        (grid if key in GRID_KEYS else parameters)[key] = value
    return parameters, grid


def _run_command(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "verify":
        results = run_suite(args.suite)
        for result in results:
            print(result.line())
        return 0 if all(r.passed for r in results) else 1

    if cmd == "figure":
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for part, command, parameters, grid in FIGURE_PRESETS[args.name]:
            export = _build_export(command, parameters, grid, nats=args.nats)
            stem = out_dir / f"{args.name}_{part}"
            if args.format in ("csv", "both"):
                Path(f"{stem}.csv").write_text(export.csv_text())
                written.append(f"{stem}.csv")
            if args.format in ("json", "both"):
                Path(f"{stem}.json").write_text(_json_text(export.json_doc()))
                written.append(f"{stem}.json")
        for path in written:
            print(path)
        return 0

    if cmd == "dm-eval":
        doc = _read_spec_doc(args.spec)
        spec, advisories = _checked_spec(doc)
        for diag in advisories:
            print(f"advisory: {diag.location}: {diag.message}", file=sys.stderr)
        export = _dm_eval_export(spec, {"spec": doc}, args.nats, args.sample_step)
    else:
        parameters, grid = _metadata_parts(args)
        export = _build_export(cmd, parameters, grid, args.nats, args.sample_step)
    _write_export(export, args.out)
    return 0


# Built by the first ``main`` call and reused by every later one in the process.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
