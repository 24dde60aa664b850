"""Achievable-rate evaluation for discrete memoryless state-dependent MACs.

A channel instance is described by a factorized joint law over the variables
(Q, S, U1, X1, X2, Y):

    p(q) p(s) p(u1|s,q) p(x1|u1,s,q) p(x2|q) p(y|x1,x2,s)

where Q is a time-sharing variable, S the channel state known only to encoder
1, U1 the binning auxiliary of the informed encoder, X1/X2 the channel inputs
and Y the output.  The achievable pentagon is evaluated exactly from the
induced joint table:

    c1  = I(U1; Y | X2, Q) - I(U1; S | Q)
    c2  = I(X2; Y | U1, Q)
    c12 = I(U1, X2; Y | Q)  - I(U1; S | Q)

with each cap clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .info_measures import (
    PROB_TOL,
    JointTable,
    Pmf,
    _checked_tables,
    _cmi,
    _marginal_entropies,
)
from .region_geometry import RatePentagon

# Variable order of the induced joint table.
Q, S, U1, X1, X2, Y = range(6)

#: Advisory cardinality caps: larger alphabets never help the bound.
MAX_TIME_SHARING = 4


def _table(value, name: str, ndim: int) -> np.ndarray:
    arr = np.array(value, dtype=float, order="C")  # a copy: the spec's tables never change
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} axes, got {arr.ndim}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DmChannelSpec:
    """Finite-alphabet channel specification in the factorized form above.

    Conditional tables are indexed with the conditioning variables first, in
    the order their names state, e.g. ``u1_given_sq[s, q, u1]`` and
    ``y_given_x1x2s[x1, x2, s, y]``.  The spec holds read-only C-ordered
    copies of its tables, so ``validate_spec`` diagnoses each spec once.
    """

    q_dist: Pmf
    s_dist: Pmf
    u1_given_sq: np.ndarray
    x1_given_u1sq: np.ndarray
    x2_given_q: np.ndarray
    y_given_x1x2s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u1_given_sq", _table(self.u1_given_sq, "u1_given_sq", 3))
        object.__setattr__(
            self, "x1_given_u1sq", _table(self.x1_given_u1sq, "x1_given_u1sq", 4)
        )
        object.__setattr__(self, "x2_given_q", _table(self.x2_given_q, "x2_given_q", 2))
        object.__setattr__(
            self, "y_given_x1x2s", _table(self.y_given_x1x2s, "y_given_x1x2s", 4)
        )

    @property
    def alphabet_sizes(self) -> dict[str, int]:
        return {
            "Q": len(self.q_dist),
            "S": len(self.s_dist),
            "U1": self.u1_given_sq.shape[2],
            "X1": self.x1_given_u1sq.shape[3],
            "X2": self.x2_given_q.shape[1],
            "Y": self.y_given_x1x2s.shape[3],
        }

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_diagnose(self))


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" or "advisory"
    location: str
    message: str


def _check_rows(arr: np.ndarray, name: str, out: list[Diagnostic]) -> None:
    """Flag conditional rows that are not valid pmfs.

    The rows are screened as one array; only flagged rows build a message.  A
    row holding a NaN or infinite entry gets that one error and no other.
    """
    rows = arr.reshape(-1, arr.shape[-1])
    finite = np.isfinite(rows)
    non_finite = ~np.logical_and.reduce(finite, axis=1)
    negative = np.logical_or.reduce(rows < -PROB_TOL, axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row's sum
        off_total = abs(np.add.reduce(rows, axis=1) - 1.0) > PROB_TOL
    for flat_i in (non_finite | negative | off_total).nonzero()[0].tolist():
        row = rows[flat_i]
        idx = np.unravel_index(flat_i, arr.shape[:-1]) if arr.ndim > 1 else ()
        loc = name + "".join(f"[{i}]" for i in idx)
        if non_finite[flat_i]:
            j = int(np.argmin(finite[flat_i]))
            out.append(Diagnostic("error", loc, f"entry {j} is {float(row[j])!r}, not finite"))
            continue
        if negative[flat_i]:
            out.append(Diagnostic("error", loc, f"negative probability {float(row.min())!r}"))
        if off_total[flat_i]:
            out.append(Diagnostic("error", loc, f"row sums to {float(row.sum())!r}, not 1"))


def validate_spec(spec: DmChannelSpec) -> list[Diagnostic]:
    """Normalization, shape-consistency, and cardinality diagnostics.

    Returns an empty list for a fully consistent spec.  Cardinality findings
    are advisories: alphabets beyond the caps cannot enlarge the region but
    are still evaluated.  Computed on the first call for a spec and reused.
    """
    return list(spec._diagnostics)


def _diagnose(spec: DmChannelSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    sizes = spec.alphabet_sizes
    nq, ns, nu, nx1, nx2 = sizes["Q"], sizes["S"], sizes["U1"], sizes["X1"], sizes["X2"]

    expect = {
        "u1_given_sq": (ns, nq, nu),
        "x1_given_u1sq": (nu, ns, nq, nx1),
        "x2_given_q": (nq, nx2),
        "y_given_x1x2s": (nx1, nx2, ns, sizes["Y"]),
    }
    for name, shape in expect.items():
        arr = getattr(spec, name)
        if arr.shape != shape:
            out.append(
                Diagnostic(
                    "error",
                    name,
                    f"shape {arr.shape} inconsistent with alphabets, expected {shape}",
                )
            )

    for name in ("u1_given_sq", "x1_given_u1sq", "x2_given_q", "y_given_x1x2s"):
        _check_rows(getattr(spec, name), name, out)

    if nq > MAX_TIME_SHARING:
        out.append(
            Diagnostic(
                "advisory",
                "q_dist",
                f"|Q| = {nq} exceeds {MAX_TIME_SHARING}; no larger alphabet is needed",
            )
        )
    u1_cap = nx1 * nx2 * ns + 4
    if nu > u1_cap:
        out.append(
            Diagnostic(
                "advisory",
                "u1_given_sq",
                f"|U1| = {nu} exceeds |X1||X2||S|+4 = {u1_cap}; no larger alphabet is needed",
            )
        )
    return out


def _raise_on_errors(spec: DmChannelSpec) -> None:
    """Raise ValueError naming the first error-level diagnostic of ``spec``."""
    errors = [d for d in validate_spec(spec) if d.level == "error"]
    if errors:
        d = errors[0]
        raise ValueError(f"invalid channel spec at {d.location}: {d.message}"
                         + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""))


def _joint_masses(specs: Sequence[DmChannelSpec]) -> np.ndarray:
    """Unnormalised (K, |Q|, |S|, |U1|, |X1|, |X2|, |Y|) joints of validated specs.

    One einsum over the stacked tables; every spec must have the same
    alphabets.  The einsum has no summed index, so each cell is the same
    product, in the same order, as in a one-spec einsum.
    """
    sizes = specs[0].alphabet_sizes
    for spec in specs[1:]:
        if spec.alphabet_sizes != sizes:
            raise ValueError(
                f"stacked specs need equal alphabets, got {spec.alphabet_sizes} and {sizes}"
            )
    tables = zip(*[
        (s.q_dist.atoms, s.s_dist.atoms, s.u1_given_sq, s.x1_given_u1sq, s.x2_given_q,
         s.y_given_x1x2s)
        for s in specs
    ])
    return np.einsum("kq,ks,ksqu,kusqa,kqb,kabsy->kqsuaby", *map(np.stack, tables), optimize=True)


def induced_joint(spec: DmChannelSpec) -> JointTable:
    """Joint table over (Q, S, U1, X1, X2, Y) induced by the factorization.

    Raises ValueError on inconsistent alphabet sizes or broken normalization
    (advisory-level diagnostics do not block evaluation).
    """
    _raise_on_errors(spec)
    return JointTable(_joint_masses([spec])[0])


def inner_bound_pentagons(specs: Sequence[DmChannelSpec]) -> list[RatePentagon]:
    """``inner_bound_pentagon`` of each spec, evaluated as one stack.

    Every spec is checked with ``validate_spec`` first; the first invalid one
    raises the error ``induced_joint`` raises for it.  The specs must share
    their alphabets.  The joint tables are built by one einsum and checked as
    ``JointTable`` checks them, and each marginal entropy the four CMIs need
    is computed once for the whole stack; every cap equals the one-spec
    evaluation bit for bit.  No specs give no pentagons.
    """
    for spec in specs:
        _raise_on_errors(spec)
    if not specs:
        return []
    entropy_of = _marginal_entropies(_checked_tables(_joint_masses(specs)))
    leak = _cmi(entropy_of, (U1,), (S,), (Q,))
    c1 = _cmi(entropy_of, (U1,), (Y,), (X2, Q)) - leak
    c2 = _cmi(entropy_of, (X2,), (Y,), (U1, Q))
    c12 = _cmi(entropy_of, (U1, X2), (Y,), (Q,)) - leak
    return [RatePentagon(*caps) for caps in zip(c1.tolist(), c2.tolist(), c12.tolist())]


def inner_bound_pentagon(spec: DmChannelSpec) -> RatePentagon:
    """Achievable pentagon of the channel spec, computed exactly.

    The informed encoder's binning against the state costs I(U1; S | Q) on
    both the R1 and the sum cap; negative raw caps clamp to zero.  The
    one-spec call of ``inner_bound_pentagons``.
    """
    return inner_bound_pentagons([spec])[0]


def degrade_output(spec: DmChannelSpec, kernel: Sequence[Sequence[float]]) -> DmChannelSpec:
    """Replace the output law with a stochastic degradation y -> y'.

    ``kernel[y][y']`` is a row-stochastic matrix; processing the output can
    only shrink the achievable pentagon.
    """
    k = np.asarray(kernel, dtype=float)
    ny = spec.y_given_x1x2s.shape[3]
    if k.ndim != 2 or k.shape[0] != ny:
        raise ValueError(f"kernel must have {ny} rows, got shape {k.shape}")
    return DmChannelSpec(
        q_dist=spec.q_dist,
        s_dist=spec.s_dist,
        u1_given_sq=spec.u1_given_sq,
        x1_given_u1sq=spec.x1_given_u1sq,
        x2_given_q=spec.x2_given_q,
        y_given_x1x2s=spec.y_given_x1x2s @ k,
    )


__all__ = [
    "DmChannelSpec",
    "Diagnostic",
    "RatePentagon",
    "validate_spec",
    "induced_joint",
    "inner_bound_pentagon",
    "inner_bound_pentagons",
    "degrade_output",
]
