"""Closed-form rate regions for the binary noiseless MAC Y = X1 xor X2 xor S.

The state S is Bernoulli(q) and known non-causally to encoder 1 only; the
encoders are weight-constrained to fractions p1 and p2 of ones.  The informed
encoder applies generalized binary dirty paper coding: U1 = X1 xor S with the
conditional law of X1 given S set by

    a10 = P(X1=1 | S=0),   a01 = P(X1=0 | S=1),

subject to the weight feasibility (1-q)*a10 + q*(1-a01) <= p1.  Sweeping the
feasible (a10, a01) and taking the convex closure yields the inner bound;
giving the state to the decoder yields the outer bound; at q = 0.5 the two
meet and the standard DPC point (a10 = p1, a01 = 1 - p1) is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dm_eval import DmChannelSpec
from .info_measures import PROB_TOL, Pmf, binary_convolve, binary_entropy
from .region_geometry import RatePentagon, RegionPolygon, union_region


class InfeasibleParameters(ValueError):
    """Coding parameters violate the input-weight constraint."""


def _check_half(name: str, v: float) -> float:
    v = float(v)
    if not 0.0 <= v <= 0.5 + PROB_TOL:
        raise ValueError(
            f"{name}={v!r} outside [0, 0.5]; map parameters above 0.5 to their "
            f"complement first (the channel is symmetric under relabeling)"
        )
    return min(v, 0.5)


@dataclass(frozen=True)
class BinaryMacParams:
    """Input-weight constraints (p1, p2) and state bias q, all in [0, 0.5]."""

    p1: float
    p2: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_half("p1", self.p1))
        object.__setattr__(self, "p2", _check_half("p2", self.p2))
        object.__setattr__(self, "q", _check_half("q", self.q))


@dataclass(frozen=True)
class BinaryDpcParams:
    """Conditional input law of the informed encoder given the state."""

    a10: float  # P(X1=1 | S=0)
    a01: float  # P(X1=0 | S=1)

    def __post_init__(self):
        for name in ("a10", "a01"):
            v = float(getattr(self, name))
            if not -PROB_TOL <= v <= 1.0 + PROB_TOL:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))


def informed_input_weight(d: BinaryDpcParams, m: BinaryMacParams) -> float:
    """P(X1 = 1) = (1-q)*a10 + q*(1-a01) under state bias q."""
    return (1.0 - m.q) * d.a10 + m.q * (1.0 - d.a01)


def is_feasible(d: BinaryDpcParams, m: BinaryMacParams) -> bool:
    """Whether the coding parameters meet the weight constraint P(X1=1) <= p1."""
    return informed_input_weight(d, m) <= m.p1 + PROB_TOL


def inner_pentagon(m: BinaryMacParams, d: BinaryDpcParams) -> RatePentagon:
    """Achievable pentagon of generalized binary DPC at (a10, a01).

    c1  = (1-q) Hb(a10) + q Hb(a01)
    c2  = Hb(p2)
    c12 = c1 + Hb(p2 * u) - Hb(u),  u = q a01 + (1-q) a10

    where * is binary convolution; a negative raw sum cap clamps to zero.
    """
    if not is_feasible(d, m):
        raise InfeasibleParameters(
            f"(1-q)*a10 + q*(1-a01) = {informed_input_weight(d, m):.6g} "
            f"exceeds p1 = {m.p1:.6g}"
        )
    c1 = (1.0 - m.q) * binary_entropy(d.a10) + m.q * binary_entropy(d.a01)
    c2 = binary_entropy(m.p2)
    u = m.q * d.a01 + (1.0 - m.q) * d.a10  # P(U1 = 1)
    c12 = c1 + binary_entropy(binary_convolve(m.p2, u)) - binary_entropy(u)
    return RatePentagon(c1, c2, max(c12, 0.0))


def standard_dpc_pentagon(m: BinaryMacParams) -> RatePentagon:
    """Pentagon of plain binary DPC: a10 = p1, a01 = 1 - p1 (X1 independent of S)."""
    return inner_pentagon(m, BinaryDpcParams(m.p1, 1.0 - m.p1))


def feasible_grid(m: BinaryMacParams, grid_steps: int) -> list[BinaryDpcParams]:
    """Uniform (a10, a01) grid over [0,1]^2 with infeasible points skipped."""
    if grid_steps < 2:
        raise ValueError("grid_steps must be >= 2")
    axis = np.linspace(0.0, 1.0, grid_steps)
    out = []
    for a10 in axis:
        for a01 in axis:
            d = BinaryDpcParams(float(a10), float(a01))
            if is_feasible(d, m):
                out.append(d)
    return out


def inner_region(m: BinaryMacParams, grid_steps: int = 41) -> RegionPolygon:
    """Convex closure of the pentagon union over the feasible (a10, a01) grid."""
    return union_region([inner_pentagon(m, d) for d in feasible_grid(m, grid_steps)])


def outer_region(m: BinaryMacParams) -> RatePentagon:
    """Bound from giving the state to the decoder: the channel becomes clean.

    c1 = Hb(p1), c2 = Hb(p2), and the sum cap is the output entropy limit
    Hb(p1+p2) when p1+p2 < 0.5, else one bit.
    """
    c1 = binary_entropy(m.p1)
    c2 = binary_entropy(m.p2)
    s = m.p1 + m.p2
    c12 = binary_entropy(s) if s < 0.5 else 1.0
    return RatePentagon(c1, c2, c12)


def capacity_max_entropy_state(m: BinaryMacParams) -> RatePentagon:
    """Exact capacity pentagon for the maximum-entropy state q = 0.5.

    The region is {R2 <= Hb(p2), R1 + R2 <= Hb(p1)}; R1 has no separate
    constraint, so c1 = c12 = Hb(p1).  Requires q = 0.5.
    """
    if m.q != 0.5:
        raise ValueError(f"capacity is only known for q = 0.5, got q = {m.q!r}")
    c12 = binary_entropy(m.p1)
    return RatePentagon(c12, binary_entropy(m.p2), c12)


def induced_dm_spec(m: BinaryMacParams, d: BinaryDpcParams) -> DmChannelSpec:
    """Six-variable channel spec realizing the binary construction.

    Time sharing is degenerate, U1 = X1 xor S, and Y = X1 xor X2 xor S; the
    exact table evaluation of this spec must reproduce the closed forms of
    ``inner_pentagon``.
    """
    u1_given_sq = np.array(
        [
            [[1.0 - d.a10, d.a10]],  # S=0: U1 = X1, P(U1=1) = a10
            [[1.0 - d.a01, d.a01]],  # S=1: U1 = X1 xor 1, P(U1=1) = P(X1=0) = a01
        ]
    )
    # X1 = U1 xor S, deterministic.
    x1_given_u1sq = np.zeros((2, 2, 1, 2))
    for u in range(2):
        for s in range(2):
            x1_given_u1sq[u, s, 0, u ^ s] = 1.0
    # Y = X1 xor X2 xor S, deterministic.
    y_given_x1x2s = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for s in range(2):
                y_given_x1x2s[x1, x2, s, x1 ^ x2 ^ s] = 1.0
    return DmChannelSpec(
        q_dist=Pmf([1.0]),
        s_dist=Pmf([1.0 - m.q, m.q]),
        u1_given_sq=u1_given_sq,
        x1_given_u1sq=x1_given_u1sq,
        x2_given_q=np.array([[1.0 - m.p2, m.p2]]),
        y_given_x1x2s=y_given_x1x2s,
    )


__all__ = [
    "BinaryMacParams",
    "BinaryDpcParams",
    "InfeasibleParameters",
    "informed_input_weight",
    "is_feasible",
    "inner_pentagon",
    "standard_dpc_pentagon",
    "feasible_grid",
    "inner_region",
    "outer_region",
    "capacity_max_entropy_state",
    "induced_dm_spec",
]
