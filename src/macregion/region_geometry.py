"""Convex geometry over rate pairs.

A rate region here is a convex polygon in the nonnegative (R1, R2) quadrant
that always contains the origin (any rate pair can time-share with silence).
The closure-of-convex-hull-of-union operation that combines regions achieved
under different coding parameters reduces, for unions of convex polygons, to
a convex hull of their vertex sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

#: Absolute cross-product tolerance below which hull vertices count as collinear.
COLLINEAR_TOL = 1e-12

#: Grid points a sweep evaluates at once (see ``union_cap_blocks``).  A block's
#: arrays stay a few tens of kilobytes, which the C allocator keeps for reuse;
#: whole-grid arrays (hundreds of kilobytes each) go back to the kernel when
#: freed and are page-faulted in again by the next sweep.
BLOCK_POINTS = 4096

# Relative rounding bound for the floating-point orientation filter; cross
# products with smaller magnitude are recomputed exactly.
_ORIENT_FILTER = 4.0e-16


@dataclass(frozen=True)
class RatePentagon:
    """Caps (c1, c2, c12) of a region {R1 <= c1, R2 <= c2, R1+R2 <= c12}.

    Caps must be finite.  They are clamped to be nonnegative on construction;
    achievable-rate expressions can produce negative raw values, and such a
    pentagon contributes nothing beyond the clamped one.
    """

    c1: float
    c2: float
    c12: float

    def __post_init__(self):
        for name in ("c1", "c2", "c12"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, max(v, 0.0))

    @property
    def c1_eff(self) -> float:
        """Largest R1 actually reachable (sum cap may bind first)."""
        return min(self.c1, self.c12)

    @property
    def c2_eff(self) -> float:
        return min(self.c2, self.c12)


def _orientation(o, a, b) -> int:
    """Sign of the cross product (a-o) x (b-o): +1 left turn, -1 right, 0 collinear.

    Uses a floating-point filter with an exact rational fallback so that the
    sign is always correct, even for nearly collinear sweep output.
    """
    detleft = (a[0] - o[0]) * (b[1] - o[1])
    detright = (a[1] - o[1]) * (b[0] - o[0])
    det = detleft - detright
    bound = _ORIENT_FILTER * (abs(detleft) + abs(detright))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    ox, oy = Fraction(o[0]), Fraction(o[1])
    exact = (Fraction(a[0]) - ox) * (Fraction(b[1]) - oy) - (
        Fraction(a[1]) - oy
    ) * (Fraction(b[0]) - ox)
    if exact > 0:
        return 1
    if exact < 0:
        return -1
    return 0


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class RegionPolygon:
    """Convex rate region: vertices in counterclockwise order from the origin.

    Degenerate regions are allowed (segment: two vertices, point: one).  For
    three or more vertices the polygon must be strictly convex; collinear
    vertices are expected to have been dropped by the constructors below.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if not verts:
            raise ValueError("polygon needs at least one vertex")
        for x, y in verts:
            if x < 0.0 or y < 0.0:
                raise ValueError(f"vertex ({x}, {y}) outside the nonnegative quadrant")
        if verts[0] != (0.0, 0.0):
            raise ValueError("polygon must start at the origin")
        n = len(verts)
        if n >= 3:
            for i in range(n):
                if _orientation(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) <= 0:
                    raise ValueError("vertices are not in strictly convex CCW order")
        object.__setattr__(self, "vertices", verts)

    @property
    def max_r1(self) -> float:
        return max(v[0] for v in self.vertices)

    @property
    def max_r2(self) -> float:
        return max(v[1] for v in self.vertices)

    def __iter__(self):
        return iter(self.vertices)


def convex_hull_2d(points: Iterable[tuple[float, float]]) -> RegionPolygon:
    """Convex hull of rate pairs with the origin adjoined.

    Monotone chain over the sorted unique points; orientation decisions use
    the exact predicate, then nearly collinear vertices (cross product within
    COLLINEAR_TOL) are dropped so the result is strictly convex.
    """
    pts = {(0.0, 0.0)}
    for x, y in points:
        pts.add((float(x), float(y)))
    pts = sorted(pts)
    if len(pts) == 1:
        return RegionPolygon((pts[0],))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 2:  # all points coincide after chaining
        verts = pts[:1]

    # Drop nearly collinear vertices one at a time (so neighbors stay current);
    # the origin is always kept, every rate region contains it.
    origin = (0.0, 0.0)
    while len(verts) >= 3:
        n = len(verts)
        for i in range(n):
            if verts[i] == origin:
                continue
            if abs(_cross(verts[i - 1], verts[i], verts[(i + 1) % n])) <= COLLINEAR_TOL:
                del verts[i]
                break
        else:
            break

    k = verts.index(origin)  # origin is the lexicographic minimum, never popped
    verts = verts[k:] + verts[:k]
    return RegionPolygon(tuple(verts))


def pentagon_vertices(p: RatePentagon) -> RegionPolygon:
    """Polygon of {(x, y) >= 0 : x <= c1, y <= c2, x + y <= c12}.

    Handles every degeneracy: a slack sum cap yields a rectangle, binding
    caps yield a pentagon/quadrilateral/triangle, zero caps collapse to a
    segment or the origin.
    """
    c1, c2, c12 = p.c1_eff, p.c2_eff, p.c12
    candidates = [
        (0.0, 0.0),
        (c1, 0.0),
        (0.0, c2),
        (c1, min(c2, max(c12 - c1, 0.0))),
        (min(c1, max(c12 - c2, 0.0)), c2),
    ]
    return convex_hull_2d(candidates)


def union_region(pentagons: Sequence[RatePentagon]) -> RegionPolygon:
    """Convex hull of the union of pentagon regions (see ``union_caps``)."""
    caps = np.array([(p.c1, p.c2, p.c12) for p in pentagons], dtype=float).reshape(-1, 3)
    return union_caps(*caps.T)


def union_caps(c1, c2, c12) -> RegionPolygon:
    """Convex hull of the union of the pentagons with caps (c1[k], c2[k], c12[k]).

    The cap arrays broadcast against each other and are checked and clamped
    at 0 as ``RatePentagon`` does; the hull is ``union_cap_blocks``'s.
    """
    caps = tuple(np.asarray(c, dtype=float) for c in (c1, c2, c12))
    if not np.broadcast(*caps).size:
        raise ValueError("need at least one pentagon")
    return union_cap_blocks([caps])


def union_cap_blocks(blocks) -> RegionPolygon:
    """Convex hull of the union of pentagons whose caps arrive in blocks.

    The array core behind ``union_caps`` and every sweep.  ``blocks`` yields
    (c1, c2, c12) triples of cap arrays that broadcast against each other;
    a block may be empty, and with no pentagon at all the region is the
    origin.  A sweep hands over its grid one block of ``BLOCK_POINTS`` points
    at a time, so it never holds arrays of the whole grid.

    Every pentagon is down-closed (time sharing with silence is always
    allowed), so the hull of the union is too, and its only vertices are the
    origin, the largest point on each axis and Pareto-maximal pentagon
    corners: a point dominated by another lies in that point's rectangle
    [0, x] x [0, y] inside the hull, so it is a vertex only on an axis.  Each
    pentagon's two possibly off-axis corners are collected, the dominated
    ones dropped within each block and again across blocks, and the rest
    hulled once with the exact predicate; the result equals
    ``convex_hull_2d`` of every pentagon's vertices taken together, however
    the pentagons are split into blocks.
    """
    xs, ys = [], []
    for caps in blocks:
        caps = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in caps))
        if caps[0].size:
            x, y = _pareto_corners(*(np.ravel(c) for c in caps))
            xs.append(x)
            ys.append(y)
    if not xs:
        return convex_hull_2d([])
    x, y = _pareto(np.concatenate(xs), np.concatenate(ys))
    points = list(zip(x.tolist(), y.tolist()))
    # R1 falls and R2 rises along the Pareto corners: x[0] is the largest
    # R1 of any pentagon, y[-1] the largest R2.
    points += [(float(x[0]), 0.0), (0.0, float(y[-1]))]
    return convex_hull_2d(points)


def _pareto_corners(c1, c2, c12) -> tuple[np.ndarray, np.ndarray]:
    """Pareto-maximal off-axis corners of the pentagons with 1-D caps c1, c2, c12."""
    for name, v in zip(("c1", "c2", "c12"), (c1, c2, c12)):
        bad = ~np.isfinite(v)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {float(v[bad][0])!r}")
    c1, c2, c12 = (np.where(v < 0.0, 0.0, v) for v in (c1, c2, c12))  # RatePentagon's max(v, 0.0)
    c1 = np.where(c12 < c1, c12, c1)  # c1_eff = min(c1, c12)
    c2 = np.where(c12 < c2, c12, c2)  # c2_eff
    x = np.concatenate([c1, np.minimum(c1, np.maximum(c12 - c2, 0.0))])
    y = np.concatenate([np.minimum(c2, np.maximum(c12 - c1, 0.0)), c2])
    return _pareto(x, y)


def _pareto(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct Pareto-maximal points of (x, y) >= 0, x descending (y ascending)."""
    order = np.lexsort((-y, -x))  # R1 descending, ties by R2 descending
    x, y = x[order], y[order]
    best_before = np.maximum.accumulate(np.concatenate(([-1.0], y[:-1])))
    keep = y > best_before  # no corner with larger (or equal) R1 reaches this R2
    return x[keep], y[keep]


def _segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    t = min(max(t, 0.0), 1.0)
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _vertices_of(region) -> tuple[tuple[float, float], ...]:
    """Vertex tuple of a RegionPolygon or of a plain CCW vertex sequence."""
    if isinstance(region, RegionPolygon):
        return region.vertices
    return tuple((float(x), float(y)) for x, y in region)


def _distance_to_region(point, region) -> float:
    """Euclidean distance from a point to the (filled) region; 0 if inside."""
    verts = _vertices_of(region)
    n = len(verts)
    if n == 1:
        return math.hypot(point[0] - verts[0][0], point[1] - verts[0][1])
    if n == 2:
        return _segment_distance(point, verts[0], verts[1])
    inside = True
    best = math.inf
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        cross = _cross(a, b, point)
        if cross < 0.0:
            inside = False
        best = min(best, _segment_distance(point, a, b))
    return 0.0 if inside else best


def contains(region, point: tuple[float, float], tol: float = 0.0) -> bool:
    """True when the point lies in the region within distance ``tol`` (bits)."""
    return _distance_to_region((float(point[0]), float(point[1])), region) <= tol


def is_subset(a, b, tol: float = 0.0) -> bool:
    """True when every vertex of convex ``a`` lies in convex ``b`` within tol."""
    return all(contains(b, v, tol) for v in _vertices_of(a))


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two convex regions, in bits."""
    d_ab = max(_distance_to_region(v, b) for v in _vertices_of(a))
    d_ba = max(_distance_to_region(v, a) for v in _vertices_of(b))
    return max(d_ab, d_ba)


def polygon_area(region: RegionPolygon) -> float:
    """Area (bits^2) by the shoelace formula; zero for degenerate regions."""
    verts = region.vertices
    n = len(verts)
    if n < 3:
        return 0.0
    acc = math.fsum(
        verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
        for i in range(n)
    )
    return acc / 2.0


def max_r2_at(region: RegionPolygon, r1: float, tol: float = 1e-12) -> float:
    """Largest R2 with (r1, R2) in the region (boundary query).

    Raises ValueError when r1 lies outside [0, max R1] beyond ``tol``.
    """
    r1 = float(r1)
    hi = region.max_r1
    if r1 < -tol or r1 > hi + tol:
        raise ValueError(f"R1={r1} outside the region's span [0, {hi}]")
    r1 = min(max(r1, 0.0), hi)
    verts = region.vertices
    n = len(verts)
    best = -math.inf
    for i in range(n):
        ax, ay = verts[i]
        if abs(ax - r1) <= tol:
            best = max(best, ay)
        bx, by = verts[(i + 1) % n] if n > 1 else verts[i]
        if n > 1 and (ax - r1) * (bx - r1) < 0.0:
            t = (r1 - ax) / (bx - ax)
            best = max(best, ay + t * (by - ay))
    return max(best, 0.0)


__all__ = [
    "COLLINEAR_TOL",
    "RatePentagon",
    "RegionPolygon",
    "convex_hull_2d",
    "pentagon_vertices",
    "union_region",
    "union_caps",
    "union_cap_blocks",
    "BLOCK_POINTS",
    "contains",
    "is_subset",
    "hausdorff",
    "polygon_area",
    "max_r2_at",
]
