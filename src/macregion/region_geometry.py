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
#: The benchmark's reference (``bench/reference.py``) applies the same rule to
#: its exact regions, so the two change together.
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


class RegionPolygon:
    """Convex rate region: vertices in counterclockwise order from the origin.

    Degenerate regions are allowed (segment: two vertices, point: one).  For
    three or more vertices every turn must be strictly left under the exact
    predicate, which ``convex_hull_2d`` guarantees for its output.  The
    vertices are held as one read-only (n, 2) float64 array; ``vertices``
    returns them as a tuple of float pairs, which ``==`` and ``hash`` use.
    """

    __slots__ = ("_xy",)

    def __init__(self, vertices):
        verts = tuple((float(x), float(y)) for x, y in vertices)
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
        xy = np.array(verts, dtype=float)
        xy.flags.writeable = False
        object.__setattr__(self, "_xy", xy)

    def __setattr__(self, name, value):
        raise AttributeError(f"RegionPolygon is immutable; cannot set {name!r}")

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self._xy.tolist()))

    def __eq__(self, other):
        if not isinstance(other, RegionPolygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"RegionPolygon(vertices={self.vertices!r})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return RegionPolygon, (self.vertices,)

    @property
    def max_r1(self) -> float:
        return max(self._xy[:, 0].tolist())

    @property
    def max_r2(self) -> float:
        return max(self._xy[:, 1].tolist())

    def __iter__(self):
        return iter(self.vertices)


def convex_hull_2d(points: Iterable[tuple[float, float]]) -> RegionPolygon:
    """Convex hull of rate pairs with the origin adjoined.

    Monotone chain over the sorted unique points with every turn decided by
    the exact predicate: a point making a non-left turn is popped, so the
    chain's vertices are strictly convex and counterclockwise.  For
    nonnegative points the origin is the lexicographic minimum and hence the
    first vertex.  Then nearly collinear vertices (float cross product
    within COLLINEAR_TOL) other than the origin are dropped.
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

    verts = chain(pts)[:-1] + chain(reversed(pts))[:-1]
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

    The array core behind ``union_caps`` and the exact stage of every sweep
    (``union_pruned_blocks``).  ``blocks`` yields
    (c1, c2, c12) triples of cap arrays that broadcast against each other;
    a block may be empty, and with no pentagon at all the region is the
    origin.  A caller can hand over its pentagons a block at a time, so it
    never holds arrays of all of them.

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
    _check_finite((c1, c2, c12))
    c1, c2, c12 = (np.where(v < 0.0, 0.0, v) for v in (c1, c2, c12))  # RatePentagon's max(v, 0.0)
    c1 = np.where(c12 < c1, c12, c1)  # c1_eff = min(c1, c12)
    c2 = np.where(c12 < c2, c12, c2)  # c2_eff
    x = np.concatenate([c1, np.minimum(c1, np.maximum(c12 - c2, 0.0))])
    y = np.concatenate([np.minimum(c2, np.maximum(c12 - c1, 0.0)), c2])
    return _pareto(x, y)


def _pareto(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct Pareto-maximal points of (x, y) >= 0, x descending (y ascending)."""
    keep = _pareto_index(x, y)
    return x[keep], y[keep]


def _pareto_index(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the distinct Pareto-maximal points of (x, y) >= 0, x descending.

    One sort by x; each run of equal x keeps its largest y (``reduceat``) and
    survives when that beats every run with larger x.  Among equal points the
    smallest index is taken, as a stable sort by (x, y) descending would.
    """
    if not x.size:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(x)[::-1]
    xs, ys = x[order], y[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    top = np.maximum.reduceat(ys, starts)
    keep = top > np.maximum.accumulate(np.concatenate(([-1.0], top[:-1])))
    at_top = ys == np.repeat(top, np.diff(np.append(starts, xs.size)))
    first = np.minimum.reduceat(np.where(at_top, order, x.size), starts)
    return first[keep]


#: Relative slack of a cap evaluated with ``np.log2`` (see ``union_pruned_blocks``).
LOG_SLACK = 2.0**-40

# Smallest normal double: the hull test's allowance for products that underflow.
_TINY = 2.0**-1022


def union_pruned_blocks(blocks, estimate, exact) -> RegionPolygon:
    """Hull of a pentagon union with exact caps taken only where a pentagon can reach it.

    ``blocks`` yields tuples of 1-D key arrays with one entry per pentagon;
    they are regrouped into runs of at least ``BLOCK_POINTS`` pentagons, so
    a sparse grid costs few selection rounds.  For keys of a run,

    - ``estimate(*keys)`` returns (caps, weights): approximate (c1, c2, c12)
      arrays that broadcast against each other, each the exact cap's
      expression evaluated with the same float operations except that
      ``np.log2`` stands in for ``math.log2``; and (w1, w2, w12), the sum of
      the absolute values of the terms each cap's expression adds up (for
      c = 0.5 log2(a) that is |c|; 0 for a cap taken without logarithms);
    - ``exact(*keys)`` returns the bit-exact caps.

    The region equals ``union_cap_blocks`` over the exact caps of every
    pentagon; ``exact`` is called once, with the keys of the kept ones.
    Before anything is dropped, every approximate cap is checked to be
    finite, with ``union_cap_blocks``'s message: ``np.log2`` returns inf or
    NaN where ``math.log2`` does, and -inf or NaN where it raises.

    **Slack.**  Take both logarithms to be within 4 ulps of the true value
    (the C library's ``log2`` is within 1; numpy's float64 loops are tested
    to a few, and the tests check that the observed gap stays below a
    thousandth of the slack).  Then each approximate log L' is within
    2^-49 |L| of the exact L.  A cap's two evaluations run the same rounded
    operations, at most 8 of them, on L' and on L.  Let f be the
    expression in real arithmetic, F its rounded evaluation and W the sum
    of the absolute values of its terms.  Then |F(L') - F(L)| <=
    |F(L') - f(L')| + |f(L') - f(L)| + |f(L) - F(L)| <= 2 gamma_8 W +
    2^-49 W <= 2^-48 W to first order (gamma_8 = 8u / (1 - 8u), u = 2^-53).
    The slack ``LOG_SLACK`` * W is 256 times that, so the exact cap lies in
    [c' - slack, c' + slack] even after that interval's ends are rounded.

    **Corners.**  ``_pareto_corners`` builds the two off-axis corners from
    the caps with max(., 0), min and subtraction only, each monotone in its
    arguments, and rounding to nearest is monotone too.  So the same
    operations on the ends of the cap intervals give a box [x_lo, x_hi] x
    [y_lo, y_hi] that holds the exact corner, with no further allowance.

    **Selection.**  The hull H of a union of down-closed pentagons is
    down-closed, and a pentagon lies in H when both its corners do.  A
    corner is dropped when either
    (a) another corner certainly dominates it: x_lo >= its x_hi and
        y_lo >= its y_hi, one of them strictly.  The strictness makes the
        relation acyclic, so every chain of dominations ends at a corner
        that is kept or dropped under (b); or
    (b) its (x_hi, y_hi) certainly lies under a chain through the (x_lo,
        y_lo) of corners that are kept: the chain and its down-closure lie
        inside the exact hull of those corners.  "Certainly" is the float
        orientation filter of ``_orientation`` plus an underflow allowance.
    Each run is selected together with the corners kept so far.  A pentagon
    is kept when either of its corners is, so every dropped pentagon lies in
    the hull of the kept ones and the exact hull is unchanged.
    """
    boxes = np.empty((4, 0))
    owners = np.empty(0, dtype=np.intp)  # row in ``table`` of each kept corner
    table: list[np.ndarray] | None = None  # keys of pentagons with a kept corner
    for keys in _runs(blocks):
        caps, weights = estimate(*keys)
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (*caps, *weights)))
        caps = [np.ravel(v) for v in arrays[:3]]
        _check_finite(caps)
        slack = [LOG_SLACK * np.abs(np.ravel(w)) for w in arrays[3:]]
        held = owners.size
        boxes = np.concatenate([boxes, _corner_boxes(caps, slack)], axis=1)
        keep = _select(boxes, held)
        boxes = boxes[:, keep]
        n = caps[0].size
        pentagon = np.flatnonzero(keep[held:]) % n  # A corners come first, then B corners
        fresh = np.zeros(n, dtype=bool)
        fresh[pentagon] = True
        start = 0 if table is None else table[0].size
        rows = start + np.cumsum(fresh) - 1
        keys = [k[fresh] for k in keys]
        table = keys if table is None else [np.concatenate(t) for t in zip(table, keys)]
        owners = np.concatenate([owners[keep[:held]], rows[pentagon]])
    if table is None:
        return convex_hull_2d([])
    used = np.zeros(table[0].size, dtype=bool)
    used[owners] = True
    return union_cap_blocks([exact(*(t[used] for t in table))])


def _runs(blocks):
    """Tuples of key arrays, consecutive blocks joined until they hold ``BLOCK_POINTS`` entries."""
    pending, count = [], 0
    for keys in blocks:
        if keys[0].size:
            pending.append(keys)
            count += keys[0].size
        if count >= BLOCK_POINTS:
            yield _joined(pending)
            pending, count = [], 0
    if pending:
        yield _joined(pending)


def _joined(pending):
    return pending[0] if len(pending) == 1 else tuple(np.concatenate(k) for k in zip(*pending))


def _check_finite(caps) -> None:
    for name, v in zip(("c1", "c2", "c12"), caps):
        bad = ~np.isfinite(v)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {float(v[bad][0])!r}")


def _corner_boxes(caps, slack) -> np.ndarray:
    """(x_lo, x_hi, y_lo, y_hi) rows over both corners of each pentagon (A's, then B's).

    The ``_pareto_corners`` operations on the ends of the cap intervals
    [c - slack, c + slack]; see ``union_pruned_blocks``.
    """
    lo = [np.maximum(c - s, 0.0) for c, s in zip(caps, slack)]
    hi = [np.maximum(c + s, 0.0) for c, s in zip(caps, slack)]
    c1_lo, c1_hi = np.minimum(lo[0], lo[2]), np.minimum(hi[0], hi[2])  # c1_eff
    c2_lo, c2_hi = np.minimum(lo[1], lo[2]), np.minimum(hi[1], hi[2])  # c2_eff
    return np.array([
        np.concatenate([c1_lo, np.minimum(c1_lo, np.maximum(lo[2] - c2_hi, 0.0))]),
        np.concatenate([c1_hi, np.minimum(c1_hi, np.maximum(hi[2] - c2_lo, 0.0))]),
        np.concatenate([np.minimum(c2_lo, np.maximum(lo[2] - c1_hi, 0.0)), c2_lo]),
        np.concatenate([np.minimum(c2_hi, np.maximum(hi[2] - c1_lo, 0.0)), c2_hi]),
    ])


# Directions (cos t, sin t), t from 0 to pi/2, in which ``_select`` first probes
# the hull of the lower corners.
_PROBES = np.array([(math.cos(t), math.sin(t)) for t in np.linspace(0.0, math.pi / 2, 16)])

# Fewest newer boxes for which the probe pass pays for itself.
_PROBE_MIN = 2048


def _select(boxes: np.ndarray, held: int):
    """Mask of the corner boxes that may be hull vertices.

    Drops a box that another certainly dominates or whose upper corner lies
    under the upper hull of the lower corners of the boxes not dominated;
    the boxes on that chain are kept.  The first ``held`` boxes were kept
    before.  With more than ``_PROBE_MIN`` newer boxes, a first chain
    through the held boxes and the newer ones that lead in the ``_PROBES``
    directions drops most newer boxes before anything is sorted.
    """
    x_lo, x_hi, y_lo, y_hi = boxes
    rest = np.arange(x_lo.size)
    if x_lo.size - held > _PROBE_MIN:
        seeds = np.concatenate([rest[:held], held + np.argmax(_PROBES @ boxes[[0, 2], held:], axis=1)])
        chain, _ = _chain(seeds[_pareto_index(x_lo[seeds], y_lo[seeds])], x_lo, y_lo)
        if chain is not None:
            out = np.ones(x_lo.size, dtype=bool)
            out[held:] = ~_under_chain(*chain, x_hi[held:], y_hi[held:])
            out[seeds] = True
            rest = np.flatnonzero(out)
    front = rest[_pareto_index(x_lo[rest], y_lo[rest])]
    fx, fy = np.append(x_lo[front][::-1], math.inf), np.append(y_lo[front][::-1], -math.inf)
    # Along the front x rises and y falls, so the first front corner at or
    # right of x_hi reaches the highest.
    dominated = (fy[np.searchsorted(fx, x_hi[rest], "left")] > y_hi[rest]) | (
        fy[np.searchsorted(fx, x_hi[rest], "right")] >= y_hi[rest])
    chain, owners = _chain(front, x_lo, y_lo)
    keep = np.zeros(x_lo.size, dtype=bool)
    keep[owners] = True
    rest = rest[~dominated & ~keep[rest]]
    if chain is not None:
        rest = rest[~_under_chain(*chain, x_hi[rest], y_hi[rest])]
    keep[rest] = True
    return keep


def _chain(front: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Upper hull through the points ``front`` (Pareto-maximal, x falling) and its owners.

    The chain starts at the R2-axis point (0, max y), which lies in the hull
    of the points, and is None when it is a single point.
    """
    front = front[::-1]
    cx, cy = x[front], y[front]
    if cx[0] > 0.0:
        cx, cy, front = np.append(0.0, cx), np.append(cy[0], cy), np.append(front[0], front)
    on = _upper_chain(cx, cy)
    return ((cx[on], cy[on]) if on.size >= 2 else None), front[on]


def _upper_chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the upper hull of points with x rising: a monotone chain with float turns.

    Rounding can keep a vertex that is not convex or drop one that is; the
    chain still passes through the given points, which is all the selection
    relies on.
    """
    xs, ys = x.tolist(), y.tolist()
    out: list[int] = []
    for i, (px, py) in enumerate(zip(xs, ys)):
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            if (xs[b] - xs[a]) * (py - ys[a]) - (ys[b] - ys[a]) * (px - xs[a]) < 0.0:
                break  # a right turn at b: b stays
            out.pop()
        out.append(i)
    return np.array(out, dtype=np.intp)


def _under_chain(cx, cy, px, py) -> np.ndarray:
    """Whether each (px, py) certainly lies on or under the chain (cx, cy), within 0 <= px <= cx[-1].

    The side test is the float filter of ``_orientation``, with an absolute
    allowance for products that underflow; an undecided point is not under.
    """
    seg = np.clip(np.searchsorted(cx, px, "right") - 1, 0, cx.size - 2)
    ax, ay, bx, by = cx[seg], cy[seg], cx[seg + 1], cy[seg + 1]
    left = (bx - ax) * (py - ay)
    right = (by - ay) * (px - ax)
    bound = _ORIENT_FILTER * (np.abs(left) + np.abs(right)) + _TINY
    return (px <= cx[-1]) & (left - right <= -bound)


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


def _distance_to_region(point, verts) -> float:
    """Euclidean distance from a point to the (filled) region with vertex tuple ``verts``; 0 if inside."""
    n = len(verts)
    if n == 1:
        return math.hypot(point[0] - verts[0][0], point[1] - verts[0][1])
    if n == 2:
        return _segment_distance(point, verts[0], verts[1])
    inside = True
    best = math.inf
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if _orientation(a, b, point) < 0:
            inside = False
        best = min(best, _segment_distance(point, a, b))
    return 0.0 if inside else best


def contains(region, point: tuple[float, float], tol: float = 0.0) -> bool:
    """True when the point lies in the region within distance ``tol`` (bits)."""
    point = (float(point[0]), float(point[1]))
    return _distance_to_region(point, _vertices_of(region)) <= tol


def directed_hausdorff(a, b) -> float:
    """Worst distance of a vertex of convex ``a`` from convex ``b`` (bits); 0 if a is in b.

    A point's distance to a convex region is convex in the point, so the
    worst point of ``a`` is one of its vertices.
    """
    verts = _vertices_of(b)
    return max((_distance_to_region(v, verts) for v in _vertices_of(a)), default=0.0)


def is_subset(a, b, tol: float = 0.0) -> bool:
    """True when every vertex of convex ``a`` lies in convex ``b`` within tol."""
    return directed_hausdorff(a, b) <= tol


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two convex regions, in bits."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


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
    "union_pruned_blocks",
    "LOG_SLACK",
    "BLOCK_POINTS",
    "contains",
    "is_subset",
    "directed_hausdorff",
    "hausdorff",
    "polygon_area",
    "max_r2_at",
]
