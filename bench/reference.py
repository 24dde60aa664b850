"""Independent references and output checks for the benchmark.

Nothing here calls the macregion functions under test: rates, pentagon
corners, hulls, distances and the DM table evaluation are all recomputed with
numpy from the closed forms and definitions.  Regions are handled as (n, 2)
float arrays of vertices.
"""

from __future__ import annotations

import math

import numpy as np

#: Differences below this many bits are rounding, not error.
HAUSDORFF_FLOOR = 1e-12

#: An inner vertex may sit this far outside its outer bound.
CONTAINMENT_TOL = 1e-9

#: Mirrors region_geometry.COLLINEAR_TOL, the library's documented hull rule:
#: a vertex whose neighbours' cross product is this small is dropped.
COLLINEAR_TOL = 1e-12

#: Allowed distance from a region to its reference, per route.  Exact routes
#: (closed-form pentagons, the DM table) sit at rounding level; swept regions
#: carry the discretisation of the library's grid, about a third of these at
#: the shipped grids (binary 3.5e-3 at fig2's 41 steps, asymptotic 2.3e-3 at
#: fig8, Gaussian 6e-4 at fig4's 21x81, r2max 1e-4).
TOLERANCE = {
    "exact": 1e-9,
    "gaussian": 5e-3,
    "binary": 1e-2,
    "asymptotic": 1e-2,
    "r2max": 1e-3,
}

# Reference grid sizes (much finer than any grid the library is asked for).
_RHO_FINE = 401
_ALPHA_FINE = 2001
_BINARY_FINE = 801


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_hull(pts: np.ndarray) -> np.ndarray:
    """Convex hull (CCW, starting at the lexicographic minimum) of few points."""
    pts = np.unique(pts, axis=0)
    if len(pts) <= 2:
        return pts
    seq = [tuple(p) for p in pts.tolist()]

    def chain(points):
        out = []
        for p in points:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = chain(seq)
    upper = chain(reversed(seq))
    return np.array(lower[:-1] + upper[:-1])


def region_from_corners(pts: np.ndarray) -> np.ndarray:
    """Region (CCW vertex array from the origin) of down-closed sets given by points.

    Every point stands for its own down-closure in the nonnegative quadrant,
    so only the Pareto-maximal points, the two axis maxima and the origin can
    be hull vertices.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    pts = np.maximum(pts, 0.0)
    if len(pts) == 0:
        return np.zeros((1, 2))
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))  # x descending, then y descending
    srt = pts[order]
    best_y = np.maximum.accumulate(srt[:, 1])
    keep = np.ones(len(srt), dtype=bool)
    keep[1:] = srt[1:, 1] > best_y[:-1]
    pareto = srt[keep]
    extra = np.array([[0.0, 0.0], [pts[:, 0].max(), 0.0], [0.0, pts[:, 1].max()]])
    hull = _monotone_hull(np.vstack([pareto, extra]))
    return hull


def pentagon_corners(c1, c2, c12) -> np.ndarray:
    """Corner points of {x <= c1, y <= c2, x + y <= c12} for arrays of caps.

    The axis corners are left out: each lies below or beside one of these two,
    and ``region_from_corners`` adds the axis maxima itself.
    """
    c1 = np.maximum(np.asarray(c1, dtype=float), 0.0)
    c2 = np.maximum(np.asarray(c2, dtype=float), 0.0)
    c12 = np.maximum(np.asarray(c12, dtype=float), 0.0)
    c1e = np.minimum(c1, c12)
    c2e = np.minimum(c2, c12)
    a = np.stack([c1e, np.minimum(c2e, np.maximum(c12 - c1e, 0.0))], axis=-1)
    b = np.stack([np.minimum(c1e, np.maximum(c12 - c2e, 0.0)), c2e], axis=-1)
    return np.concatenate([a.reshape(-1, 2), b.reshape(-1, 2)])


def pentagon_region(c1: float, c2: float, c12: float) -> np.ndarray:
    return region_from_corners(pentagon_corners([c1], [c2], [c12]))


def drop_collinear(region: np.ndarray) -> np.ndarray:
    """Apply macregion's documented hull rule: a vertex other than the origin
    whose neighbours' cross product is within COLLINEAR_TOL is dropped, one at
    a time.  This can move a small region by up to sqrt(COLLINEAR_TOL) bits,
    so exact routes are compared after the same rule."""
    verts = [tuple(v) for v in np.asarray(region, dtype=float).tolist()]
    while len(verts) >= 3:
        n = len(verts)
        for i in range(n):
            if verts[i] != (0.0, 0.0) and abs(_cross(verts[i - 1], verts[i], verts[(i + 1) % n])) <= COLLINEAR_TOL:
                del verts[i]
                break
        else:
            break
    return np.array(verts).reshape(-1, 2)


def point_distances(points: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Euclidean distance of each point to the filled convex region (0 inside)."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    region = np.asarray(region, dtype=float).reshape(-1, 2)
    if len(region) == 1:
        return np.hypot(*(points - region[0]).T)
    a = region
    b = np.roll(region, -1, axis=0)
    if len(region) == 2:
        a, b = region[:1], region[1:]
    d = b - a  # (m, 2)
    rel = points[:, None, :] - a[None, :, :]  # (n, m, 2)
    seg2 = np.einsum("mk,mk->m", d, d)
    t = np.clip(np.einsum("nmk,mk->nm", rel, d) / np.where(seg2 > 0, seg2, 1.0), 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * d[None, :, :]
    dist = np.hypot(*(points[:, None, :] - proj).transpose(2, 0, 1)).min(axis=1)
    if len(region) >= 3:
        cross = d[None, :, 0] * rel[..., 1] - d[None, :, 1] * rel[..., 0]
        inside = (cross >= 0.0).all(axis=1)
        dist = np.where(inside, 0.0, dist)
    return dist


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two convex regions, in bits."""
    return float(max(point_distances(a, b).max(), point_distances(b, a).max()))


def extent(region: np.ndarray) -> float:
    return float(np.abs(np.asarray(region)).max())


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _hb(p) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.nan_to_num(h, nan=0.0)


def gdpc_caps(P1, P2, Q, N, rho, alpha):
    """GDPC caps (r1, r2, r3) in bits, broadcast over rho and alpha arrays."""
    c = P1 * (1.0 - rho * rho)
    cross = rho * np.sqrt(P1 * Q)
    d = P1 + alpha * alpha * Q + 2.0 * alpha * cross
    b = c * Q * (1.0 - alpha) ** 2 + N * d
    r1 = 0.5 * np.log2(c * (P1 + Q + 2.0 * cross + N) / b)
    r2 = 0.5 * np.log2(1.0 + P2 / (N + c * Q * (1.0 - alpha) ** 2 / d))
    r3 = 0.5 * np.log2(c * (P1 + P2 + Q + 2.0 * cross + N) / b)
    return r1, r2, r3


def feasible_alpha_roots(P1, Q, N, rho):
    """Exact alpha interval where r1 >= 0, from the quadratic in alpha.

    r1 >= 0 iff Q(c+N) a^2 + 2(N rho sqrt(P1 Q) - c Q) a + cQ + N P1
    <= c (P1 + Q + 2 rho sqrt(P1 Q) + N); r3 >= 0 and r2 >= 0 follow.
    """
    rho = np.asarray(rho, dtype=float)
    c = P1 * (1.0 - rho * rho)
    cross = rho * math.sqrt(P1 * Q)
    a2 = Q * (c + N)
    a1 = 2.0 * (N * cross - c * Q)
    a0 = c * Q + N * P1 - c * (P1 + Q + 2.0 * cross + N)
    return _quadratic_roots(a2, a1, a0, clamp=True)


def _rho_fine() -> np.ndarray:
    return np.linspace(-1.0, 0.0, _RHO_FINE)[1:]


def _alpha_grid(lo, hi, n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    return lo[:, None] + (hi - lo)[:, None] * t[None, :]


def _quadratic_roots(a2, a1, a0, clamp=False):
    """Roots of a2 x^2 + a1 x + a0; NaN where there are none, or a double root
    there when ``clamp`` (a discriminant below 0 by rounding only)."""
    disc = a1 * a1 - 4.0 * a2 * a0
    if clamp:
        disc = np.maximum(disc, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(disc)
        return (-a1 - root) / (2.0 * a2), (-a1 + root) / (2.0 * a2)


def _gdpc_alphas(P1, P2, Q, N, rho, n: int) -> np.ndarray:
    """Per-rho alpha samples: a fine grid over the exact feasible interval plus
    the kinks of the pentagon corners, where r2 = r3 (the R2-axis point) and
    where r3 = r1 + r2 (the sum cap starts to bind).  Both are quadratics in
    alpha; without them the corners are only resolved to first order."""
    lo, hi = feasible_alpha_roots(P1, Q, N, rho)
    c = P1 * (1.0 - rho * rho)
    cross = rho * math.sqrt(P1 * Q)
    s1 = P1 + Q + 2.0 * cross + N
    kinks = [
        *_quadratic_roots(Q * (c + N + P2), 2.0 * (cross * (N + P2) - c * Q),
                          c * Q + P1 * (N + P2) - c * (s1 + P2)),
        *_quadratic_roots(Q * (s1 - c - N), 2.0 * (s1 * cross - N * cross + c * Q),
                          s1 * P1 - c * Q - N * P1),
    ]
    extra = [np.where((k >= lo) & (k <= hi), k, lo) for k in kinks]
    return np.hstack([_alpha_grid(lo, hi, n), np.stack(extra, axis=1)])


def gaussian_region(P1, P2, Q, N, rhos=None) -> np.ndarray:
    """Fine-grid GDPC inner region over the exact feasible alpha interval."""
    rho = _rho_fine() if rhos is None else np.asarray(rhos, dtype=float)
    alpha = _gdpc_alphas(P1, P2, Q, N, rho, _ALPHA_FINE)
    r1, r2, r3 = gdpc_caps(P1, P2, Q, N, rho[:, None], alpha)
    return region_from_corners(pentagon_corners(r1, r2, r3))


def asymptotic_region(P1, P2, N) -> np.ndarray:
    """Fine-grid large-Q inner region, alpha over [0, 2c/(c+N)]."""
    rho = _rho_fine()
    c = P1 * (1.0 - rho * rho)
    alpha = _alpha_grid(np.zeros_like(c), 2.0 * c / (c + N), _ALPHA_FINE)
    alpha = np.hstack([alpha, (2.0 * c / (c + N + P2))[:, None]])  # kink r2 = r1
    c = c[:, None]
    r1 = 0.5 * np.log2(c / (c * (1.0 - alpha) ** 2 + alpha * alpha * N))
    with np.errstate(divide="ignore"):
        r2 = np.where(
            alpha > 0.0,
            0.5 * np.log2(1.0 + P2 / (N + c * (1.0 - alpha) ** 2 / np.maximum(alpha, 1e-300) ** 2)),
            0.0,
        )
    return region_from_corners(pentagon_corners(r1, r2, r1))


def r2max(P1, P2, Q, N) -> float:
    """Fine search for the largest R2 at R1 = 0: max min(r2, r3) with r1 >= 0."""
    rho = np.linspace(-1.0, 0.0, 2001)[1:]
    alpha = _gdpc_alphas(P1, P2, Q, N, rho, 1001)
    _, r2, r3 = gdpc_caps(P1, P2, Q, N, rho[:, None], alpha)
    return float(np.minimum(r2, r3).max())


def binary_caps(p1, p2, q, a10, a01):
    c1 = (1.0 - q) * _hb(a10) + q * _hb(a01)
    c2 = np.full_like(c1, float(_hb(p2)))
    u = q * a01 + (1.0 - q) * a10
    c12 = c1 + _hb(p2 * (1.0 - u) + u * (1.0 - p2)) - _hb(u)
    return c1, c2, np.maximum(c12, 0.0)


def binary_region(p1, p2, q) -> np.ndarray:
    """Fine-grid binary GDPC inner region plus samples on the weight boundary."""
    axis = np.linspace(0.0, 1.0, _BINARY_FINE)
    a10, a01 = np.meshgrid(axis, axis, indexing="ij")
    a10, a01 = a10.ravel(), a01.ravel()
    keep = (1.0 - q) * a10 + q * (1.0 - a01) <= p1 + 1e-12
    a10, a01 = a10[keep], a01[keep]
    if q > 0.0:  # the binding weight constraint (1-q) a10 + q (1 - a01) = p1
        b10 = np.linspace(0.0, min(1.0, p1 / (1.0 - q)), 4 * _BINARY_FINE)
        b01 = 1.0 - (p1 - (1.0 - q) * b10) / q
        ok = (b01 >= 0.0) & (b01 <= 1.0)
        a10 = np.concatenate([a10, b10[ok]])
        a01 = np.concatenate([a01, b01[ok]])
    return region_from_corners(pentagon_corners(*binary_caps(p1, p2, q, a10, a01)))


def binary_outer(p1, p2, q) -> np.ndarray:
    s = p1 + p2
    return pentagon_region(float(_hb(p1)), float(_hb(p2)), float(_hb(s)) if s < 0.5 else 1.0)


def binary_dpc(p1, p2, q) -> np.ndarray:
    c1, c2, c12 = binary_caps(p1, p2, q, np.array([p1]), np.array([1.0 - p1]))
    return pentagon_region(float(c1[0]), float(c2[0]), float(c12[0]))


def binary_capacity(p1, p2, q) -> np.ndarray:
    return pentagon_region(float(_hb(p1)), float(_hb(p2)), float(_hb(p1)))


def gaussian_outer(P1, P2, N) -> np.ndarray:
    return pentagon_region(
        0.5 * math.log2(1.0 + P1 / N), 0.5 * math.log2(1.0 + P2 / N),
        0.5 * math.log2(1.0 + (P1 + P2) / N),
    )


def asymptotic_outer(P1, P2, N) -> np.ndarray:
    c12 = 0.5 * math.log2(1.0 + P1 / N)
    return pentagon_region(c12, 0.5 * math.log2(1.0 + P2 / N), c12)


# ---------------------------------------------------------------------------
# DM channel-spec table
# ---------------------------------------------------------------------------

SPEC_TABLES = ("q_dist", "s_dist", "u1_given_sq", "x1_given_u1sq", "x2_given_q", "y_given_x1x2s")


def _h(mass: np.ndarray) -> float:
    p = mass[mass > 0.0]
    return float(-(p * np.log2(p)).sum())


def dm_caps(doc: dict) -> tuple[float, float, float]:
    """Pentagon caps of a channel-spec document, from its own einsum and entropies."""
    t = [np.asarray(doc[k], dtype=float) for k in SPEC_TABLES]
    joint = np.einsum("q,s,squ,usqa,qb,absy->qsuaby", *t)  # axes Q S U X1 X2 Y

    def H(*axes):
        drop = tuple(i for i in range(6) if i not in axes)
        return _h(joint.sum(axis=drop)) if axes else 0.0

    def cmi(a, b, c):
        return H(*a, *c) + H(*b, *c) - H(*a, *b, *c) - H(*c)

    Qa, Sa, Ua, X2a, Ya = (0,), (1,), (2,), (4,), (5,)
    leak = cmi(Ua, Sa, Qa)
    c1 = cmi(Ua, Ya, X2a + Qa) - leak
    c2 = cmi(X2a, Ya, Ua + Qa)
    c12 = cmi(Ua + X2a, Ya, Qa) - leak
    return max(c1, 0.0), max(c2, 0.0), max(c12, 0.0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class CheckFailure(Exception):
    """An op's output disagrees with its reference."""


def check_region(region, reference, route: str, outer=None) -> float:
    """Raise CheckFailure unless ``region`` matches ``reference``; return the distance."""
    region = np.asarray(region, dtype=float).reshape(-1, 2)
    if not np.isfinite(region).all():
        raise CheckFailure("region has non-finite vertices")
    if len(region) == 1 and extent(reference) > TOLERANCE["exact"]:
        raise CheckFailure("single-vertex region where the reference is not degenerate")
    if outer is not None:
        worst = float(point_distances(region, outer).max())
        if worst > CONTAINMENT_TOL:
            raise CheckFailure(f"inner vertex {worst:.3e} bits outside the outer bound")
    if route == "exact":
        reference = drop_collinear(reference)
    dist = hausdorff(region, reference)
    if not dist <= TOLERANCE[route]:
        raise CheckFailure(f"{route} region {dist:.3e} bits from its reference (tolerance {TOLERANCE[route]:.0e})")
    return dist
