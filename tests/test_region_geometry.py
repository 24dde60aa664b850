import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macregion.region_geometry import (
    COLLINEAR_TOL,
    RatePentagon,
    RegionPolygon,
    contains,
    convex_hull_2d,
    directed_hausdorff,
    hausdorff,
    is_subset,
    max_r2_at,
    pentagon_vertices,
    polygon_area,
    union_region,
)

caps = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
pos_caps = st.floats(min_value=0.05, max_value=3.0, allow_nan=False)


class TestRatePentagon:
    def test_clamps_negative(self):
        p = RatePentagon(-0.5, 1.0, -1e-9)
        assert p.c1 == 0.0 and p.c12 == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RatePentagon(float("nan"), 1.0, 1.0)

    def test_effective_caps(self):
        p = RatePentagon(1.0, 1.0, 0.6)
        assert p.c1_eff == 0.6 and p.c2_eff == 0.6


class TestPentagonVertices:
    def test_textbook_pentagon(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert poly.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0))

    def test_slack_sum_is_rectangle(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 2.5))
        assert poly.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    def test_sum_cap_below_c2(self):
        c1, c2, c12 = 0.4689955935892812, 0.9709505944546686, 0.6355910332847168
        poly = pentagon_vertices(RatePentagon(c1, c2, c12))
        assert poly.vertices == ((0.0, 0.0), (c1, 0.0), (c1, c12 - c1), (0.0, c12))

    def test_zero_caps(self):
        assert pentagon_vertices(RatePentagon(0.0, 0.0, 0.0)).vertices == ((0.0, 0.0),)
        assert pentagon_vertices(RatePentagon(0.0, 0.7, 1.0)).vertices == (
            (0.0, 0.0),
            (0.0, 0.7),
        )
        assert pentagon_vertices(RatePentagon(0.7, 0.0, 1.0)).vertices == (
            (0.0, 0.0),
            (0.7, 0.0),
        )
        # zero sum cap collapses everything
        assert pentagon_vertices(RatePentagon(0.7, 0.7, 0.0)).vertices == ((0.0, 0.0),)

    @settings(max_examples=150)
    @given(pos_caps, pos_caps, pos_caps)
    def test_vertices_satisfy_caps_with_equality(self, c1, c2, c12):
        p = RatePentagon(c1, c2, c12)
        poly = pentagon_vertices(p)
        for x, y in poly.vertices:
            assert x <= p.c1 + 1e-12 and y <= p.c2 + 1e-12 and x + y <= p.c12 + 1e-12
            if (x, y) != (0.0, 0.0):
                tight = (
                    abs(x - p.c1) <= 1e-12
                    or abs(y - p.c2) <= 1e-12
                    or abs(x + y - p.c12) <= 1e-12
                    or x <= 1e-12
                    or y <= 1e-12
                )
                assert tight


def brute_force_hull_vertices(points):
    """All-pairs half-plane oracle: (i, j) is a hull edge iff every other
    point lies weakly to its left; hull vertices are the edge endpoints."""
    verts = set()
    n = len(points)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            (ax, ay), (bx, by) = points[i], points[j]
            if all(
                (bx - ax) * (points[k][1] - ay) - (by - ay) * (points[k][0] - ax) >= 0
                for k in range(n)
                if k not in (i, j)
            ):
                verts.add(points[i])
                verts.add(points[j])
    return verts


def exact_hull(points):
    """Exact half-plane oracle in rationals, vertices CCW from the lexicographic minimum.

    (a, b) is a hull edge iff every other point lies strictly to its left or
    on the closed segment ab; the edges then chain the strictly convex vertices.
    """
    pts = sorted(set(points))
    if len(pts) == 1:
        return tuple(pts)
    q = [(Fraction(x), Fraction(y)) for x, y in pts]

    def on_edge_side(a, b, c):
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return cross > 0 or (cross == 0 and min(a, b) <= c <= max(a, b))

    succ = {}
    for i, a in enumerate(q):
        for j, b in enumerate(q):
            if i != j and all(on_edge_side(a, b, c) for k, c in enumerate(q) if k not in (i, j)):
                succ[i] = j
    order = [0]
    while succ[order[-1]] != 0:
        order.append(succ[order[-1]])
    return tuple(pts[i] for i in order)


def drop_collinear(verts):
    """The documented hull rule, applied by hand: a vertex other than the origin
    whose neighbours' float cross product is within COLLINEAR_TOL is dropped,
    one at a time, first such vertex first."""
    verts = list(verts)
    while len(verts) >= 3:
        n = len(verts)
        for i in range(n):
            (ox, oy), (ax, ay), (bx, by) = verts[i - 1], verts[i], verts[(i + 1) % n]
            if verts[i] != (0.0, 0.0) and abs((ax - ox) * (by - oy) - (ay - oy) * (bx - ox)) <= COLLINEAR_TOL:
                del verts[i]
                break
        else:
            break
    return tuple(verts)


def _nudge(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.inf if ulps > 0 else 0.0)
    return v


@st.composite
def hard_points(draw):
    """A nonnegative point as float hulls get it wrong: in a strip 1e-15 thin,
    or a few ulps off the segment between two anchors."""
    kind = draw(st.sampled_from(("thin_r2", "thin_r1", "near_collinear")))
    thin = st.floats(min_value=0.0, max_value=1e-15)
    if kind == "thin_r2":
        return (draw(caps), draw(thin))
    if kind == "thin_r1":
        return (draw(thin), draw(caps))
    (ax, ay), (bx, by) = draw(st.sampled_from(((0.0, 0.0), (1.0, 0.0), (0.3, 0.7)))), (2.0, 1.5)
    t = draw(st.floats(min_value=0.0, max_value=1.0))
    ulps = st.integers(min_value=-2, max_value=2)
    return (_nudge(ax + t * (bx - ax), draw(ulps)), _nudge(ay + t * (by - ay), draw(ulps)))


# Lists drawn from a small pool, so duplicates are common.
hard_point_lists = st.lists(hard_points(), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
)


class TestConvexHull:
    @settings(max_examples=300, deadline=None)
    @given(hard_point_lists)
    def test_equals_exact_half_plane_hull_after_the_collinear_rule(self, pts):
        assert convex_hull_2d(pts).vertices == drop_collinear(exact_hull(pts + [(0.0, 0.0)]))

    def test_random_points_against_half_plane_oracle(self):
        rng = np.random.default_rng(42)
        pts = [(float(x), float(y)) for x, y in rng.random((200, 2))]
        hull = convex_hull_2d(pts)
        everything = pts + [(0.0, 0.0)]
        # every input point is inside, and hull vertices are input points
        for p in everything:
            assert contains(hull, p, 1e-9)
        assert set(hull.vertices) <= set(everything)
        assert set(hull.vertices) == brute_force_hull_vertices(everything)

    def test_collinear_degenerates_to_segment(self):
        poly = convex_hull_2d([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.5, 0.5)])
        assert poly.vertices == ((0.0, 0.0), (2.0, 2.0))

    def test_single_point(self):
        assert convex_hull_2d([(0.0, 0.0)]).vertices == ((0.0, 0.0),)

    def test_duplicates_ignored(self):
        poly = convex_hull_2d([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)])
        assert poly.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    @settings(max_examples=100)
    @given(pos_caps, pos_caps, pos_caps)
    def test_idempotent_on_generated_polygons(self, c1, c2, c12):
        poly = pentagon_vertices(RatePentagon(c1, c2, c12))
        again = convex_hull_2d(poly.vertices)
        assert again.vertices == poly.vertices


@st.composite
def sweep_pentagons(draw):
    """Pentagons as sweeps produce them: zero caps, slack and near-collinear sum caps."""
    c1 = draw(st.one_of(st.just(0.0), caps))
    c2 = draw(st.one_of(st.just(0.0), caps))
    kind = draw(st.sampled_from(("free", "slack", "near_collinear")))
    if kind == "slack":
        c12 = c1 + c2 + draw(st.floats(min_value=0.0, max_value=1.0))
    elif kind == "near_collinear":
        c12 = c1 + c2 + draw(st.floats(min_value=-1e-13, max_value=1e-13))
    else:
        c12 = draw(st.one_of(st.just(0.0), caps))
    return RatePentagon(c1, c2, c12)


# Lists drawn from a small pool, so duplicates are common.
pentagon_lists = st.lists(sweep_pentagons(), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
)


def corner_candidates(p):
    """All five candidate vertices of a pentagon, before any collinear drop."""
    c1, c2, c12 = p.c1_eff, p.c2_eff, p.c12
    return [
        (0.0, 0.0),
        (c1, 0.0),
        (0.0, c2),
        (c1, min(c2, max(c12 - c1, 0.0))),
        (min(c1, max(c12 - c2, 0.0)), c2),
    ]


class TestUnionRegion:
    @given(pentagon_lists)
    @settings(max_examples=300, deadline=None)
    def test_equals_hull_of_all_pentagon_vertices(self, ps):
        # The reference hulls every vertex of every pentagon at once.  Hulling
        # pentagon_vertices(p) instead is not a reference: its per-pentagon
        # collinear drop can collapse a thin pentagon (see the sliver test).
        reference = convex_hull_2d([v for p in ps for v in corner_candidates(p)])
        assert union_region(ps).vertices == reference.vertices

    def test_thin_pentagon_keeps_its_extent(self):
        sliver = RatePentagon(1.0, 4e-16, 1.0 + 4e-16)
        merged = union_region([RatePentagon(0.0, 1.0, 1.0), sliver])
        assert merged.vertices == ((0.0, 0.0), (1.0, 4e-16), (0.0, 1.0))

    def test_single_pentagon_identity(self):
        p = RatePentagon(1.0, 1.0, 1.5)
        assert union_region([p]).vertices == pentagon_vertices(p).vertices

    def test_two_corner_pentagons_time_share(self):
        a = RatePentagon(1.0, 0.2, 1.2)
        b = RatePentagon(0.2, 1.0, 1.2)
        merged = union_region([a, b])
        assert contains(merged, (1.0, 0.2), 1e-12)
        assert contains(merged, (0.2, 1.0), 1e-12)
        # midpoint of the time-sharing edge between the two corners
        assert contains(merged, (0.6, 0.6), 1e-12)

    def test_duplicates_do_not_change_result(self):
        p = RatePentagon(0.7, 0.9, 1.1)
        q = RatePentagon(1.0, 0.3, 1.1)
        assert union_region([p, q, p, q]).vertices == union_region([p, q]).vertices

    def test_monotone_in_the_list(self):
        ps = [RatePentagon(0.5, 0.9, 1.1), RatePentagon(1.0, 0.4, 1.2), RatePentagon(0.8, 0.8, 1.0)]
        small = union_region(ps[:2])
        big = union_region(ps)
        assert is_subset(small, big, 1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            union_region([])


class TestContainmentAndDistance:
    def test_origin_always_inside(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert contains(poly, (0.0, 0.0), 0.0)

    def test_vertex_inside_at_zero_tol(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        for v in poly.vertices:
            assert contains(poly, v, 0.0)

    def test_outside_point(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert not contains(poly, (1.0, 0.6), 1e-9)
        assert contains(poly, (1.0, 0.6), 0.2)

    def test_side_test_is_exact(self):
        # The point is 2.8e-17 bits outside the hypotenuse: its float cross
        # product rounds to 0.0, the exact one is -6.6e-18.
        triangle = RegionPolygon(((0.0, 0.0), (0.23757430538220836, 0.0), (0.0, 0.23757430538220836)))
        point = (0.08588992072553667, 0.15168438465667172)
        assert not contains(triangle, point, 0.0)
        assert directed_hausdorff([point], triangle) == pytest.approx(2.8e-17, rel=0.02)

    def test_is_subset_reflexive_and_strict(self):
        inner = pentagon_vertices(RatePentagon(0.5, 0.5, 0.8))
        outer = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert is_subset(inner, inner, 0.0)
        assert is_subset(inner, outer, 1e-12)
        assert not is_subset(outer, inner, 1e-9)

    def test_hausdorff_identical_is_zero(self):
        a = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert hausdorff(a, a) == 0.0

    def test_hausdorff_shifted_square(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        shifted = [(x + 0.1, y) for x, y in square]
        assert hausdorff(square, shifted) == pytest.approx(0.1, abs=1e-12)

    def test_zero_hausdorff_implies_mutual_subsets(self):
        a = pentagon_vertices(RatePentagon(0.9, 1.1, 1.3))
        b = convex_hull_2d(a.vertices)
        assert hausdorff(a, b) == 0.0
        assert is_subset(a, b, 1e-12) and is_subset(b, a, 1e-12)


class TestBoundaryQueries:
    def test_axis_intercepts(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert max_r2_at(poly, 0.0) == 1.0
        assert max_r2_at(poly, 1.0) == 0.5

    def test_edge_interpolation(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert max_r2_at(poly, 0.75) == pytest.approx(0.75, abs=1e-12)

    def test_out_of_span_errors(self):
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        with pytest.raises(ValueError):
            max_r2_at(poly, 1.5)
        with pytest.raises(ValueError):
            max_r2_at(poly, -0.5)

    def test_degenerate_regions(self):
        point = RegionPolygon(((0.0, 0.0),))
        assert max_r2_at(point, 0.0) == 0.0
        seg = RegionPolygon(((0.0, 0.0), (0.0, 0.7)))
        assert max_r2_at(seg, 0.0) == 0.7


class TestArea:
    def test_unit_square(self):
        assert polygon_area(pentagon_vertices(RatePentagon(1.0, 1.0, 2.5))) == 1.0

    def test_triangle(self):
        assert polygon_area(pentagon_vertices(RatePentagon(1.0, 1.0, 1.0))) == 0.5

    def test_degenerate(self):
        assert polygon_area(RegionPolygon(((0.0, 0.0), (1.0, 0.0)))) == 0.0

    def test_textbook_pentagon_area(self):
        # unit square minus the clipped corner triangle of legs 0.5
        poly = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        assert polygon_area(poly) == pytest.approx(1.0 - 0.125, abs=1e-15)


class TestRegionPolygonInvariants:
    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            RegionPolygon(((0.0, 0.0), (-1.0, 0.5)))

    def test_rejects_missing_origin(self):
        with pytest.raises(ValueError):
            RegionPolygon(((0.1, 0.0), (1.0, 0.0), (1.0, 1.0)))

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            RegionPolygon(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))

    def test_vertices_are_float_pairs_over_a_read_only_array(self):
        region = convex_hull_2d([(1, 0), (0.6, 0.6), (0, 1)])
        assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (0.6, 0.6), (0.0, 1.0))
        assert all(type(c) is float for v in region.vertices for c in v)
        assert list(region) == list(region.vertices)
        with pytest.raises(ValueError):
            region._xy[1, 0] = 2.0
        with pytest.raises(AttributeError):
            region.vertices = ((0.0, 0.0),)

    def test_equality_and_hash_follow_the_vertices(self):
        a = RegionPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        b = RegionPolygon([(0, 0), (1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != RegionPolygon(((0.0, 0.0), (1.0, 0.0))) and a != a.vertices
        assert eval(repr(a)) == a
        assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
