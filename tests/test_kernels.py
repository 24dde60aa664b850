"""Array sweep kernels against the scalar closed forms they vectorise.

Every sweep evaluates its rate expressions on whole grid blocks at once.  The
scalar functions (``gdpc_rates``, ``asymptotic_rates``, ``inner_pentagon``)
stay the reference: each kernel must reproduce them exactly (``==``), and each
swept region must equal, vertex for vertex, the per-point route that builds
one ``RatePentagon`` per grid point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macregion import binary_mac as B
from macregion import gaussian_mac as G
from macregion import region_geometry as R
from macregion.info_measures import binary_entropy, binary_entropy_array
from macregion.region_geometry import (
    RatePentagon,
    convex_hull_2d,
    union_cap_blocks,
    union_caps,
    union_region,
)

positive = st.floats(min_value=0.01, max_value=2000.0)
gaussian_params = st.builds(
    G.GaussianMacParams,
    positive,
    positive,
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
    positive,
)
rhos = st.one_of(st.just(0.0), st.floats(min_value=-0.999999, max_value=0.999999))
alphas = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=-3.0, max_value=3.0))
halves = st.one_of(st.just(0.0), st.just(0.5), st.floats(min_value=0.0, max_value=0.5))
binary_params = st.builds(B.BinaryMacParams, halves, halves, halves)
unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


def old_intercept_max(m, rhos, alphas):
    """The per-point scan ``_intercept_max`` replaced: strict improvements only."""
    best = (0.0, 0.0, 0.0)
    for rho in rhos:
        if abs(rho) >= 1.0:
            continue
        for alpha in alphas:
            r1, r2, r3 = G.gdpc_rates(m, G.GdpcParams(rho, float(alpha)))
            if r1 >= 0.0 and r3 >= 0.0:
                value = min(r2, r3)
                if value > best[0]:
                    best = (value, rho, float(alpha))
    return best


def old_gdpc_union(m, rhos, alphas):
    pentagons = []
    for rho in rhos:
        for alpha in alphas:
            g = G.GdpcParams(rho, float(alpha), allow_positive_rho=True)
            r1, r2, r3 = G.gdpc_rates(m, g)
            if r1 >= 0.0 and r3 >= 0.0:
                pentagons.append(RatePentagon(r1, r2, r3))
    return union_region(pentagons) if pentagons else convex_hull_2d([])


def old_gaussian_region(m, rho_steps, alpha_steps, explore_positive_rho=False):
    hi = 1.0 if explore_positive_rho else 0.0
    rhos = [float(r) for r in np.linspace(-1.0, hi, rho_steps) if abs(r) < 1.0]
    return old_gdpc_union(m, rhos, np.linspace(*G.ALPHA_SPAN, alpha_steps))


def old_asymptotic_region(m, rho_steps, alpha_steps):
    pentagons = []
    for rho in np.linspace(-1.0, 0.0, rho_steps).tolist():
        if abs(rho) >= 1.0:
            continue
        upper = G.asymptotic_alpha_max(m, rho)
        grid = set(np.linspace(0.0, upper, alpha_steps).tolist())
        grid.add(min(1.0, upper))
        for alpha in sorted(grid):
            pentagons.append(RatePentagon(*G.asymptotic_rates(m, G.GdpcParams(rho, alpha))))
    return union_region(pentagons)


def old_feasible_grid(m, grid_steps):
    axis = np.linspace(0.0, 1.0, grid_steps)
    out = []
    for a10 in axis:
        for a01 in axis:
            d = B.BinaryDpcParams(float(a10), float(a01))
            if B.is_feasible(d, m):
                out.append(d)
    return out


def old_binary_region(m, grid_steps):
    return union_region([B.inner_pentagon(m, d) for d in old_feasible_grid(m, grid_steps)])


class TestGaussianKernel:
    @given(gaussian_params, st.lists(rhos, min_size=1, max_size=5),
           st.lists(alphas, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_equals_gdpc_rates_on_the_grid(self, m, rho_list, alpha_list):
        feasible, r1, r2, r3 = G._gdpc_kernel(m, np.array(rho_list)[:, None], np.array(alpha_list))
        assert feasible.shape == (len(rho_list), len(alpha_list))
        expected_mask, expected = [], []
        for rho in rho_list:  # row-major, as the kernel returns its caps
            for alpha in alpha_list:
                t = G.gdpc_rates(m, G.GdpcParams(rho, alpha, allow_positive_rho=True))
                ok = t.r1 >= 0.0 and t.r3 >= 0.0
                expected_mask.append(ok)
                if ok:
                    expected.append(tuple(t))
        assert feasible.ravel().tolist() == expected_mask
        assert list(zip(r1.tolist(), r2.tolist(), r3.tolist())) == expected

    @given(gaussian_params, st.lists(st.tuples(rhos, alphas), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_equals_gdpc_rates_at_scattered_points(self, m, points):
        rho, alpha = np.array(points).T
        feasible, r1, r2, r3 = G._gdpc_kernel(m, rho, alpha)
        kept = [p for p, ok in zip(points, feasible.tolist()) if ok]
        expected = [tuple(G.gdpc_rates(m, G.GdpcParams(r, a, allow_positive_rho=True)))
                    for r, a in kept]
        assert list(zip(r1.tolist(), r2.tolist(), r3.tolist())) == expected


    def test_dense_alpha_grid(self):
        # Python's ** (the C library's pow) can differ from x * x in the last
        # bit; a dense grid holds such alphas, and the kernel must follow **.
        # With a large state variance the square's last bit reaches the caps.
        m = G.GaussianMacParams(2000, 50, 500, 60)
        alpha = np.linspace(-0.5, 2.0, 20001)
        feasible, r1, r2, r3 = G._gdpc_kernel(m, np.array([[-0.3]]), alpha)
        kept = alpha[feasible[0]].tolist()
        expected = [tuple(G.gdpc_rates(m, G.GdpcParams(-0.3, a))) for a in kept]
        assert list(zip(r1.tolist(), r2.tolist(), r3.tolist())) == expected


class TestAsymptoticKernel:
    @given(gaussian_params,
           st.lists(st.tuples(st.one_of(st.just(0.0),
                                        st.floats(min_value=-0.999999, max_value=0.0)),
                              st.one_of(st.just(0.0), st.just(1.0),
                                        st.floats(min_value=1e-6, max_value=1.0))),
                    min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_equals_asymptotic_rates(self, m, draws):
        # alpha is drawn as a fraction of each rho's feasible range [0, 2c/(c+N)].
        # Not below 1e-6: where alpha * alpha underflows to 0 the scalar
        # reference divides by zero.
        points = [(rho, frac * G.asymptotic_alpha_max(m, rho)) for rho, frac in draws]
        points += [(rho, min(1.0, G.asymptotic_alpha_max(m, rho))) for rho, _ in draws]
        rho, alpha = np.array(points).T
        r1, r2 = G._asymptotic_caps(m, rho, alpha)
        expected = [G.asymptotic_rates(m, G.GdpcParams(r, a)) for r, a in points]
        assert r1.tolist() == [t.r1 for t in expected]
        assert r2.tolist() == [t.r2 for t in expected]

    def test_dense_alpha_grid(self):
        m = G.GaussianMacParams(15, 50, 20, 60)
        alpha = np.linspace(0.0, G.asymptotic_alpha_max(m, -0.3), 20001)
        r1, r2 = G._asymptotic_caps(m, -0.3, alpha)
        expected = [G.asymptotic_rates(m, G.GdpcParams(-0.3, a)) for a in alpha.tolist()]
        assert list(zip(r1.tolist(), r2.tolist())) == [(t.r1, t.r2) for t in expected]

    def test_zero_alpha_gives_zero_r2_without_warnings(self):
        m = G.GaussianMacParams(15, 50, 20, 60)
        _, r2 = G._asymptotic_caps(m, 0.0, np.array([0.0, 1e-200, 0.5]))
        assert r2[0] == 0.0 and r2[1] == 0.0 and r2[2] > 0.0

    def test_vanishing_informed_power_gives_the_origin(self):
        # alpha ranges over [0, 2c/(c+N)], whose squares underflow for tiny P1.
        region = G.asymptotic_inner_region(G.GaussianMacParams(1e-300, 50, 20, 60), 3, 5)
        assert region.vertices == ((0.0, 0.0),)


class TestInterceptMax:
    @given(gaussian_params,
           st.lists(st.one_of(st.just(-1.0), st.just(0.0),
                              st.floats(min_value=-0.999999, max_value=0.0)),
                    min_size=1, max_size=5),
           st.lists(alphas, min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scan(self, m, rho_list, alpha_list):
        # Repeating the lists makes exact ties, so the first-maximum rule shows.
        rho_list, alpha_list = rho_list * 2, alpha_list * 2
        expected = old_intercept_max(m, rho_list, alpha_list)
        assert G._intercept_max(m, rho_list, alpha_list) == expected

    def test_first_of_tied_points_wins(self):
        # Without state (Q = 0) the caps do not depend on alpha: every alpha ties.
        m = G.GaussianMacParams(15, 50, 0.0, 60)
        value, rho, alpha = G._intercept_max(m, [-0.5, 0.0], [0.5, -0.3, 1.2])
        assert (rho, alpha) == (0.0, 0.5)
        assert (value, rho, alpha) == old_intercept_max(m, [-0.5, 0.0], [0.5, -0.3, 1.2])

    def test_nothing_feasible_falls_back_to_zeros(self):
        m = G.GaussianMacParams(15, 50, 20, 60)
        assert G._intercept_max(m, [-1.0], [0.0, 1.0]) == (0.0, 0.0, 0.0)
        assert G._intercept_max(m, [-0.5], [50.0]) == old_intercept_max(m, [-0.5], [50.0])


class TestBinaryKernel:
    @given(st.lists(unit, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_entropy_array_equals_binary_entropy(self, ps):
        assert binary_entropy_array(np.array(ps)).tolist() == [binary_entropy(p) for p in ps]

    def test_entropy_array_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            binary_entropy_array(np.array([0.5, 1.5]))

    @given(binary_params, st.lists(st.tuples(unit, unit), min_size=1, max_size=20),
           st.integers(min_value=2, max_value=41))
    @settings(max_examples=200, deadline=None)
    def test_equals_inner_pentagon(self, m, free, grid_steps):
        axis = np.linspace(0.0, 1.0, grid_steps).tolist()
        points = free + [(a, b) for a in axis[::7] for b in axis[::5]] + [(0.0, 1.0)]
        points = [p for p in points if B.is_feasible(B.BinaryDpcParams(*p), m)]
        a10, a01 = np.array(points).T
        c1, c2, c12 = np.broadcast_arrays(*B._pentagon_caps(m, a10, a01))
        expected = [B.inner_pentagon(m, B.BinaryDpcParams(*p)) for p in points]
        assert list(zip(c1.tolist(), c2.tolist(), c12.tolist())) == [
            (p.c1, p.c2, p.c12) for p in expected
        ]

    @given(binary_params, st.integers(min_value=2, max_value=25))
    @settings(max_examples=100, deadline=None)
    def test_feasible_grid_equals_the_point_scan(self, m, grid_steps):
        assert B.feasible_grid(m, grid_steps) == old_feasible_grid(m, grid_steps)


FIGURE_GAUSSIAN = [
    G.GaussianMacParams(15, 50, 20, 60),
    G.GaussianMacParams(15, 50, 0.0, 60),
    G.GaussianMacParams(120, 50, 1.0, 60),
    G.GaussianMacParams(2000, 50, 500, 60),
]
FIGURE_BINARY = [
    B.BinaryMacParams(0.1, 0.4, 0.2),
    B.BinaryMacParams(0.2, 0.3, 0.5),
    B.BinaryMacParams(0.1, 0.4, 0.0),
    B.BinaryMacParams(0.0, 0.3, 0.2),
]


class TestRegionsEqualThePerPointRoute:
    @pytest.mark.parametrize("m", FIGURE_GAUSSIAN)
    def test_gaussian_shipped_grids(self, m):
        assert G.inner_region(m, 21, 81).vertices == old_gaussian_region(m, 21, 81).vertices
        assert G.dpc_only_region(m, 81).vertices == old_gdpc_union(
            m, [0.0], np.linspace(*G.ALPHA_SPAN, 81)).vertices
        assert (G.asymptotic_inner_region(m, 21, 81).vertices
                == old_asymptotic_region(m, 21, 81).vertices)

    @given(gaussian_params, st.integers(min_value=2, max_value=7),
           st.integers(min_value=2, max_value=15), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_gaussian_random(self, m, rho_steps, alpha_steps, positive_rho):
        new = G.inner_region(m, rho_steps, alpha_steps, explore_positive_rho=positive_rho)
        old = old_gaussian_region(m, rho_steps, alpha_steps, explore_positive_rho=positive_rho)
        assert new.vertices == old.vertices
        assert (G.asymptotic_inner_region(m, rho_steps, alpha_steps).vertices
                == old_asymptotic_region(m, rho_steps, alpha_steps).vertices)

    @pytest.mark.parametrize("m", FIGURE_BINARY)
    def test_binary_shipped_grid(self, m):
        assert B.inner_region(m, 41).vertices == old_binary_region(m, 41).vertices

    @given(binary_params, st.integers(min_value=2, max_value=25))
    @settings(max_examples=100, deadline=None)
    def test_binary_random(self, m, grid_steps):
        assert B.inner_region(m, grid_steps).vertices == old_binary_region(m, grid_steps).vertices

    @pytest.mark.parametrize("block_points", [1, 100, 1000])
    def test_sweeps_in_blocks(self, monkeypatch, block_points):
        # 1 gives one alpha column (Gaussian) or a10 row (binary) per block,
        # 100 and 1000 several; some blocks hold no feasible point.
        monkeypatch.setattr(G, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(B, "BLOCK_POINTS", block_points)
        for m in FIGURE_GAUSSIAN:
            assert G.inner_region(m, 21, 81).vertices == old_gaussian_region(m, 21, 81).vertices
        for m in FIGURE_BINARY:
            assert B.inner_region(m, 41).vertices == old_binary_region(m, 41).vertices

    def test_dense_grids_span_several_blocks(self):
        assert 101 * 401 > 4 * R.BLOCK_POINTS and 201 * 201 > 4 * R.BLOCK_POINTS
        for m in (G.GaussianMacParams(1980.0, 50.0, 5.0, 60.0),
                  G.GaussianMacParams(15.5, 50.0, 495.0, 60.0)):
            assert G.inner_region(m, 101, 401).vertices == old_gaussian_region(m, 101, 401).vertices
        m = B.BinaryMacParams(0.4513, 0.1, 0.2017)
        assert B.inner_region(m, 201).vertices == old_binary_region(m, 201).vertices

    def test_r2_max_curve(self, monkeypatch):
        m = G.GaussianMacParams(15, 50, 20, 60)
        q_values = [1.0, 5.0, 20.0, 100.0]
        new = G.r2_max_curve(m, q_values, rho_steps=9, alpha_steps=33)
        monkeypatch.setattr(G, "_intercept_max", old_intercept_max)
        assert new == G.r2_max_curve(m, q_values, rho_steps=9, alpha_steps=33)


class TestUnionCaps:
    @given(st.lists(st.tuples(*[st.floats(min_value=-1.0, max_value=3.0)] * 3),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_union_region(self, caps):
        c1, c2, c12 = np.array(caps).T
        expected = union_region([RatePentagon(*c) for c in caps])
        assert union_caps(c1, c2, c12).vertices == expected.vertices

    def test_scalar_caps_broadcast(self):
        region = union_caps(np.array([1.0, 0.2]), 0.5, np.array([1.2, 1.2]))
        assert region.vertices == union_region(
            [RatePentagon(1.0, 0.5, 1.2), RatePentagon(0.2, 0.5, 1.2)]).vertices

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            union_caps(np.array([]), np.array([]), np.array([]))

    @given(st.lists(st.tuples(*[st.floats(min_value=-1.0, max_value=3.0)] * 3),
                    min_size=1, max_size=12),
           st.lists(st.integers(min_value=0, max_value=12), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_blocks_equal_one_array(self, caps, cuts):
        c1, c2, c12 = np.array(caps).T
        bounds = [0, *sorted(cuts), len(caps)]  # repeated cuts give empty blocks
        blocks = [(c1[a:b], c2[a:b], c12[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert union_cap_blocks(blocks).vertices == union_caps(c1, c2, c12).vertices

    def test_no_pentagon_is_the_origin(self):
        empty = np.array([])
        assert union_cap_blocks([]).vertices == ((0.0, 0.0),)
        assert union_cap_blocks([(empty, 1.0, empty)] * 2).vertices == ((0.0, 0.0),)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
class TestNonFiniteCaps:
    def test_rate_pentagon_names_the_cap(self, bad, position):
        caps = [1.0, 1.0, 1.5]
        caps[position] = bad
        name = ("c1", "c2", "c12")[position]
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            RatePentagon(*caps)

    def test_union_caps_names_the_cap(self, bad, position):
        caps = [np.array([1.0, 0.5]), np.array([1.0, 0.5]), np.array([1.5, 0.7])]
        caps[position][1] = bad
        name = ("c1", "c2", "c12")[position]
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            union_caps(*caps)

    def test_union_cap_blocks_names_the_cap(self, bad, position):
        caps = [np.array([1.0, 0.5]), np.array([1.0, 0.5]), np.array([1.5, 0.7])]
        caps[position][1] = bad
        name = ("c1", "c2", "c12")[position]
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            union_cap_blocks([tuple(c[:1] for c in caps), tuple(caps)])
