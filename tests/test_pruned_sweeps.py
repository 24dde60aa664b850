"""The pruned dense sweeps against the all-points route they replace.

Both sweeps select pentagons with ``np.log2`` caps and take exact caps only
for the kept ones (``region_geometry.union_pruned_blocks``).  The reference
is the route without the selection: the exact caps of every feasible grid
point handed to ``union_cap_blocks``.  Every region must equal it (``==``).
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macregion import binary_mac as B
from macregion import gaussian_mac as G
from macregion import region_geometry as R
from macregion.info_measures import binary_entropy_array, map_floats


@contextlib.contextmanager
def block_points(n):
    """BLOCK_POINTS set to ``n`` in the sweeps and in the selection."""
    saved = R.BLOCK_POINTS, G.BLOCK_POINTS, B.BLOCK_POINTS
    R.BLOCK_POINTS = G.BLOCK_POINTS = B.BLOCK_POINTS = n
    try:
        yield
    finally:
        R.BLOCK_POINTS, G.BLOCK_POINTS, B.BLOCK_POINTS = saved


def all_points_gdpc(m, rhos, alphas):
    """Exact caps of every feasible (rho, alpha), hulled in one block."""
    caps = G._gdpc_kernel(m, np.array(rhos, dtype=float)[:, None], np.asarray(alphas, dtype=float))
    return R.union_cap_blocks([caps[1:]])


def all_points_gaussian(m, rho_steps, alpha_steps, explore_positive_rho=False):
    return all_points_gdpc(m, G._rho_grid(rho_steps, explore_positive_rho),
                           G._alpha_grid(alpha_steps))


def all_points_binary(m, grid_steps):
    axis = np.linspace(0.0, 1.0, grid_steps)
    a10, a01 = np.meshgrid(axis, axis, indexing="ij")
    keep = (1.0 - m.q) * a10 + m.q * (1.0 - a01) <= m.p1 + 1e-12
    if not keep.any():
        return R.convex_hull_2d([])
    return R.union_cap_blocks([B._pentagon_caps(m, a10[keep], a01[keep])])


def lexsort_pareto(x, y):
    """The two-key ``np.lexsort`` Pareto cut that ``_pareto`` replaced."""
    order = np.lexsort((-y, -x))
    x, y = x[order], y[order]
    best_before = np.maximum.accumulate(np.concatenate(([-1.0], y[:-1])))
    keep = y > best_before
    return x[keep], y[keep]


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0**e)


gaussian_params = st.builds(
    G.GaussianMacParams,
    log_uniform(1e-2, 1e4),
    log_uniform(1e-2, 1e4),
    st.one_of(st.just(0.0), log_uniform(1e-6, 1e6)),
    log_uniform(1e-2, 1e4),
)
near_minus_one = st.sampled_from([-1.0 + 1e-12, -1.0 + 1e-9, -0.999999, -0.99])
rho_lists = st.lists(st.one_of(near_minus_one, st.floats(min_value=-0.999, max_value=0.0)),
                     min_size=1, max_size=12)
alpha_lists = st.lists(st.one_of(st.just(1.0), st.floats(min_value=-3.0, max_value=3.0)),
                       min_size=1, max_size=40)
halves = st.one_of(st.just(0.0), st.just(0.5), st.floats(min_value=0.0, max_value=0.5))
binary_params = st.builds(B.BinaryMacParams, halves, halves, halves)
small_blocks = st.sampled_from([1, 7, 64, 4096])


class TestParetoCut:
    values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.0])

    @given(st.lists(st.tuples(values, values), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort_on_ties_and_signed_zeros(self, points):
        x, y = np.array(points, dtype=float).reshape(-1, 2).T
        got, expected = R._pareto(x, y), lexsort_pareto(x, y)
        # repr tells -0.0 from 0.0
        assert [repr(v) for v in np.concatenate(got).tolist()] == [
            repr(v) for v in np.concatenate(expected).tolist()]

    @given(st.lists(st.tuples(*[st.floats(min_value=0.0, max_value=3.0)] * 2), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_equals_lexsort_on_random_points(self, points):
        x, y = np.array(points, dtype=float).reshape(-1, 2).T
        for got, expected in zip(R._pareto(x, y), lexsort_pareto(x, y)):
            assert got.tolist() == expected.tolist()

    def test_empty(self):
        x, y = R._pareto(np.array([]), np.array([]))
        assert x.size == 0 and y.size == 0


class TestPrunedGaussian:
    @given(gaussian_params, rho_lists, alpha_lists, small_blocks)
    @settings(max_examples=150, deadline=None)
    def test_equals_all_points(self, m, rhos, alphas, blocks):
        with block_points(blocks):
            assert G._gdpc_union(m, rhos, alphas) == all_points_gdpc(m, rhos, alphas)

    @given(gaussian_params, st.integers(min_value=2, max_value=40),
           st.integers(min_value=2, max_value=80), st.booleans(), small_blocks)
    @settings(max_examples=100, deadline=None)
    def test_inner_region_equals_all_points(self, m, rho_steps, alpha_steps, positive, blocks):
        with block_points(blocks):
            assert (G.inner_region(m, rho_steps, alpha_steps, explore_positive_rho=positive)
                    == all_points_gaussian(m, rho_steps, alpha_steps, positive))

    @given(st.lists(st.floats(min_value=1.0, max_value=1e300), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_cap_deviation_far_below_the_slack(self, args):
        args = np.array(args + [1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-40])
        approx = 0.5 * np.log2(args)
        exact = 0.5 * map_floats(math.log2, args)
        assert (np.abs(approx - exact) <= R.LOG_SLACK * np.abs(approx) / 1000).all()

    def test_non_finite_cap_is_reported_as_before(self):
        m = G.GaussianMacParams(15.0, 50.0, 20.0, 5e-324)  # b rounds to ~0: r1 = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^c1 must be finite, got inf$"):
                G.inner_region(m, 21, 81)
            with np.errstate(over="ignore", divide="ignore"):
                with pytest.raises(ValueError, match=r"^c1 must be finite, got inf$"):
                    all_points_gaussian(m, 21, 81)


class TestPrunedBinary:
    @given(binary_params, st.integers(min_value=2, max_value=60), small_blocks)
    @settings(max_examples=150, deadline=None)
    def test_equals_all_points(self, m, grid_steps, blocks):
        with block_points(blocks):
            assert B.inner_region(m, grid_steps) == all_points_binary(m, grid_steps)

    @given(binary_params, st.lists(st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 2),
                                   min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_cap_deviation_far_below_the_slack(self, m, points):
        a10, a01 = np.array(points).T
        c1, _, c12 = B._pentagon_caps(m, a10, a01)
        u, conv = B._mixture(m, a10, a01)
        h_conv, h_u = binary_entropy_array(conv, np.log2), binary_entropy_array(u, np.log2)
        approx = c1 + h_conv - h_u
        approx = np.where(approx < 0.0, 0.0, approx)
        assert (np.abs(approx - c12) <= R.LOG_SLACK * (c1 + h_conv + h_u) / 1000).all()


# The ten dense_sweep strata of bench/workloads.py (DENSE_LIGHT, DENSE_HEAVY),
# with P2 = 50 and N = 60, before the benchmark's per-run jitter.
DENSE_STRATA = [
    (495.0, 15.5, 0.2413, 0.05, 0.4021),
    (20.0, 15.0, 0.0513, 0.30, 0.1017),
    (50.0, 15.0, 0.1487, 0.15, 0.2033),
    (100.0, 30.0, 0.0313, 0.40, 0.4517),
    (250.0, 36.0, 0.0713, 0.25, 0.3517),
    (180.0, 15.0, 0.2213, 0.50, 0.3021),
    (400.0, 25.0, 0.0887, 0.20, 0.0487),
    (70.0, 20.0, 0.1313, 0.35, 0.2513),
    (1.02, 20.0, 0.4513, 0.10, 0.2017),
    (5.0, 1980.0, 0.0513, 0.45, 0.3021),
]


@pytest.mark.parametrize("Q, P1, p1, p2, q", DENSE_STRATA)
def test_dense_strata_equal_all_points(Q, P1, p1, p2, q):
    m = G.GaussianMacParams(P1, 50.0, Q, 60.0)
    assert G.inner_region(m, 101, 401) == all_points_gaussian(m, 101, 401)
    b = B.BinaryMacParams(p1, p2, q)
    assert B.inner_region(b, 201) == all_points_binary(b, 201)


class TestSelection:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_cap_raises_even_where_it_would_be_pruned(self, bad, position):
        # the second pentagon lies deep inside the first
        caps = [np.array([2.0, 0.1]), np.array([2.0, 0.1]), np.array([3.0, 0.1])]
        caps[position][1] = bad
        name = ("c1", "c2", "c12")[position]

        def exact(k):
            raise AssertionError("no exact caps before every cap is checked")

        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            R.union_pruned_blocks([(np.arange(2),)], lambda k: (caps, (0.0, 0.0, 0.0)), exact)

    def test_only_hull_pentagons_get_exact_caps(self):
        # two axis rectangles span the triangle x + y <= 1; 48 pentagons lie inside it
        c = np.linspace(0.05, 0.95, 48)
        caps = (np.append([1.0, 0.0], 0.5 * c), np.append([0.0, 1.0], 0.5 * (1.0 - c)), 1.0)
        asked = []

        def exact(k):
            asked.append(k.tolist())
            return tuple(np.broadcast_to(v, (50,))[k] for v in caps)

        region = R.union_pruned_blocks([(np.arange(50),)], lambda k: (caps, caps), exact)
        assert region == R.union_caps(*caps)
        assert asked == [[0, 1]]

    def test_no_pentagon_is_the_origin(self):
        empty = (np.array([]),)
        region = R.union_pruned_blocks([empty, empty], None, None)
        assert region.vertices == ((0.0, 0.0),)
