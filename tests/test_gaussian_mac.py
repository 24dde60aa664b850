import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macregion.gaussian_mac import (
    GaussianMacParams,
    GdpcParams,
    asymptotic_alpha_max,
    asymptotic_inner_region,
    asymptotic_outer_region,
    asymptotic_rates,
    dpc_only_region,
    feasible_alpha_interval,
    gdpc_decompose,
    gdpc_rates,
    inner_region,
    outer_region,
    r2_max_curve,
    rates_from_covariance,
    successive_decoding_r1_bound,
    uninformed_rate_optimum,
)
from macregion.region_geometry import (
    hausdorff,
    is_subset,
    max_r2_at,
    pentagon_vertices,
)

FIG4 = GaussianMacParams(15.0, 50.0, 20.0, 60.0)


def half_log2(x):
    return 0.5 * math.log2(x)


class TestParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            GaussianMacParams(0.0, 50.0, 20.0, 60.0)
        with pytest.raises(ValueError):
            GaussianMacParams(15.0, 50.0, -1.0, 60.0)
        GaussianMacParams(15.0, 50.0, 0.0, 60.0)  # zero state variance allowed

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["P1", "P2", "Q", "N"])
    def test_non_finite_rejected_by_name(self, name, value):
        kwargs = {"P1": 15.0, "P2": 50.0, "Q": 20.0, "N": 60.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            GaussianMacParams(**kwargs)

    def test_rho_range(self):
        with pytest.raises(ValueError):
            GdpcParams(0.3, 1.0)
        GdpcParams(0.3, 1.0, allow_positive_rho=True)
        with pytest.raises(ValueError):
            GdpcParams(-1.2, 1.0)
        with pytest.raises(ValueError):
            GdpcParams(0.0, float("inf"))


class TestGdpcRates:
    def test_costa_scaling_recovers_state_free_rate(self):
        alpha = FIG4.P1 / (FIG4.P1 + FIG4.N)
        r = gdpc_rates(FIG4, GdpcParams(0.0, alpha))
        assert r.r1 == pytest.approx(half_log2(1 + 15 / 60), abs=1e-12)
        assert r.r1 == pytest.approx(0.16096404744368117, abs=1e-12)

    def test_state_as_noise(self):
        r = gdpc_rates(FIG4, GdpcParams(0.0, 0.0))
        assert r.r2 == pytest.approx(half_log2(1 + 50 / 80), abs=1e-12)
        assert r.r2 == pytest.approx(0.3502198590705461, abs=1e-12)

    def test_full_presubtraction_clears_residual(self):
        r = gdpc_rates(FIG4, GdpcParams(0.0, 1.0))
        assert r.r2 == pytest.approx(half_log2(1 + 50 / 60), abs=1e-12)
        assert r.r2 == pytest.approx(0.4372345589580706, abs=1e-12)

    def test_degenerate_correlation_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            gdpc_rates(FIG4, GdpcParams(-1.0, 0.5))

    def test_sum_cap_dominates_r1(self):
        for rho in (-0.8, -0.3, 0.0):
            for alpha in (-0.2, 0.0, 0.4, 1.0, 1.6):
                r = gdpc_rates(FIG4, GdpcParams(rho, alpha))
                assert r.r3 >= r.r1


class TestCovarianceOracle:
    def test_matches_closed_form_on_grid(self):
        worst = 0.0
        for rho in np.linspace(-0.9, 0.0, 7):
            for alpha in np.linspace(-0.5, 2.0, 11):
                g = GdpcParams(float(rho), float(alpha))
                a = gdpc_rates(FIG4, g)
                b = rates_from_covariance(FIG4, g)
                worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
        assert worst < 1e-9

    def test_zero_alpha_zero_rho(self):
        r = rates_from_covariance(FIG4, GdpcParams(0.0, 0.0))
        assert r.r1 == pytest.approx(half_log2((15 + 20 + 60) / (20 + 60)), abs=1e-12)

    def test_requires_state_variance(self):
        m = GaussianMacParams(15.0, 50.0, 0.0, 60.0)
        with pytest.raises(ValueError, match="Q > 0"):
            rates_from_covariance(m, GdpcParams(0.0, 0.5))


class TestFeasibleAlphaInterval:
    def test_reference_interval_against_quadratic_roots(self):
        intervals = feasible_alpha_interval(FIG4, 0.0)
        assert len(intervals) == 1
        # r1(0, alpha) >= 0 reduces to 225 + 600 alpha - 1500 alpha^2 >= 0
        roots = sorted(np.roots([-1500.0, 600.0, 225.0]).real)
        assert intervals[0][0] == pytest.approx(roots[0], abs=1e-6)
        assert intervals[0][1] == pytest.approx(roots[1], abs=1e-6)

    def test_costa_alpha_interior_and_zero_included(self):
        (lo, hi), = feasible_alpha_interval(FIG4, 0.0)
        costa = FIG4.P1 / (FIG4.P1 + FIG4.N)
        assert lo < costa < hi
        assert lo <= 0.0 <= hi

    def test_rates_nonnegative_inside(self):
        for rho in (-0.5, 0.0):
            for lo, hi in feasible_alpha_interval(FIG4, rho):
                for alpha in np.linspace(lo + 1e-6, hi - 1e-6, 9):
                    assert min(gdpc_rates(FIG4, GdpcParams(rho, float(alpha)))) >= -1e-9

    def test_extreme_correlation_pinches_to_narrow_window(self):
        # r1 stays positive at alpha = -rho*sqrt(P1/Q) for every |rho| < 1, so
        # the feasible set never empties; it pinches to a sliver around that
        # point as the correlation strengthens
        intervals = feasible_alpha_interval(FIG4, -0.995)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        pinch = 0.995 * math.sqrt(FIG4.P1 / FIG4.Q)
        assert lo < pinch < hi
        assert hi - lo < 0.05

    def test_interval_beyond_the_old_scan_window(self):
        # the 1201-point scan over [-2, 3] clipped this one to [(-2.0, 3.0)]
        (lo, hi), = feasible_alpha_interval(GaussianMacParams(120.0, 50.0, 1.0, 60.0), 0.0)
        roots = sorted(np.roots([180.0, -240.0, -14400.0]).real)
        assert (lo, hi) == pytest.approx(roots, abs=1e-12)
        assert (round(lo, 3), round(hi, 3)) == (-8.302, 9.636)

    def test_sliver_the_old_scan_missed(self):
        # 1201 samples over [-2, 3] fell on either side of this 0.041-wide interval
        (lo, hi), = feasible_alpha_interval(GaussianMacParams(15.0, 50.0, 1.0, 60.0), -0.995)
        assert (round(lo, 3), round(hi, 3)) == (3.826, 3.867)
        for alpha in (lo + 1e-6, 0.5 * (lo + hi), hi - 1e-6):
            assert min(gdpc_rates(GaussianMacParams(15.0, 50.0, 1.0, 60.0), GdpcParams(-0.995, alpha))) >= 0.0

    def test_endpoints_are_python_floats(self):
        for m in (FIG4, GaussianMacParams(120.0, 50.0, 1.0, 60.0)):
            for rho in (0.0, -0.5):
                (lo, hi), = feasible_alpha_interval(m, rho)
                assert type(lo) is float and type(hi) is float

    def test_zero_state_variance(self):
        # the caps do not depend on alpha at Q = 0: every alpha or none
        m = GaussianMacParams(15.0, 50.0, 0.0, 60.0)
        assert feasible_alpha_interval(m, 0.0) == [(-math.inf, math.inf)]
        assert min(gdpc_rates(m, GdpcParams(0.0, 7.0))) >= 0.0
        assert feasible_alpha_interval(m, -0.9) == []
        assert min(gdpc_rates(m, GdpcParams(-0.9, 7.0))) < 0.0

    def test_matches_the_scan_and_bisection_it_replaced(self):
        rng = np.random.default_rng(5)
        compared = 0
        while compared < 20:
            m = GaussianMacParams(*(float(v) for v in 10.0 ** rng.uniform(-0.5, 2.5, size=4)))
            rho = float(rng.uniform(-0.95, 0.0))
            old = scanned_alpha_interval(m, rho)
            if len(old) != 1 or old[0][0] == -2.0 or old[0][1] == 3.0:
                continue  # the scan window clipped or missed the interval
            (lo, hi), = feasible_alpha_interval(m, rho)
            # bisection stops on a bracket under 1e-9 wide and returns its midpoint
            assert abs(lo - old[0][0]) <= 5e-10 and abs(hi - old[0][1]) <= 5e-10
            compared += 1

    @settings(max_examples=200, deadline=None)
    @given(
        p1=st.floats(0.1, 1e3), p2=st.floats(0.1, 1e3), q=st.floats(1e-2, 1e4),
        n=st.floats(0.1, 1e3), rho=st.floats(-0.99, 0.99),
    )
    def test_caps_change_sign_at_the_endpoints(self, p1, p2, q, n, rho):
        m = GaussianMacParams(p1, p2, q, n)
        (lo, hi), = feasible_alpha_interval(m, rho)
        step = 1e-6 * (hi - lo)
        for alpha in (lo + step, hi - step):
            assert min(gdpc_rates(m, GdpcParams(rho, alpha, allow_positive_rho=True))) >= 0.0
        for alpha in (lo - step, hi + step):
            assert min(gdpc_rates(m, GdpcParams(rho, alpha, allow_positive_rho=True))) < 0.0

    def test_ends_are_exact_near_full_correlation(self):
        # With P1 = Q = 1 every coefficient of the r1 >= 0 quadratic is rational
        # in rho.  Expanding b^2 - a c0 lost c's 9 leading digits here, and the
        # interval came out as about [1 - 1.3e-8, 1 + 1.1e-8], which holds the
        # infeasible alpha = 1.
        m = GaussianMacParams(1.0, 1.0, 1.0, 10.0)
        rho = -1.0 + 1e-9
        r, n = Fraction(rho), Fraction(m.N)
        c = 1 - r * r

        def quadratic(alpha):
            x = Fraction(alpha)
            return (c + n) * x * x + 2 * (n * r - c) * x + n * r * r - c * (1 + 2 * r)

        (lo, hi), = feasible_alpha_interval(m, rho)
        assert hi < 1.0
        for end, outward in ((lo, -math.inf), (hi, math.inf)):
            out, inside = end, end
            for _ in range(4):
                out, inside = math.nextafter(out, outward), math.nextafter(inside, -outward)
            assert quadratic(out) > 0 > quadratic(inside)

    def test_upper_end_tends_to_the_large_q_limit(self):
        for rho in (0.0, -0.5):
            gaps = []
            for q in (1e4, 1e6, 1e8, 1e10):
                m = GaussianMacParams(15.0, 50.0, q, 60.0)
                (_, hi), = feasible_alpha_interval(m, rho)
                gaps.append(abs(hi - asymptotic_alpha_max(m, rho)))
            assert all(later < 0.2 * earlier for earlier, later in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-4


def scanned_alpha_interval(m, rho, scan=(-2.0, 3.0), scan_points=1201, resolution=1e-9):
    """The sampled scan plus bisection ``feasible_alpha_interval`` replaced."""

    def worst(alpha):
        return min(gdpc_rates(m, GdpcParams(rho, alpha)))

    def bisect(lo, hi):
        flo = worst(lo)
        for _ in range(200):
            if hi - lo <= resolution:
                break
            mid = 0.5 * (lo + hi)
            if (worst(mid) >= 0.0) == (flo >= 0.0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    xs = np.linspace(scan[0], scan[1], scan_points)
    fs = [worst(float(x)) for x in xs]
    intervals = []
    start = float(xs[0]) if fs[0] >= 0.0 else None
    for i in range(len(xs) - 1):
        if fs[i] < 0.0 <= fs[i + 1]:
            start = bisect(float(xs[i]), float(xs[i + 1]))
        elif fs[i] >= 0.0 > fs[i + 1]:
            intervals.append((start, bisect(float(xs[i]), float(xs[i + 1]))))
            start = None
    if start is not None:
        intervals.append((start, float(xs[-1])))
    return intervals


class TestRegions:
    @pytest.mark.parametrize("alpha_steps", [-1, 0, 1])
    def test_alpha_grid_needs_two_points(self, alpha_steps):
        for sweep in (lambda: inner_region(FIG4, alpha_steps=alpha_steps),
                      lambda: dpc_only_region(FIG4, alpha_steps=alpha_steps)):
            with pytest.raises(ValueError, match="alpha_steps must be >= 2"):
                sweep()

    def test_dpc_only_inside_full_sweep(self):
        full = inner_region(FIG4, rho_steps=11, alpha_steps=41)
        dpc = dpc_only_region(FIG4, alpha_steps=41)
        assert is_subset(dpc, full, 1e-12)

    def test_inside_outer_bound(self):
        full = inner_region(FIG4, rho_steps=11, alpha_steps=41)
        outer = pentagon_vertices(outer_region(FIG4))
        assert is_subset(full, outer, 1e-9)

    def test_zero_state_variance_attains_outer_bound(self):
        m = GaussianMacParams(15.0, 50.0, 0.0, 60.0)
        region = inner_region(m, rho_steps=5, alpha_steps=17)
        outer = pentagon_vertices(outer_region(m))
        assert hausdorff(region, outer) < 1e-6

    def test_vanishing_uninformed_power_collapses_to_axis(self):
        m = GaussianMacParams(15.0, 1e-9, 20.0, 60.0)
        region = inner_region(m, rho_steps=5, alpha_steps=17)
        assert region.max_r2 < 1e-9

    def test_positive_rho_exploration_contains_default(self):
        base = inner_region(FIG4, rho_steps=11, alpha_steps=41)
        wide = inner_region(FIG4, rho_steps=21, alpha_steps=41, explore_positive_rho=True)
        assert is_subset(base, wide, 1e-9)


class TestOuterRegions:
    def test_reference_caps(self):
        o = outer_region(FIG4)
        assert o.c1 == pytest.approx(0.16096404744368117, abs=1e-12)
        assert o.c2 == pytest.approx(0.4372345589580706, abs=1e-12)
        assert o.c12 == pytest.approx(0.5294468445267843, abs=1e-12)

    def test_no_informed_power_limit(self):
        m = GaussianMacParams(1e-12, 50.0, 20.0, 60.0)
        o = outer_region(m)
        assert o.c1 == pytest.approx(0.0, abs=1e-11)
        assert o.c12 == pytest.approx(o.c2, abs=1e-11)

    def test_caps_vanish_in_heavy_noise(self):
        caps = [outer_region(GaussianMacParams(15, 50, 20, n)) for n in (60, 600, 6000)]
        for a, b in zip(caps, caps[1:]):
            assert b.c1 < a.c1 and b.c2 < a.c2 and b.c12 < a.c12
        assert caps[-1].c12 < 0.01

    def test_asymptotic_outer_tighter_than_state_free(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        asym = asymptotic_outer_region(m)
        trivial = outer_region(m)
        assert asym.c2 == pytest.approx(0.4372345589580706, abs=1e-12)
        assert asym.c12 == pytest.approx(0.792481250360578, abs=1e-12)
        assert asym.c1 == asym.c12
        assert asym.c12 < trivial.c12

    def test_asymptotic_outer_equal_powers(self):
        m = GaussianMacParams(50.0, 50.0, 0.0, 60.0)
        asym = asymptotic_outer_region(m)
        assert asym.c12 == asym.c2


class TestAsymptoticRates:
    def test_full_presubtraction(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        r = asymptotic_rates(m, GdpcParams(0.0, 1.0))
        assert r.r1 == 0.5  # half log2(120/60)
        assert r.r2 == pytest.approx(0.4372345589580706, abs=1e-12)

    def test_boundary_root(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        upper = asymptotic_alpha_max(m, 0.0)
        r = asymptotic_rates(m, GdpcParams(0.0, upper))
        assert abs(r.r1) <= 1e-12

    def test_r1_equals_r3_exactly(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        for rho in np.linspace(-0.9, 0.0, 5):
            upper = asymptotic_alpha_max(m, float(rho))
            for alpha in np.linspace(0.0, upper, 9):
                r = asymptotic_rates(m, GdpcParams(float(rho), float(alpha)))
                assert r.r1 == r.r3

    def test_domain_enforced(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        upper = asymptotic_alpha_max(m, 0.0)
        with pytest.raises(ValueError):
            asymptotic_rates(m, GdpcParams(0.0, upper + 0.01))
        with pytest.raises(ValueError):
            asymptotic_rates(m, GdpcParams(0.0, -0.01))

    def test_limit_consistency_with_large_q(self):
        worst = 0.0
        m_large = GaussianMacParams(FIG4.P1, FIG4.P2, 1e10, FIG4.N)
        for rho in np.linspace(-0.9, 0.0, 7):
            upper = asymptotic_alpha_max(FIG4, float(rho))
            for alpha in np.linspace(0.0, upper, 11):
                g = GdpcParams(float(rho), float(alpha))
                finite = gdpc_rates(m_large, g)
                limit = asymptotic_rates(FIG4, g)
                worst = max(worst, max(abs(x - y) for x, y in zip(finite, limit)))
        assert worst < 1e-4


class TestAsymptoticRegions:
    def test_strong_informed_encoder_reaches_clean_rate(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        region = asymptotic_inner_region(m, rho_steps=21, alpha_steps=81)
        assert max_r2_at(region, 0.0) == pytest.approx(0.4372345589580706, abs=1e-9)

    def test_weak_informed_encoder_intercept(self):
        m = GaussianMacParams(50.0, 50.0, 0.0, 60.0)
        region = asymptotic_inner_region(m, rho_steps=21, alpha_steps=81)
        assert max_r2_at(region, 0.0) == pytest.approx(0.3572988905688758, abs=1e-4)

    def test_inside_asymptotic_outer(self):
        for p1 in (50.0, 120.0, 2000.0):
            m = GaussianMacParams(p1, 50.0, 0.0, 60.0)
            region = asymptotic_inner_region(m, rho_steps=11, alpha_steps=41)
            outer = pentagon_vertices(asymptotic_outer_region(m))
            assert is_subset(region, outer, 1e-9)


class TestSuccessiveDecoding:
    def test_boundary_root(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        c = m.P1
        upper = 2 * c / (c + m.P2 + m.N)
        assert successive_decoding_r1_bound(m, GdpcParams(0.0, upper)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_reference_value(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        got = successive_decoding_r1_bound(m, GdpcParams(0.0, 1.0))
        assert got == pytest.approx(half_log2(120 / 110), abs=1e-12)
        assert got == pytest.approx(0.06276544104192941, abs=1e-12)

    def test_never_exceeds_joint_decoding_cap(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        for rho in (-0.6, 0.0):
            c = m.P1 * (1 - rho * rho)
            upper = 2 * c / (c + m.P2 + m.N)
            for alpha in np.linspace(0.0, upper, 15):
                g = GdpcParams(rho, float(alpha))
                assert successive_decoding_r1_bound(m, g) <= asymptotic_rates(m, g).r1 + 1e-12

    def test_domain_enforced(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        with pytest.raises(ValueError):
            successive_decoding_r1_bound(m, GdpcParams(0.0, 1.5))


class TestUninformedRateOptimum:
    def test_power_rich_helper(self):
        m = GaussianMacParams(120.0, 50.0, 0.0, 60.0)
        rho_star, alpha_star, r2_max = uninformed_rate_optimum(m)
        assert rho_star == 0.0
        assert alpha_star == 1.0  # 2*120/230 > 1
        assert r2_max == pytest.approx(0.4372345589580706, abs=1e-12)

    def test_power_limited_helper(self):
        m = GaussianMacParams(50.0, 50.0, 0.0, 60.0)
        _, alpha_star, r2_max = uninformed_rate_optimum(m)
        assert alpha_star == pytest.approx(0.625, abs=1e-15)
        assert r2_max == pytest.approx(0.3572988905688758, abs=1e-12)

    def test_vanishing_partner_power(self):
        m = GaussianMacParams(120.0, 1e-9, 0.0, 60.0)
        assert uninformed_rate_optimum(m)[2] < 1e-9


class TestR2MaxCurve:
    def test_state_free_endpoint(self):
        m = GaussianMacParams(15.0, 50.0, 1.0, 60.0)
        (_, r2), = r2_max_curve(m, [1e-9])
        assert r2 == pytest.approx(0.4372345589580706, abs=1e-3)

    def test_nonincreasing_and_ordered_by_power(self):
        qs = [1.0, 20.0, 500.0]
        curves = {}
        for p1 in (15.0, 60.0):
            m = GaussianMacParams(p1, 50.0, 1.0, 60.0)
            curves[p1] = [r for _, r in r2_max_curve(m, qs)]
        for values in curves.values():
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12
        for a, b in zip(curves[15.0], curves[60.0]):
            assert b >= a - 1e-12

    def test_rejects_nonpositive_variance(self):
        m = GaussianMacParams(15.0, 50.0, 1.0, 60.0)
        with pytest.raises(ValueError):
            r2_max_curve(m, [0.0])

    def test_rejects_no_variances(self):
        m = GaussianMacParams(15.0, 50.0, 1.0, 60.0)
        with pytest.raises(ValueError, match="state variances must not be empty"):
            r2_max_curve(m, [])


class TestDecomposition:
    def test_no_cancellation_at_zero_rho(self):
        d = gdpc_decompose(FIG4, GdpcParams(0.0, 0.5))
        assert d.gamma == 0.0 and d.cancel_power == 0.0 and d.dpc_power == FIG4.P1

    def test_full_cancellation(self):
        d = gdpc_decompose(FIG4, GdpcParams(-1.0, 0.5))
        assert d.gamma == 1.0 and d.dpc_power == 0.0

    def test_reference_split(self):
        d = gdpc_decompose(FIG4, GdpcParams(-0.5, 0.5))
        assert d.gamma == 0.25
        assert d.cancel_power == pytest.approx(3.75, abs=1e-15)
        assert d.residual_state_scale == pytest.approx(0.5669872981077807, abs=1e-12)

    def test_powers_sum_exactly(self):
        for rho in (-0.9, -0.37, -0.1):
            d = gdpc_decompose(FIG4, GdpcParams(rho, 0.3))
            assert d.cancel_power + d.dpc_power == FIG4.P1

    def test_undefined_without_state(self):
        m = GaussianMacParams(15.0, 50.0, 0.0, 60.0)
        with pytest.raises(ValueError):
            gdpc_decompose(m, GdpcParams(-0.5, 0.5))


class TestCostaIdentityRandomized:
    def test_random_parameter_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p1 = float(rng.uniform(0.5, 400.0))
            n = float(rng.uniform(0.5, 400.0))
            q = float(rng.uniform(1.0, 100.0))
            m = GaussianMacParams(p1, 50.0, q, n)
            r = gdpc_rates(m, GdpcParams(0.0, p1 / (p1 + n)))
            assert r.r1 == pytest.approx(half_log2(1 + p1 / n), abs=1e-12)
