"""The cross-check suites behind ``macregion verify``, called directly.

The Gaussian oracle reads the GDPC caps off the joint covariance of
(S, X1, U1, X2, Y), evaluated on the whole (rho, alpha) grid as one stack of
5x5 matrices.  The tests here pin that stack to the one-matrix-at-a-time
route it replaced (``np.ix_`` sub-blocks, one ``slogdet`` each) bit for bit,
and check that the suite still fails when the closed form drifts.  The
binary oracle's table route is one stack of induced specs; its equality with
the per-spec route is pinned in ``test_dm_eval``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macregion import binary_mac as B
from macregion import dm_eval
from macregion import gaussian_mac as G
from macregion import verification as V
from macregion.region_geometry import RatePentagon, directed_hausdorff, pentagon_vertices

positive = st.floats(min_value=0.01, max_value=2000.0)
gaussian_params = st.builds(
    G.GaussianMacParams, positive, positive, st.floats(min_value=0.01, max_value=1e4), positive
)
points = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=-0.999999, max_value=0.999999)),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=-2.0, max_value=3.0)),
    ),
    min_size=1,
    max_size=12,
)

# A point whose U1 = X1 + alpha*S has variance exactly 0 in floating point.
SINGULAR = (-0.9999999999999999, 0.8660254037844385)


def one_matrix_route(m, rho, alpha):
    """The per-point covariance route the stacked core replaced."""
    p1, p2, q, n = m.P1, m.P2, m.Q, m.N
    cross = rho * math.sqrt(p1 * q)
    var_u = p1 + alpha * alpha * q + 2.0 * alpha * cross
    cov_us = cross + alpha * q
    cov_uy = p1 + alpha * q + (1.0 + alpha) * cross
    cov = np.array(
        [
            [q, cross, cov_us, 0.0, q + cross],
            [cross, p1, p1 + alpha * cross, 0.0, p1 + cross],
            [cov_us, p1 + alpha * cross, var_u, 0.0, cov_uy],
            [0.0, 0.0, 0.0, p2, p2],
            [q + cross, p1 + cross, cov_uy, p2, p1 + p2 + q + n + 2.0 * cross],
        ]
    )
    floor = -1e-9 * max(1.0, float(np.abs(cov).max()))
    if np.linalg.eigvalsh(cov).min() < floor:
        raise ValueError("covariance is not positive semidefinite")

    def logdet(idx):
        if not idx:
            return 0.0
        sign, val = np.linalg.slogdet(cov[np.ix_(idx, idx)])
        if sign <= 0:
            raise ValueError("singular covariance block in mutual-information ratio")
        return val

    def cmi(a, b, given=()):
        nats = logdet(a + given) + logdet(b + given) - logdet(given) - logdet(a + b + given)
        return 0.5 * nats / math.log(2.0)

    s, u1, x2, y = (0,), (2,), (3,), (4,)
    leak = cmi(u1, s)
    return (cmi(u1, y, x2) - leak, cmi(x2, y, u1), cmi(u1 + x2, y) - leak)


def outcome(fn, *args):
    try:
        return tuple(fn(*args))
    except ValueError as exc:
        return str(exc)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(V.SUITES))
    def test_suite_passes_with_measured_margin(self, name):
        for result in V.run_suite(name):
            assert result.passed, result.line()
            if result.threshold == 0.0:  # an identity: measured must be exactly 0
                assert result.measured == 0.0
            else:
                assert result.measured < result.threshold, result.line()

    def test_all_runs_every_suite_in_order(self):
        names = [r.name for r in V.run_suite("all")]
        assert names == [r.name for suite in V.SUITES for r in V.run_suite(suite)]

    def test_unknown_suite_is_named(self):
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            V.run_suite("nope")


class TestBinaryOracle:
    def test_measured_deviation_is_unchanged(self):
        # The worst deviation of the per-spec table route over the same grid.
        [result] = V.binary_oracle_suite()
        assert result.measured == 6.661338147750939e-16
        assert result.detail == "66 feasible grid points at (p1, p2, q) = (0.1, 0.4, 0.2)"

    def test_table_route_is_one_stack(self, monkeypatch):
        stacks = []
        real = dm_eval.inner_bound_pentagons
        monkeypatch.setattr(dm_eval, "inner_bound_pentagons", lambda specs: stacks.append(specs) or real(specs))
        V.binary_oracle_suite()
        assert [len(specs) for specs in stacks] == [66]

    def test_fails_when_closed_form_drifts(self, monkeypatch):
        real = B.inner_pentagon

        def drifted(m, d):
            p = real(m, d)
            return replace(p, c2=p.c2 + 1e-8)

        monkeypatch.setattr(B, "inner_pentagon", drifted)
        [result] = V.binary_oracle_suite()
        assert not result.passed
        assert result.measured == pytest.approx(1e-8, rel=1e-6)
        assert result.line().startswith("[FAIL] binary-oracle")


class TestAsymptoticLimit:
    def test_deviation_shrinks_as_inverse_square_root_of_q(self, monkeypatch):
        # The rho * sqrt(P1 Q) cross term makes the finite-Q caps approach
        # their limit as O(Q^-1/2): each 100x step in Q gains about 10x.
        measured = []
        for q in (1e6, 1e8, 1e10):
            monkeypatch.setattr(V, "LIMIT_Q", q)
            measured.append(V.asymptotic_limit_suite()[0].measured)
        for coarse, fine in zip(measured, measured[1:]):
            assert 8.0 <= coarse / fine <= 12.0, measured


class TestGaussianOracle:
    def test_measured_deviation_is_unchanged(self):
        # The worst deviation of the one-matrix route over the same grid.
        [result] = V.gaussian_oracle_suite()
        assert result.measured == 4.107825191113079e-15

    def test_fails_when_closed_form_drifts(self, monkeypatch):
        real = G.gdpc_rates

        def drifted(m, g):
            r = real(m, g)
            return r._replace(r2=r.r2 + 1e-8)

        monkeypatch.setattr(G, "gdpc_rates", drifted)
        [result] = V.gaussian_oracle_suite()
        assert not result.passed
        assert result.measured == pytest.approx(1e-8, rel=1e-6)
        assert result.line().startswith("[FAIL] gaussian-oracle")

    def test_grid_stack_equals_one_matrix_route(self):
        m = V.GAUSSIAN_REFERENCE
        rhos, alphas = np.meshgrid(
            np.linspace(-1.0, 0.0, 16)[1:], np.linspace(*G.ALPHA_SPAN, 31), indexing="ij"
        )
        stacked = G._covariance_caps(m, rhos, alphas)
        assert all(c.shape == (15, 31) for c in stacked)
        got = list(zip(*(c.ravel().tolist() for c in stacked)))
        grid = zip(rhos.ravel().tolist(), alphas.ravel().tolist())
        expected = [one_matrix_route(m, r, a) for r, a in grid]
        assert got == expected


class TestCovarianceCore:
    @given(gaussian_params, points)
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_per_point(self, m, pts):
        per_point = [outcome(G.rates_from_covariance, m, G.GdpcParams(r, a, True)) for r, a in pts]
        assert per_point == [outcome(one_matrix_route, m, r, a) for r, a in pts]
        rho, alpha = np.array(pts).T
        if any(isinstance(o, str) for o in per_point):
            # One failing matrix fails the whole stack, with its error.
            errors = {o for o in per_point if isinstance(o, str)}
            with pytest.raises(ValueError) as info:
                G._covariance_caps(m, rho, alpha)
            assert str(info.value) in errors
        else:
            stacked = G._covariance_caps(m, rho, alpha)
            assert list(zip(*(c.tolist() for c in stacked))) == per_point

    def test_scalar_call_returns_floats(self):
        r = G.rates_from_covariance(V.GAUSSIAN_REFERENCE, G.GdpcParams(-0.3, 0.7))
        assert all(type(v) is float for v in r)

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_degenerate_rho_raises(self, rho):
        with pytest.raises(ValueError, match="degenerate"):
            G.rates_from_covariance(V.GAUSSIAN_REFERENCE, G.GdpcParams(rho, 0.5, True))

    def test_zero_state_variance_raises(self):
        m = G.GaussianMacParams(15.0, 50.0, 0.0, 60.0)
        with pytest.raises(ValueError, match="Q > 0"):
            G.rates_from_covariance(m, G.GdpcParams(0.0, 0.5))
        with pytest.raises(ValueError, match="Q > 0"):
            G._covariance_caps(m, np.zeros(3), np.linspace(0.0, 1.0, 3))

    def test_one_singular_block_fails_the_stack(self):
        m = V.GAUSSIAN_REFERENCE
        match = "singular covariance block"
        with pytest.raises(ValueError, match=match):
            G.rates_from_covariance(m, G.GdpcParams(*SINGULAR))
        rho = np.array([0.0, -0.3, SINGULAR[0], -0.5])
        alpha = np.array([0.5, 1.0, SINGULAR[1], 0.2])
        G._covariance_caps(m, np.delete(rho, 2), np.delete(alpha, 2))  # fine without it
        with pytest.raises(ValueError, match=match):
            G._covariance_caps(m, rho, alpha)


    def test_checks_apply_per_matrix(self):
        # Each matrix is held to its own floor -1e-9 * max(1, max |entry|):
        # a large neighbour must not excuse a small matrix's negative eigenvalue.
        slightly_negative = np.diag([1.0, 1.0, 1.0, 1.0, -5e-9])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            G._stacked_logdet(np.stack([1e4 * np.eye(5), slightly_negative]))
        within_floor = np.diag([1e4, 1.0, 1.0, 1.0, -5e-9])
        G._stacked_logdet(np.stack([np.eye(5), within_floor]))
        singular = np.eye(5)
        singular[1, 1] = 0.0
        logdet = G._stacked_logdet(np.stack([np.eye(5), singular]))
        assert logdet((0, 2)).tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="singular covariance block"):
            logdet((0, 1))


class TestContainment:
    def test_measures_distance_outside(self):
        inner = pentagon_vertices(RatePentagon(1.0, 1.0, 1.5))
        outer = pentagon_vertices(RatePentagon(1.0, 1.0, 1.4))
        # The corner (1, 0.5) lies 0.1 / sqrt(2) outside the tighter sum cap.
        assert directed_hausdorff(inner, outer) == pytest.approx(0.1 / math.sqrt(2), abs=1e-12)
        assert directed_hausdorff(outer, inner) == 0.0

    def test_suite_reports_the_measured_distance(self, monkeypatch):
        # Shrink the state-free outer bound below the swept region's reach.
        real = G.outer_region

        def shrunk(m):
            p = real(m)
            return RatePentagon(0.9 * p.c1, 0.9 * p.c2, 0.9 * p.c12)

        monkeypatch.setattr(G, "outer_region", shrunk)
        gaussian = next(r for r in V.containment_suite() if r.name == "gaussian-containment")
        inner = G.inner_region(V.GAUSSIAN_REFERENCE, rho_steps=21, alpha_steps=81)
        expected = directed_hausdorff(inner, pentagon_vertices(G.outer_region(V.GAUSSIAN_REFERENCE)))
        assert not gaussian.passed
        assert gaussian.measured == expected > gaussian.threshold
