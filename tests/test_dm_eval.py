import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macregion import dm_eval
from macregion.binary_mac import BinaryDpcParams, BinaryMacParams, feasible_grid, induced_dm_spec
from macregion.dm_eval import (
    DmChannelSpec,
    degrade_output,
    induced_joint,
    inner_bound_pentagon,
    inner_bound_pentagons,
    validate_spec,
)
from macregion.info_measures import PROB_TOL, Pmf, conditional_mutual_information
from macregion.region_geometry import RatePentagon


def hb(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def conv(x, y):
    return x * (1 - y) + y * (1 - x)


def point_spec():
    """Every alphabet has one letter: the joint is a single unit atom."""
    return DmChannelSpec(
        q_dist=Pmf([1.0]),
        s_dist=Pmf([1.0]),
        u1_given_sq=np.ones((1, 1, 1)),
        x1_given_u1sq=np.ones((1, 1, 1, 1)),
        x2_given_q=np.ones((1, 1)),
        y_given_x1x2s=np.ones((1, 1, 1, 1)),
    )


def stateless_mac_spec(p_x1=0.3, p_x2=0.4):
    """No state, U1 = X1 ~ Bernoulli(p_x1), Y = X1 xor X2."""
    y = np.zeros((2, 2, 1, 2))
    for x1 in range(2):
        for x2 in range(2):
            y[x1, x2, 0, x1 ^ x2] = 1.0
    x1_table = np.zeros((2, 1, 1, 2))
    x1_table[0, 0, 0, 0] = 1.0
    x1_table[1, 0, 0, 1] = 1.0
    return DmChannelSpec(
        q_dist=Pmf([1.0]),
        s_dist=Pmf([1.0]),
        u1_given_sq=np.array([[[1 - p_x1, p_x1]]]),
        x1_given_u1sq=x1_table,
        x2_given_q=np.array([[1 - p_x2, p_x2]]),
        y_given_x1x2s=y,
    )


class TestInducedJoint:
    def test_single_atom(self):
        t = induced_joint(point_spec())
        assert t.shape == (1, 1, 1, 1, 1, 1)
        assert t.mass.reshape(-1)[0] == 1.0

    def test_binary_construction_marginal(self):
        q, a10, a01 = 0.2, 0.1, 0.9
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, q), BinaryDpcParams(a10, a01))
        t = induced_joint(spec)
        p_u1 = t.marginal((2,))
        assert p_u1[1] == pytest.approx((1 - q) * a10 + q * a01, abs=1e-15)
        assert np.count_nonzero(t.mass) == 8

    def test_marginals_reproduce_inputs(self):
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.05, 0.95))
        t = induced_joint(spec)
        np.testing.assert_allclose(t.marginal((1,)), spec.s_dist.atoms, atol=1e-12)
        np.testing.assert_allclose(t.marginal((4,)), spec.x2_given_q[0], atol=1e-12)
        # p(u1 | s) recovered from the joint
        p_su = t.marginal((1, 2))
        got = p_su / p_su.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, spec.u1_given_sq[:, 0, :], atol=1e-12)

    def test_independent_x2_has_zero_information_about_state(self):
        from macregion.info_measures import conditional_mutual_information

        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        t = induced_joint(spec)
        assert conditional_mutual_information(t, 4, 1) <= 1e-12

    def test_inconsistent_alphabets_rejected(self):
        spec = point_spec()
        bad = replace(spec, x2_given_q=np.ones((2, 1)))  # |Q| mismatch
        with pytest.raises(ValueError, match="x2_given_q"):
            induced_joint(bad)


class TestInnerBoundPentagon:
    def test_binary_reference_point(self):
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        p = inner_bound_pentagon(spec)
        assert p.c1 == pytest.approx(0.4689955935892812, abs=1e-12)
        assert p.c2 == pytest.approx(0.9709505944546686, abs=1e-12)
        assert p.c12 == pytest.approx(0.6355910332847168, abs=1e-12)

    def test_degenerate_auxiliary_gives_zero_r1(self):
        spec = induced_dm_spec(BinaryMacParams(0.0, 0.4, 0.2), BinaryDpcParams(0.0, 1.0))
        p = inner_bound_pentagon(spec)
        assert p.c1 == 0.0

    def test_stateless_reduction_to_plain_mac(self):
        p_x1, p_x2 = 0.3, 0.4
        p = inner_bound_pentagon(stateless_mac_spec(p_x1, p_x2))
        # Y = X1 xor X2: I(X1;Y|X2) = H(X1), I(X2;Y|X1) = H(X2), I(X1,X2;Y) = H(Y)
        assert p.c1 == pytest.approx(hb(p_x1), abs=1e-12)
        assert p.c2 == pytest.approx(hb(p_x2), abs=1e-12)
        assert p.c12 == pytest.approx(hb(conv(p_x1, p_x2)), abs=1e-12)

    def test_second_accumulation_order(self):
        # same caps from a direct p*log(ratio) sweep instead of entropy sums
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        t = induced_joint(spec)

        def direct_cmi(a_axes, b_axes, c_axes):
            keep = tuple(a_axes) + tuple(b_axes) + tuple(c_axes)
            pab_c = t.marginal(keep)
            # reorder marginal axes (sorted variable order) to (a..., b..., c...)
            order = np.argsort(np.argsort(keep))
            pab_c = np.transpose(pab_c, axes=order)
            na, nb = len(a_axes), len(b_axes)
            pac = pab_c.sum(axis=tuple(range(na, na + nb)))
            pbc = pab_c.sum(axis=tuple(range(na)))
            pc = pbc.sum(axis=tuple(range(nb)))
            total = 0.0
            it = np.nditer(pab_c, flags=["multi_index"])
            for v in it:
                v = float(v)
                if v <= 0:
                    continue
                idx = it.multi_index
                ia, ib, ic = idx[:na], idx[na : na + nb], idx[na + nb :]
                denom = pac[ia + ic] * pbc[ib + ic]
                num = v * (pc[ic] if ic else 1.0)
                total += v * math.log2(num / denom)
            return total

        leak = direct_cmi((2,), (1,), (0,))
        c1 = direct_cmi((2,), (5,), (4, 0)) - leak
        c2 = direct_cmi((4,), (5,), (2, 0))
        c12 = direct_cmi((2, 4), (5,), (0,)) - leak
        p = inner_bound_pentagon(spec)
        assert p.c1 == pytest.approx(c1, abs=1e-10)
        assert p.c2 == pytest.approx(c2, abs=1e-10)
        assert p.c12 == pytest.approx(c12, abs=1e-10)

    def test_output_degradation_never_helps(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = BinaryMacParams(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5)),
                                float(rng.uniform(0.0, 0.5)))
            d_params = None
            while d_params is None:
                cand = BinaryDpcParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                from macregion.binary_mac import is_feasible

                if is_feasible(cand, m):
                    d_params = cand
            spec = induced_dm_spec(m, d_params)
            kernel = rng.dirichlet(np.ones(2), size=2)
            degraded = degrade_output(spec, kernel)
            before = inner_bound_pentagon(spec)
            after = inner_bound_pentagon(degraded)
            assert after.c12 <= before.c12 + 1e-9

    def test_degrade_kernel_shape_checked(self):
        spec = stateless_mac_spec()
        with pytest.raises(ValueError):
            degrade_output(spec, np.ones((3, 3)) / 3.0)


class TestValidateSpec:
    def test_valid_binary_spec_is_clean(self):
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        assert validate_spec(spec) == []

    def test_unnormalized_row_named(self):
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        broken = spec.u1_given_sq.copy()
        broken[1, 0] = [0.49, 0.49]  # sums to 0.98
        bad = replace(spec, u1_given_sq=broken)
        diags = validate_spec(bad)
        assert any(
            d.level == "error" and d.location == "u1_given_sq[1][0]" and "0.98" in d.message
            for d in diags
        )

    def test_shape_mismatch_named(self):
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        # ternary X2 clashes with the binary output table; the report names
        # the mismatched table and both shapes
        bad = replace(spec, x2_given_q=np.array([[0.5, 0.3, 0.2]]))
        diags = validate_spec(bad)
        shape_errors = [d for d in diags if d.level == "error" and "shape" in d.message]
        assert shape_errors
        assert any("(2, 2, 2, 2)" in d.message and "3" in d.message for d in shape_errors)
        with pytest.raises(ValueError, match="shape"):
            induced_joint(bad)

    def test_large_auxiliary_alphabet_is_advisory_only(self):
        nu = 13  # binary channels cap the useful size at 2*2*2 + 4 = 12
        x1 = np.zeros((nu, 2, 1, 2))
        x1[:, :, 0, 0] = 1.0
        y = np.zeros((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                for s in range(2):
                    y[a, b, s, a ^ b ^ s] = 1.0
        spec = DmChannelSpec(
            q_dist=Pmf([1.0]),
            s_dist=Pmf([0.8, 0.2]),
            u1_given_sq=np.full((2, 1, nu), 1.0 / nu),
            x1_given_u1sq=x1,
            x2_given_q=np.array([[0.6, 0.4]]),
            y_given_x1x2s=y,
        )
        diags = validate_spec(spec)
        assert diags and all(d.level == "advisory" for d in diags)
        # advisories do not block evaluation
        inner_bound_pentagon(spec)


# ---------------------------------------------------------------------------
# The stacked table core against the per-spec route it replaced
# ---------------------------------------------------------------------------

TABLES = ("u1_given_sq", "x1_given_u1sq", "x2_given_q", "y_given_x1x2s")
CMIS = {  # name -> (a, b, given) of the four table CMIs behind the caps
    "leak": ((2,), (1,), (0,)),
    "c1": ((2,), (5,), (4, 0)),
    "c2": ((4,), (5,), (2, 0)),
    "c12": ((2, 4), (5,), (0,)),
}


def per_spec_route(spec):
    """The one-spec route the stacked core replaced, spelled out.

    One einsum, ``JointTable``'s checks and renormalisation, and four CMIs
    from H(AC) + H(BC) - H(ABC) - H(C), each entropy an ``fsum`` of
    -p log2 p over the marginal's entries.  Returns (joint mass, CMIs, pentagon).
    """
    mass = np.einsum(
        "q,s,squ,usqa,qb,absy->qsuaby",
        spec.q_dist.atoms, spec.s_dist.atoms, spec.u1_given_sq,
        spec.x1_given_u1sq, spec.x2_given_q, spec.y_given_x1x2s,
        optimize=True,
    )
    assert np.isfinite(mass).all() and not (mass < -PROB_TOL).any()
    mass = np.clip(mass, 0.0, None)
    total = math.fsum(mass.reshape(-1).tolist())
    assert abs(total - 1.0) <= PROB_TOL
    if total != 1.0:
        mass = mass / total

    def h(keep):
        keep = sorted(set(keep))
        drop = tuple(i for i in range(mass.ndim) if i not in keep)
        marginal = mass.sum(axis=drop) if drop else mass
        return math.fsum(-p * math.log2(p) if p > 0.0 else 0.0 for p in marginal.reshape(-1).tolist())

    def cmi(a, b, given):
        value = h(a + given) + h(b + given) - h(a + b + given) - (h(given) if given else 0.0)
        return 0.0 if -1e-9 < value < 0.0 else value

    cmis = {name: cmi(*args) for name, args in CMIS.items()}
    leak = cmis["leak"]
    pentagon = RatePentagon(cmis["c1"] - leak, cmis["c2"], cmis["c12"] - leak)
    return mass, cmis, pentagon


def random_spec(rng, sizes, zero_share=0.3):
    """A valid spec with the given alphabets; about ``zero_share`` of the
    conditional entries are exact zeros (every row keeps one nonzero entry)."""
    nq, ns, nu, nx1, nx2, ny = sizes

    def rows(*shape):
        table = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        zero = rng.random(table.shape) < zero_share
        zero[..., 0] &= ~zero[..., 1:].all(axis=-1)
        table[zero] = 0.0
        return table / table.sum(axis=-1, keepdims=True)

    return DmChannelSpec(
        q_dist=Pmf(rows(nq)),
        s_dist=Pmf(rows(ns)),
        u1_given_sq=rows(ns, nq, nu),
        x1_given_u1sq=rows(nu, ns, nq, nx1),
        x2_given_q=rows(nq, nx2),
        y_given_x1x2s=rows(nx1, nx2, ns, ny),
    )


alphabets = st.tuples(*(st.integers(1, 3) for _ in range(6)))


class TestStackedCore:
    @given(alphabets, st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_core_equals_per_spec_route(self, sizes, k, seed):
        rng = np.random.default_rng(seed)
        specs = [random_spec(rng, sizes) for _ in range(k)]
        routes = [per_spec_route(spec) for spec in specs]
        assert inner_bound_pentagons(specs) == [pentagon for _, _, pentagon in routes]
        for spec, (mass, cmis, pentagon) in zip(specs, routes):
            assert inner_bound_pentagon(spec) == pentagon
            t = induced_joint(spec)
            assert np.array_equal(t.mass, mass)
            assert {n: conditional_mutual_information(t, *args) for n, args in CMIS.items()} == cmis

    def test_oracle_stack_equals_per_spec_route(self):
        m = BinaryMacParams(0.1, 0.4, 0.2)
        specs = [induced_dm_spec(m, d) for d in feasible_grid(m, 41)]
        assert len(specs) == 66
        assert inner_bound_pentagons(specs) == [per_spec_route(s)[2] for s in specs]

    def test_one_invalid_spec_raises_its_own_error(self):
        m = BinaryMacParams(0.1, 0.4, 0.2)
        good = induced_dm_spec(m, BinaryDpcParams(0.1, 0.9))
        broken = good.u1_given_sq.copy()
        broken[1, 0] = [0.49, 0.49]
        bad = replace(good, u1_given_sq=broken)
        with pytest.raises(ValueError) as alone:
            induced_joint(bad)
        assert str(alone.value) == "invalid channel spec at u1_given_sq[1][0]: row sums to 0.98, not 1"
        with pytest.raises(ValueError) as stacked:
            inner_bound_pentagons([good, bad, good])
        assert str(stacked.value) == str(alone.value)
        worse = replace(good, x2_given_q=np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError) as first:
            inner_bound_pentagons([good, worse, bad])
        assert str(first.value) == "invalid channel spec at x2_given_q[0]: row sums to 1.4, not 1"

    def test_unequal_alphabets_raise(self):
        binary = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        with pytest.raises(ValueError, match="equal alphabets"):
            inner_bound_pentagons([binary, stateless_mac_spec()])
        with pytest.raises(ValueError, match="equal alphabets"):
            inner_bound_pentagons([point_spec(), binary])

    def test_empty_stack_gives_no_pentagons(self):
        assert inner_bound_pentagons([]) == []

    def test_tables_are_read_only_copies(self):
        y = stateless_mac_spec().y_given_x1x2s.copy()
        spec = replace(stateless_mac_spec(), y_given_x1x2s=y)
        y[0, 0, 0] = [0.5, 0.5]  # the caller's array, not the spec's
        assert spec.y_given_x1x2s[0, 0, 0].tolist() == [1.0, 0.0]
        assert validate_spec(spec) == []
        with pytest.raises(ValueError, match="read-only"):
            spec.y_given_x1x2s[0, 0, 0, 0] = 0.5

    def test_each_spec_is_diagnosed_once(self, monkeypatch):
        calls = []
        real = dm_eval._diagnose
        monkeypatch.setattr(dm_eval, "_diagnose", lambda spec: calls.append(spec) or real(spec))
        spec = stateless_mac_spec()
        first = validate_spec(spec)
        inner_bound_pentagon(spec)
        induced_joint(spec)
        assert validate_spec(spec) == first
        assert calls == [spec]


# ---------------------------------------------------------------------------
# _check_rows screens rows as one array; the loop it replaced is the reference
# ---------------------------------------------------------------------------


def loop_check_rows(arr, name):
    """The per-row loop ``_check_rows`` replaced, with its non-finite rule added."""
    out = []
    rows = arr.reshape(-1, arr.shape[-1])
    for flat_i, row in enumerate(rows):
        idx = np.unravel_index(flat_i, arr.shape[:-1]) if arr.ndim > 1 else ()
        loc = name + "".join(f"[{i}]" for i in idx)
        bad = [j for j, v in enumerate(row.tolist()) if not math.isfinite(v)]
        if bad:
            message = f"entry {bad[0]} is {float(row[bad[0]])!r}, not finite"
            out.append(dm_eval.Diagnostic("error", loc, message))
            continue
        if np.any(row < -PROB_TOL):
            out.append(dm_eval.Diagnostic("error", loc, f"negative probability {float(row.min())!r}"))
        total = float(row.sum())
        if abs(total - 1.0) > PROB_TOL:
            out.append(dm_eval.Diagnostic("error", loc, f"row sums to {total!r}, not 1"))
    return out


def corrupt(rng, table, kind):
    """``table`` with one malformation of the spec_eval benchmark's kinds.

    nan / inf / -inf / negative replace one entry (negative keeps the row
    sum at 1); shape drops or repeats a leading slice; missing zeroes one
    entry, so its row loses that mass.
    """
    table = table.copy()
    idx = tuple(int(rng.integers(n)) for n in table.shape)
    row = table[idx[:-1]]
    if kind == "nan":
        row[idx[-1]] = math.nan
    elif kind in ("inf", "-inf"):
        row[idx[-1]] = float(kind)
    elif kind == "negative":
        delta = row[idx[-1]] + 0.25
        row[idx[-1]] -= delta
        row[(idx[-1] + 1) % len(row)] += delta
    elif kind == "missing":
        row[idx[-1]] = 0.0
    else:  # shape
        table = table[:-1] if len(table) > 1 else np.concatenate([table, table])
    return table


class TestCheckRows:
    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "negative", "shape", "missing"])
    def test_diagnostics_equal_the_row_loop(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(25):
            sizes = tuple(int(n) for n in rng.integers(1, 5, size=6))
            spec = random_spec(rng, sizes, zero_share=0.2)
            for name in TABLES:
                table = getattr(spec, name)
                for bad in (corrupt(rng, table, kind), corrupt(rng, corrupt(rng, table, kind), kind)):
                    out = []
                    dm_eval._check_rows(bad, name, out)
                    assert out == loop_check_rows(bad, name)

    def test_every_row_flagged_in_order(self):
        table = np.full((2, 3, 2), -0.5)
        out = []
        dm_eval._check_rows(table, "x2_given_q", out)
        assert out == loop_check_rows(table, "x2_given_q")
        assert [d.location for d in out[:4]] == ["x2_given_q[0][0]"] * 2 + ["x2_given_q[0][1]"] * 2
        assert len(out) == 12

    def test_mixed_infinities_in_one_row_raise_no_warning(self):
        table = np.array([[0.5, 0.5], [math.inf, -math.inf]])
        out = []
        dm_eval._check_rows(table, "x2_given_q", out)  # RuntimeWarnings fail the tests
        assert out == [dm_eval.Diagnostic("error", "x2_given_q[1]", "entry 0 is inf, not finite")]


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_named_by_validate_spec_and_inner_bound_pentagon(self, bad):
        spec = induced_dm_spec(BinaryMacParams(0.1, 0.4, 0.2), BinaryDpcParams(0.1, 0.9))
        table = spec.u1_given_sq.copy()
        table[0, 0, 1] = bad
        broken = replace(spec, u1_given_sq=table)
        message = f"entry 1 is {bad!r}, not finite"
        assert validate_spec(broken) == [dm_eval.Diagnostic("error", "u1_given_sq[0][0]", message)]
        with pytest.raises(ValueError) as err:
            inner_bound_pentagon(broken)
        assert str(err.value) == f"invalid channel spec at u1_given_sq[0][0]: {message}"

    def test_every_table_and_row_is_screened(self):
        spec = stateless_mac_spec()
        for name in TABLES:
            table = getattr(spec, name).copy()
            table.reshape(-1, table.shape[-1])[-1, -1] = math.nan
            errors = validate_spec(replace(spec, **{name: table}))
            last_row = name + "".join(f"[{n - 1}]" for n in table.shape[:-1])
            assert [(d.level, d.location) for d in errors] == [("error", last_row)]
