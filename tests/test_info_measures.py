import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macregion.info_measures import (
    JointTable,
    Pmf,
    _checked_tables,
    binary_convolve,
    binary_entropy,
    conditional_mutual_information,
    entropy,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def hb_oracle(p: float) -> float:
    # direct evaluation of the defining formula, independent of the package
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class TestBinaryEntropy:
    def test_peak_and_endpoints(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-12)
        assert binary_entropy(0.2) == pytest.approx(hb_oracle(0.2), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        # within slack: clamped, not an error
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    @given(probs)
    def test_symmetry(self, p):
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-12

    def test_symmetry_dense_grid(self):
        for p in np.linspace(0.0, 1.0, 2001):
            assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-12


class TestBinaryConvolve:
    def test_identity_element(self):
        for x in (0.0, 0.3, 0.77, 1.0):
            assert binary_convolve(x, 0.0) == x

    def test_absorbing_element(self):
        for x in (0.0, 0.3, 0.77, 1.0):
            assert binary_convolve(x, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_hand_arithmetic(self):
        # 0.4*0.74 + 0.26*0.6
        assert binary_convolve(0.4, 0.26) == pytest.approx(0.452, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_convolve(1.2, 0.5)
        with pytest.raises(ValueError):
            binary_convolve(0.5, -0.2)

    @given(probs, probs)
    def test_commutative_and_in_range(self, x, y):
        assert binary_convolve(x, y) == binary_convolve(y, x)
        assert -1e-15 <= binary_convolve(x, y) <= 1.0 + 1e-15

    @given(probs, probs)
    def test_contracts_toward_half(self, x, y):
        assert abs(binary_convolve(x, y) - 0.5) <= abs(x - 0.5) + 1e-12


class TestPmfAndEntropy:
    def test_uniform(self):
        assert entropy(Pmf([0.25] * 4)) == 2.0

    def test_point_mass(self):
        assert entropy(Pmf([0.0, 1.0, 0.0])) == 0.0

    def test_dyadic(self):
        assert entropy(Pmf([0.5, 0.25, 0.25])) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Pmf([0.49, 0.49])  # sums to 0.98
        with pytest.raises(ValueError):
            Pmf([1.2, -0.2])
        with pytest.raises(ValueError):
            Pmf([])

    def test_negative_atom_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as err:
            Pmf([1.1, -0.1])
        assert str(err.value) == "negative atom in pmf: -0.1"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_atom_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Pmf([bad, 1.0])

    def test_renormalizes_within_slack(self):
        p = Pmf([0.5, 0.5 + 1e-13])
        assert math.fsum(p.atoms.tolist()) == pytest.approx(1.0, abs=1e-15)

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=8))
    def test_entropy_at_most_log_alphabet(self, weights):
        total = sum(weights)
        p = Pmf([w / total for w in weights])
        assert -1e-12 <= entropy(p) <= math.log2(len(weights)) + 1e-12


def random_table(rng, shape):
    mass = rng.random(shape) + 1e-3
    return JointTable(mass / mass.sum())


class TestJointTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointTable([[0.5, 0.4]])  # mass 0.9
        with pytest.raises(ValueError):
            JointTable([[0.6, 0.6], [-0.1, -0.1]])

    @pytest.mark.parametrize(
        "mass",
        [1.0 + 4e-13, [[0.25, 0.25], [0.25, 0.25 + 4e-13]], np.full((3, 2), (1.0 + 6e-13) / 6.0).T],
    )
    def test_renormalises_within_slack_as_one_division(self, mass):
        arr = np.asarray(mass, dtype=float)
        total = math.fsum(arr.reshape(-1).tolist())
        assert total != 1.0
        expect = arr / total  # same values and memory layout: marginals sum in memory order
        t = JointTable(arr)
        assert np.array_equal(t.mass, expect) and t.mass.strides == expect.strides
        assert not t.mass.flags.writeable

    def test_stack_raises_the_first_failing_tables_error(self):
        good = np.full((2, 2), 0.25)
        short = np.full((2, 2), 0.2)
        nan = good.copy()
        nan[1, 0] = math.nan
        with pytest.raises(ValueError) as alone:
            JointTable(short)
        with pytest.raises(ValueError) as stacked:
            _checked_tables(np.stack([good, short, nan]))
        assert str(stacked.value) == str(alone.value) == "joint table mass is 0.8, not 1"

    def test_negative_mass_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as err:
            JointTable([[0.6, 0.5], [-0.1, 0.0]])
        assert str(err.value) == "negative mass in joint table: -0.1"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mass(self, bad):
        with pytest.raises(ValueError, match=r"non-finite mass .* at index \(0, 1\)"):
            JointTable([[0.5, bad], [0.25, 0.25]])

    def test_marginal_orders(self):
        t = random_table(np.random.default_rng(0), (2, 3, 2))
        np.testing.assert_allclose(t.marginal((0,)).sum(), 1.0, atol=1e-12)
        assert t.marginal((2, 0)).shape == (2, 2)


class TestConditionalMutualInformation:
    def test_independent_given_condition(self):
        rng = np.random.default_rng(1)
        pc = rng.dirichlet(np.ones(3))
        pa_c = rng.dirichlet(np.ones(2), size=3)  # [c, a]
        pb_c = rng.dirichlet(np.ones(2), size=3)
        mass = np.einsum("c,ca,cb->abc", pc, pa_c, pb_c)
        t = JointTable(mass)
        assert conditional_mutual_information(t, 0, 1, (2,)) <= 1e-12

    def test_perfect_correlation(self):
        mass = np.zeros((2, 2, 1))
        mass[0, 0, 0] = 0.5
        mass[1, 1, 0] = 0.5
        t = JointTable(mass)
        assert conditional_mutual_information(t, 0, 1, (2,)) == pytest.approx(1.0, abs=1e-15)

    def test_binary_state_coupling(self):
        # S ~ Bernoulli(0.2); U1 = X1 xor S with P(X1=1|S=0)=0.1, P(X1=0|S=1)=0.9
        q, a10, a01 = 0.2, 0.1, 0.9
        mass = np.array(
            [
                [(1 - q) * (1 - a10), (1 - q) * a10],
                [q * (1 - a01), q * a01],
            ]
        )
        t = JointTable(mass)
        got = conditional_mutual_information(t, 0, 1)
        # brute-force sum over the joint as an independent oracle
        ps = mass.sum(axis=1)
        pu = mass.sum(axis=0)
        expect = math.fsum(
            mass[s, u] * math.log2(mass[s, u] / (ps[s] * pu[u]))
            for s in range(2)
            for u in range(2)
            if mass[s, u] > 0
        )
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.3577507789033366, abs=1e-9)

    def test_index_errors(self):
        t = random_table(np.random.default_rng(2), (2, 2, 2))
        with pytest.raises(IndexError):
            conditional_mutual_information(t, 0, 0)
        with pytest.raises(IndexError):
            conditional_mutual_information(t, 0, 5)
        with pytest.raises(IndexError):
            conditional_mutual_information(t, 0, 1, (1,))

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_nonnegative_on_random_tables(self, seed):
        t = random_table(np.random.default_rng(seed), (2, 3, 2))
        assert conditional_mutual_information(t, 0, 1, (2,)) >= 0.0

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_chain_rule(self, seed):
        t = random_table(np.random.default_rng(seed), (2, 2, 3, 2))
        lhs = conditional_mutual_information(t, (0, 1), 2, (3,))
        rhs = conditional_mutual_information(t, 0, 2, (3,)) + conditional_mutual_information(
            t, 1, 2, (0, 3)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)
