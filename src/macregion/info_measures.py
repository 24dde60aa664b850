"""Finite-alphabet information measures.

All quantities in this package are measured in bits, i.e. every logarithm is
base 2 (``LOG_BASE``).  The convention 0*log(0) = 0 is applied everywhere, by
continuity.

Probability inputs are validated with an absolute slack of ``PROB_TOL``:
values inside the slack are renormalized/clamped, harder violations raise
``ValueError``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Base of all logarithms; rates are bits per channel use.
LOG_BASE = 2

#: Absolute slack for probability validation.
PROB_TOL = 1e-12


def _plogp(p: float) -> float:
    """-p*log2(p) with the 0*log(0) = 0 convention."""
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p)


def map_floats(fn, a) -> np.ndarray:
    """``fn`` applied to each element of ``a`` as a Python float; same shape.

    Array kernels take logarithms and powers this way so that every element
    goes through the same C library call as the scalar closed forms: numpy's
    ``log2`` and ``power`` can round the last bit differently.
    """
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _exact_log2(a: np.ndarray) -> np.ndarray:
    return map_floats(math.log2, a)


def _plogp_array(p: np.ndarray, log2=_exact_log2) -> np.ndarray:
    out = np.zeros(p.shape)
    pos = ~(p <= 0.0)  # _plogp's branch, NaN included
    out[pos] = -p[pos] * log2(p[pos])
    return out


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits.

    Symmetric about 0.5, zero at the endpoints.  Raises ValueError when p is
    outside [0, 1] by more than PROB_TOL.
    """
    if p < -PROB_TOL or p > 1.0 + PROB_TOL:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return _plogp(p) + _plogp(1.0 - p)


def binary_entropy_array(p, log2=_exact_log2) -> np.ndarray:
    """``binary_entropy`` of each element of ``p``, bit for bit.

    ``log2`` takes the logarithms; ``np.log2`` gives the same operations
    with numpy's logarithm, which the sweeps use as an estimate.
    """
    p = np.asarray(p, dtype=float)
    out_of_range = (p < -PROB_TOL) | (p > 1.0 + PROB_TOL)
    if out_of_range.any():
        raise ValueError(f"probability {float(p[out_of_range][0])!r} outside [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    return _plogp_array(p, log2) + _plogp_array(1.0 - p, log2)


def binary_convolve(x: float, y: float) -> float:
    """Probability that the XOR of independent Bernoulli(x), Bernoulli(y) is 1.

    Equals x*(1-y) + y*(1-x); commutative, contracts toward 0.5.
    """
    for v in (x, y):
        if v < -PROB_TOL or v > 1.0 + PROB_TOL:
            raise ValueError(f"probability {v!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    y = min(max(y, 0.0), 1.0)
    return x * (1.0 - y) + y * (1.0 - x)


class Pmf:
    """Probability mass function over a finite alphabet.

    Atoms must be nonnegative and sum to 1 within PROB_TOL; a total within
    the slack is renormalized exactly.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[float]):
        arr = np.asarray(list(atoms), dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a pmf needs at least one atom")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite atom in pmf: {arr.tolist()!r}")
        if np.any(arr < -PROB_TOL):
            raise ValueError(f"negative atom in pmf: {float(arr.min())!r}")
        arr = np.clip(arr, 0.0, None)
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"pmf atoms sum to {total!r}, not 1")
        if total != 1.0:
            arr = arr / total
        self.atoms = arr
        self.atoms.setflags(write=False)

    def __len__(self) -> int:
        return self.atoms.size

    def __getitem__(self, i: int) -> float:
        return float(self.atoms[i])

    def __repr__(self) -> str:
        return f"Pmf({self.atoms.tolist()!r})"


class JointTable:
    """Dense joint distribution over several finite variables.

    ``mass[i0, i1, ...]`` is the probability of the atom with one index per
    variable.  Entries must be nonnegative and total 1 within PROB_TOL.
    """

    __slots__ = ("mass",)

    def __init__(self, mass):
        arr = np.asarray(mass, dtype=float)
        if arr.size == 0:
            raise ValueError("joint table must be non-empty")
        self.mass = _checked_tables(arr[np.newaxis]).reshape(arr.shape)
        self.mass.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mass.shape

    @property
    def num_variables(self) -> int:
        return self.mass.ndim

    def marginal(self, keep: Sequence[int]) -> np.ndarray:
        """Marginal mass over the variables in ``keep`` (original order)."""
        keep = sorted(set(keep))
        drop = tuple(i for i in range(self.mass.ndim) if i not in keep)
        return self.mass.sum(axis=drop) if drop else self.mass

    def __repr__(self) -> str:
        return f"JointTable(shape={self.shape})"


def _checked_tables(stack: np.ndarray) -> np.ndarray:
    """``JointTable``'s checks on each table of a (K, ...) stack of masses.

    Every table must be finite, nonnegative within PROB_TOL and total 1
    within PROB_TOL (an exact ``fsum``).  Returns the stack clamped at zero,
    each table not totalling exactly 1 divided by its total.  The memory
    layout of the stack is kept: numpy sums a marginal in memory order.
    Raises the error the first failing table raises on its own.
    """
    axes = tuple(range(1, stack.ndim))
    finite = np.isfinite(stack).all(axis=axes)
    negative = (stack < -PROB_TOL).any(axis=axes)
    clipped = np.clip(stack, 0.0, None)
    for k, table in enumerate(clipped):
        if not finite[k]:
            bad = stack[k]
            idx = tuple(int(i) for i in np.argwhere(~np.isfinite(bad))[0])
            raise ValueError(f"non-finite mass {float(bad[idx])!r} in joint table at index {idx}")
        if negative[k]:
            raise ValueError(f"negative mass in joint table: {float(stack[k].min())!r}")
        total = math.fsum(table.reshape(-1).tolist())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"joint table mass is {total!r}, not 1")
        if total != 1.0:
            clipped[k] /= total
    return clipped


def _entropies(stack: np.ndarray) -> np.ndarray:
    """Entropy in bits of each table of a (K, ...) stack: one ``fsum`` per table."""
    terms = _plogp_array(stack.reshape(len(stack), -1))
    return np.array([math.fsum(row) for row in terms.tolist()])


def entropy(p) -> float:
    """Shannon entropy in bits of a Pmf, array, or nested sequence."""
    if isinstance(p, Pmf):
        arr = p.atoms
    else:
        arr = np.asarray(p, dtype=float)
    return float(_entropies(arr[np.newaxis])[0])


def _marginal_entropies(stack: np.ndarray):
    """Entropy lookup over a (K, ...) stack of joint tables.

    Returns ``entropy_of(keep)``: the (K,) entropies of each table's marginal
    over the variables in ``keep``, memoised per variable set, so CMIs that
    share a marginal sum it and take its logarithms once.  Each marginal is
    summed table by table, as ``JointTable.marginal`` sums it: with a stack
    axis added, numpy may order a multi-axis sum differently.
    """
    ndim = stack.ndim - 1
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def entropy_of(keep: tuple[int, ...]) -> np.ndarray:
        key = tuple(sorted(set(keep)))
        if key not in cache:
            drop = tuple(i for i in range(ndim) if i not in key)
            cache[key] = _entropies(np.stack([np.add.reduce(t, axis=drop) for t in stack]))
        return cache[key]

    return entropy_of


def _cmi(entropy_of, a: tuple[int, ...], b: tuple[int, ...], given: tuple[int, ...] = ()):
    """I(A; B | C) = H(AC) + H(BC) - H(ABC) - H(C) in bits, from ``entropy_of``.

    Works elementwise on stacked entropies; rounding residue in (-1e-9, 0)
    is clamped to zero.
    """
    h_c = entropy_of(given) if given else 0.0
    value = entropy_of(a + given) + entropy_of(b + given) - entropy_of(a + b + given) - h_c
    return np.where((-1e-9 < value) & (value < 0.0), 0.0, value)


def _as_index_tuple(idx) -> tuple[int, ...]:
    if isinstance(idx, (int, np.integer)):
        return (int(idx),)
    return tuple(int(i) for i in idx)


def conditional_mutual_information(table: JointTable, a, b, given=()) -> float:
    """I(A; B | C) in bits, from exact summation over the joint table.

    ``a`` and ``b`` are variable indices or groups of indices; ``given`` is a
    (possibly empty) collection of conditioning indices.  All indices must be
    distinct and within range.  Computed as H(AC) + H(BC) - H(ABC) - H(C)
    with compensated accumulation; tiny negative rounding residue is clamped
    to zero.
    """
    a_idx = _as_index_tuple(a)
    b_idx = _as_index_tuple(b)
    c_idx = _as_index_tuple(given)
    ndim = table.num_variables
    all_idx = a_idx + b_idx + c_idx
    if len(set(all_idx)) != len(all_idx):
        raise IndexError(f"variable indices must be distinct, got {all_idx}")
    for i in all_idx:
        if not 0 <= i < ndim:
            raise IndexError(f"variable index {i} out of range for {ndim} variables")

    return float(_cmi(_marginal_entropies(table.mass[np.newaxis]), a_idx, b_idx, c_idx)[0])


__all__ = [
    "LOG_BASE",
    "PROB_TOL",
    "Pmf",
    "JointTable",
    "binary_entropy",
    "binary_entropy_array",
    "binary_convolve",
    "map_floats",
    "entropy",
    "conditional_mutual_information",
]
