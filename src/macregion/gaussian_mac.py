"""Rate regions for the additive Gaussian MAC Y = X1 + X2 + S + Z.

The state S ~ N(0, Q) is known non-causally to encoder 1 only; Z ~ N(0, N) is
independent noise, and the inputs carry power constraints P1 and P2.  The
informed encoder uses generalized dirty paper coding (GDPC): the auxiliary is
U1 = X1 + alpha*S with X1 correlated with S at coefficient rho <= 0.  A
negative rho spends power rho^2 * P1 on explicit state cancellation and the
rest on plain DPC.

For a coding pair (rho, alpha) the achievable caps are

    r1 = (1/2) log2( c * (P1 + Q + 2 rho sqrt(P1 Q) + N) / B )
    r2 = (1/2) log2( 1 + P2 / (N + c Q (1-alpha)^2 / D) )
    r3 = (1/2) log2( c * (P1 + P2 + Q + 2 rho sqrt(P1 Q) + N) / B )

    c = P1 (1 - rho^2)
    D = P1 + alpha^2 Q + 2 alpha rho sqrt(P1 Q)
    B = c Q (1 - alpha)^2 + N D

all in bits.  The inner bound is the convex closure of the pentagon union
over feasible (rho, alpha); the outer bound gives the state to the decoder.
In the large-state-variance limit the rates tend to closed forms whose R1 and
sum caps coincide, and a tighter outer bound applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .info_measures import map_floats
from .region_geometry import (
    BLOCK_POINTS,
    RatePentagon,
    RegionPolygon,
    union_caps,
    union_pruned_blocks,
)

_TOL = 1e-12

#: Alpha scan window of the finite-variance region sweeps (``inner_region``,
#: ``dpc_only_region``).  It covers the Costa scaling but not every feasible
#: alpha: at (P1, P2, Q, N) = (15, 50, 1, 60), rho = 0,
#: ``feasible_alpha_interval`` is about [-1.544, 1.944], which the window
#: truncates (ROADMAP item 2 tracks the sweep over the exact interval).
ALPHA_SPAN = (-0.5, 2.0)

#: Largest (P1 + P2 + N)(P1 + P2 + Q + N) the GDPC kernels take (see ``_check_range``).
_TERM_MAX = 1e306


@dataclass(frozen=True)
class GaussianMacParams:
    """Powers (P1, P2), state variance Q, and noise variance N."""

    P1: float
    P2: float
    Q: float
    N: float

    def __post_init__(self):
        for name in ("P1", "P2", "Q", "N"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("P1", "P2", "N"):
            if not float(getattr(self, name)) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.Q < 0.0:
            raise ValueError(f"Q must be nonnegative, got {self.Q!r}")


@dataclass(frozen=True)
class GdpcParams:
    """Correlation rho of (X1, S) and DPC scaling alpha.

    rho is restricted to [-1, 0]; positive correlation never arises in the
    coding scheme.  Pass ``allow_positive_rho=True`` to explore rho in (0, 1)
    separately.
    """

    rho: float
    alpha: float
    allow_positive_rho: bool = False

    def __post_init__(self):
        hi = 1.0 if self.allow_positive_rho else 0.0
        if not -1.0 <= self.rho <= hi:
            raise ValueError(f"rho={self.rho!r} outside [-1, {hi}]")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")


class RateTriple(NamedTuple):
    r1: float
    r2: float
    r3: float


@dataclass(frozen=True)
class GdpcDecomposition:
    """Power split of GDPC into explicit cancellation plus plain DPC."""

    gamma: float  # rho^2
    cancel_power: float  # gamma * P1
    dpc_power: float  # (1 - gamma) * P1
    residual_state_scale: float  # 1 - sqrt(gamma * P1 / Q)


def _check_rho(rho: float) -> None:
    if abs(rho) >= 1.0:
        raise ValueError(
            f"rho={rho!r} is degenerate: full correlation drives the binning "
            f"cost to infinity"
        )


def gdpc_rates(m: GaussianMacParams, g: GdpcParams) -> RateTriple:
    """Raw GDPC rate caps (r1, r2, r3) in bits; may be negative.

    Feasibility (all caps nonnegative) is a separate query; raises for
    |rho| = 1 where the caps diverge to -infinity.
    """
    _check_rho(g.rho)
    rho, alpha = g.rho, g.alpha
    c = m.P1 * (1.0 - rho * rho)
    cross = rho * math.sqrt(m.P1 * m.Q)
    d = m.P1 + alpha * alpha * m.Q + 2.0 * alpha * cross
    b = c * m.Q * (1.0 - alpha) ** 2 + m.N * d
    r1 = 0.5 * math.log2(c * (m.P1 + m.Q + 2.0 * cross + m.N) / b)
    r2 = 0.5 * math.log2(1.0 + m.P2 / (m.N + c * m.Q * (1.0 - alpha) ** 2 / d))
    r3 = 0.5 * math.log2(c * (m.P1 + m.P2 + m.Q + 2.0 * cross + m.N) / b)
    return RateTriple(r1, r2, r3)


def _stacked_logdet(cov: np.ndarray):
    """log det of ``cov``'s principal sub-blocks over a (..., n, n) covariance stack.

    Raises unless every matrix is positive semidefinite, to within
    1e-9 * max(1, its largest |entry|).  Returns ``logdet(idx)``, memoised per
    ordered index tuple: one stacked ``slogdet`` for each distinct tuple, 0.0
    for the empty one; it raises if the block is singular in any matrix.  The
    rows and columns are taken in the tuple's order, as ``np.ix_(idx, idx)``
    takes them; a permuted block factorises to different last bits.
    """
    floor = -1e-9 * np.maximum(1.0, np.abs(cov).max(axis=(-2, -1)))
    if (np.linalg.eigvalsh(cov).min(axis=-1) < floor).any():
        raise ValueError("covariance is not positive semidefinite")
    cache: dict[tuple[int, ...], np.ndarray | float] = {(): 0.0}

    def logdet(idx: tuple[int, ...]):
        if idx not in cache:
            rows = list(idx)
            sign, val = np.linalg.slogdet(cov[..., rows, :][..., :, rows])
            if (sign <= 0).any():
                raise ValueError("singular covariance block in mutual-information ratio")
            cache[idx] = val
        return cache[idx]

    return logdet


def _gaussian_cmi(logdet, a: tuple[int, ...], b: tuple[int, ...],
                  given: tuple[int, ...] = ()):
    """I(A; B | C) in bits for jointly Gaussian variables, via ``logdet`` of their blocks."""
    nats = logdet(a + given) + logdet(b + given) - logdet(given) - logdet(a + b + given)
    return 0.5 * nats / math.log(2.0)


def _covariance_caps(m: GaussianMacParams, rho, alpha):
    """(r1, r2, r3) of ``rates_from_covariance`` on broadcast (rho, alpha) arrays.

    Builds the (..., 5, 5) covariance stack and reads the caps off it with
    one stacked ``eigvalsh`` and one stacked ``slogdet`` per distinct index
    tuple; each entry equals the one-point route bit for bit.  Raises if
    Q <= 0, or if any matrix in the stack is not positive semidefinite or has
    a singular block.  |rho| < 1 is the caller's to ensure.
    """
    rho, alpha = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(alpha, dtype=float))
    if m.Q <= 0.0:
        raise ValueError("covariance route needs Q > 0 (state must have variance)")
    p1, p2, q, n = m.P1, m.P2, m.Q, m.N
    cross = rho * math.sqrt(p1 * q)
    var_u = p1 + alpha * alpha * q + 2.0 * alpha * cross
    cov_us = cross + alpha * q
    cov_uy = p1 + alpha * q + (1.0 + alpha) * cross
    # Order: S, X1, U1, X2, Y
    rows = [
        [q, cross, cov_us, 0.0, q + cross],
        [cross, p1, p1 + alpha * cross, 0.0, p1 + cross],
        [cov_us, p1 + alpha * cross, var_u, 0.0, cov_uy],
        [0.0, 0.0, 0.0, p2, p2],
        [q + cross, p1 + cross, cov_uy, p2, p1 + p2 + q + n + 2.0 * cross],
    ]
    cov = np.empty(rho.shape + (5, 5))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            cov[..., i, j] = entry
    logdet = _stacked_logdet(cov)
    s, u1, x2, y = (0,), (2,), (3,), (4,)
    leak = _gaussian_cmi(logdet, u1, s)
    r1 = _gaussian_cmi(logdet, u1, y, x2) - leak
    r2 = _gaussian_cmi(logdet, x2, y, u1)
    r3 = _gaussian_cmi(logdet, u1 + x2, y) - leak
    return r1, r2, r3


def rates_from_covariance(m: GaussianMacParams, g: GdpcParams) -> RateTriple:
    """GDPC caps evaluated from the joint covariance of (S, X1, U1, X2, Y).

    Independent route used to cross-check ``gdpc_rates``: builds the 5x5
    covariance with cov(X1, S) = rho*sqrt(P1*Q), U1 = X1 + alpha*S and
    Y = X1 + X2 + S + Z, then forms

        r1 = I(U1; Y | X2) - I(U1; S)
        r2 = I(X2; Y | U1)
        r3 = I(U1, X2; Y) - I(U1; S)

    as Gaussian entropy determinant ratios.  Requires all variances positive.
    The one-point call of ``_covariance_caps``.
    """
    _check_rho(g.rho)
    return RateTriple(*(float(r) for r in _covariance_caps(m, g.rho, g.alpha)))


def _alpha_roots(m: GaussianMacParams, rho, noise: float):
    """Roots lo <= hi over a rho array of the quadratic in alpha

        Q (c+n) alpha^2 + 2 (n rho sqrt(P1 Q) - c Q) alpha + n P1 rho^2 - c (P1 + 2 rho sqrt(P1 Q))

    with c = P1 (1 - rho^2) and n = ``noise``.  It is at most 0 exactly where
    c (P1 + Q + 2 rho sqrt(P1 Q) + n) >= c Q (1-alpha)^2 + n D: for n = N where
    r1 >= 0, for n = N + P2 where r3 >= r2.  Its quarter discriminant is
    c^2 Q (P1 + Q + 2 rho sqrt(P1 Q) + n), and the last factor is at least n,
    so for Q > 0 both roots are real; they are taken in the cancellation-free
    form q / a and c0 / q, and are NaN only where rounding leaves nothing to
    take a root of.  Where the alpha^2 coefficient is 0 (Q = 0) the quadratic
    is the constant c0: (-inf, inf) if it is at most 0, else NaN.
    """
    rho = np.asarray(rho, dtype=float)
    c = m.P1 * (1.0 - rho * rho)
    cross = rho * np.sqrt(m.P1 * m.Q)
    a = m.Q * (c + noise)
    b = noise * cross - c * m.Q
    c0 = noise * m.P1 * rho * rho - c * (m.P1 + 2.0 * cross)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = c * np.sqrt(m.Q) * np.sqrt(m.P1 + m.Q + 2.0 * cross + noise)
        q = -(b + np.copysign(root, b))
        first, second = q / a, c0 / q
    double = q == 0.0  # b = 0 and c Q = 0: the double root 0
    lo = np.where(double, 0.0, np.minimum(first, second))
    hi = np.where(double, 0.0, np.maximum(first, second))
    flat = a == 0.0
    lo = np.where(flat, np.where(c0 <= 0.0, -math.inf, math.nan), lo)
    hi = np.where(flat, np.where(c0 <= 0.0, math.inf, math.nan), hi)
    return lo, hi


def feasible_alpha_interval(m: GaussianMacParams, rho: float) -> list[tuple[float, float]]:
    """The alpha interval where all three caps are nonnegative, as a list of at most one.

    r2 is never negative and r1 >= 0 implies r3 >= 0, so the set is where
    r1 >= 0: between the roots of ``_alpha_roots`` with n = N, of which this
    is the one-point call.  For Q > 0 it is never empty.  At Q = 0 the caps do
    not depend on alpha: the interval is (-inf, inf) if they are nonnegative,
    else empty.
    """
    _check_rho(rho)
    lo, hi = _alpha_roots(m, rho, m.N)
    if math.isnan(lo):
        return []
    return [(float(lo), float(hi))]


def _alpha_grid(alpha_steps: int) -> np.ndarray:
    if alpha_steps < 2:
        raise ValueError("alpha_steps must be >= 2")
    return np.linspace(ALPHA_SPAN[0], ALPHA_SPAN[1], alpha_steps)


def _rho_grid(rho_steps: int, explore_positive_rho: bool) -> list[float]:
    if rho_steps < 2:
        raise ValueError("rho_steps must be >= 2")
    hi = 1.0 if explore_positive_rho else 0.0
    values = np.linspace(-1.0, hi, rho_steps)
    return [float(r) for r in values if abs(r) < 1.0]


def _square(v: float) -> float:
    # The scalar closed forms square with ``**``, i.e. the C library's pow,
    # which differs from v * v in the last bit for about 0.1% of doubles.
    return v ** 2


def _gdpc_terms(m: GaussianMacParams, rho, alpha):
    """(c Q (1-alpha)^2, D, r1's and r3's log arguments) on broadcast (rho, alpha) arrays.

    The operations of ``gdpc_rates`` in the same order, with (1 - alpha)^2
    taken per element through the C library; a cap is nonnegative exactly
    when its log argument is at least 1.  |rho| < 1 is the caller's to ensure.
    """
    rho = np.asarray(rho, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    c = m.P1 * (1.0 - rho * rho)
    cross = rho * np.sqrt(m.P1 * m.Q)
    state = c * m.Q * map_floats(_square, 1.0 - alpha)
    d = m.P1 + alpha * alpha * m.Q + 2.0 * alpha * cross
    b = state + m.N * d
    arg1 = c * (m.P1 + m.Q + 2.0 * cross + m.N) / b
    arg3 = c * (m.P1 + m.P2 + m.Q + 2.0 * cross + m.N) / b
    return state, d, arg1, arg3


def _gdpc_log_args(m: GaussianMacParams, rho, alpha):
    """Feasibility mask and the log arguments of r1, r2, r3 at its True entries.

    The mask is over the broadcast (rho, alpha) grid (r1, r3 >= 0: the log
    arguments of r1 and r3 are at least 1); the arguments follow in
    row-major order.  See ``_gdpc_terms``.
    """
    state, d, arg1, arg3 = _gdpc_terms(m, rho, alpha)
    feasible = (arg1 >= 1.0) & (arg3 >= 1.0)
    arg2 = 1.0 + m.P2 / (m.N + state[feasible] / d[feasible])
    return feasible, arg1[feasible], arg2, arg3[feasible]


def _gdpc_kernel(m: GaussianMacParams, rho, alpha):
    """GDPC caps on broadcast (rho, alpha) arrays, kept where r1, r3 >= 0.

    Returns the feasibility mask over the broadcast grid and r1, r2, r3 at its
    True entries (row-major order).  Each equals ``gdpc_rates`` at that point
    bit for bit (see ``_gdpc_terms``); logarithms are taken per element
    through the C library, at feasible points only.
    """
    feasible, *args = _gdpc_log_args(m, rho, alpha)
    return (feasible, *_log_caps(*args))


def _log_caps(*args):
    """0.5 log2 of each log-argument array, per element through the C library."""
    return tuple(0.5 * map_floats(math.log2, a) for a in args)


def _check_range(m: GaussianMacParams) -> None:
    """Raise, naming the largest parameter, where the GDPC rate terms can overflow.

    Every term the sweeps form for alpha in ``ALPHA_SPAN``, and every
    alpha-free term of ``r2_max_curve``'s candidates, is below
    10 (P1 + P2 + N)(P1 + P2 + Q + N): Q only ever multiplies another
    parameter.
    """
    scale = (m.P1 + m.P2 + m.N) * (m.P1 + m.P2 + m.Q + m.N)
    if not scale <= _TERM_MAX:
        name, value = max(zip(("P1", "P2", "Q", "N"), (m.P1, m.P2, m.Q, m.N)), key=lambda t: t[1])
        raise ValueError(
            f"{name}={value!r} is too large: the GDPC rate terms overflow once "
            f"(P1 + P2 + N)(P1 + P2 + Q + N) exceeds {_TERM_MAX!r}"
        )


def _gdpc_union(m: GaussianMacParams, rhos: Sequence[float], alphas) -> RegionPolygon:
    """Union of the feasible (r1, r3 >= 0) GDPC pentagons; the origin if none.

    The grid is evaluated a block of whole alpha columns at a time, so each
    (1 - alpha)^2 is taken once.  ``np.log2`` caps select the pentagons that
    can reach the hull; only those get the exact caps of ``_gdpc_kernel``
    (see ``union_pruned_blocks``).
    """
    _check_range(m)
    rhos = np.array(rhos, dtype=float)[:, None]
    alphas = np.asarray(alphas, dtype=float)
    step = max(1, BLOCK_POINTS // max(1, len(rhos)))

    def estimate(*args):
        with np.errstate(invalid="ignore", divide="ignore"):
            caps = tuple(0.5 * np.log2(a) for a in args)
        return caps, caps

    def blocks():
        for j in range(0, alphas.size, step):
            # An overflow past _check_range (N near the smallest double) gives
            # an infinite cap, which the selection reports.
            with np.errstate(over="ignore", divide="ignore"):
                args = _gdpc_log_args(m, rhos, alphas[j : j + step])[1:]
            yield args

    return union_pruned_blocks(blocks(), estimate, _log_caps)


def inner_region(
    m: GaussianMacParams,
    rho_steps: int = 21,
    alpha_steps: int = 81,
    explore_positive_rho: bool = False,
) -> RegionPolygon:
    """Convex closure of GDPC pentagons over the (rho, alpha) grid.

    The alpha grid spans ``ALPHA_SPAN`` intersected with the feasible set;
    rho = -1 is skipped as degenerate.  ``explore_positive_rho`` extends the
    sweep to positive correlation; keep such results clearly separated from
    the standard region.
    """
    return _gdpc_union(m, _rho_grid(rho_steps, explore_positive_rho), _alpha_grid(alpha_steps))


def dpc_only_region(m: GaussianMacParams, alpha_steps: int = 81) -> RegionPolygon:
    """Inner bound achieved without state cancellation (rho = 0 only)."""
    return _gdpc_union(m, [0.0], _alpha_grid(alpha_steps))


def outer_region(m: GaussianMacParams) -> RatePentagon:
    """Bound from giving the state to the decoder: the state-free MAC region."""
    return RatePentagon(
        0.5 * math.log2(1.0 + m.P1 / m.N),
        0.5 * math.log2(1.0 + m.P2 / m.N),
        0.5 * math.log2(1.0 + (m.P1 + m.P2) / m.N),
    )


def asymptotic_alpha_max(m: GaussianMacParams, rho: float) -> float:
    """Upper end 2c/(c+N) of the feasible alpha range as Q grows unbounded."""
    _check_rho(rho)
    c = m.P1 * (1.0 - rho * rho)
    return 2.0 * c / (c + m.N)


def asymptotic_rates(m: GaussianMacParams, g: GdpcParams) -> RateTriple:
    """Large-state-variance limit of the GDPC caps; the R1 and sum caps coincide.

        r1 = r3 = (1/2) log2( c / (c (1-alpha)^2 + alpha^2 N) )
        r2      = (1/2) log2( 1 + P2 / (N + c (1-alpha)^2 / alpha^2) )

    with c = P1 (1 - rho^2); r2 = 0, its limit, where alpha^2 is 0 (at
    alpha = 0, and where alpha * alpha underflows).  alpha must lie in
    [0, 2c/(c+N)], where r1 is nonnegative.
    """
    _check_rho(g.rho)
    alpha = g.alpha
    upper = asymptotic_alpha_max(m, g.rho)
    if alpha < -_TOL or alpha > upper + _TOL:
        raise ValueError(f"alpha={alpha!r} outside the feasible range [0, {upper!r}]")
    c = m.P1 * (1.0 - g.rho * g.rho)
    r1 = 0.5 * math.log2(c / (c * (1.0 - alpha) ** 2 + alpha * alpha * m.N))
    if alpha * alpha == 0.0:
        r2 = 0.0
    else:
        r2 = 0.5 * math.log2(
            1.0 + m.P2 / (m.N + c * (1.0 - alpha) ** 2 / (alpha * alpha))
        )
    return RateTriple(r1, r2, r1)


def _asymptotic_caps(m: GaussianMacParams, rho, alpha):
    """(r1, r2) of ``asymptotic_rates`` on broadcast (rho, alpha) arrays, bit for bit.

    alpha must lie in each rho's feasible range.  As in the scalar form, r2 = 0
    where alpha * alpha is 0 (it may underflow), and where c (1-alpha)^2 /
    alpha^2 overflows to inf, which a Python float division does silently.
    """
    rho, alpha = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(alpha, dtype=float))
    c = m.P1 * (1.0 - rho * rho)
    sq = map_floats(_square, 1.0 - alpha)
    a2 = alpha * alpha
    r1 = 0.5 * map_floats(math.log2, c / (c * sq + a2 * m.N))
    r2 = np.zeros(alpha.shape)
    on = a2 != 0.0
    with np.errstate(over="ignore"):
        state = c[on] * sq[on] / a2[on]
    r2[on] = 0.5 * map_floats(math.log2, 1.0 + m.P2 / (m.N + state))
    return r1, r2


def asymptotic_inner_region(
    m: GaussianMacParams, rho_steps: int = 21, alpha_steps: int = 81
) -> RegionPolygon:
    """Convex closure of the limit pentagons over the (rho, alpha) grid.

    Each rho sweeps its feasible alpha range endpoint to endpoint; the best
    helper point alpha = min(1, range end) is always included.
    """
    if alpha_steps < 2:
        raise ValueError("alpha_steps must be >= 2")
    rhos, alphas = [], []
    for rho in _rho_grid(rho_steps, explore_positive_rho=False):
        upper = asymptotic_alpha_max(m, rho)
        grid = set(np.linspace(0.0, upper, alpha_steps).tolist())
        grid.add(min(1.0, upper))
        alphas.append(sorted(grid))
        rhos.append(np.full(len(grid), rho))
    r1, r2 = _asymptotic_caps(m, np.concatenate(rhos), np.concatenate(alphas))
    return union_caps(r1, r2, r1)


def asymptotic_outer_region(m: GaussianMacParams) -> RatePentagon:
    """Outer bound as the state variance grows unbounded.

    R2 <= (1/2) log2(1 + P2/N) and R1 + R2 <= (1/2) log2(1 + P1/N); there is
    no separate R1 cap, so c1 = c12.  Tighter than the state-free outer bound
    whenever P2 > 0.
    """
    c12 = 0.5 * math.log2(1.0 + m.P1 / m.N)
    return RatePentagon(c12, 0.5 * math.log2(1.0 + m.P2 / m.N), c12)


def successive_decoding_r1_bound(m: GaussianMacParams, g: GdpcParams) -> float:
    """R1 cap when the informed codeword is decoded first (large-Q limit).

    Equals (1/2) log2( c / (c (1-alpha)^2 + alpha^2 (P2+N)) ) clamped at 0,
    for alpha in [0, 2c/(c+P2+N)]; treating the uninformed signal as noise
    makes this at most the joint-decoding cap at the same (rho, alpha).
    """
    _check_rho(g.rho)
    c = m.P1 * (1.0 - g.rho * g.rho)
    upper = 2.0 * c / (c + m.P2 + m.N)
    if g.alpha < -_TOL or g.alpha > upper + _TOL:
        raise ValueError(f"alpha={g.alpha!r} outside the feasible range [0, {upper!r}]")
    value = 0.5 * math.log2(
        c / (c * (1.0 - g.alpha) ** 2 + g.alpha * g.alpha * (m.P2 + m.N))
    )
    return max(value, 0.0)


def uninformed_rate_optimum(m: GaussianMacParams) -> tuple[float, float, float]:
    """Analytic maximizer of the uninformed encoder's large-Q rate at R1 = 0.

    Returns (rho*, alpha*, r2_max) with rho* = 0 and
    alpha* = min(1, 2 P1 / (P1 + P2 + N)).  When P1 >= P2 + N the informed
    encoder has power to spare and r2_max = (1/2) log2(1 + P2/N), as if the
    state were absent.
    """
    alpha_star = min(1.0, 2.0 * m.P1 / (m.P1 + m.P2 + m.N))
    r2_max = asymptotic_rates(m, GdpcParams(0.0, alpha_star)).r2
    return 0.0, alpha_star, r2_max


#: Largest |alpha| a candidate may have: (1 - alpha)^2 must stay finite.
_ALPHA_MAX = 2.0**500


class _StateBatch(NamedTuple):
    """``GaussianMacParams`` with Q an array, for kernels batched over state variances."""

    P1: float
    P2: float
    Q: np.ndarray
    N: float


def _intercept_candidates(m: _StateBatch, rhos: np.ndarray) -> np.ndarray:
    """The alphas where max over alpha of min(r2, r3) can lie, per rho; NaN for none.

    ``rhos`` has shape (..., 1) and broadcasts against ``m.Q``; the result
    has 6 along its last axis.  On the feasible interval [lo, hi] of
    ``_alpha_roots`` the maximum is at an end, at a local maximum of r2 or of
    r3 below the other cap, or where r2 = r3.  r2's only local maximum is
    alpha = 1 (its other stationary point is a minimum); r3 peaks where the
    convex c Q (1-alpha)^2 + N D is least, at

        alpha3 = (c Q - N rho sqrt(P1 Q)) / (Q (c + N));

    and r2 = r3 at the roots of ``_alpha_roots`` with n = N + P2.

    The columns are lo, hi, 1, alpha3 and the two crossings.  Feasibility is
    the kernel's r1 >= 0 test, which rounding can set apart from the computed
    interval (by far the most near rho = -1, where c keeps few digits): so 1,
    alpha3 and the crossings are kept even outside [lo, hi], and an end that
    fails the test is stepped inward by 1, 2, 4, ... spacings of
    max(1, |end|), the resolution of the kernel's 1 - alpha, until it passes;
    it is dropped once the step is as wide as the interval (or ``_ALPHA_MAX``).
    """
    lo, hi = _alpha_roots(m, rhos, m.N)
    ends = np.concatenate([lo, hi], axis=-1)
    inward = np.concatenate([np.ones_like(lo), -np.ones_like(hi)], axis=-1)
    width = np.minimum(np.concatenate([hi - lo, hi - lo], axis=-1), _ALPHA_MAX)
    step = np.spacing(np.maximum(1.0, np.abs(ends)))
    pending = np.abs(ends) <= _ALPHA_MAX
    stepped = np.where(pending, ends, math.nan)
    passed = np.zeros(ends.shape, dtype=bool)
    while pending.any():
        ok = _gdpc_terms(m, rhos, stepped)[2] >= 1.0
        passed |= pending & ok
        pending &= ~ok & (step < width)
        stepped[pending] = ends[pending] + inward[pending] * step[pending]
        step = 2.0 * step
    c = m.P1 * (1.0 - rhos * rhos)
    cross = rhos * np.sqrt(m.P1 * m.Q)
    alpha3 = (c * m.Q - m.N * cross) / (m.Q * (c + m.N))
    inner = np.concatenate(
        [np.ones_like(lo), alpha3, *_alpha_roots(m, rhos, m.N + m.P2)], axis=-1)
    inner[~(np.abs(inner) <= _ALPHA_MAX)] = math.nan
    cands = np.concatenate([np.where(passed, stepped, math.nan), inner], axis=-1)
    # D > 0 in exact arithmetic; where it rounds to <= 0 the caps cannot be taken.
    d = m.P1 + cands * cands * m.Q + 2.0 * cands * cross
    return np.where(d > 0.0, cands, math.nan)


def _r2_max_points(m: GaussianMacParams, state_variances: np.ndarray, rho_steps: int):
    """(value, rho, alpha) arrays of the largest min(r2, r3) with r1, r3 >= 0, per Q.

    The alpha is exact per rho (``_intercept_candidates``); rho takes the
    coarse grid of ``rho_steps`` points, then as many again spanning one coarse
    step either side of each Q's best.  Each value is min(r2, r3) of
    ``gdpc_rates`` at its point bit for bit; among equal values the first
    point (rho-major, coarse grid first) wins, and (0.0, 0.0, 0.0) stands for
    no feasible point with a positive value.
    """
    batch = _StateBatch(m.P1, m.P2, np.asarray(state_variances, dtype=float)[:, None, None], m.N)
    rows = np.arange(batch.Q.shape[0])

    def best(rhos: np.ndarray):
        # A candidate far out can overflow the kernel's terms: it reads as infeasible.
        with np.errstate(over="ignore", invalid="ignore"):
            cands = _intercept_candidates(batch, rhos[..., None])
            feasible, _, r2, r3 = _gdpc_kernel(batch, rhos[..., None], cands)
        value = np.full(feasible.shape, -math.inf)
        value[feasible] = np.where(r3 < r2, r3, r2)  # min(r2, r3)
        value = value.reshape(len(rows), -1)
        k = np.argmax(value, axis=1)  # first maximum
        top = value[rows, k]
        found = top > 0.0
        i, j = np.unravel_index(k, cands.shape[1:])
        return (np.where(found, top, 0.0), np.where(found, rhos[rows, i], 0.0),
                np.where(found, cands[rows, i, j], 0.0))

    coarse = np.array(_rho_grid(rho_steps, explore_positive_rho=False))
    coarse = best(np.broadcast_to(coarse, (len(rows), coarse.size)))
    d_rho = 1.0 / (rho_steps - 1)
    fine = best(np.clip(np.linspace(coarse[1] - d_rho, coarse[1] + d_rho, rho_steps, axis=1),
                        -1.0 + 1e-9, 0.0))
    better = fine[0] > coarse[0]
    return tuple(np.where(better, f, c) for f, c in zip(fine, coarse))


def r2_max_curve(
    m: GaussianMacParams,
    state_variances: Sequence[float],
    rho_steps: int = 41,
) -> list[tuple[float, float]]:
    """Largest R2 at R1 = 0 versus the state variance Q.

    For each Q the pentagon's R2-axis intercept min(r2, r3) is maximised over
    feasible (rho, alpha): exactly over alpha, over rho on a grid refined once
    around its best point (``_r2_max_points``).  Q values must be positive and
    there must be at least one; P1, P2, N come from ``m``.
    """
    if not len(state_variances):
        raise ValueError("state variances must not be empty")
    for q in state_variances:
        if not q > 0.0:
            raise ValueError(f"state variances must be positive, got {q!r}")
    qs = [replace(m, Q=float(q)).Q for q in state_variances]  # raises for an infinite Q
    for q in qs:
        _check_range(replace(m, Q=q))
    return list(zip(qs, _r2_max_points(m, np.array(qs), rho_steps)[0].tolist()))


def gdpc_decompose(m: GaussianMacParams, g: GdpcParams) -> GdpcDecomposition:
    """Split GDPC into explicit state cancellation followed by plain DPC.

    A fraction gamma = rho^2 of the informed power cancels the state; the
    remainder runs DPC against the residual state scaled by
    1 - sqrt(gamma P1 / Q).  Undefined for Q = 0.
    """
    if m.Q <= 0.0:
        raise ValueError("decomposition undefined for Q = 0 (no state to cancel)")
    if g.rho > 0.0:
        raise ValueError("decomposition applies to nonpositive rho only")
    gamma = g.rho * g.rho
    cancel = gamma * m.P1
    return GdpcDecomposition(
        gamma=gamma,
        cancel_power=cancel,
        dpc_power=m.P1 - cancel,
        residual_state_scale=1.0 - math.sqrt(gamma * m.P1 / m.Q),
    )


__all__ = [
    "ALPHA_SPAN",
    "GaussianMacParams",
    "GdpcParams",
    "GdpcDecomposition",
    "RateTriple",
    "gdpc_rates",
    "rates_from_covariance",
    "feasible_alpha_interval",
    "inner_region",
    "dpc_only_region",
    "outer_region",
    "asymptotic_alpha_max",
    "asymptotic_rates",
    "asymptotic_inner_region",
    "asymptotic_outer_region",
    "successive_decoding_r1_bound",
    "uninformed_rate_optimum",
    "r2_max_curve",
    "gdpc_decompose",
]
