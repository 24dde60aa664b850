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
    union_cap_blocks,
    union_caps,
)

_TOL = 1e-12

#: Default alpha scan window for finite-variance sweeps.  It covers the Costa
#: scaling but not every feasible alpha: at fig5's Q = 1 (P1 = 15, P2 = 50,
#: N = 60, rho = 0) ``feasible_alpha_interval`` is about [-1.544, 1.944], which
#: the window truncates (ROADMAP item 3 tracks the sweep over the exact interval).
ALPHA_SPAN = (-0.5, 2.0)


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


def _gaussian_cmi(cov: np.ndarray, a: tuple[int, ...], b: tuple[int, ...],
                  given: tuple[int, ...] = ()) -> float:
    """I(A; B | C) in bits for jointly Gaussian variables, via determinants."""

    def logdet(idx: tuple[int, ...]) -> float:
        if not idx:
            return 0.0
        sign, val = np.linalg.slogdet(cov[np.ix_(idx, idx)])
        if sign <= 0:
            raise ValueError("singular covariance block in mutual-information ratio")
        return val

    nats = logdet(a + given) + logdet(b + given) - logdet(given) - logdet(a + b + given)
    return 0.5 * nats / math.log(2.0)


def rates_from_covariance(m: GaussianMacParams, g: GdpcParams) -> RateTriple:
    """GDPC caps evaluated from the joint covariance of (S, X1, U1, X2, Y).

    Independent route used to cross-check ``gdpc_rates``: builds the 5x5
    covariance with cov(X1, S) = rho*sqrt(P1*Q), U1 = X1 + alpha*S and
    Y = X1 + X2 + S + Z, then forms

        r1 = I(U1; Y | X2) - I(U1; S)
        r2 = I(X2; Y | U1)
        r3 = I(U1, X2; Y) - I(U1; S)

    as Gaussian entropy determinant ratios.  Requires all variances positive.
    """
    _check_rho(g.rho)
    if m.Q <= 0.0:
        raise ValueError("covariance route needs Q > 0 (state must have variance)")
    rho, alpha = g.rho, g.alpha
    p1, p2, q, n = m.P1, m.P2, m.Q, m.N
    cross = rho * math.sqrt(p1 * q)
    var_u = p1 + alpha * alpha * q + 2.0 * alpha * cross
    cov_us = cross + alpha * q
    cov_uy = p1 + alpha * q + (1.0 + alpha) * cross
    # Order: S, X1, U1, X2, Y
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
    s, u1, x2, y = (0,), (2,), (3,), (4,)
    leak = _gaussian_cmi(cov, u1, s)
    r1 = _gaussian_cmi(cov, u1, y, x2) - leak
    r2 = _gaussian_cmi(cov, x2, y, u1)
    r3 = _gaussian_cmi(cov, u1 + x2, y) - leak
    return RateTriple(r1, r2, r3)


def feasible_alpha_interval(
    m: GaussianMacParams,
    rho: float,
    scan: tuple[float, float] = (-2.0, 3.0),
    scan_points: int = 1201,
    resolution: float = 1e-9,
) -> list[tuple[float, float]]:
    """Maximal alpha sub-intervals where all three caps are nonnegative.

    Located numerically: the sign of min(r1, r2, r3) is sampled over the scan
    window and each change is bisected down to ``resolution``.  r2 is never
    negative, so interval endpoints are roots of r1 (or r3).  May be empty;
    intervals are clipped to the scan window.
    """
    _check_rho(rho)

    def worst(alpha: float) -> float:
        return min(gdpc_rates(m, GdpcParams(rho, alpha)))

    def bisect(lo: float, hi: float) -> float:
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
    intervals: list[tuple[float, float]] = []
    start: float | None = xs[0] if fs[0] >= 0.0 else None
    for i in range(len(xs) - 1):
        if fs[i] < 0.0 <= fs[i + 1]:
            start = bisect(float(xs[i]), float(xs[i + 1]))
        elif fs[i] >= 0.0 > fs[i + 1]:
            intervals.append((start, bisect(float(xs[i]), float(xs[i + 1]))))
            start = None
    if start is not None:
        intervals.append((start, float(xs[-1])))
    return intervals


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


def _gdpc_kernel(m: GaussianMacParams, rho, alpha):
    """GDPC caps on broadcast (rho, alpha) arrays, kept where r1, r3 >= 0.

    Returns the feasibility mask over the broadcast grid and r1, r2, r3 at its
    True entries (row-major order).  Each equals ``gdpc_rates`` at that point
    bit for bit: the same operations in the same order, with (1 - alpha)^2 and
    the logarithms taken per element through the C library.  A cap is
    nonnegative exactly when its log argument is at least 1, so logarithms are
    taken at feasible points only.  |rho| < 1 is the caller's to ensure.
    """
    rho = np.asarray(rho, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    c = m.P1 * (1.0 - rho * rho)
    cross = rho * math.sqrt(m.P1 * m.Q)
    state = c * m.Q * map_floats(_square, 1.0 - alpha)
    d = m.P1 + alpha * alpha * m.Q + 2.0 * alpha * cross
    b = state + m.N * d
    arg1 = c * (m.P1 + m.Q + 2.0 * cross + m.N) / b
    arg3 = c * (m.P1 + m.P2 + m.Q + 2.0 * cross + m.N) / b
    feasible = (arg1 >= 1.0) & (arg3 >= 1.0)
    r1 = 0.5 * map_floats(math.log2, arg1[feasible])
    r2 = 0.5 * map_floats(math.log2, 1.0 + m.P2 / (m.N + state[feasible] / d[feasible]))
    r3 = 0.5 * map_floats(math.log2, arg3[feasible])
    return feasible, r1, r2, r3


def _gdpc_union(m: GaussianMacParams, rhos: Sequence[float], alphas) -> RegionPolygon:
    """Union of the feasible (r1, r3 >= 0) GDPC pentagons; the origin if none.

    The grid is evaluated a block of whole alpha columns at a time, so each
    (1 - alpha)^2 is taken once.
    """
    rhos = np.array(rhos, dtype=float)[:, None]
    alphas = np.asarray(alphas, dtype=float)
    step = max(1, BLOCK_POINTS // max(1, len(rhos)))
    return union_cap_blocks(
        _gdpc_kernel(m, rhos, alphas[j : j + step])[1:] for j in range(0, alphas.size, step)
    )


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
    if alpha_steps < 2:
        raise ValueError("alpha_steps must be >= 2")
    alphas = np.linspace(ALPHA_SPAN[0], ALPHA_SPAN[1], alpha_steps)
    return _gdpc_union(m, _rho_grid(rho_steps, explore_positive_rho), alphas)


def dpc_only_region(m: GaussianMacParams, alpha_steps: int = 81) -> RegionPolygon:
    """Inner bound achieved without state cancellation (rho = 0 only)."""
    alphas = np.linspace(ALPHA_SPAN[0], ALPHA_SPAN[1], alpha_steps)
    return _gdpc_union(m, [0.0], alphas)


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

    with c = P1 (1 - rho^2); r2 = 0 at alpha = 0.  alpha must lie in
    [0, 2c/(c+N)], where r1 is nonnegative.
    """
    _check_rho(g.rho)
    alpha = g.alpha
    upper = asymptotic_alpha_max(m, g.rho)
    if alpha < -_TOL or alpha > upper + _TOL:
        raise ValueError(f"alpha={alpha!r} outside the feasible range [0, {upper!r}]")
    c = m.P1 * (1.0 - g.rho * g.rho)
    r1 = 0.5 * math.log2(c / (c * (1.0 - alpha) ** 2 + alpha * alpha * m.N))
    if alpha == 0.0:
        r2 = 0.0
    else:
        r2 = 0.5 * math.log2(
            1.0 + m.P2 / (m.N + c * (1.0 - alpha) ** 2 / (alpha * alpha))
        )
    return RateTriple(r1, r2, r1)


def _asymptotic_caps(m: GaussianMacParams, rho, alpha):
    """(r1, r2) of ``asymptotic_rates`` on broadcast (rho, alpha) arrays, bit for bit.

    alpha must lie in each rho's feasible range.  r2 = 0 at alpha = 0, and also
    where alpha * alpha underflows to 0 (its limit there; the scalar form
    divides by zero).
    """
    rho, alpha = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(alpha, dtype=float))
    c = m.P1 * (1.0 - rho * rho)
    sq = map_floats(_square, 1.0 - alpha)
    a2 = alpha * alpha
    r1 = 0.5 * map_floats(math.log2, c / (c * sq + a2 * m.N))
    r2 = np.zeros(alpha.shape)
    on = a2 != 0.0
    r2[on] = 0.5 * map_floats(math.log2, 1.0 + m.P2 / (m.N + c[on] * sq[on] / a2[on]))
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


def _intercept_max(
    m: GaussianMacParams, rhos: Sequence[float], alphas: Sequence[float]
) -> tuple[float, float, float]:
    """Best (value, rho, alpha) of min(r2, r3) subject to r1 >= 0 and r3 >= 0.

    Among the grid points (rho-major) with the largest positive value the
    first wins; (0.0, 0.0, 0.0) when no feasible point has a positive value.
    """
    rhos = np.array([r for r in rhos if abs(r) < 1.0], dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    feasible, _, r2, r3 = _gdpc_kernel(m, rhos[:, None], alphas)
    value = np.where(r3 < r2, r3, r2)  # min(r2, r3)
    if not value.size or not value.max() > 0.0:
        return (0.0, 0.0, 0.0)
    k = int(np.argmax(value))  # first maximum
    i, j = np.unravel_index(np.flatnonzero(feasible)[k], feasible.shape)
    return (float(value[k]), float(rhos[i]), float(alphas[j]))


def r2_max_curve(
    m: GaussianMacParams,
    state_variances: Sequence[float],
    rho_steps: int = 41,
    alpha_steps: int = 161,
) -> list[tuple[float, float]]:
    """Largest R2 at R1 = 0 versus the state variance Q.

    For each Q the grid search maximizes the pentagon's R2-axis intercept
    min(r2, r3) over feasible (rho, alpha), then refines once around the
    best coarse point.  Q values must be positive; P1, P2, N come from ``m``.
    """
    for q in state_variances:
        if not q > 0.0:
            raise ValueError(f"state variances must be positive, got {q!r}")
    rhos = _rho_grid(rho_steps, explore_positive_rho=False)
    alphas = np.linspace(ALPHA_SPAN[0], ALPHA_SPAN[1], alpha_steps)
    d_rho = 1.0 / (rho_steps - 1)
    d_alpha = (ALPHA_SPAN[1] - ALPHA_SPAN[0]) / (alpha_steps - 1)

    def solve(q: float) -> tuple[float, float]:
        mq = replace(m, Q=float(q))
        value, rho0, alpha0 = _intercept_max(mq, rhos, alphas)
        fine_rhos = np.clip(
            np.linspace(rho0 - d_rho, rho0 + d_rho, rho_steps), -1.0 + 1e-9, 0.0
        )
        fine_alphas = np.clip(
            np.linspace(alpha0 - d_alpha, alpha0 + d_alpha, alpha_steps),
            ALPHA_SPAN[0],
            ALPHA_SPAN[1],
        )
        refined, _, _ = _intercept_max(mq, [float(r) for r in fine_rhos], fine_alphas)
        return float(q), max(value, refined)

    return [solve(q) for q in state_variances]


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
