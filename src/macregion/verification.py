"""Cross-checks between independent computation routes.

Each suite pits a closed form against an independently coded route (exact
table evaluation, covariance determinants, or a large-variance limit) and
reports the worst observed deviation against a fixed threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binary_mac, dm_eval, gaussian_mac
from .region_geometry import directed_hausdorff, pentagon_vertices

#: Reference parameter sets exercised by the suites (also the CLI presets).
BINARY_REFERENCE = binary_mac.BinaryMacParams(p1=0.1, p2=0.4, q=0.2)
GAUSSIAN_REFERENCE = gaussian_mac.GaussianMacParams(P1=15.0, P2=50.0, Q=20.0, N=60.0)
ASYMPTOTIC_REFERENCE = gaussian_mac.GaussianMacParams(P1=120.0, P2=50.0, Q=0.0, N=60.0)

#: Q value standing in for "arbitrarily large state variance".
LIMIT_Q = 1e10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"[{status}] {self.name}: max deviation {self.measured:.3e}"
            f" (threshold {self.threshold:.1e})"
        )
        if self.detail:
            out += f" - {self.detail}"
        return out


def binary_oracle_suite(grid_steps: int = 41) -> list[CheckResult]:
    """Closed-form binary pentagons vs exact joint-table evaluation.

    The table route is evaluated on all feasible grid points as one stack;
    the scalar ``inner_pentagon`` it checks is called point by point.
    """
    m = BINARY_REFERENCE
    grid = binary_mac.feasible_grid(m, grid_steps)
    tables = dm_eval.inner_bound_pentagons([binary_mac.induced_dm_spec(m, d) for d in grid])
    worst = 0.0
    for d, table in zip(grid, tables):
        closed = binary_mac.inner_pentagon(m, d)
        worst = max(
            worst,
            abs(closed.c1 - table.c1),
            abs(closed.c2 - table.c2),
            abs(closed.c12 - table.c12),
        )
    return [
        CheckResult(
            "binary-oracle",
            worst < 1e-9,
            worst,
            1e-9,
            f"{len(grid)} feasible grid points at (p1, p2, q) = (0.1, 0.4, 0.2)",
        )
    ]


def gaussian_oracle_suite(rho_steps: int = 15, alpha_steps: int = 31) -> list[CheckResult]:
    """Closed-form GDPC caps vs the covariance-determinant route.

    The covariance route is evaluated on the whole (rho, alpha) grid at once;
    the scalar ``gdpc_rates`` it checks is called point by point.
    """
    m = GAUSSIAN_REFERENCE
    rhos, alphas = np.meshgrid(
        np.linspace(-1.0, 0.0, rho_steps + 1)[1:],
        np.linspace(gaussian_mac.ALPHA_SPAN[0], gaussian_mac.ALPHA_SPAN[1], alpha_steps),
        indexing="ij",
    )
    stacked = gaussian_mac._covariance_caps(m, rhos, alphas)
    worst = 0.0
    for rho, alpha, *b in zip(*(v.ravel().tolist() for v in (rhos, alphas, *stacked))):
        a = gaussian_mac.gdpc_rates(m, gaussian_mac.GdpcParams(rho, alpha))
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    return [
        CheckResult(
            "gaussian-oracle",
            worst < 1e-9,
            worst,
            1e-9,
            f"{rho_steps}x{alpha_steps} (rho, alpha) grid at (P1, P2, Q, N) = (15, 50, 20, 60)",
        )
    ]


def asymptotic_limit_suite(rho_steps: int = 14, alpha_steps: int = 31) -> list[CheckResult]:
    """Finite-variance caps at Q = LIMIT_Q vs their closed-form limits."""
    m = GAUSSIAN_REFERENCE
    m_large = gaussian_mac.GaussianMacParams(m.P1, m.P2, LIMIT_Q, m.N)
    worst = 0.0
    identity_gap = 0.0
    rhos = [float(r) for r in np.linspace(-1.0, 0.0, rho_steps + 1)[1:]]
    for rho in rhos:
        upper = gaussian_mac.asymptotic_alpha_max(m, rho)
        for alpha in np.linspace(0.0, upper, alpha_steps):
            g = gaussian_mac.GdpcParams(rho, float(alpha))
            finite = gaussian_mac.gdpc_rates(m_large, g)
            limit = gaussian_mac.asymptotic_rates(m, g)
            worst = max(worst, max(abs(x - y) for x, y in zip(finite, limit)))
            identity_gap = max(identity_gap, abs(limit.r1 - limit.r3))
    return [
        CheckResult(
            "asymptotic-limit",
            worst < 1e-4,
            worst,
            1e-4,
            f"Q = {LIMIT_Q:.0e} against the closed-form limit, "
            f"{rho_steps}x{alpha_steps} grid at (P1, P2, N) = (15, 50, 60)",
        ),
        CheckResult(
            "asymptotic-r1-equals-r3",
            identity_gap == 0.0,
            identity_gap,
            0.0,
            "limit R1 cap and sum cap are the same expression",
        ),
    ]


def containment_suite() -> list[CheckResult]:
    """Inner regions sit inside their outer bounds.

    Each check measures the worst distance of an inner vertex from the outer
    polygon (0 when every vertex lies inside) and passes within ``tol``.
    """
    tol = 1e-9
    checks = [
        (
            "binary-containment",
            binary_mac.inner_region(BINARY_REFERENCE, grid_steps=41),
            binary_mac.outer_region(BINARY_REFERENCE),
            "swept binary inner region inside the informed-decoder bound",
        ),
        (
            "gaussian-containment",
            gaussian_mac.inner_region(GAUSSIAN_REFERENCE, rho_steps=21, alpha_steps=81),
            gaussian_mac.outer_region(GAUSSIAN_REFERENCE),
            "GDPC inner region inside the state-free MAC region",
        ),
        (
            "asymptotic-containment",
            gaussian_mac.asymptotic_inner_region(ASYMPTOTIC_REFERENCE, rho_steps=21, alpha_steps=81),
            gaussian_mac.asymptotic_outer_region(ASYMPTOTIC_REFERENCE),
            "large-variance inner region inside the large-variance outer bound",
        ),
    ]
    results = []
    for name, inner, outer, detail in checks:
        gap = directed_hausdorff(inner, pentagon_vertices(outer))
        results.append(CheckResult(name, gap <= tol, gap, tol, detail))
    return results


SUITES = {
    "binary-oracle": binary_oracle_suite,
    "gaussian-oracle": gaussian_oracle_suite,
    "asymptotic-limit": asymptotic_limit_suite,
    "containment": containment_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or every suite for ``all``."""
    if name == "all":
        out: list[CheckResult] = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise ValueError(f"unknown suite {name!r}; choose one of: {known}")
    return SUITES[name]()


__all__ = [
    "CheckResult",
    "SUITES",
    "run_suite",
    "binary_oracle_suite",
    "gaussian_oracle_suite",
    "asymptotic_limit_suite",
    "containment_suite",
    "BINARY_REFERENCE",
    "GAUSSIAN_REFERENCE",
    "ASYMPTOTIC_REFERENCE",
    "LIMIT_Q",
]
