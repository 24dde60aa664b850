"""Capacity-region bounds for multiple-access channels where only one of two
encoders knows the channel state non-causally.

Covers the discrete-memoryless achievable region, closed forms for the binary
noiseless channel (including its exact capacity under a maximum-entropy
state), and the Gaussian channel under generalized dirty paper coding, with
its large-state-variance limits.  All rates are in bits per channel use.
"""

from .binary_mac import (
    BinaryDpcParams,
    BinaryMacParams,
    InfeasibleParameters,
    capacity_max_entropy_state,
    induced_dm_spec,
    inner_pentagon,
    is_feasible,
    standard_dpc_pentagon,
)
from .binary_mac import inner_region as binary_inner_region
from .binary_mac import outer_region as binary_outer_region
from .dm_eval import (
    Diagnostic,
    DmChannelSpec,
    induced_joint,
    inner_bound_pentagon,
    validate_spec,
)
from .gaussian_mac import (
    GaussianMacParams,
    GdpcDecomposition,
    GdpcParams,
    RateTriple,
    asymptotic_inner_region,
    asymptotic_outer_region,
    asymptotic_rates,
    dpc_only_region,
    feasible_alpha_interval,
    gdpc_decompose,
    gdpc_rates,
    r2_max_curve,
    rates_from_covariance,
    successive_decoding_r1_bound,
    uninformed_rate_optimum,
)
from .gaussian_mac import inner_region as gaussian_inner_region
from .gaussian_mac import outer_region as gaussian_outer_region
from .info_measures import (
    LOG_BASE,
    JointTable,
    Pmf,
    binary_convolve,
    binary_entropy,
    conditional_mutual_information,
    entropy,
)
from .region_geometry import (
    RatePentagon,
    RegionPolygon,
    contains,
    convex_hull_2d,
    hausdorff,
    is_subset,
    max_r2_at,
    pentagon_vertices,
    polygon_area,
    union_caps,
    union_region,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LOG_BASE",
    "Pmf",
    "JointTable",
    "binary_entropy",
    "binary_convolve",
    "entropy",
    "conditional_mutual_information",
    "DmChannelSpec",
    "Diagnostic",
    "validate_spec",
    "induced_joint",
    "inner_bound_pentagon",
    "BinaryMacParams",
    "BinaryDpcParams",
    "InfeasibleParameters",
    "is_feasible",
    "inner_pentagon",
    "standard_dpc_pentagon",
    "binary_inner_region",
    "binary_outer_region",
    "capacity_max_entropy_state",
    "induced_dm_spec",
    "GaussianMacParams",
    "GdpcParams",
    "GdpcDecomposition",
    "RateTriple",
    "gdpc_rates",
    "rates_from_covariance",
    "feasible_alpha_interval",
    "gaussian_inner_region",
    "gaussian_outer_region",
    "dpc_only_region",
    "asymptotic_rates",
    "asymptotic_inner_region",
    "asymptotic_outer_region",
    "successive_decoding_r1_bound",
    "uninformed_rate_optimum",
    "r2_max_curve",
    "gdpc_decompose",
    "RatePentagon",
    "RegionPolygon",
    "pentagon_vertices",
    "convex_hull_2d",
    "union_region",
    "union_caps",
    "contains",
    "is_subset",
    "hausdorff",
    "polygon_area",
    "max_r2_at",
]
