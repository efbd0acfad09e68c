"""Exact computations on moduli of quiver representations.

Enumerates Harder-Narasimhan strata of the representation variety for a
quiver, dimension vector, and stability parameter; computes the
one-parameter-subgroup weight data of each stratum; and decides the
quantization-window inequality behind cohomology-vanishing and rigidity
certificates.  All arithmetic is exact (integers and fractions).
"""

from .core import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    is_theta_coprime,
    slope,
    subdimension_vectors,
)
from .hn import (
    HNType,
    OneParameterSubgroup,
    codimension,
    codimension_cuts,
    enumerate_hn_types,
    is_strongly_amply_stable,
    one_parameter_subgroup,
    pairing_table,
    validate_hn_type,
)
from .semistability import (
    clear_caches,
    generic_subdimension_vectors,
    has_semistable,
)
from .windows import (
    StratumReport,
    Verdict,
    ambient_canonical_weight,
    hom_bundle_weights,
    moduli_dimension,
    stratum_canonical_weight,
    stratum_report,
    verdict,
    window_width,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionVector",
    "HNType",
    "OneParameterSubgroup",
    "Quiver",
    "StabilityParameter",
    "StratumReport",
    "Verdict",
    "ambient_canonical_weight",
    "codimension",
    "codimension_cuts",
    "enumerate_hn_types",
    "generic_subdimension_vectors",
    "has_semistable",
    "hom_bundle_weights",
    "is_strongly_amply_stable",
    "is_theta_coprime",
    "moduli_dimension",
    "one_parameter_subgroup",
    "pairing_table",
    "slope",
    "stratum_canonical_weight",
    "stratum_report",
    "subdimension_vectors",
    "validate_hn_type",
    "verdict",
    "window_width",
]
