"""Coefficient statistics of chaotic 4-regular directed quantum graphs.

The variance of the characteristic-polynomial coefficients of the bond
evolution operator U(k) = S e^{ikL} is computed three independent ways:
exactly, from a census of primitive pseudo orbits by self-intersection
class; as a principal-minor sum over the scattering matrix; and by Monte
Carlo averaging over the spectral parameter k.  Lyndon-word machinery
proves the cancellations behind the exact formula.
"""

from .classify import (
    ClassCounts,
    OrbitClass,
    c_gamma,
    census,
    class_counts,
    classify_pseudo_orbit,
    diagonal_approximation,
    exact_variance,
    pseudo_orbit_counts,
    pseudo_orbit_record,
    variance,
    variance_from_classes,
    write_orbit_dump,
)
from .graphs import (
    DirectedGraph,
    ValidationReport,
    build_binary_graph,
    load_graph,
    orient_four_regular,
    read_graph,
    save_graph,
    validate_graph,
)
from .lyndon import (
    LyndonTuple,
    is_lyndon,
    lyndon_tuples,
    lyndon_words,
    symmetric_group_parity_sum,
    tuple_parity_census,
)
from .orbits import (
    CoverFamily,
    EnumerationCapExceeded,
    PseudoOrbit,
    admissible_subsets,
    balanced_counts,
    canonical_orbit,
    covers_of_subset,
    enumerate_pseudo_orbits,
    group_by_bond_multiset,
    make_pseudo_orbit,
    primitive_orbits,
)
from .quantize import (
    BondLengths,
    BondScattering,
    build_bond_scattering,
    dft_vertex_matrix,
    evolution_operator,
    sample_bond_lengths,
    transition_sign,
)
from .spectral import (
    CoefficientVector,
    VarianceEstimate,
    char_poly_coefficients,
    mc_variance,
    minor_sum_variance,
    riemann_siegel_residual,
    subset_contribution,
)

__version__ = "0.1.0"

__all__ = [
    "BondLengths",
    "BondScattering",
    "ClassCounts",
    "CoefficientVector",
    "CoverFamily",
    "DirectedGraph",
    "EnumerationCapExceeded",
    "LyndonTuple",
    "OrbitClass",
    "PseudoOrbit",
    "ValidationReport",
    "VarianceEstimate",
    "admissible_subsets",
    "balanced_counts",
    "build_binary_graph",
    "build_bond_scattering",
    "c_gamma",
    "canonical_orbit",
    "census",
    "char_poly_coefficients",
    "class_counts",
    "classify_pseudo_orbit",
    "covers_of_subset",
    "dft_vertex_matrix",
    "diagonal_approximation",
    "enumerate_pseudo_orbits",
    "evolution_operator",
    "exact_variance",
    "group_by_bond_multiset",
    "is_lyndon",
    "load_graph",
    "lyndon_tuples",
    "lyndon_words",
    "make_pseudo_orbit",
    "mc_variance",
    "minor_sum_variance",
    "orient_four_regular",
    "primitive_orbits",
    "pseudo_orbit_counts",
    "pseudo_orbit_record",
    "read_graph",
    "riemann_siegel_residual",
    "sample_bond_lengths",
    "save_graph",
    "subset_contribution",
    "symmetric_group_parity_sum",
    "transition_sign",
    "tuple_parity_census",
    "validate_graph",
    "variance",
    "variance_from_classes",
    "write_orbit_dump",
]
