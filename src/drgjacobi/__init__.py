"""Distance-regular graphs, their intersection sequences, and the
tridiagonal (Jacobi) realization of the adjacency operator.

The pipeline: certify a graph as distance-regular, extract its
intersection sequence, build the one-parameter family of tridiagonal
completions J_tau, and reconstruct the adjacency spectrum and spectral
measure from the canonical completion. Infinite-diameter families are
handled through corner truncations and exact integer moments.
"""

from .families import (
    FamilyGenerator,
    QuadratureNotConvergedError,
    density_moments,
    family_from_name,
    kesten_mckay_density,
    moment_sequence,
    spectral_radius_tree,
    tree_sequence,
    truncated_jacobi,
)
from .graphs import (
    Graph,
    GraphError,
    MalformedLineError,
    NotConnectedError,
    SelfLoopError,
    graph_from_edges,
    graph_from_name,
    parse_edge_list,
)
from .intersection import (
    IntersectionSequence,
    NonIntegralDegreeError,
    NonRegularityWitness,
    SequenceError,
    certify_distance_regular,
    degree_sequence,
    sequence_from_pairs,
)
from .jacobi import (
    JacobiError,
    JacobiOperator,
    MultiplicityNotIntegralError,
    SpectralAtom,
    SpectralMeasure,
    ToleranceTooSmallError,
    WeightMismatchError,
    build_jacobi,
    canonical_tau,
    eigenvalues,
    spectra_interlace,
    spectral_measure,
    weight_formulas,
)

__version__ = "0.1.0"

__all__ = [
    "FamilyGenerator",
    "Graph",
    "GraphError",
    "IntersectionSequence",
    "JacobiError",
    "JacobiOperator",
    "MalformedLineError",
    "MultiplicityNotIntegralError",
    "NonIntegralDegreeError",
    "NonRegularityWitness",
    "NotConnectedError",
    "QuadratureNotConvergedError",
    "SelfLoopError",
    "SequenceError",
    "SpectralAtom",
    "SpectralMeasure",
    "ToleranceTooSmallError",
    "WeightMismatchError",
    "build_jacobi",
    "canonical_tau",
    "certify_distance_regular",
    "degree_sequence",
    "density_moments",
    "eigenvalues",
    "family_from_name",
    "graph_from_edges",
    "graph_from_name",
    "kesten_mckay_density",
    "moment_sequence",
    "parse_edge_list",
    "sequence_from_pairs",
    "spectra_interlace",
    "spectral_measure",
    "spectral_radius_tree",
    "tree_sequence",
    "truncated_jacobi",
    "weight_formulas",
]
