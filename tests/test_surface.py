"""The public surface: the names drgjacobi exports, and a caller for every public function."""

import ast
import inspect
from pathlib import Path

import drgjacobi

PACKAGE = Path(drgjacobi.__file__).parent
LAYERS = ("graphs", "intersection", "jacobi", "families", "oracle")

PUBLIC = {
    # graphs
    "Graph", "GraphError", "MalformedLineError", "NotConnectedError", "SelfLoopError",
    "graph_from_edges", "graph_from_name", "parse_edge_list",
    # intersection
    "IntersectionSequence", "NonIntegralDegreeError", "NonRegularityWitness", "SequenceError",
    "certify_distance_regular", "degree_sequence", "sequence_from_pairs",
    # jacobi
    "JacobiError", "JacobiOperator", "MultiplicityNotIntegralError", "SpectralAtom",
    "SpectralMeasure", "ToleranceTooSmallError", "WeightMismatchError", "build_jacobi",
    "canonical_tau", "eigenvalues", "spectra_interlace", "spectral_measure", "weight_formulas",
    # families
    "FamilyGenerator", "QuadratureNotConvergedError", "density_moments", "family_from_name",
    "kesten_mckay_density", "moment_sequence", "spectral_radius_tree", "tree_sequence",
    "truncated_jacobi",
}

# Public functions that no code of the package calls, and what keeps each.
KEPT_FOR = {
    "jacobi.weight_formulas": "acceptance criterion 6",
    "oracle.matrix_poly_firstkind": "acceptance criterion 5",
    "families.kesten_mckay_density": "demo 04",
    "families.spectral_radius_tree": "acceptance criterion 9 and demo 04",
}


def test_all_lists_exactly_the_pipeline_names():
    assert len(drgjacobi.__all__) == len(set(drgjacobi.__all__)) == len(PUBLIC) == 37
    assert set(drgjacobi.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(drgjacobi, name).__module__.startswith("drgjacobi.")


def names_used(statement):
    """Every name, attribute and imported name that the statement mentions."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_function_has_a_caller_or_a_reason():
    # __init__ only re-exports, so it calls nothing; a function's own body is not its caller
    statements = [
        (path.stem, node, names_used(node))
        for path in PACKAGE.glob("*.py") if path.stem != "__init__"
        for node in ast.parse(path.read_text()).body
    ]
    uncalled = {
        f"{layer}.{node.name}"
        for layer, node, _ in statements
        if layer in LAYERS and isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(node.name in used for _, other, used in statements if other is not node)
    }
    assert uncalled == set(KEPT_FOR)


def test_graph_is_built_from_csr_arrays():
    # Graph(indptr, indices) since the CSR arrays became the one stored form;
    # the adjacency tuples are a view built on first use
    assert list(inspect.signature(drgjacobi.Graph).parameters) == ["indptr", "indices"]
    g = drgjacobi.Graph([0, 1, 2], [1, 0])
    assert "adjacency" not in vars(g) and g.adjacency == ((1,), (0,)) and "adjacency" in vars(g)
