"""Reconstructing the adjacency spectral measure from the tridiagonal side.

At the canonical boundary value the eigenvalues of the small
tridiagonal matrix are exactly the graph's distinct adjacency
eigenvalues, and the measure weight at each is 1 / sum_k P_k(lambda)^2.
Multiplying weights by the vertex count recovers integer eigenvalue
multiplicities, which we confirm against a dense LAPACK eigensolver
that shares no code with the tridiagonal path.
"""

from drgjacobi import certify_distance_regular, graph_from_name, spectral_measure
from drgjacobi.oracle import dense_adjacency, dense_symmetric_eigen

for name in ("complete:4", "cycle:6", "petersen", "hypercube:3", "complete_bipartite:3"):
    g = graph_from_name(name)
    seq = certify_distance_regular(g)
    measure = spectral_measure(seq, vertex_count=g.vertex_count)
    dense = dense_symmetric_eigen(dense_adjacency(g))
    print(f"\n== {name}")
    print("   lambda      weight        multiplicity   dense check")
    for atom, (value, mult) in zip(measure.atoms, dense.clusters):
        print(
            f"   {atom.eigenvalue: 9.6f}  {atom.weight:12.10f}  {atom.multiplicity:4d}"
            f"           {value: 9.6f} (x{mult})"
        )
    total = sum(a.weight for a in measure.atoms)
    print(f"   weights sum to {total:.12f}")

# The two-column table used for plotting:
measure = spectral_measure(
    certify_distance_regular(graph_from_name("petersen")), vertex_count=10
)
print("\nplot table for petersen:")
print(measure.plot_table())
