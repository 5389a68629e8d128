"""Certifying distance-regularity and reading the intersection sequence.

A graph is distance-regular when the two neighbor-intersection counts
(one step closer to a base vertex, one step farther) depend only on the
distance class. This demo certifies a few graphs, shows what the
certificate contains, and what a failure witness looks like.
"""

from drgjacobi import (
    NonRegularityWitness,
    certify_distance_regular,
    degree_sequence,
    graph_from_name,
    parse_edge_list,
)
from drgjacobi.oracle import dense_adjacency, recurrence_pass


def show(name, g):
    outcome = certify_distance_regular(g)
    print(f"\n== {name} ({g.vertex_count} vertices)")
    if isinstance(outcome, NonRegularityWitness):
        print(f"   NOT distance-regular: {outcome.kind}")
        print(f"   pair {outcome.first_pair} has {outcome.count_type}-count "
              f"{outcome.first_count}, pair {outcome.second_pair} has {outcome.second_count}")
        print(f"   recount from scratch: {outcome.recount(g)}")
        return
    print(f"   pairs (a_k, b_k): {list(zip(outcome.a, outcome.b))}")
    print(f"   diagonal values alpha_0..alpha_d: {outcome.alphas}")
    degrees = degree_sequence(outcome)
    print(f"   distance-k degrees: {degrees}")
    # each vertex at distance k has alpha_k neighbours at distance k: alpha_k deg_k / 2 edges
    isoscycles = [alpha * deg // 2 for alpha, deg in zip(outcome.alphas, degrees)]
    print(f"   isoscycle counts:   {isoscycles}")
    mismatch = recurrence_pass(g, outcome, dense_adjacency(g))[0]
    print(f"   exact recurrence A A_k = a_(k+1) A_(k+1) + alpha_k A_k + b_k A_(k-1): "
          f"{'holds' if mismatch is None else mismatch}")


for name in ("complete:4", "cycle:6", "petersen", "hypercube:3", "complete_bipartite:3"):
    show(name, graph_from_name(name))

# The triangular prism is 3-regular but NOT distance-regular: a triangle
# edge and a rung edge see different counts one step farther out.
prism = parse_edge_list("""
0 1
1 2
2 0
3 4
4 5
5 3
0 3
1 4
2 5
""")
show("triangular prism", prism)
