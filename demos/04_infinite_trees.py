"""Infinite-diameter families: exact moments and the Kesten-McKay density.

The n-regular tree has intersection pairs (1, n), (1, n-1), (1, n-1), ...
Its infinite tridiagonal matrix is approximated by corner truncations.
Moments (J^k)_{0,0} are exact integers (closed-walk counts); for trees
they must match moments of the Kesten-McKay density, computed here for
every order at once by one Gauss-Chebyshev rule (numpy's chebgauss
nodes after the substitution x = 2 sqrt(n-1) t). The truncated spectral
radius climbs to 2 sqrt(n-1), strictly below the degree n: the spectral
edge of an infinite tree never reaches the degree.
"""

from drgjacobi import (
    density_moments,
    eigenvalues,
    kesten_mckay_density,
    moment_sequence,
    spectral_radius_tree,
    tree_sequence,
    truncated_jacobi,
)

for n in (2, 3, 4):
    gen = tree_sequence(n)
    print(f"\n== {n}-regular tree")
    print("   k   exact (J^k)_00   quadrature          |diff|")
    exact, quadrature = moment_sequence(gen, 12), density_moments(n, 12)
    for k in range(0, 13, 2):
        diff = abs(exact[k] - quadrature[k])
        print(f"  {k:2d}   {exact[k]:14d}   {quadrature[k]:16.9f}   {diff:.2e}")

print("\nFor n = 2 the even moments are the central binomial coefficients")
print("(closed walks on the two-sided infinite path):",
      moment_sequence(tree_sequence(2), 12)[::2])

print("\nTruncated spectral radius vs the limit 2 sqrt(n-1):")
for n in (2, 3, 4):
    gen = tree_sequence(n)
    limit = spectral_radius_tree(n)
    tops = {m: eigenvalues(truncated_jacobi(gen, m))[-1] for m in (5, 25, 100, 200)}
    row = "  ".join(f"m={m}: {top:.6f}" for m, top in tops.items())
    print(f"  n={n}: {row}   limit {limit:.6f} < degree {n}")

print("\nKesten-McKay density profile for n = 3 (support |x| <= 2 sqrt 2):")
for x in (0.0, 1.0, 2.0, 2.5, 2.82, 3.0):
    print(f"  rho({x:4.2f}) = {kesten_mckay_density(3, x):.6f}")
