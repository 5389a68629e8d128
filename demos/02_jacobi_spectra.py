"""The one-parameter family of tridiagonal completions and its spectra.

An intersection sequence of diameter d defines a (d+1) x (d+1)
symmetric tridiagonal matrix up to its bottom-right entry tau. Every
tau gives a different spectrum; spectra for different tau never share
an eigenvalue and strictly interlace. The canonical choice
tau* = degree - a_d is the one whose spectrum is the graph's adjacency
spectrum.
"""

import math

import numpy as np

from drgjacobi import (
    build_jacobi,
    canonical_tau,
    certify_distance_regular,
    check_interlacing,
    eigenfunction_coeffs,
    eigenvalues,
    graph_from_name,
)

seq = certify_distance_regular(graph_from_name("petersen"))
tau_star = canonical_tau(seq)
print("Petersen sequence:", list(zip(seq.a, seq.b)), " tau* =", tau_star)
print("J_tau* =")
print(np.array_str(build_jacobi(seq, tau_star).to_dense(), precision=4))

print("\n tau      spectrum")
for tau in (-2.0, 0.0, float(tau_star), 4.0):
    lams = eigenvalues(build_jacobi(seq, tau))
    marker = "  <- adjacency spectrum" if tau == tau_star else ""
    print(f"{tau:5.1f}   " + "  ".join(f"{lam: 9.6f}" for lam in lams) + marker)

print("\nSpectra at distinct tau interlace and never collide:")
for tau1, tau2 in ((2.0, 0.0), (-1.5, 3.25), (0.1, 0.2)):
    print(f"  tau = {tau1} vs {tau2}: interlaced = {check_interlacing(seq, tau1, tau2)}")

print("\nEigenvector coordinates in the normalized distance-matrix basis")
print("(first-kind polynomial values at each eigenvalue):")
for lam in eigenvalues(build_jacobi(seq, float(tau_star))):
    coeffs = eigenfunction_coeffs(seq, float(tau_star), lam)
    print(f"  lambda = {lam: 9.6f}: " + "  ".join(f"{c: 8.5f}" for c in coeffs))

# Complete graphs have a closed form: the completions are 2 x 2 and the
# two eigenvalues are tau/2 +- sqrt(tau^2 + 4(n-1))/2.
print("\nComplete graph K_6, LAPACK roots certified by Sturm counts vs closed form:")
k6 = certify_distance_regular(graph_from_name("complete:6"))
for tau in (-3.0, 0.0, 4.0):
    lams = eigenvalues(build_jacobi(k6, tau))
    disc = math.sqrt(tau * tau + 20.0)
    closed = (tau / 2 - disc / 2, tau / 2 + disc / 2)
    print(f"  tau = {tau:4.1f}: {lams}  vs  {closed}")
