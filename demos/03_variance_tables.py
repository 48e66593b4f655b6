"""Reproduce the coefficient-variance tables for the two reference graphs.

Three independent routes must agree: the exact class-count formula
2^-n (|P_0^n| + sum_N 2^N |Phat_N^n|), the principal-minor sum
sum_{|I|=n} |det S_I|^2, and a Monte Carlo average over k.  The class
counts and the dyadic fractions are exact; the oracle agrees to machine
precision and the MC estimate to a few parts in a thousand.
"""

from fractions import Fraction

import qgspectra as q
from qgspectra.classify import census, variance_from_classes
from qgspectra.spectral import mc_variance, minor_sum_variance

for p, r, label in ((1, 3, "V=8 de Bruijn"), (3, 1, "V=6 binary")):
    graph = q.build_binary_graph(p, r)
    S = q.build_bond_scattering(graph)
    lengths = q.sample_bond_lengths(graph, seed=11)
    B = graph.num_bonds
    n_max = B // 2

    estimates = mc_variance(S, lengths, range(n_max + 1), samples=50_000, seed=3)
    print(f"\n{label} (B={B})")
    print(" n  |P0|  encounters      exact      oracle        MC")
    for n, counts in enumerate(census(graph, range(n_max + 1))):
        exact = variance_from_classes(counts)
        oracle = minor_sum_variance(S, n)
        mc = estimates[n]
        enc = ",".join(f"{N}:{c}" for N, c in counts.phat.items()) or "-"
        print(
            f"{n:2d}  {counts.p0:4d}  {enc:>10s}  {str(exact):>9s}"
            f"  {oracle:.8f}  {mc.mean:.4f}+-{mc.std_error:.4f}"
        )
        assert abs(oracle - float(exact)) < 1e-12

# the V=6 table has a quirk at n=4: the census there is 6 bond-distinct
# pseudo orbits plus 4 with one encounter.  A bond-distinct count of 10
# would force (10 + 2*4)/16 = 9/8, but the exact variance is 7/8, which
# pins the count to 6
[counts] = census(q.build_binary_graph(3, 1), [4])
print(f"\nV=6, n=4 census: p0={counts.p0}, encounters={counts.phat}")
print(f"(6 + 2*4)/2^4 = {Fraction(6 + 8, 16)}  <- matches the exact value")
print(f"(10 + 2*4)/2^4 = {Fraction(10 + 8, 16)} <- inconsistent")
