"""Primitive orbits, pseudo orbits, and cycle covers on the V=8 graph.

A pseudo orbit is a set of distinct primitive periodic orbits; its
stability amplitude under this quantization is +-2^(-n/2) with n the
total bond count.  Bond-distinct pseudo orbits are exactly the cycle
covers of balanced bond subsets: each vertex carrying two subset bonds
in and two out (an encounter vertex) admits two in->out pairings, so a
subset with N such vertices has 2^N covers.
"""

import qgspectra as q
from qgspectra.orbits import (
    balanced_counts,
    covers_of_subset,
    enumerate_pseudo_orbits,
    make_pseudo_orbit,
    primitive_orbits,
)
from qgspectra.spectral import subset_contribution

graph = q.build_binary_graph(1, 3)

orbits = primitive_orbits(graph, max_len=4)
print(f"primitive orbits up to length 4: {len(orbits)}")
for orbit in orbits:
    walk = " -> ".join(str(graph.origin(b)) for b in orbit)
    print(f"  bonds {orbit}  vertices {walk} -> ...")

# pseudo orbits of total length 4, bond-distinct mode
pos = enumerate_pseudo_orbits(graph, 4, mode="bond_distinct")
print(f"\nbond-distinct pseudo orbits of length 4: {len(pos)}")
for po in pos:
    print(f"  m={po.orbit_count}  A={po.amplitude:+.4f}  orbits={po.orbits}")

# one subset, all of its covers
subset = (0, 1, 2, 4, 8)
fam = covers_of_subset(graph, subset)
print(f"\nsubset {subset}: N={fam.encounter_count} encounter vertices", end="")
print(f" {fam.doubly_visited}, {len(fam.covers)} covers")
for cover in fam.covers:
    print(f"  m={cover.orbit_count}  signed A={cover.signed_amplitude:+.5f}  {cover.orbits}")

# the covers explain the principal minor of the same subset
S = q.build_bond_scattering(graph)
sq, N = subset_contribution(S, subset)
print(f"|det S_I|^2 = {sq:.6f} = 2^(2N-n) = {2.0 ** (2 * N - len(subset))}")

# assembling a pseudo orbit by hand canonicalizes rotations
po = make_pseudo_orbit(graph, [(10, 5), (0,)])
print(f"\nhand-built: {po.orbits}, n={po.total_bonds}, multiset={po.bond_multiset()}")

count = sum(balanced_counts(graph, range(9), 0))
print(f"balanced subsets with n <= 8: {count}")
