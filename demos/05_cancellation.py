"""Why repeated-bond pseudo orbits drop out of the variance.

In the incommensurate-lengths limit only pseudo-orbit pairs with equal
bond multisets survive the k average.  Grouping all pseudo orbits of one
length by multiset and summing the signed amplitudes inside each group
gives the partner sum C.  Groups whose multiset repeats a bond cancel to
zero; bond-distinct groups contribute 2^(N-n) per member.  The grand
total over all groups is the exact variance, term by term.
"""

from fractions import Fraction

import qgspectra as q
from qgspectra.classify import c_gamma, classify_pseudo_orbit, variance
from qgspectra.orbits import enumerate_pseudo_orbits, group_by_bond_multiset

graph = q.build_binary_graph(3, 1)   # V=6
n = 5

pos = enumerate_pseudo_orbits(graph, n, mode="general")
groups = group_by_bond_multiset(pos)
print(f"V=6, n={n}: {len(pos)} pseudo orbits in {len(groups)} multiset groups\n")

total = Fraction(0)
for multiset, members in sorted(groups.items()):
    C = c_gamma(graph, members[0], members)
    total += C * len(members)
    repeated = any(mult > 1 for _, mult in multiset)
    kinds = {classify_pseudo_orbit(graph, po).kind for po in members}
    bonds = ",".join(f"{b}x{m}" if m > 1 else str(b) for b, m in multiset)
    print(f"  bonds [{bonds:>11s}]  members={len(members)}  C={str(C):>5s}  "
          f"{'repeated bond' if repeated else 'bond-distinct'} {sorted(kinds)}")

print(f"\nsum of C over all pseudo orbits: {total}")
[exact] = variance(graph, [n])
print(f"exact variance at n={n}:         {exact}")
assert total == exact
