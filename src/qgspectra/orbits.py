"""Primitive periodic orbits and primitive pseudo orbits.

A periodic orbit is a closed bond walk up to cyclic rotation; it is
primitive if it is not a repetition of a shorter walk.  A primitive
pseudo orbit is a set of pairwise-distinct primitive orbits.  Two
enumeration modes cover different needs:

* ``bond_distinct`` walks the balanced bond subsets and their cycle
  covers.  These pseudo orbits use each bond at most once and are exactly
  the terms appearing in the expansion of det(S_I).
* ``general`` enumerates every set of distinct primitive orbits of a given
  total length, repeated bonds allowed.  This superset exists to verify
  that the extra terms cancel in pairs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import DirectedGraph, vertex_ports
from .lyndon import is_lyndon
from .quantize import transition_sign

DEFAULT_CAP = 2_000_000


class EnumerationCapExceeded(RuntimeError):
    """Raised when pseudo-orbit enumeration would exceed its step budget."""


def canonical_orbit(
    graph: DirectedGraph, bond_sequence: Sequence[int]
) -> tuple[tuple[int, ...], bool]:
    """Canonical rotation of a closed bond walk, and whether it is primitive.

    The canonical form is the lexicographically smallest rotation.  The
    walk is primitive unless it is a d-fold repetition of a shorter walk
    for some proper divisor d of its length.
    """
    seq = tuple(int(b) for b in bond_sequence)
    if not seq:
        raise ValueError("empty bond sequence")
    for b in seq:
        if not 0 <= b < graph.num_bonds:
            raise ValueError(f"unknown bond id {b}")
    for i, b in enumerate(seq):
        nxt = seq[(i + 1) % len(seq)]
        if graph.terminus(b) != graph.origin(nxt):
            raise ValueError(f"not a closed walk: bond {b} does not feed bond {nxt}")
    canon = min(seq[i:] + seq[:i] for i in range(len(seq)))
    length = len(seq)
    primitive = not any(
        length % d == 0 and canon == canon[:d] * (length // d)
        for d in range(1, length)
    )
    return canon, primitive


@dataclass(frozen=True)
class PseudoOrbit:
    """A set of pairwise-distinct primitive periodic orbits.

    ``orbits`` holds canonical bond tuples, sorted.  ``total_bonds`` is the
    total length n (bonds counted with multiplicity), ``orbit_count`` the
    number m of member orbits.  Under DFT quantization the stability
    amplitude is ``amp_sign * 2**(-n/2)`` exactly.
    """

    orbits: tuple[tuple[int, ...], ...]
    total_bonds: int
    orbit_count: int
    amp_sign: int

    @property
    def amplitude(self) -> float:
        return self.amp_sign * 2.0 ** (-self.total_bonds / 2.0)

    @property
    def weight_sign(self) -> int:
        """Sign of (-1)^m A, the weight carried in determinant expansions."""
        return (-1) ** self.orbit_count * self.amp_sign

    @property
    def signed_amplitude(self) -> float:
        return (-1) ** self.orbit_count * self.amplitude

    def bond_multiset(self) -> tuple[tuple[int, int], ...]:
        """Sorted (bond id, multiplicity) pairs over all member orbits."""
        counts = Counter(b for orbit in self.orbits for b in orbit)
        return tuple(sorted(counts.items()))


def _orbit_sign(graph: DirectedGraph, orbit: Sequence[int]) -> int:
    sign = 1
    for i, b in enumerate(orbit):
        sign *= transition_sign(graph, b, orbit[(i + 1) % len(orbit)])
    return sign


def make_pseudo_orbit(
    graph: DirectedGraph, orbits: Iterable[Sequence[int]]
) -> PseudoOrbit:
    """Build a pseudo orbit from closed walks, canonicalizing each member."""
    canon: list[tuple[int, ...]] = []
    for orbit in orbits:
        c, primitive = canonical_orbit(graph, orbit)
        if not primitive:
            raise ValueError(f"orbit {c} is a repetition of a shorter orbit")
        canon.append(c)
    canon.sort()
    if len(set(canon)) != len(canon):
        raise ValueError("member orbits must be pairwise distinct")
    sign = 1
    for c in canon:
        sign *= _orbit_sign(graph, c)
    return PseudoOrbit(
        orbits=tuple(canon),
        total_bonds=sum(len(c) for c in canon),
        orbit_count=len(canon),
        amp_sign=sign,
    )


def admissible_subsets(graph: DirectedGraph, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the n-bond subsets balanced at every vertex (in = out).

    Exactly these subsets index the nonzero principal minors of the
    scattering matrix; all others have a zero row or an unbalanced vertex.
    """
    B = graph.num_bonds
    if not 0 <= n <= B:
        raise ValueError(f"n must lie in 0..{B}")
    origins = [graph.origin(b) for b in range(B)]
    termini = [graph.terminus(b) for b in range(B)]
    V = graph.vertex_count
    for combo in itertools.combinations(range(B), n):
        balance = [0] * V
        for b in combo:
            balance[origins[b]] += 1
            balance[termini[b]] -= 1
        if any(balance):
            continue
        yield combo


@dataclass(frozen=True)
class CoverFamily:
    """All decompositions of one balanced bond subset into disjoint cycles."""

    subset: tuple[int, ...]
    covers: tuple[PseudoOrbit, ...]
    doubly_visited: tuple[int, ...]

    @property
    def encounter_count(self) -> int:
        """N: vertices carrying two subset bonds in and two out."""
        return len(self.doubly_visited)


def covers_of_subset(graph: DirectedGraph, subset: Iterable[int]) -> CoverFamily:
    """Enumerate the 2^N cycle covers of a balanced bond subset.

    Each vertex traversed twice admits two in -> out pairings; every
    combined choice closes the subset into disjoint cycles, i.e. one
    bond-distinct primitive pseudo orbit per choice.
    """
    subset_t = tuple(sorted({int(b) for b in subset}))
    ins: dict[int, list[int]] = {}
    outs: dict[int, list[int]] = {}
    for b in subset_t:
        outs.setdefault(graph.origin(b), []).append(b)
        ins.setdefault(graph.terminus(b), []).append(b)
    if set(ins) != set(outs) or any(len(ins[v]) != len(outs[v]) for v in ins):
        raise ValueError("subset is not balanced at every vertex")
    for v in ins:
        ins[v].sort()
        outs[v].sort()
    doubly = tuple(sorted(v for v in ins if len(ins[v]) == 2))
    covers = []
    for swaps in itertools.product((False, True), repeat=len(doubly)):
        successor: dict[int, int] = {}
        swap_at = dict(zip(doubly, swaps))
        for v, in_list in ins.items():
            out_list = outs[v]
            if len(in_list) == 1:
                successor[in_list[0]] = out_list[0]
            elif swap_at[v]:
                successor[in_list[0]] = out_list[1]
                successor[in_list[1]] = out_list[0]
            else:
                successor[in_list[0]] = out_list[0]
                successor[in_list[1]] = out_list[1]
        covers.append(_cycles_to_pseudo_orbit(graph, subset_t, successor))
    assert len(set(covers)) == 2 ** len(doubly)
    return CoverFamily(subset=subset_t, covers=tuple(covers), doubly_visited=doubly)


def _cycles_to_pseudo_orbit(
    graph: DirectedGraph, subset: tuple[int, ...], successor: dict[int, int]
) -> PseudoOrbit:
    remaining = set(subset)
    cycles: list[tuple[int, ...]] = []
    while remaining:
        start = min(remaining)
        cycle = [start]
        remaining.discard(start)
        b = successor[start]
        while b != start:
            cycle.append(b)
            remaining.discard(b)
            b = successor[b]
        # started from the smallest member, so the rotation is canonical;
        # distinct bonds make every cycle of length >= 1 primitive
        cycles.append(tuple(cycle))
    cycles.sort()
    sign = 1
    for c in cycles:
        sign *= _orbit_sign(graph, c)
    return PseudoOrbit(
        orbits=tuple(cycles),
        total_bonds=len(subset),
        orbit_count=len(cycles),
        amp_sign=sign,
    )


def primitive_orbits(
    graph: DirectedGraph, max_len: int, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """All primitive periodic orbits of length <= max_len, canonical and
    sorted by (length, bonds); repeated bonds within a walk are allowed.
    Each is found once, as the Lyndon walk from its minimal bond."""
    ports = vertex_ports(graph)
    followers = [ports.out_bonds[graph.terminus(b)] for b in range(graph.num_bonds)]
    found: list[tuple[int, ...]] = []
    steps = 0

    def extend(start: int, walk: list[int]) -> None:
        nonlocal steps
        for nxt in followers[walk[-1]]:
            if nxt < start:
                continue  # every orbit is discovered from its minimal bond
            steps += 1
            if steps > cap:
                raise EnumerationCapExceeded(
                    f"walk enumeration exceeded {cap} steps at max_len={max_len}"
                )
            if nxt == start and is_lyndon(walk):
                found.append(tuple(walk))
            if len(walk) < max_len:
                walk.append(nxt)
                extend(start, walk)
                walk.pop()

    for b0 in range(graph.num_bonds):
        if max_len >= 1:
            extend(b0, [b0])
    return sorted(found, key=lambda o: (len(o), o))


def enumerate_pseudo_orbits(
    graph: DirectedGraph,
    n: int,
    mode: str = "bond_distinct",
    cap: int = DEFAULT_CAP,
) -> list[PseudoOrbit]:
    """Primitive pseudo orbits with n bonds in total, sorted canonically.

    ``bond_distinct`` unions the cycle covers of all balanced n-subsets;
    it walks C(B, n) subsets, so that count must not exceed ``cap``.
    ``general`` combines arbitrary distinct primitive orbits of total
    length n and is a strict superset once n admits repeated bonds; its
    orbit search takes at most ``cap`` steps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if mode == "bond_distinct":
        if math.comb(graph.num_bonds, n) > cap:
            raise EnumerationCapExceeded(f"C({graph.num_bonds}, {n}) subsets exceed the cap {cap}")
        out: list[PseudoOrbit] = []
        for subset in admissible_subsets(graph, n):
            out.extend(covers_of_subset(graph, subset).covers)
        return sorted(out, key=lambda po: po.orbits)
    if mode == "general":
        pool = primitive_orbits(graph, n, cap=cap)
        sign_of = {orbit: _orbit_sign(graph, orbit) for orbit in pool}
        results: list[PseudoOrbit] = []
        chosen: list[tuple[int, ...]] = []

        def combine(i: int, remaining: int) -> None:
            if remaining == 0:
                orbits = tuple(sorted(chosen))
                sign = 1
                for orbit in orbits:
                    sign *= sign_of[orbit]
                results.append(
                    PseudoOrbit(
                        orbits=orbits,
                        total_bonds=n,
                        orbit_count=len(orbits),
                        amp_sign=sign,
                    )
                )
                return
            for j in range(i, len(pool)):
                orbit = pool[j]
                if len(orbit) > remaining:
                    break  # pool is sorted by length
                chosen.append(orbit)
                combine(j + 1, remaining - len(orbit))
                chosen.pop()

        combine(0, n)
        return sorted(results, key=lambda po: po.orbits)
    raise ValueError(f"unknown mode {mode!r}")


def group_by_bond_multiset(
    pseudo_orbits: Iterable[PseudoOrbit],
) -> dict[tuple[tuple[int, int], ...], list[PseudoOrbit]]:
    """Partition pseudo orbits by bond multiset.

    With incommensurate bond lengths, pseudo orbits contribute coherently
    to variance sums exactly when their bond multisets coincide, so these
    groups are the partner classes.
    """
    groups: dict[tuple[tuple[int, int], ...], list[PseudoOrbit]] = {}
    for po in pseudo_orbits:
        groups.setdefault(po.bond_multiset(), []).append(po)
    return groups
