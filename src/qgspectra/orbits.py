"""Primitive periodic orbits and primitive pseudo orbits.

A periodic orbit is a closed bond walk up to cyclic rotation; it is
primitive if it is not a repetition of a shorter walk.  A primitive
pseudo orbit is a set of pairwise-distinct primitive orbits.
:class:`PseudoOrbit` is the one model of it: every other module reads a
pseudo orbit's length, orbit count and bonds from it.  Two enumeration
modes cover different needs:

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

from .graphs import DirectedGraph
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
    walk is primitive exactly when that rotation is strictly smaller than
    all others, i.e. a Lyndon word; a d-fold repetition has d equal ones.
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
    return canon, is_lyndon(canon)


@dataclass(frozen=True)
class PseudoOrbit:
    """A set of pairwise-distinct primitive periodic orbits.

    ``orbits`` holds canonical bond tuples, sorted; everything else about
    the pseudo orbit is derived from them.  Under DFT quantization the
    stability amplitude is ``amp_sign * 2**(-n/2)`` exactly.
    """

    orbits: tuple[tuple[int, ...], ...]
    amp_sign: int

    @property
    def total_bonds(self) -> int:
        """The total length n, bonds counted with multiplicity."""
        return sum(map(len, self.orbits))

    @property
    def orbit_count(self) -> int:
        """The number m of member orbits."""
        return len(self.orbits)

    @property
    def bonds(self) -> list[int]:
        """Every bond of every member orbit, with multiplicity, ascending.

        Two pseudo orbits share a bond multiset exactly when these lists
        are equal, and a list is several times cheaper to build than
        :meth:`bond_multiset`.  It is not cached: a cancellation audit
        holds tens of thousands of pseudo orbits, and a stored bond list on
        each raised its peak memory by about 12%.
        """
        return sorted(itertools.chain.from_iterable(self.orbits))

    @property
    def amplitude(self) -> float:
        return self.amp_sign * 2.0 ** (-self.total_bonds / 2.0)

    @property
    def weight_sign(self) -> int:
        """Sign of (-1)^m A, the weight carried in determinant expansions."""
        return (-1) ** len(self.orbits) * self.amp_sign

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


def _signed(graph: DirectedGraph, cycles: list[tuple[int, ...]]) -> PseudoOrbit:
    """The pseudo orbit of distinct canonical primitive cycles, sorted in
    place, with the product of their transition signs."""
    cycles.sort()
    return PseudoOrbit(tuple(cycles), math.prod(_orbit_sign(graph, c) for c in cycles))


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
    if len(set(canon)) != len(canon):
        raise ValueError("member orbits must be pairwise distinct")
    return _signed(graph, canon)


def _elimination_order(graph: DirectedGraph) -> list[int]:
    """Greedy min-frontier vertex order, ties broken by vertex id.

    Processing a vertex closes its bonds to processed vertices and opens
    its bonds to unprocessed ones; each step picks the vertex that leaves
    the fewest open bonds.  The balanced-subset search and the census DP
    (:mod:`classify`) both process vertices in this order.
    """
    neighbours: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for u, w in graph.bonds:
        if u != w:
            neighbours[u].append(w)
            neighbours[w].append(u)
    done = [False] * graph.vertex_count
    order: list[int] = []
    for _ in range(graph.vertex_count):
        _, v = min(
            (sum(-1 if done[w] else 1 for w in neighbours[v]), v)
            for v in range(graph.vertex_count)
            if not done[v]
        )
        done[v] = True
        order.append(v)
    return order


def _in_out(
    graph: DirectedGraph, bonds: Iterable[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """How many of ``bonds`` enter and leave each vertex they touch.

    The bonds are balanced at every vertex exactly when the two dicts are
    equal.  The subset search, :func:`covers_of_subset` and
    ``spectral.subset_contribution`` all count balance here.
    """
    ins: dict[int, int] = {}
    outs: dict[int, int] = {}
    for b in bonds:
        u, w = graph.bonds[b]
        outs[u] = outs.get(u, 0) + 1
        ins[w] = ins.get(w, 0) + 1
    return ins, outs


def _balanced_subsets(graph: DirectedGraph, n: int) -> Iterator[tuple[int, ...]]:
    """Every n-bond subset balanced at every vertex, once, as an ascending
    tuple, in search order.

    Depth-first over the vertices in :func:`_elimination_order`.  Visiting
    a vertex decides its bonds that are still undecided (those to later
    vertices and its self-loops).  A branch survives only if the vertex
    then has as many selected bonds in as out, at most n bonds are
    selected, and the undecided bonds can still make up n.  A branch dies
    at the first vertex that fails, so the work follows the number of
    balanced subsets, not C(B, n).
    """
    done = [False] * graph.vertex_count
    undecided = graph.num_bonds
    steps = []
    for v in _elimination_order(graph):
        incident = set(graph.in_bonds[v]) | set(graph.out_bonds[v])
        # the far end of bond (u, w) at v is u + w - v; v itself for a loop
        closing = [b for b in incident if done[sum(graph.bonds[b]) - v]]
        fresh = sorted(incident.difference(closing))
        closing_in = sum(1 << b for b in closing if graph.terminus(b) == v)
        closing_out = sum(1 << b for b in closing if graph.origin(b) == v)
        # choices for the fresh bonds, keyed by (selected in - selected out)
        choices: dict[int, list[tuple[int, int]]] = {}
        for picks in itertools.product((False, True), repeat=len(fresh)):
            chosen = [b for b, pick in zip(fresh, picks) if pick]
            ins, outs = _in_out(graph, chosen)
            choices.setdefault(ins.get(v, 0) - outs.get(v, 0), []).append(
                (len(chosen), sum(1 << b for b in chosen))
            )
        done[v] = True
        undecided -= len(fresh)
        steps.append((closing_in, closing_out, choices, undecided))
    stack = [(0, 0, 0)]  # (step, selected count, selected bonds as a bitmask)
    while stack:
        i, count, mask = stack.pop()
        if i == len(steps):
            subset = []
            while mask:
                low = mask & -mask
                subset.append(low.bit_length() - 1)
                mask ^= low
            yield tuple(subset)
            continue
        closing_in, closing_out, choices, undecided = steps[i]
        need = (mask & closing_out).bit_count() - (mask & closing_in).bit_count()
        for k, chosen in choices.get(need, ()):
            if count + k <= n <= count + k + undecided:
                stack.append((i + 1, count + k, mask | chosen))


def admissible_subsets(graph: DirectedGraph, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the n-bond subsets balanced at every vertex (in = out), in
    ascending lexicographic order.

    Exactly these subsets index the nonzero principal minors of the
    scattering matrix; all others have an unbalanced vertex.  They come
    from one depth-first search (see :func:`_balanced_subsets`) whose cost
    follows their number, and are sorted before the first is yielded.
    """
    B = graph.num_bonds
    if not 0 <= n <= B:
        raise ValueError(f"n must lie in 0..{B}")
    yield from sorted(_balanced_subsets(graph, n))


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
    into, out_of = _in_out(graph, subset_t)
    if into != out_of:
        raise ValueError("subset is not balanced at every vertex")
    selected = set(subset_t)
    # port slots are ascending, so each list is too
    ins = {v: [b for b in graph.in_bonds[v] if b in selected] for v in into}
    outs = {v: [b for b in graph.out_bonds[v] if b in selected] for v in into}
    doubly = tuple(sorted(v for v, c in into.items() if c == 2))
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
    return _signed(graph, cycles)


def primitive_orbits(
    graph: DirectedGraph, max_len: int, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """All primitive periodic orbits of length <= max_len, canonical and
    sorted by (length, bonds); repeated bonds within a walk are allowed.
    Each is found once, as the Lyndon walk from its minimal bond."""
    followers = [graph.out_bonds[v] for _, v in graph.bonds]
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

    ``bond_distinct`` unions the cycle covers of all balanced n-subsets,
    found by a search whose cost follows their number.  C(B, n) must
    still not exceed ``cap``: the gate is kept as it was so that the exit
    codes of ``orbits enumerate`` stay stable.
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
                results.append(PseudoOrbit(orbits, math.prod(sign_of[o] for o in orbits)))
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
