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

import bisect
import heapq
import itertools
import math
import operator
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .graphs import DirectedGraph, _integer, _whole

DEFAULT_CAP = 2_000_000
FRONTIER_STATE_LIMIT = 100_000  # frontier states any counting pass may hold
# and bits of their packed polynomials; a pass frees each state as it
# expands it, so its peak stays within about 1.2x of this budget
FRONTIER_BIT_LIMIT = 2**34


class EnumerationCapExceeded(RuntimeError):
    """Raised when pseudo-orbit enumeration would exceed its step budget."""


class FrontierBudgetExceeded(ValueError):
    """Raised when a frontier pass would hold more states than its budget."""


def _bond_ids(graph: DirectedGraph, bonds: Iterable) -> list[int]:
    """The bonds as ints, each an integer id in 0..B-1.

    Like vertex ids in :mod:`graphs`, a bond id must be a Python or numpy
    integer: int() would truncate 0.7 to the valid bond 0.  Anything else,
    and an id out of range, raises ValueError.
    """
    ids = []
    for b in bonds:
        try:
            bond = _integer(b)
        except TypeError:
            bond = None
        if bond is None or not 0 <= bond < graph.num_bonds:
            raise ValueError(f"unknown bond id {b}")
        ids.append(bond)
    return ids


def canonical_orbit(
    graph: DirectedGraph, bond_sequence: Sequence[int]
) -> tuple[tuple[int, ...], bool]:
    """Canonical rotation of a closed bond walk, and whether it is primitive.

    The canonical form is the lexicographically smallest rotation.  The
    walk is primitive exactly when that rotation occurs once among its
    rotations (a Lyndon word); a d-fold repetition has d equal ones.
    """
    seq = tuple(_bond_ids(graph, bond_sequence))
    if not seq:
        raise ValueError("empty bond sequence")
    for i, b in enumerate(seq):
        nxt = seq[(i + 1) % len(seq)]
        if graph.terminus(b) != graph.origin(nxt):
            raise ValueError(f"not a closed walk: bond {b} does not feed bond {nxt}")
    rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
    canon = min(rotations)
    return canon, rotations.count(canon) == 1


@dataclass(frozen=True, slots=True)
class PseudoOrbit:
    """A set of pairwise-distinct primitive periodic orbits.

    ``orbits`` holds canonical bond tuples, sorted; everything else about
    the pseudo orbit is derived from them.  Under DFT quantization the
    stability amplitude is ``amp_sign * 2**(-n/2)`` exactly.  The class is
    slotted, because a cancellation audit holds tens of thousands of
    pseudo orbits: an instance takes 48 B, against 88 B with a
    ``__dict__`` (tracemalloc).
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
        are equal, and a list is several times cheaper to build than the
        (bond, multiplicity) pairs.  :meth:`bond_multiset` reads it, and
        ``classify.c_gamma`` for a pseudo orbit that is not a member of
        the :class:`PartnerGroup` it is given; :func:`group_by_bond_multiset`
        sorts each pseudo orbit's bonds once itself.  It is not stored: a
        tuple of 16 bonds takes 168 B, three times the slotted instance,
        and 5.5 MB over the 32 768 pseudo orbits of the B=32 audit at
        n = 16.
        """
        return sorted(itertools.chain.from_iterable(self.orbits))

    @property
    def amplitude(self) -> float:
        return self.amp_sign * 2.0 ** (-self.total_bonds / 2.0)

    @property
    def weight_sign(self) -> int:
        """Sign of (-1)^m A, the weight carried in determinant expansions."""
        return -self.amp_sign if len(self.orbits) % 2 else self.amp_sign

    @property
    def signed_amplitude(self) -> float:
        return (-1) ** self.orbit_count * self.amplitude

    def bond_multiset(self) -> tuple[tuple[int, int], ...]:
        """Sorted (bond id, multiplicity) pairs over all member orbits."""
        return _multiset(self.bonds)


def _multiset(sorted_bonds: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(bond id, multiplicity) pairs of an ascending bond list, in order."""
    return tuple(Counter(sorted_bonds).items())


def _orbit_signs(graph: DirectedGraph, orbits: Iterable[Sequence[int]]) -> list[int]:
    """The product of the transition signs around each closed walk."""
    second_in, second_out = graph.second_slots
    signs = []
    for orbit in orbits:
        negative = sum(second_in[b] and second_out[c]
                       for b, c in zip(orbit, itertools.chain(orbit[1:], orbit[:1])))
        signs.append(-1 if negative % 2 else 1)
    return signs


def _signed(graph: DirectedGraph, cycles: list[tuple[int, ...]]) -> PseudoOrbit:
    """The pseudo orbit of distinct canonical primitive cycles, sorted in
    place, with the product of their transition signs."""
    cycles.sort()
    return PseudoOrbit(tuple(cycles), math.prod(_orbit_signs(graph, cycles)))


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
    the fewest open bonds: the least score, its bonds to unprocessed
    vertices less those to processed ones.  A lazy heap of (score, vertex)
    finds each pick, so the order costs O(B log V).  :func:`_vertex_steps`
    follows this order.
    """
    neighbours: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for u, w in graph.bonds:
        if u != w:
            neighbours[u].append(w)
            neighbours[w].append(u)
    score = [len(near) for near in neighbours]
    heap = sorted((s, v) for v, s in enumerate(score))  # a sorted list is a heap
    done = [False] * graph.vertex_count
    order: list[int] = []
    while heap:
        s, v = heapq.heappop(heap)
        if done[v] or s != score[v]:
            continue  # a stale entry: v was processed or rescored since
        done[v] = True
        order.append(v)
        for w in neighbours[v]:
            score[w] -= 2
            if not done[w]:
                heapq.heappush(heap, (score[w], w))
    return order


def _in_out(
    graph: DirectedGraph, bonds: Iterable[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """How many of ``bonds`` enter and leave each vertex they touch.

    The bonds are balanced at every vertex exactly when the two dicts are
    equal.  :func:`_vertex_steps`, :func:`covers_of_subset` and
    ``spectral.subset_contribution`` all count balance here.
    """
    ins: dict[int, int] = {}
    outs: dict[int, int] = {}
    for b in bonds:
        u, w = graph.bonds[b]
        outs[u] = outs.get(u, 0) + 1
        ins[w] = ins.get(w, 0) + 1
    return ins, outs


# one step table per graph, dropped with the graph (see _vertex_steps)
_STEP_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _vertex_steps(graph: DirectedGraph) -> tuple[tuple[int, int, dict, int], ...]:
    """One step per vertex, in :func:`_elimination_order`, for the
    balanced-subset search and the frontier pass.

    A step ``(closing_in, closing_out, choices, undecided)`` decides the
    vertex's bonds to later vertices and its self-loops.  It holds the
    bitmasks of its bonds in and out decided earlier; the choices, keyed
    by selected in - out at the vertex, as tuples of (selected in, count,
    selected bitmask, bitmask left open); and the bonds still undecided
    after it.  The vertex is balanced when the key equals closing out -
    closing in.

    The table is built once per graph and kept, weakly keyed on the
    frozen graph (equal graphs share it), until that graph is collected.
    Every caller shares it and only reads it.
    """
    steps = _STEP_TABLES.get(graph)
    if steps is None:
        steps = _STEP_TABLES[graph] = _build_vertex_steps(graph)
    return steps


def _build_vertex_steps(graph: DirectedGraph) -> tuple[tuple[int, int, dict, int], ...]:
    """The table :func:`_vertex_steps` keeps, built from scratch."""
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
        choices: dict[int, list[tuple[int, int, int, int]]] = {}
        for picks in itertools.product((False, True), repeat=len(fresh)):
            chosen = [b for b, pick in zip(fresh, picks) if pick]
            ins, outs = _in_out(graph, chosen)
            d_in = ins.get(v, 0)
            opened = sum(1 << b for b in chosen if graph.origin(b) != graph.terminus(b))
            choices.setdefault(d_in - outs.get(v, 0), []).append(
                (d_in, len(chosen), sum(1 << b for b in chosen), opened)
            )
        done[v] = True
        undecided -= len(fresh)
        steps.append((closing_in, closing_out,
                      {key: tuple(options) for key, options in choices.items()}, undecided))
    return tuple(steps)


def _balanced_subsets(graph: DirectedGraph, n: int) -> Iterator[tuple[int, ...]]:
    """Every n-bond subset balanced at every vertex, once, as an ascending
    tuple, in search order.

    Depth-first over :func:`_vertex_steps`.  A branch dies at the first
    vertex left unbalanced, or once n bonds are out of reach, so the work
    follows the number of balanced subsets, not C(B, n).
    """
    steps = _vertex_steps(graph)
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
        for _, k, chosen, _ in choices.get(need, ()):
            if count + k <= n <= count + k + undecided:
                stack.append((i + 1, count + k, mask | chosen))


def balanced_counts(graph: DirectedGraph, ns: Sequence[int], y_bits: int) -> list[int]:
    """Sum of 2^(y_bits * N(I)) over the balanced n-bond subsets I, for
    each n in ``ns``, where N(I) counts the vertices I uses twice: y_bits =
    0 counts the subsets (the oracle's minors), 1 their cycle covers (the
    bond-distinct pseudo orbits) and 2 gives 2^n var(n).  Raises
    ValueError unless every n is an integer (not a float or bool) in 0..B,
    and FrontierBudgetExceeded past ``FRONTIER_STATE_LIMIT`` states or
    ``FRONTIER_BIT_LIMIT`` packed bits; every y_bits holds the same states.

    Frontier transfer matrix over :func:`_vertex_steps`: the state is the
    set of selected open bonds (a bitmask) and carries the polynomial in x
    of the subsets that reach it, packed into one int; subset counts stay
    below 2^(B+1) and N <= n/2, so no coefficient reaches 2^width.  A step
    keeps the choices that balance the vertex and drops the bonds it
    closes.  It runs to the largest min(n, B - n): with two bonds in and
    out at each vertex, the complement of a balanced m-subset is balanced
    with N + V - m doubled vertices, so n > V reads entry B - n, shifted.
    """
    B, V = graph.num_bonds, graph.vertex_count
    ns = [_whole(n, "subset sizes") for n in ns]
    if not ns or not all(0 <= n <= B for n in ns):
        raise ValueError(f"n must lie in 0..{B}")
    if graph.port_faults:
        raise ValueError(f"{graph.port_faults[0]}; counting balanced subsets needs two of each")
    n_max = max(min(n, B - n) for n in ns)
    width = B + 1 + y_bits * (n_max // 2)
    keep = (1 << (width * (n_max + 1))) - 1
    limit = min(FRONTIER_STATE_LIMIT, FRONTIER_BIT_LIMIT // (width * (n_max + 1)))
    states: dict[int, int] = {0: 1}
    for closing_in, closing_out, choices, _ in _vertex_steps(graph):
        unclosed = ~(closing_in | closing_out)
        step: dict[int, int] = {}
        for mask, poly in states.items():
            states[mask] = None  # frees the polynomial once its terms are in step
            c_in = (mask & closing_in).bit_count()
            c_out = (mask & closing_out).bit_count()
            base = mask & unclosed
            for d_in, k, _, opened in choices.get(c_out - c_in, ()):
                shift = width * k + y_bits * (c_in + d_in == 2)
                term = (poly << shift) & keep
                if term:
                    key = base | opened
                    step[key] = step.get(key, 0) + term
            if len(step) > limit:
                raise FrontierBudgetExceeded(f"the frontier pass up to n={n_max} needs more "
                                             f"than {limit} frontier states")
        states = step
    total = states.get(0, 0)
    digit = (1 << width) - 1
    return [((total >> width * min(n, B - n)) & digit) << y_bits * max(n - V, 0) for n in ns]


def admissible_subsets(graph: DirectedGraph, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the n-bond subsets balanced at every vertex (in = out), in
    ascending lexicographic order.

    Exactly these subsets index the nonzero principal minors of the
    scattering matrix; all others have an unbalanced vertex.  They come
    from one depth-first search (see :func:`_balanced_subsets`) whose cost
    follows their number, and are sorted before the first is yielded.
    ``bench/worker.py`` calls it (ROADMAP item 1).
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
    subset_t = tuple(sorted(set(_bond_ids(graph, subset))))
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

    Each is found once, as the Lyndon walk from its minimal bond.  From
    each start bond the walk extends only prenecklaces (prefixes of Lyndon
    words, the Fredricksen-Kessler-Maiorana rule of
    ``lyndon._fitting_lyndon_words``) and only to bonds that can still
    lead back to the start within max_len, by breadth-first distances
    toward it; a closed prenecklace is Lyndon when its period is its
    length.

    ``cap`` bounds the steps of the plain walk over every bond >= the
    start, which the pruned walk no longer takes: the followers >= the
    start of the last bond of every such walk of length 1..max_len.  A
    walk-count recurrence per start counts them exactly before that start
    is walked, and EnumerationCapExceeded is raised once the running
    total passes ``cap``.  All work per start is over the bonds it
    reaches.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    followers = [graph.out_bonds[v] for _, v in graph.bonds]
    leaders = [graph.in_bonds[u] for u, _ in graph.bonds]
    found: list[tuple[int, ...]] = []
    steps = 0
    for start in range(graph.num_bonds):
        # the plain walk's steps: ways[b] walks of the current length end at b
        ways = {start: 1}
        for _ in range(max_len):
            later: dict[int, int] = {}
            for b, count in ways.items():
                for c in followers[b]:
                    if c >= start:
                        steps += count
                        later[c] = later.get(c, 0) + count
            if steps > cap:
                raise EnumerationCapExceeded(
                    f"walk enumeration exceeded {cap} steps at max_len={max_len}"
                )
            ways = later
            if not ways:
                break
        # rest[b]: the fewest bonds after b before the start can follow
        rest: dict[int, int] = {}
        ring = [b for b in leaders[start] if b >= start]
        for d in range(max_len):
            fresh = []
            for b in ring:
                if b not in rest:
                    rest[b] = d
                    fresh.extend(a for a in leaders[b] if a >= start)
            ring = fresh
            if not ring:
                break
        if start not in rest:
            continue
        walk = [start]

        def extend(period: int) -> None:
            t = len(walk)
            last = walk[-1]
            if t == period and start in followers[last]:
                found.append(tuple(walk))
            low = walk[t - period]
            for c in followers[last]:
                if c >= low and t + 1 + rest.get(c, max_len) <= max_len:
                    walk.append(c)
                    extend(period if c == low else t + 1)
                    walk.pop()

        extend(1)
        del extend  # a recursive closure holds itself
    return sorted(found, key=lambda o: (len(o), o))


def enumerate_pseudo_orbits(
    graph: DirectedGraph,
    n: int,
    mode: str = "bond_distinct",
    cap: int = DEFAULT_CAP,
) -> list[PseudoOrbit]:
    """Primitive pseudo orbits with n bonds in total, sorted canonically.

    ``bond_distinct`` unions the cycle covers of all balanced n-subsets,
    found by a search whose cost follows their number.  Before building
    any, it refuses more than ``cap`` of them, or a count by
    :func:`balanced_counts` past its budget.
    ``general`` combines arbitrary distinct primitive orbits of total
    length n and is a strict superset once n admits repeated bonds; its
    orbit search takes at most ``cap`` steps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if mode == "bond_distinct":
        try:
            [count] = balanced_counts(graph, [n], 1)
        except FrontierBudgetExceeded as exc:
            raise EnumerationCapExceeded(str(exc)) from exc
        if count > cap:
            raise EnumerationCapExceeded(f"{count} pseudo orbits at n={n} exceed the cap {cap}")
        out: list[PseudoOrbit] = []
        for subset in _balanced_subsets(graph, n):
            out.extend(covers_of_subset(graph, subset).covers)
        return sorted(out, key=lambda po: po.orbits)
    if mode == "general":
        pool = primitive_orbits(graph, n, cap=cap)
        lengths = list(map(len, pool))
        signs = _orbit_signs(graph, pool)
        # pool is sorted by length: pool[first[ell]:] are the orbits of length >= ell
        first = [bisect.bisect_left(lengths, ell) for ell in range(n + 2)]
        results = [] if n else [PseudoOrbit((), 1)]
        chosen: list[tuple[int, ...]] = []

        def combine(i: int, remaining: int, sign: int) -> None:
            # each later orbit is at least as long, so an orbit either fills
            # the rest or leaves at least its own length
            for j in range(max(i, first[remaining]), first[remaining + 1]):
                chosen.append(pool[j])
                results.append(PseudoOrbit(tuple(sorted(chosen)), sign * signs[j]))
                chosen.pop()
            for j in range(i, first[remaining // 2 + 1]):
                chosen.append(pool[j])
                combine(j + 1, remaining - lengths[j], sign * signs[j])
                chosen.pop()

        combine(0, n, 1)
        del combine  # a recursive closure holds itself; drop its lists now
        results.sort(key=operator.attrgetter("orbits"))
        return results
    raise ValueError(f"unknown mode {mode!r}")


class PartnerGroup(tuple):
    """The pseudo orbits that share one bond multiset, as an immutable
    tuple, and ``sums``, the pair (C, -C) with C = sum of weight_sign / 2^n
    over them.

    Only :func:`group_by_bond_multiset` builds one, from the pseudo orbits
    it keyed by their sorted bonds, so ``classify.c_gamma`` can read C
    without checking the members again.  A tuple subclass keeps its
    attributes in a ``__dict__`` (184 B per group), so the pair is its one
    attribute.
    """

    def __new__(cls, members: Iterable[PseudoOrbit], sums: tuple[Fraction, Fraction]):
        group = super().__new__(cls, members)
        group.sums = sums
        return group

    def __getnewargs__(self) -> tuple:
        return tuple(self), self.sums


# the sums of every group whose signs cancel: the one Fraction(0) that
# c_gamma returns for each of their members
_CANCELLED = (Fraction(0),) * 2


def group_by_bond_multiset(
    pseudo_orbits: Iterable[PseudoOrbit],
) -> dict[tuple[tuple[int, int], ...], PartnerGroup]:
    """Partition pseudo orbits by bond multiset.

    With incommensurate bond lengths, pseudo orbits contribute coherently
    to variance sums exactly when their bond multisets coincide, so these
    groups are the partner classes.  The keys are the sorted (bond,
    multiplicity) pairs, in order of first appearance, and each group
    holds its members in the order given.  One pass sorts each pseudo
    orbit's bonds once; each group's key and signed sum are then built
    once, and equal pairs are shared between keys.
    """
    members: dict[tuple[int, ...], list[PseudoOrbit]] = {}
    for po in pseudo_orbits:
        members.setdefault(tuple(sorted(itertools.chain.from_iterable(po.orbits))), []).append(po)
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    groups = {}
    for bonds, group in members.items():
        key = _multiset(bonds)
        signed = sum(po.weight_sign for po in group)
        if signed:
            total = Fraction(signed, 2 ** len(bonds))
            sums = (total, -total)
        else:
            sums = _CANCELLED
        groups[tuple(map(pairs.setdefault, key, key))] = PartnerGroup(group, sums)
    return groups
