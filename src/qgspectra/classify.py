"""Self-intersection classes of pseudo orbits and the exact variance formula.

A bond-distinct primitive pseudo orbit can meet itself only at vertices it
passes through twice; each such vertex is a zero-length 2-encounter.  With
N of them, the pseudo orbit has 2^N partners sharing its bond multiset and
contributes 2^(N-n) to the variance of coefficient n.  Pseudo orbits with
a repeated bond contribute nothing: their partner sums cancel by the
parity balance of Lyndon-word regroupings.  Summing the surviving classes
gives the exact variance

    var(n) = 2^-n * (|P0| + sum_N 2^N |PhatN|)

as a dyadic rational.

The bond-distinct pseudo orbits of length n are the cycle covers of the
balanced n-bond subsets, and a subset with N doubly used vertices has
exactly 2^N of them.  The census therefore counts balanced subsets by
(n, N) with a frontier transfer matrix over vertices, in exact integers,
and builds no pseudo orbit.  The number |P^n| of all primitive pseudo
orbits, repeated bonds included, follows in closed form from the counts
of primitive periodic orbits; it gives the general-mode census and the
diagonal approximation.  One pass of either yields every n <= n_max; the
per-n functions are views of one row.  Enumeration remains where the
pseudo orbits themselves are the output: JSONL dumps and partner sums.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable

from .graphs import DirectedGraph
from .orbits import PseudoOrbit, _elimination_order


@dataclass(frozen=True)
class OrbitClass:
    """Classification tag: "P0", "PhatN" (with N encounters), or "excluded"."""

    kind: str
    encounters: int | None
    reason: str = ""

    @property
    def label(self) -> str:
        """Dump label: "P0", "P^N", or "excluded"."""
        return "P^N" if self.kind == "PhatN" else self.kind


def classify_pseudo_orbit(graph: DirectedGraph, pseudo_orbit: PseudoOrbit) -> OrbitClass:
    """Assign a pseudo orbit to P0, PhatN, or the excluded (cancelling) class.

    P0: every vertex passed at most once.  PhatN: no repeated bond and
    exactly N vertices passed twice (a self-loop beside a second passage
    counts like any other encounter).  A repeated bond means an encounter
    of positive length or of multiplicity above two; those classes carry
    zero total weight and are excluded.  A passage through a vertex is a
    bond entering it, counted with multiplicity.
    """
    bonds = pseudo_orbit.bonds
    if len(set(bonds)) < len(bonds):
        return OrbitClass("excluded", None, "repeated bond")
    visits = Counter([graph.bonds[b][1] for b in bonds]).values()
    if max(visits, default=0) >= 3:
        # only on graphs with more than two bonds into a vertex
        return OrbitClass("excluded", None, "vertex passed three or more times")
    # every visited vertex is passed once or twice, so the surplus of
    # passages over vertices is the number passed twice
    encounters = len(bonds) - len(visits)
    return OrbitClass("PhatN", encounters) if encounters else OrbitClass("P0", 0)


@dataclass(frozen=True)
class ClassCounts:
    """Census of pseudo orbits of one total length by class."""

    n: int
    p0: int
    phat: dict[int, int]
    excluded: int = 0

    def phat_total(self) -> int:
        return sum(self.phat.values())


def class_census(
    graph: DirectedGraph, n_max: int, mode: str = "bond_distinct"
) -> list[ClassCounts]:
    """Count P0 / PhatN / excluded pseudo orbits of each length n <= n_max.

    ``bond_distinct`` counts balanced n-bond subsets by encounter number
    N in one transfer-matrix run truncated at n_max; each carries 2^N
    pseudo orbits (its cycle covers).  ``general`` adds the pseudo orbits
    with a repeated bond as ``excluded`` = |P^n| - p0 - sum_N phat_N, with
    |P^n| in closed form; above n = B every pseudo orbit repeats a bond.
    """
    if mode not in ("bond_distinct", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    totals = pseudo_orbit_counts(graph, n_max) if mode == "general" else None
    rows = _balanced_subset_counts(graph, n_max if totals is None else min(n_max, graph.num_bonds))
    census = []
    for n in range(n_max + 1):
        subsets = rows[n] if n < len(rows) else [0]
        p0, phat = subsets[0], {N: 2**N * c for N, c in enumerate(subsets) if N and c}
        excluded = totals[n] - p0 - sum(phat.values()) if totals else 0
        census.append(ClassCounts(n=n, p0=p0, phat=phat, excluded=excluded))
    return census


def class_counts(graph: DirectedGraph, n: int, mode: str = "bond_distinct") -> ClassCounts:
    """The census of total length n alone: row n of :func:`class_census`."""
    if mode == "general" and n > graph.num_bonds:  # all excluded: skip the DP
        return ClassCounts(n=n, p0=0, phat={}, excluded=pseudo_orbit_counts(graph, n)[n])
    return class_census(graph, n, mode)[n]


def pseudo_orbit_counts(graph: DirectedGraph, n_max: int) -> list[int]:
    """|P^n| for n = 0..n_max: primitive pseudo orbits, repeated bonds allowed.

    A closed bond walk of length ell is a closed vertex walk of length ell,
    so tr(A^ell) counts them, with A the vertex adjacency (multiplicities
    included).  Walk counts from every start vertex are packed into one
    int per end vertex and pushed along the bonds.  The primitive orbit
    counts pi_ell follow from tr(A^ell) = sum_{d | ell} d pi_d, and a
    primitive pseudo orbit is a set of distinct primitive orbits, so
    |P^n| = [x^n] prod_ell (1 + x^ell)^pi_ell.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    V = graph.vertex_count
    # a count of walks of length <= n_max is at most B^n_max < 2^width
    width = graph.num_bonds.bit_length() * n_max + 1
    digit = (1 << width) - 1
    walks = [1 << (width * v) for v in range(V)]
    primitive = [0] * (n_max + 1)
    totals = [1] + [0] * n_max
    for ell in range(1, n_max + 1):
        step = [0] * V
        for u, w in graph.bonds:
            step[w] += walks[u]
        walks = step
        trace = sum((walks[v] >> (width * v)) & digit for v in range(V))
        repeats = sum(d * primitive[d] for d in range(1, ell) if ell % d == 0)
        primitive[ell] = (trace - repeats) // ell
        # multiply by (1 + x^ell)^primitive[ell], truncated at x^n_max
        binomials = [math.comb(primitive[ell], j) for j in range(n_max // ell + 1)]
        for m in range(n_max, ell - 1, -1):
            totals[m] += sum(binomials[j] * totals[m - j * ell] for j in range(1, m // ell + 1))
    return totals


def _balanced_subset_counts(graph: DirectedGraph, n_max: int) -> list[list[int]]:
    """Number of balanced n-bond subsets with N doubly used vertices,
    indexed [n][N] for n = 0..n_max and N = 0..n//2.

    Frontier transfer matrix: vertices are eliminated in
    :func:`orbits._elimination_order`; a bond is open while exactly one of
    its endpoints is processed.  The state is the set of selected open bonds
    (a bitmask over bond ids) and carries a generating polynomial in x
    (selected bonds) and y (doubly used vertices), truncated at x^n_max.  A
    vertex step decides the vertex's remaining bonds, keeps the choices
    with selected in = selected out, and closes the bonds whose endpoints
    are now both processed.  A self-loop is decided and closed at once.
    """
    B = graph.num_bonds
    if not 0 <= n_max <= B:
        raise ValueError(f"n must lie in 0..{B}")
    for v in range(graph.vertex_count):
        n_in, n_out = len(graph.in_bonds[v]), len(graph.out_bonds[v])
        if n_in > 2 or n_out > 2:
            raise ValueError(
                f"vertex {v} has {n_in} incoming / {n_out} outgoing bonds; "
                "the class census needs at most 2 of each"
            )
    # Polynomials are packed into one int: the coefficient of x^k y^N sits
    # at bit width * (k * span + N).  Each coefficient counts subsets of
    # the decided bonds, so it stays below C(B, B//2) < 2^width.
    width = math.comb(B, B // 2).bit_length()
    span = n_max // 2 + 1
    keep = (1 << (width * span * (n_max + 1))) - 1
    done = [False] * graph.vertex_count
    states: dict[int, int] = {0: 1}
    for v in _elimination_order(graph):
        incident = set(graph.in_bonds[v]) | set(graph.out_bonds[v])
        # the far end of bond (u, w) at v is u + w - v; v itself for a loop
        closing = [b for b in incident if done[sum(graph.bonds[b]) - v]]
        fresh = sorted(incident.difference(closing))
        closing_in = sum(1 << b for b in closing if graph.terminus(b) == v)
        closing_out = sum(1 << b for b in closing if graph.origin(b) == v)
        # choices for the fresh bonds, keyed by (selected in - selected out)
        choices: dict[int, list[tuple[int, int, int]]] = {}
        for picks in itertools.product((False, True), repeat=len(fresh)):
            chosen = [b for b, pick in zip(fresh, picks) if pick]
            d_in = sum(1 for b in chosen if graph.terminus(b) == v)
            d_out = sum(1 for b in chosen if graph.origin(b) == v)
            opened = sum(1 << b for b in chosen if graph.origin(b) != graph.terminus(b))
            choices.setdefault(d_in - d_out, []).append((d_in, len(chosen), opened))
        done[v] = True
        unclosed = ~(closing_in | closing_out)
        step: dict[int, int] = {}
        for mask, poly in states.items():
            c_in = (mask & closing_in).bit_count()
            c_out = (mask & closing_out).bit_count()
            base = mask & unclosed
            for d_in, k, opened in choices.get(c_out - c_in, ()):
                shift = width * (k * span + (c_in + d_in == 2))
                term = (poly << shift) & keep
                if term:
                    key = base | opened
                    step[key] = step.get(key, 0) + term
        states = step
    total = states.get(0, 0)
    digit = (1 << width) - 1
    return [[(total >> (width * (n * span + N))) & digit for N in range(n // 2 + 1)]
            for n in range(n_max + 1)]


def variance_from_classes(counts: ClassCounts) -> Fraction:
    """Exact coefficient variance from a class census:
    2^-n (|P0| + sum_N 2^N |PhatN|)."""
    total = counts.p0 + sum(2**N * c for N, c in counts.phat.items())
    return Fraction(total, 2**counts.n)


def exact_variance(graph: DirectedGraph, n: int) -> Fraction:
    """Exact variance of coefficient n; indices above B/2 use the mirror
    symmetry var(n) = var(B - n)."""
    return variance_from_classes(class_counts(graph, min(n, graph.num_bonds - n)))


def c_gamma(
    graph: DirectedGraph, pseudo_orbit: PseudoOrbit, partners: Iterable[PseudoOrbit]
) -> Fraction:
    """Signed partner sum C of a pseudo orbit, exactly.

    C = sum over partners gamma' of (-1)^(m+m') A A'; the caller supplies
    the partner set (all pseudo orbits sharing the bond multiset,
    including the pseudo orbit itself).  Equals 2^(N-n) for bond-distinct
    pseudo orbits and 0 for repeated-bond ones.  Each partner is checked
    against the pseudo orbit by its :attr:`PseudoOrbit.bonds`.
    """
    reference = pseudo_orbit.bonds
    total = 0
    for partner in partners:
        if partner.bonds != reference:
            raise ValueError("partner set contains a different bond multiset")
        total += partner.weight_sign
    return Fraction(pseudo_orbit.weight_sign * total, 2 ** len(reference))


def diagonal_approximation(graph: DirectedGraph, n: int) -> Fraction:
    """Equal-weight estimate 2^-n |P^n| over all primitive pseudo orbits of
    length n (repeated bonds included), with |P^n| in closed form from the
    primitive orbit counts; approaches 1/2 on large graphs."""
    return Fraction(pseudo_orbit_counts(graph, n)[n], 2**n)


def pseudo_orbit_record(graph: DirectedGraph, pseudo_orbit: PseudoOrbit) -> dict:
    """JSON-ready record with the classification attached."""
    tag = classify_pseudo_orbit(graph, pseudo_orbit)
    return {
        "orbits": [list(orbit) for orbit in pseudo_orbit.orbits],
        "n": pseudo_orbit.total_bonds,
        "m": pseudo_orbit.orbit_count,
        "N": tag.encounters,
        "class": tag.label,
    }


def write_orbit_dump(
    graph: DirectedGraph, pseudo_orbits: Iterable[PseudoOrbit], stream: IO[str]
) -> int:
    """Write pseudo orbits as JSON lines; returns the number written."""
    count = 0
    for po in pseudo_orbits:
        stream.write(json.dumps(pseudo_orbit_record(graph, po)) + "\n")
        count += 1
    return count
