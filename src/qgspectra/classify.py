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
exactly 2^N of them.  One frontier transfer matrix, ``balanced_counts``,
sums x^n y^N over the balanced subsets, in exact integers, and builds no
pseudo orbit.  The exact API is its two index-list views: :func:`census`
counts the subsets by (n, N), and :func:`variance` fixes y = 4, so that
the coefficient of x^n is 2^n var(n) and no N digit is carried.  Each
answers its list from one pass, reading n > B/2 through the mirror
n -> B - n.  The number |P^n| of all primitive pseudo orbits, repeated
bonds included, is [x^n] of det(I - x^2 A) / det(I - xA); it gives the
general-mode census and the diagonal approximation.  Only JSONL dumps and
partner sums enumerate.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Callable, Iterable, Sequence

from .graphs import DirectedGraph
from .orbits import PseudoOrbit, balanced_counts

WALK_BIT_LIMIT = 2**37  # bits pseudo_orbit_counts may move through its ints
COUNT_BIT_LIMIT = 2**31  # and bits they may hold


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
    bonds = list(itertools.chain.from_iterable(pseudo_orbit.orbits))
    if len(set(bonds)) < len(bonds):
        return _REPEATED_BOND
    termini, crowded = _termini(graph)
    ends = list(map(termini.__getitem__, bonds))
    # distinct bonds pass a vertex at most as often as bonds enter it
    if crowded and max(Counter(ends).values(), default=0) >= 3:
        return _THIRD_PASSAGE
    # every visited vertex is passed once or twice, so the surplus of
    # passages over vertices is the number passed twice
    return _encounter_class(len(bonds) - len(set(ends)))


# the classes are frozen values, so each is built once and shared
_REPEATED_BOND = OrbitClass("excluded", None, "repeated bond")
_THIRD_PASSAGE = OrbitClass("excluded", None, "vertex passed three or more times")


@functools.cache
def _encounter_class(encounters: int) -> OrbitClass:
    return OrbitClass("PhatN", encounters) if encounters else OrbitClass("P0", 0)


# a weak reference to the last graph classified, its bond termini, and
# whether some vertex has more than two bonds into it
_last_termini: tuple[Callable[[], DirectedGraph | None], tuple[int, ...], bool] = (
    lambda: None, (), False)


def _termini(graph: DirectedGraph) -> tuple[tuple[int, ...], bool]:
    """The terminus of each bond, and whether some vertex has more than two
    bonds into it, for the last graph classified.

    The table is found by the graph's identity and holds the graph weakly.
    A dict keyed on the graph, as ``orbits._port_flags`` is, would hash
    its whole bond tuple on every call: about 2.5 us at B=32, more than the
    classification itself.
    """
    global _last_termini
    held, termini, crowded = _last_termini
    if held() is not graph:
        termini = tuple(w for _, w in graph.bonds)
        crowded = any(len(into) > 2 for into in graph.in_bonds)
        _last_termini = (weakref.ref(graph), termini, crowded)
    return termini, crowded


@dataclass(frozen=True)
class ClassCounts:
    """Census of pseudo orbits of one total length by class."""

    n: int
    p0: int
    phat: dict[int, int]
    excluded: int = 0

    def phat_total(self) -> int:
        return sum(self.phat.values())


def census(
    graph: DirectedGraph, ns: Sequence[int], mode: str = "bond_distinct"
) -> list[ClassCounts]:
    """Count P0 / PhatN / excluded pseudo orbits of each length n in ``ns``.

    ``bond_distinct`` counts balanced n-bond subsets by encounter number
    N in one transfer-matrix pass, one digit of B + 1 bits per N; each
    carries 2^N pseudo orbits (its cycle covers).  ``general`` adds the
    pseudo orbits with a repeated bond as ``excluded`` = |P^n| - p0 -
    sum_N phat_N, with |P^n| from :func:`pseudo_orbit_counts`; above n = B
    every pseudo orbit repeats a bond.
    """
    if mode not in ("bond_distinct", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    totals = pseudo_orbit_counts(graph, max(ns, default=-1)) if mode == "general" else None
    # every pseudo orbit above n = B repeats a bond: general mode counts no subsets there
    counted = ns if totals is None else [n for n in ns if n <= graph.num_bonds]
    digit = graph.num_bonds + 1
    rows = balanced_counts(graph, counted, digit) if counted or not ns else []
    packed = dict(zip(counted, rows))
    result = []
    for n in ns:
        subsets = [(packed.get(n, 0) >> digit * N) % (1 << digit) for N in range(n // 2 + 1)]
        p0, phat = subsets[0], {N: 2**N * c for N, c in enumerate(subsets) if N and c}
        excluded = totals[n] - p0 - sum(phat.values()) if totals else 0
        result.append(ClassCounts(n=n, p0=p0, phat=phat, excluded=excluded))
    return result


def class_counts(graph: DirectedGraph, n: int, mode: str = "bond_distinct") -> ClassCounts:
    """:func:`census` at n alone; ``bench/worker.py`` calls it (ROADMAP item 1)."""
    return census(graph, [n], mode)[0]


def pseudo_orbit_counts(graph: DirectedGraph, n_max: int) -> list[int]:
    """|P^n| for n = 0..n_max: primitive pseudo orbits, repeated bonds allowed.

    A primitive pseudo orbit is a set of distinct primitive orbits, and
    det(I - xA) = prod_ell (1 - x^ell)^pi_ell over the pi_ell primitive
    orbits of length ell (Bowen-Lanford; A is the vertex adjacency, with
    multiplicities), so |P^n| = [x^n] det(I - x^2 A) / det(I - xA).
    Newton's identities give the determinant, of degree <= V, from the
    closed-walk counts tr(A^k), pushed from every start vertex at once in
    one packed int per end vertex.  Raises ValueError if that push and the
    recurrence for |P^n| would move more than ``WALK_BIT_LIMIT`` bits or
    hold more than ``COUNT_BIT_LIMIT``.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    V = graph.vertex_count
    degree = min(V, n_max)
    # a count of walks of length <= degree is at most B^degree < 2^width
    width = graph.num_bonds.bit_length() * degree + 1
    # degree steps add B packed ints of V digits each; the recurrence takes
    # up to degree products per n, each of a count of about n bits
    moved = degree * (graph.num_bonds * V * width + (n_max + 1) ** 2)
    held = V * V * width + (n_max + 1) ** 2 // 2
    for verb, bits, limit in (("move", moved, WALK_BIT_LIMIT), ("hold", held, COUNT_BIT_LIMIT)):
        if bits > limit:
            raise ValueError(f"counting pseudo orbits up to n={n_max} would {verb} about "
                             f"{bits:.2e} bits, above the limit of {limit}")
    digit = (1 << width) - 1
    walks = [1 << (width * v) for v in range(V)]
    det = [1]  # det(I - xA) = sum_k det[k] x^k
    traces = [0]
    for k in range(1, degree + 1):
        step = [0] * V
        for u, w in graph.bonds:
            step[w] += walks[u]
        walks = step
        traces.append(sum((walks[v] >> (width * v)) & digit for v in range(V)))
        det.append(-sum(traces[i] * det[k - i] for i in range(1, k + 1)) // k)
    totals: list[int] = []
    for n in range(n_max + 1):
        numerator = det[n // 2] if n % 2 == 0 and n // 2 <= degree else 0
        totals.append(numerator - sum(c * t for c, t in zip(det[1:], reversed(totals))))
    return totals


def variance(graph: DirectedGraph, ns: Sequence[int]) -> list[Fraction]:
    """Exact variance of coefficient n for each n in ``ns``, from one pass.

    The frontier pass at y_bits = 2 sums 4^N over the balanced n-bond
    subsets, which is |P0| + sum_N 2^N |PhatN| since each subset carries
    2^N pseudo orbits.
    """
    return [Fraction(total, 2**n) for n, total in zip(ns, balanced_counts(graph, ns, 2))]


def variance_from_classes(counts: ClassCounts) -> Fraction:
    """Exact coefficient variance from a class census:
    2^-n (|P0| + sum_N 2^N |PhatN|)."""
    total = counts.p0 + sum(2**N * c for N, c in counts.phat.items())
    return Fraction(total, 2**counts.n)


def exact_variance(graph: DirectedGraph, n: int) -> Fraction:
    """:func:`variance` at n alone; ``bench/worker.py`` calls it (ROADMAP item 1)."""
    return variance(graph, [n])[0]


# the last partner group c_gamma verified: its members in order, their
# common bond list, and sum of weight_sign / 2^n over them and its negative
_verified_group: tuple[tuple[PseudoOrbit, ...], list[int], Fraction, Fraction] = (
    (), [], Fraction(0), Fraction(0))


def c_gamma(
    graph: DirectedGraph, pseudo_orbit: PseudoOrbit, partners: Iterable[PseudoOrbit]
) -> Fraction:
    """Signed partner sum C of a pseudo orbit, exactly.

    C = sum over partners gamma' of (-1)^(m+m') A A'; the caller supplies
    the partner set (all pseudo orbits sharing the bond multiset,
    including the pseudo orbit itself).  Equals 2^(N-n) for bond-distinct
    pseudo orbits and 0 for repeated-bond ones.  Every partner, and the
    pseudo orbit, must share one :attr:`PseudoOrbit.bonds` list.

    A partner group is verified once: the last one checked is kept, and a
    call whose partners are the same objects in the same order reuses its
    bond list, its sum and the sum's negative, and only tests by identity
    that the pseudo orbit is one of them.  A caller that passes one group
    for each of its members, as a cancellation audit does, so sorts each
    partner's bonds once instead of once per member and builds no
    Fraction per call; a caller that passes each group once neither gains
    nor loses.  Any other partners, a list changed in place or a generator
    included, are checked in full.
    """
    global _verified_group
    group = tuple(partners)
    if not group:
        return Fraction(0)
    members, bonds, total, negated = _verified_group
    if len(group) != len(members) or not all(map(operator.is_, group, members)):
        bonds = group[0].bonds
        if any(partner.bonds != bonds for partner in group[1:]):
            raise ValueError("partner set contains a different bond multiset")
        total = Fraction(sum(partner.weight_sign for partner in group), 2 ** len(bonds))
        negated = -total
        _verified_group = (group, bonds, total, negated)
    if (not any(map(operator.is_, group, itertools.repeat(pseudo_orbit)))
            and pseudo_orbit.bonds != bonds):
        raise ValueError("partner set contains a different bond multiset")
    sign = pseudo_orbit.weight_sign
    return total if sign == 1 else negated if sign == -1 else sign * total


def diagonal_approximation(graph: DirectedGraph, n: int) -> Fraction:
    """Equal-weight estimate 2^-n |P^n| over all primitive pseudo orbits of
    length n (repeated bonds included), with |P^n| from
    :func:`pseudo_orbit_counts`; approaches 1/2 on large graphs.
    ``bench/worker.py`` calls it (ROADMAP item 1)."""
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
