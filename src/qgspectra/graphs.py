"""4-regular directed multigraphs: construction, validation, and file I/O.

Vertices are integers ``0..V-1``.  A bond is a directed edge ``(origin,
terminus)``; the bond list is kept in canonical order (sorted by origin,
then terminus, with parallel copies adjacent) and bond ids are positions
in that list.  Every matrix, orbit, and subset downstream is indexed by
these ids, so the ordering is part of the data contract, and so are the
port slots (``DirectedGraph.in_bonds`` and ``out_bonds``).  Tables derived
from the bonds, such as each bond's terminus, port faults and port-slot
flags, are cached properties of the frozen graph: built on first use, read
by every module, and dropped with the graph.

A graph file is JSON, ``{"V": int, "bonds": [[u, v], ...]}`` in canonical
bond order with an optional ``"lengths": [...]``; ``V`` and the vertex ids
are JSON integers (a float or boolean is refused, never truncated).  Only
this module writes and reads it; :func:`stored_lengths` checks the lengths.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np


def _integer(value) -> int:
    # bool is a subclass of int, and int() would truncate 0.7 to a valid
    # vertex 0 or overflow on 1e400 (parsed as inf); operator.index takes
    # Python and numpy integers only
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{value!r} is not an integer")


@dataclass(frozen=True)
class DirectedGraph:
    """Directed multigraph with a fixed bond ordering.

    The constructor only guarantees well-formed vertex ids: ``vertex_count``
    and every id must be integers (Python or numpy, not bool; a float is
    refused, never truncated), and every id must lie in ``0..V-1``.
    Regularity, bond count, and strong connectivity are checked by
    :func:`validate_graph`, so malformed graphs can still be built and
    reported on rather than rejected at construction time.
    """

    vertex_count: int
    bonds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        vertex_count = _integer(self.vertex_count)
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        bonds = tuple((_integer(u), _integer(v)) for u, v in self.bonds)
        for u, v in bonds:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"bond ({u}, {v}) references a vertex outside 0..{vertex_count - 1}"
                )
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "bonds", bonds)

    @property
    def num_bonds(self) -> int:
        return len(self.bonds)

    def origin(self, bond: int) -> int:
        return self.bonds[bond][0]

    def terminus(self, bond: int) -> int:
        return self.bonds[bond][1]

    @cached_property
    def in_bonds(self) -> tuple[tuple[int, ...], ...]:
        """Ids of the bonds ending at each vertex, in ascending order.

        A bond's position in its vertex tuple (0 or 1 on a 4-regular graph)
        is its port slot: it picks the column (in ``out_bonds``, the row) of
        the 2x2 vertex scattering block, so this order fixes all signs
        downstream.
        """
        return self._ports(1)

    @cached_property
    def out_bonds(self) -> tuple[tuple[int, ...], ...]:
        """Ids of the bonds starting at each vertex, in ascending order."""
        return self._ports(0)

    @cached_property
    def termini(self) -> tuple[int, ...]:
        """The terminus of each bond, by bond id."""
        return tuple(w for _, w in self.bonds)

    @cached_property
    def crowded(self) -> bool:
        """Whether some vertex has more than two bonds into it."""
        return any(len(into) > 2 for into in self.in_bonds)

    @cached_property
    def port_faults(self) -> tuple[str, ...]:
        """One line, with its port counts, per vertex without two bonds in and two out."""
        return tuple(
            f"vertex {v} has {len(into)} incoming / {len(out)} outgoing bonds"
            for v, (into, out) in enumerate(zip(self.in_bonds, self.out_bonds))
            if (len(into), len(out)) != (2, 2)
        )

    @cached_property
    def second_slots(self) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        """Per bond: does it sit in the second in-port slot at its terminus,
        and in the second out-port slot at its origin?  A step b -> c is
        negative exactly when b's first flag and c's second are set."""
        return (
            tuple(self.in_bonds[w].index(b) == 1 for b, (_, w) in enumerate(self.bonds)),
            tuple(self.out_bonds[u].index(b) == 1 for b, (u, _) in enumerate(self.bonds)),
        )

    def _ports(self, end: int) -> tuple[tuple[int, ...], ...]:
        slots: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for b, bond in enumerate(self.bonds):
            slots[bond[end]].append(b)
        return tuple(map(tuple, slots))


@dataclass(frozen=True)
class ValidationReport:
    four_regular: bool
    strongly_connected: bool
    bond_count_ok: bool
    problems: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.four_regular and self.strongly_connected and self.bond_count_ok


def validate_graph(graph: DirectedGraph) -> ValidationReport:
    """Check 2-in/2-out regularity, B = 2V, and strong connectivity."""
    problems = [f"{fault} (want 2/2)" for fault in graph.port_faults]
    four_regular = not problems
    bond_count_ok = graph.num_bonds == 2 * graph.vertex_count
    if not bond_count_ok:
        problems.append(
            f"{graph.num_bonds} bonds on {graph.vertex_count} vertices (want B = 2V)"
        )
    V = graph.vertex_count
    strongly_connected = _reaches_all(V, graph.bonds) and _reaches_all(
        V, [(v, u) for u, v in graph.bonds]
    )
    if not strongly_connected:
        problems.append("graph is not strongly connected")
    return ValidationReport(
        four_regular=four_regular,
        strongly_connected=strongly_connected,
        bond_count_ok=bond_count_ok,
        problems=tuple(problems),
    )


def _reaches_all(vertex_count: int, arcs: Iterable[tuple[int, int]]) -> bool:
    """Whether every vertex can be reached from vertex 0 along the arcs."""
    adjacency: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in arcs:
        adjacency[u].append(v)
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == vertex_count


def build_binary_graph(p: int, r: int) -> DirectedGraph:
    """Binary graph on V = p * 2**r vertices (p odd, r >= 1).

    Vertex i sends bonds to 2i mod V and (2i + 1) mod V, the two binary
    successors of i; p = 1 yields the binary de Bruijn family.  The
    doubling map is mixing for every valid (p, r), so the output always
    passes validation.
    """
    if p < 1 or p % 2 == 0:
        raise ValueError("p must be an odd positive integer")
    if r < 1:
        raise ValueError("r must be a positive integer")
    vertex_count = p * 2**r
    bonds = []
    for i in range(vertex_count):
        bonds.append((i, (2 * i) % vertex_count))
        bonds.append((i, (2 * i + 1) % vertex_count))
    bonds.sort()
    graph = DirectedGraph(vertex_count, tuple(bonds))
    report = validate_graph(graph)
    assert report.passed, report.problems
    return graph


def orient_four_regular(
    edges: Iterable[tuple[int, int]], vertex_count: int | None = None
) -> DirectedGraph:
    """Orient an undirected, connected, 4-regular multigraph 2-in/2-out.

    Walks an Euler circuit and orients every edge along the direction of
    travel; a closed circuit through all edges enters each vertex as often
    as it leaves, which balances the orientation.  Self-loops (degree 2)
    and parallel edges are allowed.  Different traversals can yield
    different valid orientations; no canonical choice is claimed beyond
    determinism for a fixed input edge order.
    """
    edge_list = [(int(u), int(v)) for u, v in edges]
    if not edge_list:
        raise ValueError("edge list is empty")
    if vertex_count is None:
        vertex_count = max(max(u, v) for u, v in edge_list) + 1
    degree = [0] * vertex_count
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for eid, (u, v) in enumerate(edge_list):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        degree[u] += 2 if u == v else 1
        degree[v] += 0 if u == v else 1
        incidence[u].append((eid, v))
        incidence[v].append((eid, u))  # a self-loop gets both slots at one vertex
    bad = [v for v in range(vertex_count) if degree[v] != 4]
    if bad:
        raise ValueError(f"vertices {bad} do not have undirected degree 4")
    if not _reaches_all(vertex_count, edge_list + [(v, u) for u, v in edge_list]):
        raise ValueError("graph is not connected")

    # Hierholzer: each edge is consumed once and oriented in the direction
    # of its first (only) traversal.
    used = [False] * len(edge_list)
    cursor = [0] * vertex_count
    oriented: list[tuple[int, int] | None] = [None] * len(edge_list)
    stack = [0]
    while stack:
        x = stack[-1]
        advanced = False
        while cursor[x] < len(incidence[x]):
            eid, y = incidence[x][cursor[x]]
            cursor[x] += 1
            if not used[eid]:
                used[eid] = True
                oriented[eid] = (x, y)
                stack.append(y)
                advanced = True
                break
        if not advanced:
            stack.pop()
    assert all(o is not None for o in oriented)
    graph = DirectedGraph(vertex_count, tuple(sorted(oriented)))  # type: ignore[arg-type]
    report = validate_graph(graph)
    assert report.passed, report.problems
    return graph


@dataclass(frozen=True, eq=False)
class BondLengths:
    """Finite, positive, pairwise-distinct bond lengths (the diagonal of L).

    Infinite or NaN entries, and values that are not a vector of numbers
    (such as a JSON object read from a graph file), are rejected here
    rather than inside the eigenvalue solver.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        try:
            values = np.array(self.values)
        except ValueError as exc:  # ragged nesting
            raise ValueError(f"lengths must be a vector of numbers: {exc}") from exc
        # numpy reads a bool among numbers, such as a JSON true, as 1.0
        if not isinstance(self.values, np.ndarray) and values.ndim == 1 and any(
                isinstance(x, (bool, np.bool_)) for x in self.values):
            values = values.astype(bool)
        if values.dtype.kind not in "iuf":  # objects, strings, booleans
            raise ValueError(f"lengths must be a vector of numbers, got {values.dtype} entries")
        values = values.astype(float, copy=False)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("lengths must form a nonempty 1-d vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("lengths must be finite")
        if not np.all(values > 0):
            raise ValueError("lengths must be strictly positive")
        if np.unique(values).size != values.size:
            raise ValueError("lengths must be pairwise distinct")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def stored_lengths(graph: DirectedGraph, values) -> BondLengths | None:
    """A graph file's ``"lengths"`` entry as checked bond lengths (None for
    None); raises ValueError if BondLengths refuses it or the count is off."""
    if values is None:
        return None
    lengths = BondLengths(values=values)
    if len(lengths) != graph.num_bonds:
        raise ValueError("stored lengths do not match the bond count")
    return lengths


def save_graph(graph: DirectedGraph, path: str | Path, lengths=None) -> None:
    """Write a graph file (see the module docstring), with the bond lengths
    when given; :func:`stored_lengths` refuses them as the loader would."""
    payload: dict = {
        "V": graph.vertex_count,
        "bonds": [[u, v] for u, v in graph.bonds],
    }
    if lengths is not None:
        checked = stored_lengths(graph, getattr(lengths, "values", lengths))
        payload["lengths"] = checked.values.tolist()
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def read_graph(path: str | Path) -> tuple[DirectedGraph, list | None]:
    """Parse a graph JSON file as written: the graph and the stored
    ``"lengths"`` entry (None without one).  Bond order, validity and the
    lengths are not checked (see :func:`load_graph`), but a ``V`` or vertex
    id that is not a JSON integer, or a ``V`` above the bond count, is
    rejected before anything is built per vertex."""
    data = json.loads(Path(path).read_text())
    try:
        vertex_count = _integer(data["V"])
        bonds = tuple((_integer(u), _integer(v)) for u, v in data["bonds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph file {path}: {exc}") from exc
    if vertex_count > len(bonds):  # B = 2V on a valid graph
        raise ValueError(f"malformed graph file {path}: V={vertex_count} exceeds B={len(bonds)}")
    return DirectedGraph(vertex_count, bonds), data.get("lengths")


def load_graph(path: str | Path) -> tuple[DirectedGraph, BondLengths | None]:
    """:func:`read_graph`, enforcing canonical bond order and validity; the
    lengths come back as :func:`stored_lengths` checks them."""
    graph, lengths = read_graph(path)
    if list(graph.bonds) != sorted(graph.bonds):
        raise ValueError(f"{path}: bond list is not in canonical (origin, terminus) order")
    report = validate_graph(graph)
    if not report.passed:
        raise ValueError(f"{path}: invalid graph: " + "; ".join(report.problems))
    return graph, stored_lengths(graph, lengths)
