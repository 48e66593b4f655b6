"""4-regular directed multigraphs: construction, validation, and file I/O.

Vertices are integers ``0..V-1``.  A bond is a directed edge ``(origin,
terminus)``; the bond list is kept in canonical order (sorted by origin,
then terminus, with parallel copies adjacent) and bond ids are positions
in that list.  Every matrix, orbit, and subset downstream is indexed by
these ids, so the ordering is part of the data contract.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable


@dataclass(frozen=True)
class DirectedGraph:
    """Directed multigraph with a fixed bond ordering.

    The constructor only guarantees well-formed vertex ids.  Regularity,
    bond count, and strong connectivity are checked by
    :func:`validate_graph`, so malformed graphs can still be built and
    reported on rather than rejected at construction time.
    """

    vertex_count: int
    bonds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        bonds = tuple((int(u), int(v)) for u, v in self.bonds)
        for u, v in bonds:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(
                    f"bond ({u}, {v}) references a vertex outside 0..{self.vertex_count - 1}"
                )
        object.__setattr__(self, "bonds", bonds)

    @property
    def num_bonds(self) -> int:
        return len(self.bonds)

    def origin(self, bond: int) -> int:
        return self.bonds[bond][0]

    def terminus(self, bond: int) -> int:
        return self.bonds[bond][1]


@dataclass(frozen=True)
class VertexPorts:
    """Bond ids incident to each vertex, in ascending order.

    The position of a bond within its vertex tuple (0 or 1 on a 4-regular
    graph) is the port slot that picks its row/column of the 2x2 vertex
    scattering block, so this ordering fixes all signs downstream.
    """

    in_bonds: tuple[tuple[int, ...], ...]
    out_bonds: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def vertex_ports(graph: DirectedGraph) -> VertexPorts:
    ins: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    outs: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for b, (u, v) in enumerate(graph.bonds):
        outs[u].append(b)
        ins[v].append(b)
    return VertexPorts(
        in_bonds=tuple(tuple(sorted(x)) for x in ins),
        out_bonds=tuple(tuple(sorted(x)) for x in outs),
    )


@dataclass(frozen=True)
class ValidationReport:
    four_regular: bool
    strongly_connected: bool
    bond_count_ok: bool
    ports: VertexPorts
    problems: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.four_regular and self.strongly_connected and self.bond_count_ok


def validate_graph(graph: DirectedGraph) -> ValidationReport:
    """Check 2-in/2-out regularity, B = 2V, and strong connectivity."""
    ports = vertex_ports(graph)
    problems: list[str] = []
    four_regular = True
    for v in range(graph.vertex_count):
        n_in = len(ports.in_bonds[v])
        n_out = len(ports.out_bonds[v])
        if (n_in, n_out) != (2, 2):
            four_regular = False
            problems.append(
                f"vertex {v} has {n_in} incoming / {n_out} outgoing bonds (want 2/2)"
            )
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
        ports=ports,
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


def save_graph(graph: DirectedGraph, path: str | Path, lengths=None) -> None:
    """Write a graph (and optionally its bond lengths) as JSON.

    Format: ``{"V": int, "bonds": [[u, v], ...]}`` with the bond list in
    canonical order, plus ``"lengths": [...]`` when given.
    """
    payload: dict = {
        "V": graph.vertex_count,
        "bonds": [[u, v] for u, v in graph.bonds],
    }
    if lengths is not None:
        values = [float(x) for x in getattr(lengths, "values", lengths)]
        if len(values) != graph.num_bonds:
            raise ValueError("length vector does not match the bond count")
        payload["lengths"] = values
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _graph_as_written(data, source: str | Path) -> DirectedGraph:
    try:
        vertex_count = int(data["V"])
        bonds = tuple((int(u), int(v)) for u, v in data["bonds"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph file {source}: {exc}") from exc
    return DirectedGraph(vertex_count, bonds)


def read_graph(path: str | Path) -> DirectedGraph:
    """Parse a graph JSON file as written; bond order and validity are not
    checked (see :func:`load_graph`)."""
    return _graph_as_written(json.loads(Path(path).read_text()), path)


def graph_from_json(data, source: str | Path) -> DirectedGraph:
    """The graph of an already parsed graph file, enforcing canonical bond
    order and validity; ``source`` names the file in error messages."""
    graph = _graph_as_written(data, source)
    if list(graph.bonds) != sorted(graph.bonds):
        raise ValueError(f"{source}: bond list is not in canonical (origin, terminus) order")
    report = validate_graph(graph)
    if not report.passed:
        raise ValueError(f"{source}: invalid graph: " + "; ".join(report.problems))
    return graph


def load_graph(path: str | Path) -> DirectedGraph:
    """Read a graph JSON file, enforcing canonical bond order and validity."""
    return graph_from_json(json.loads(Path(path).read_text()), path)
