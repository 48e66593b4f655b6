"""Graph construction, validation, orientation, and file round trips."""

import json
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qgspectra as q
from qgspectra.graphs import DirectedGraph

DEBRUIJN8_BONDS = (
    (0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7),
    (4, 0), (4, 1), (5, 2), (5, 3), (6, 4), (6, 5), (7, 6), (7, 7),
)

BINARY6_BONDS = (
    (0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5),
    (3, 0), (3, 1), (4, 2), (4, 3), (5, 4), (5, 5),
)


def test_debruijn8_bond_table(debruijn8):
    assert debruijn8.vertex_count == 8
    assert debruijn8.num_bonds == 16
    assert debruijn8.bonds == DEBRUIJN8_BONDS


def test_binary6_bond_table(binary6):
    assert binary6.vertex_count == 6
    assert binary6.num_bonds == 12
    assert binary6.bonds == BINARY6_BONDS


def test_binary_graph_successors_and_predecessors(debruijn8):
    # vertex i feeds 2i and 2i+1 (mod V); j is fed by j//2 and j//2 + V/2
    V = debruijn8.vertex_count
    for j in range(V):
        sources = {debruijn8.origin(b) for b in debruijn8.in_bonds[j]}
        assert sources == {j // 2, j // 2 + V // 2}
        targets = {debruijn8.terminus(b) for b in debruijn8.out_bonds[j]}
        assert targets == {(2 * j) % V, (2 * j + 1) % V}


def test_build_binary_graph_rejects_bad_parameters():
    with pytest.raises(ValueError):
        q.build_binary_graph(2, 3)  # p must be odd
    with pytest.raises(ValueError):
        q.build_binary_graph(0, 3)
    with pytest.raises(ValueError):
        q.build_binary_graph(1, 0)


def test_directed_graph_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        DirectedGraph(2, ((0, 5),))
    with pytest.raises(ValueError):
        DirectedGraph(0, ())


def test_directed_graph_rejects_non_integer_vertices():
    # int() would truncate both 0.7 and 0.2 to vertex 0
    with pytest.raises(TypeError, match="0.7 is not an integer"):
        DirectedGraph(1, ((0.7, 0), (0, 0.2)))
    # bool is a subclass of int, but not a number of vertices
    with pytest.raises(TypeError, match="True is not an integer"):
        DirectedGraph(True, ((0, 0), (0, 0)))
    with pytest.raises(TypeError, match="is not an integer"):
        DirectedGraph(1.0, ((0, 0), (0, 0)))
    with pytest.raises(TypeError, match="False is not an integer"):
        DirectedGraph(1, ((0, False), (0, 0)))
    # numpy integers pass, stored as Python ints
    g = DirectedGraph(np.int64(2), ((np.int32(0), np.int64(1)), (np.uint8(1), 0)))
    assert (g.vertex_count, g.bonds) == (2, ((0, 1), (1, 0)))
    assert type(g.vertex_count) is int
    assert {type(x) for bond in g.bonds for x in bond} == {int}


def test_ports_are_ascending(debruijn8):
    for v in range(debruijn8.vertex_count):
        assert list(debruijn8.in_bonds[v]) == sorted(debruijn8.in_bonds[v])
        assert list(debruijn8.out_bonds[v]) == sorted(debruijn8.out_bonds[v])
        assert len(debruijn8.in_bonds[v]) == len(debruijn8.out_bonds[v]) == 2


def test_ports_match_a_scan_of_the_bonds(family_graph):
    g = family_graph
    for v in range(g.vertex_count):
        assert g.in_bonds[v] == tuple(b for b, (_, w) in enumerate(g.bonds) if w == v)
        assert g.out_bonds[v] == tuple(b for b, (u, _) in enumerate(g.bonds) if u == v)
    assert g.in_bonds is g.in_bonds and g.out_bonds is g.out_bonds  # computed once


def test_random_graphs_have_loops_and_parallel_bonds(random_graphs):
    assert any(u == v for g in random_graphs for u, v in g.bonds)
    assert any(max(Counter(g.bonds).values()) > 1 for g in random_graphs)


def test_ports_take_no_part_in_equality(family_graph):
    fresh = DirectedGraph(family_graph.vertex_count, family_graph.bonds)
    assert "in_bonds" in vars(family_graph)  # read by validation
    assert "in_bonds" not in vars(fresh) and "out_bonds" not in vars(fresh)
    assert fresh == family_graph and hash(fresh) == hash(family_graph)
    assert repr(fresh) == repr(family_graph)
    fresh.in_bonds, fresh.out_bonds
    assert fresh == family_graph and hash(fresh) == hash(family_graph)


def test_validation_passes_on_table_graphs(debruijn8, binary6):
    for g in (debruijn8, binary6):
        report = q.validate_graph(g)
        assert report.passed
        assert report.problems == ()


def test_validation_flags_missing_bond():
    g = DirectedGraph(8, DEBRUIJN8_BONDS[:-1])
    report = q.validate_graph(g)
    assert not report.passed
    assert not report.four_regular
    assert not report.bond_count_ok
    assert any("vertex 7" in p for p in report.problems)


def test_validation_flags_disconnected():
    # two isolated double self-loops: regular but not strongly connected
    g = DirectedGraph(2, ((0, 0), (0, 0), (1, 1), (1, 1)))
    report = q.validate_graph(g)
    assert report.four_regular
    assert report.bond_count_ok
    assert not report.strongly_connected
    assert not report.passed


def test_orient_parallel_edges():
    # undirected 4-regular: two vertices joined by four parallel edges
    g = q.orient_four_regular([(0, 1)] * 4)
    assert q.validate_graph(g).passed
    assert Counter(g.bonds) == Counter({(0, 1): 2, (1, 0): 2})


def test_orient_double_self_loop():
    g = q.orient_four_regular([(0, 0), (0, 0)], vertex_count=1)
    assert g.bonds == ((0, 0), (0, 0))
    assert q.validate_graph(g).passed


def test_orient_rejects_wrong_degree():
    with pytest.raises(ValueError):
        q.orient_four_regular([(0, 1), (0, 1), (1, 0)])
    with pytest.raises(ValueError):
        q.orient_four_regular([])


def test_orient_rejects_disconnected():
    edges = [(0, 1)] * 4 + [(2, 3)] * 4
    with pytest.raises(ValueError):
        q.orient_four_regular(edges)


def test_orient_rejects_unknown_vertex():
    with pytest.raises(ValueError, match=r"edge \(0, 5\) references an unknown vertex"):
        q.orient_four_regular([(0, 5), (0, 5)], 2)


def test_port_faults_phrase_both_refusals():
    # one line per vertex off 2-in/2-out, read by validate_graph and by the
    # frontier pass, each with its own suffix
    crowded = DirectedGraph(2, ((0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (1, 1)))
    assert crowded.port_faults == ("vertex 0 has 4 incoming / 4 outgoing bonds",)
    assert q.validate_graph(crowded).problems[0] == (
        "vertex 0 has 4 incoming / 4 outgoing bonds (want 2/2)")
    with pytest.raises(ValueError) as refused:
        q.balanced_counts(crowded, [2], 0)
    assert str(refused.value) == ("vertex 0 has 4 incoming / 4 outgoing bonds; "
                                  "counting balanced subsets needs two of each")
    assert q.build_binary_graph(3, 1).port_faults == ()


def _undirected_connected(vertex_count, edges):
    adjacency = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == vertex_count


@st.composite
def four_regular_multigraphs(draw):
    """Configuration model: pair up the 4V half-edge stubs."""
    V = draw(st.integers(min_value=1, max_value=7))
    stubs = [v for v in range(V) for _ in range(4)]
    perm = draw(st.permutations(stubs))
    edges = [(perm[2 * i], perm[2 * i + 1]) for i in range(2 * V)]
    return V, edges


@given(four_regular_multigraphs())
@settings(max_examples=60, deadline=None)
def test_orientation_property(vg):
    V, edges = vg
    assume(_undirected_connected(V, edges))
    g = q.orient_four_regular(edges, vertex_count=V)
    report = q.validate_graph(g)
    assert report.passed
    # the oriented bonds are the input edges, each used exactly once
    assert Counter(frozenset((u, v)) if u != v else (u,) for u, v in g.bonds) == Counter(
        frozenset((u, v)) if u != v else (u,) for u, v in edges
    )


def test_save_load_roundtrip(tmp_path, debruijn8):
    path = tmp_path / "g.json"
    q.save_graph(debruijn8, path)
    assert q.load_graph(path) == (debruijn8, None)


def test_save_load_with_lengths(tmp_path, binary6, lengths6):
    path = tmp_path / "g6.json"
    q.save_graph(binary6, path, lengths=lengths6)
    graph, stored = q.load_graph(path)
    assert graph == binary6
    assert isinstance(stored, q.BondLengths)
    assert list(stored.values) == pytest.approx(list(lengths6.values))


def test_save_rejects_wrong_length_count(tmp_path, binary6):
    with pytest.raises(ValueError):
        q.save_graph(binary6, tmp_path / "bad.json", lengths=[1.0, 2.0])


_GOOD_LENGTHS = [1 + b / 16 for b in range(12)]


@pytest.mark.parametrize("lengths, message", [
    ([*_GOOD_LENGTHS[:-1], True], "lengths must be a vector of numbers, got bool entries"),
    ([-1.0] * 12, "lengths must be strictly positive"),
    ([1.5, 1.5, *_GOOD_LENGTHS[2:]], "lengths must be pairwise distinct"),
    ([1.0, 2.0], "stored lengths do not match the bond count"),
], ids=["bool", "negative", "repeated", "short"])
def test_save_refuses_what_load_refuses(tmp_path, binary6, lengths, message):
    path = tmp_path / "g6.json"
    with pytest.raises(ValueError) as refused:
        q.save_graph(binary6, path, lengths=lengths)
    assert str(refused.value) == message
    assert not path.exists()
    # the same lengths, written by hand, are refused by the loader alike
    path.write_text(json.dumps({"V": 6, "bonds": BINARY6_BONDS, "lengths": lengths}))
    with pytest.raises(ValueError) as refused:
        q.load_graph(path)
    assert str(refused.value) == message


def test_load_rejects_noncanonical_order(tmp_path):
    path = tmp_path / "swapped.json"
    bonds = [list(b) for b in DEBRUIJN8_BONDS]
    bonds[0], bonds[1] = bonds[1], bonds[0]
    path.write_text('{"V": 8, "bonds": %s}' % bonds)
    with pytest.raises(ValueError) as refused:
        q.load_graph(path)
    # one owner: the loader and `graph validate` read the graph's own line
    fault = q.read_graph(path)[0].order_fault
    assert fault == "bond list is not in canonical (origin, terminus) order"
    assert str(refused.value) == f"{path}: {fault}"
    assert q.build_binary_graph(1, 3).order_fault is None


def test_load_rejects_invalid_graph(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"V": 8, "bonds": %s}' % [list(b) for b in DEBRUIJN8_BONDS[:-1]])
    with pytest.raises(ValueError, match="invalid graph"):
        q.load_graph(path)


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"vertices": 3}')
    with pytest.raises(ValueError, match="malformed"):
        q.load_graph(path)
    # a 2-in/2-out graph has V = B/2; V above B is refused before any
    # per-vertex structure is built
    path.write_text('{"V": 9, "bonds": %s}' % [list(b) for b in DEBRUIJN8_BONDS[:8]])
    for read in (q.read_graph, q.load_graph):
        with pytest.raises(ValueError, match="malformed graph file .*V=9 exceeds B=8"):
            read(path)
    # V and vertex ids are JSON integers: a float is neither truncated (0.7
    # would pass as vertex 0) nor converted (1e400 parses as inf), and a
    # boolean is not a number of vertices
    for text in (
        '{"V": 1e400, "bonds": []}',
        '{"V": 1, "bonds": [[1e400, 1]]}',
        '{"V": 1, "bonds": [[0.7, 0], [0, 0.2]]}',
        '{"V": 1.0, "bonds": [[0, 0], [0, 0]]}',
        '{"V": true, "bonds": [[0, 0], [0, 0]]}',
        '{"V": 1, "bonds": [[0, false], [0, 0]]}',
    ):
        path.write_text(text)
        for read in (q.read_graph, q.load_graph):
            with pytest.raises(ValueError, match="malformed graph file .* is not an integer"):
                read(path)


def test_read_graph_returns_the_file_as_written(tmp_path):
    path = tmp_path / "swapped.json"
    bonds = [list(b) for b in reversed(BINARY6_BONDS)]
    path.write_text('{"V": 6, "bonds": %s, "lengths": [1.5]}' % bonds)
    graph, stored = q.read_graph(path)
    assert graph.bonds == tuple(reversed(BINARY6_BONDS))
    assert stored == [1.5]  # not checked here: BondLengths checks lengths


def test_huge_vertex_count_fails_without_allocating(tmp_path, capped_cli):
    # under the child's capped address space, building 10**12 per-vertex
    # lists would end in a MemoryError traceback
    path = tmp_path / "huge.json"
    path.write_text('{"V": 1000000000000, "bonds": []}')
    proc = capped_cli("graph", "validate", "--graph-file", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "V=1000000000000 exceeds B=0" in proc.stderr
