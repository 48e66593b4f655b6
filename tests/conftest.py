import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import qgspectra as q
from qgspectra import spectral


@pytest.fixture(scope="session")
def debruijn8():
    """Binary de Bruijn graph on 8 vertices (p=1, r=3), B=16."""
    return q.build_binary_graph(1, 3)


@pytest.fixture(scope="session")
def debruijn16():
    """Binary de Bruijn graph on 16 vertices (p=1, r=4), B=32."""
    return q.build_binary_graph(1, 4)


@pytest.fixture(scope="session")
def binary6():
    """Binary graph on 6 vertices (p=3, r=1), B=12."""
    return q.build_binary_graph(3, 1)


@pytest.fixture(scope="session")
def scattering8(debruijn8):
    return q.build_bond_scattering(debruijn8)


@pytest.fixture(scope="session")
def scattering6(binary6):
    return q.build_bond_scattering(binary6)


@pytest.fixture(scope="session")
def lengths8(debruijn8):
    return q.sample_bond_lengths(debruijn8, 101)


@pytest.fixture(scope="session")
def lengths6(binary6):
    return q.sample_bond_lengths(binary6, 202)


def seeded_four_regular(seed: int) -> q.DirectedGraph:
    """A 2-in/2-out orientation of a seeded configuration-model multigraph
    on 4..8 vertices (self-loops and parallel edges allowed), redrawn until
    it is connected."""
    rng = random.Random(seed)
    while True:
        V = rng.randint(4, 8)
        stubs = [v for v in range(V) for _ in range(4)]
        rng.shuffle(stubs)
        try:
            return q.orient_four_regular(zip(stubs[::2], stubs[1::2]), vertex_count=V)
        except ValueError:  # disconnected draw
            continue


RANDOM_GRAPH_SEEDS = (1, 2, 3, 4, 5, 6)
GRAPH_FAMILY = {
    **{f"binary-{p}-{r}": (q.build_binary_graph, p, r)
       for p, r in ((1, 3), (3, 1), (3, 2), (5, 1))},
    **{f"random-{s}": (seeded_four_regular, s) for s in RANDOM_GRAPH_SEEDS},
}


@pytest.fixture(scope="session", params=sorted(GRAPH_FAMILY))
def family_graph(request):
    """Binary graphs and seeded random 4-regular graphs, one per test case."""
    build, *params = GRAPH_FAMILY[request.param]
    return build(*params)


@cache
def relabelling_classes(V: int) -> tuple[q.DirectedGraph, ...]:
    """Every 2-in/2-out multidigraph on V vertices, one per relabelling
    class, strongly connected or not.

    The labelled ones are the V x V matrices with entries 0-2 and every
    row and column sum 2 (OEIS A000681: 1, 3, 21, 282, 6210 for V = 1..5).
    A class is the set of a matrix's simultaneous row and column
    permutations, and is represented by its least base-3 code (the entries
    read row by row); classes come in ascending code order.
    """
    rows = [r for r in itertools.product(range(3), repeat=V) if sum(r) == 2]

    def fill(prefix, column_sums):
        if len(prefix) == V:
            if all(c == 2 for c in column_sums):
                yield prefix
            return
        for row in rows:
            sums = tuple(c + x for c, x in zip(column_sums, row))
            if max(sums) <= 2:
                yield from fill(prefix + (row,), sums)

    seen: set[tuple[int, ...]] = set()
    least = []
    for matrix in fill((), (0,) * V):
        if tuple(itertools.chain(*matrix)) in seen:
            continue
        codes = {tuple(matrix[i][j] for i in perm for j in perm)
                 for perm in itertools.permutations(range(V))}
        seen |= codes
        least.append(min(codes))
    return tuple(
        q.DirectedGraph(V, tuple((u, v) for u in range(V) for v in range(V)
                                 for _ in range(code[u * V + v])))
        for code in sorted(least)
    )


def shape_id(graph: q.DirectedGraph) -> str:
    """``V<V>-<code>``: the graph's bond multiplicities read row by row."""
    V, counts = graph.vertex_count, Counter(graph.bonds)
    return f"V{V}-" + "".join(str(counts[u, v]) for u in range(V) for v in range(V))


SHAPE_VERTICES = range(1, 6)


def pytest_generate_tests(metafunc):
    """A ``shape`` argument runs once per strongly connected 2-in/2-out
    shape with V <= 5: all 72 up to relabelling."""
    if "shape" in metafunc.fixturenames:
        shapes = [g for V in SHAPE_VERTICES for g in relabelling_classes(V)
                  if q.validate_graph(g).passed]
        metafunc.parametrize("shape", shapes, ids=list(map(shape_id, shapes)))


def mean_over_dyadic_grid(graph: q.DirectedGraph) -> np.ndarray:
    """Mean of |a_n|^2 through the Monte Carlo stages over the grid
    k_j = 2 pi j / M, j < M = 2^B, with bond lengths 2^b.

    |a_n(k)|^2 is a trigonometric polynomial with integer frequencies
    L_I - L_J, and the grid mean keeps the pairs with M | L_I - L_J.  With
    these lengths every subset sum differs and lies below M, so only I = J
    remain: the mean is the incommensurate limit, the exact variance.
    """
    S = q.build_bond_scattering(graph)
    B = graph.num_bonds
    M = 1 << B
    lengths = 1 << np.arange(B, dtype=np.int64)
    rows = spectral._STACK_ELEMENTS // (B * B)
    total = np.zeros(B + 1)
    for start in range(0, M, rows):
        j = np.arange(start, min(start + rows, M), dtype=np.int64)
        phases = np.exp(2j * np.pi * ((j[:, np.newaxis] * lengths) % M) / M)
        U = S.matrix[np.newaxis, :, :] * phases[:, np.newaxis, :]
        eigenvalues = spectral._unitary_eigenvalues(U)
        power = np.abs(spectral._coefficients_from_eigenvalues(eigenvalues)) ** 2
        total += power.sum(axis=0)
    return total / M


@pytest.fixture(scope="session")
def dyadic_grid_mean():
    """:func:`mean_over_dyadic_grid`: a graph's |a_n|^2 through the Monte
    Carlo stages, averaged exactly over a grid where it is the variance."""
    return mean_over_dyadic_grid


@pytest.fixture(scope="session")
def shape_classes():
    """:func:`relabelling_classes` for V <= 5."""
    return {V: relabelling_classes(V) for V in SHAPE_VERTICES}


@pytest.fixture(scope="session")
def random_graphs():
    return [seeded_four_regular(s) for s in RANDOM_GRAPH_SEEDS]


@pytest.fixture(scope="session")
def many_random_graphs():
    """Twelve seeded random multigraphs on 4..8 vertices, some with
    self-loops and some with parallel bonds."""
    return [seeded_four_regular(s) for s in range(1, 13)]


@pytest.fixture(scope="session")
def small_graphs(binary6, debruijn8):
    """binary6, debruijn8 and two seeded random multigraphs with B=16, each
    with a self-loop and a pair of parallel bonds: small enough (B <= 16)
    to check against a walk over every bond subset."""
    return [binary6, debruijn8, seeded_four_regular(5), seeded_four_regular(6)]


# runs the CLI with its arguments after capping the child's own address space
_CAPPED_CHILD = (
    "import resource, runpy, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "sys.argv = ['qgspectra', *sys.argv[1:]]\n"
    "runpy.run_module('qgspectra.cli', run_name='__main__')\n"
)


@pytest.fixture(scope="session")
def capped_cli():
    """Run ``qgspectra <argv>`` in a child process capped at a 1 GB address
    space, with one BLAS thread: an unbounded allocation ends there in
    seconds, not by filling the host."""
    if sys.platform != "linux":
        pytest.skip("needs RLIMIT_AS")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *argv],
                              capture_output=True, text=True, timeout=60, env=env)

    return run
