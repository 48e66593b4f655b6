import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qgspectra as q


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
