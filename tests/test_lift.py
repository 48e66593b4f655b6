"""An independent exact count for the binary family: the line-graph lift.

binary(p, r + 1) is the line digraph of binary(p, r): its vertices are
the bonds of the smaller graph and its bonds the two-step walks b -> c
through a small vertex v.  A bond subset I of the larger graph is
therefore one 0/1 2x2 matrix per small vertex, rows the bonds into v and
columns the bonds out of it.  I is balanced at the large vertex b exactly
when the row sum of b at its terminus equals its column sum at its
origin; call that common value the spin s_b in {0, 1, 2}.  Then |I| is
the sum of the spins and N(I) the number of spins equal to 2, so

    sum_I x^|I| 4^N(I) = sum_s prod_b x^s_b 4^[s_b = 2] prod_v W(rows_v, cols_v),

with W the number of 0/1 2x2 matrices with the given row and column sums.
The coefficient of x^n is 2^n var(n) of the larger graph.  A transfer pass
over the small graph's vertices, its state the spins of the bonds with one
end processed, evaluates the sum.  It shares no code with
``orbits._vertex_steps`` or ``balanced_counts``, only the elimination
order, so it checks the exact pass's arithmetic and vertex steps; the
oracle and Monte Carlo check the variance formula itself.

Run as a script, ``PYTHONPATH=src python tests/test_lift.py``, it takes
the B=128 row (p = 1, r = 6) to its midpoint n = 64.
"""

import itertools
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import qgspectra as q
from qgspectra.orbits import _elimination_order

# (row sums, column sums) -> the number of 0/1 2x2 matrices with them
_MATRICES = Counter(
    ((a + b, c + d), (a + c, b + d)) for a, b, c, d in itertools.product((0, 1), repeat=4)
)


def lifted_row(graph: q.DirectedGraph, n_max: int) -> list[Fraction]:
    """var(n) for n = 0..n_max on the line digraph of ``graph``."""
    big = 2 * graph.num_bonds  # bonds of the lift
    width = 2 * big + 1  # 2^n var(n) <= C(big, n) 2^n < 2^(2 big)
    keep = (1 << width * (n_max + 1)) - 1
    opened: list[int] = []  # bonds with one end processed, in state order
    states = {(): 1}
    for v in _elimination_order(graph):
        ports = graph.in_bonds[v] + graph.out_bonds[v]  # rows, then columns
        incident = dict.fromkeys(ports)  # a loop at v is one row and one column
        known = [b for b in incident if b in opened]
        fresh = [b for b in incident if b not in opened]
        stay = [i for i, b in enumerate(opened) if b not in known]
        # a fresh bond stays open unless it is a loop at v
        grow = [j for j, b in enumerate(fresh) if sum(graph.bonds[b]) != 2 * v]
        # per spins of the known bonds: (W, shift, spins of the fresh bonds kept open)
        moves: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = {}
        for spins in itertools.product(range(3), repeat=len(known)):
            options = moves[spins] = []
            for picks in itertools.product(range(3), repeat=len(fresh)):
                spin = dict(zip(known, spins)) | dict(zip(fresh, picks))
                weight = _MATRICES[tuple(spin[b] for b in ports[:2]),
                                   tuple(spin[b] for b in ports[2:])]
                if weight:
                    shift = sum(width * s + 2 * (s == 2) for s in picks)
                    options.append((weight, shift, tuple(picks[j] for j in grow)))
        at = [opened.index(b) for b in known]
        step: dict[tuple[int, ...], int] = {}
        for state, poly in states.items():
            base = tuple(state[i] for i in stay)
            for weight, shift, kept in moves[tuple(state[i] for i in at)]:
                term = ((poly << shift) & keep) * weight
                if term:
                    key = base + kept
                    step[key] = step.get(key, 0) + term
        states = step
        opened = [opened[i] for i in stay] + [fresh[j] for j in grow]
    assert opened == []
    total = states[()]
    digit = (1 << width) - 1
    return [Fraction((total >> width * n) & digit, 2**n) for n in range(n_max + 1)]


@pytest.mark.parametrize("p, r", [(1, 1), (1, 2), (1, 3), (1, 4), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_lift_gives_the_whole_variance_row(p, r):
    large = q.build_binary_graph(p, r + 1)
    B = large.num_bonds
    assert B <= 80
    assert lifted_row(q.build_binary_graph(p, r), B) == q.variance(large, range(B + 1))


if __name__ == "__main__":
    start = time.perf_counter()
    midpoint = lifted_row(q.build_binary_graph(1, 5), 64)[64]
    seconds = time.perf_counter() - start
    print(f"B=128 midpoint by the lift: {midpoint} = {midpoint.numerator}/2^"
          f"{midpoint.denominator.bit_length() - 1} ({seconds:.1f} s)")
    sys.exit(midpoint != Fraction(2226561237, 2**32))
