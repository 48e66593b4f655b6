"""DFT quantization of 4-regular directed graphs.

Every vertex scatters waves between its two incoming and two outgoing
bonds through the 2x2 discrete-Fourier-transform block.  Assembled
bond-to-bond these blocks form the unitary scattering matrix S, and
together with a vector of incommensurate bond lengths the evolution
operator U(k) = S diag(e^{i k L_b}).  Port slots are the graph's own
(``DirectedGraph.in_bonds``/``out_bonds``); :class:`BondLengths` checks
lengths, including those a graph file stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraph, validate_graph

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
LENGTH_INTERVAL = (1.0, 2.0)  # [low, high) of sampled bond lengths


def dft_vertex_matrix() -> np.ndarray:
    """The 2x2 DFT scattering block, (1/sqrt 2) [[1, 1], [1, -1]].

    Unitary, and democratic: every entry has squared modulus 1/2.  The
    single negative amplitude couples the second in-port to the second
    out-port.
    """
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2


def transition_sign(graph: DirectedGraph, bond: int, next_bond: int) -> int:
    """Sign of the scattering amplitude for the step ``bond -> next_bond``.

    -1 exactly when both bonds sit in the second port slot at the shared
    vertex, +1 otherwise; the amplitude itself is this sign times
    1/sqrt(2).  Raises if ``next_bond`` does not start where ``bond`` ends.
    """
    v = graph.terminus(bond)
    if graph.origin(next_bond) != v:
        raise ValueError(f"bonds {bond} -> {next_bond} are not adjacent")
    negative = graph.in_bonds[v].index(bond) == 1 and graph.out_bonds[v].index(next_bond) == 1
    return -1 if negative else 1


@dataclass(frozen=True, eq=False)
class BondScattering:
    """Unitary B x B bond scattering matrix with its port convention.

    ``matrix[b_out, b_in]`` is the amplitude for entering the vertex along
    ``b_in`` and leaving along ``b_out``; it is nonzero only when ``b_in``
    ends where ``b_out`` starts.
    """

    graph: DirectedGraph
    matrix: np.ndarray

    @property
    def num_bonds(self) -> int:
        return self.graph.num_bonds

    def unitarity_defect(self) -> float:
        B = self.matrix.shape[0]
        return float(np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(B)))


def build_bond_scattering(graph: DirectedGraph) -> BondScattering:
    """Assemble S from the per-vertex DFT blocks.

    Port slots are positions in the graph's ascending ``in_bonds`` and
    ``out_bonds`` tuples; entry signs therefore agree with
    :func:`transition_sign` by construction.
    """
    report = validate_graph(graph)
    if not report.passed:
        raise ValueError("graph failed validation: " + "; ".join(report.problems))
    sigma = dft_vertex_matrix()
    B = graph.num_bonds
    matrix = np.zeros((B, B), dtype=complex)
    for v in range(graph.vertex_count):
        for col, b_in in enumerate(graph.in_bonds[v]):
            for row, b_out in enumerate(graph.out_bonds[v]):
                matrix[b_out, b_in] = sigma[row, col]
    matrix.flags.writeable = False
    return BondScattering(graph=graph, matrix=matrix)


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


def sample_bond_lengths(graph: DirectedGraph, seed: int) -> BondLengths:
    """Draw B i.i.d. uniform lengths from ``LENGTH_INTERVAL``; deterministic
    in seed.

    Rational relations between machine reals are measure zero; exact
    collisions, the one case that matters downstream, are removed by
    resampling (itself part of the deterministic stream).
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(*LENGTH_INTERVAL, graph.num_bonds)
    while np.unique(values).size != values.size:  # astronomically rare
        values = rng.uniform(*LENGTH_INTERVAL, graph.num_bonds)
    return BondLengths(values=values)


def evolution_operator(S: BondScattering, lengths: BondLengths, k: float) -> np.ndarray:
    """U(k) = S diag(e^{i k L_b}); unitary for real k."""
    if len(lengths) != S.num_bonds:
        raise ValueError("scattering matrix and length vector disagree on the bond count")
    phases = np.exp(1j * float(k) * lengths.values)
    return S.matrix * phases[np.newaxis, :]
