"""DFT quantization: scattering matrix structure, lengths, U(k)."""

import numpy as np
import pytest

import qgspectra as q
from qgspectra.quantize import BondLengths, dft_vertex_matrix, evolution_operator

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_dft_vertex_matrix():
    sigma = dft_vertex_matrix()
    assert sigma == pytest.approx(np.array([[1, 1], [1, -1]]) * INV_SQRT2)
    assert sigma.conj().T @ sigma == pytest.approx(np.eye(2))


def test_transition_sign_on_debruijn8(debruijn8):
    # at vertex 0: in bonds (0, 8), out bonds (0, 1); the sign is negative
    # exactly for the second-in -> second-out combination
    assert q.transition_sign(debruijn8, 0, 0) == 1
    assert q.transition_sign(debruijn8, 0, 1) == 1
    assert q.transition_sign(debruijn8, 8, 0) == 1
    assert q.transition_sign(debruijn8, 8, 1) == -1


def test_transition_sign_rejects_nonadjacent(debruijn8):
    # bond 0 ends at vertex 0; bond 2 starts at vertex 1
    with pytest.raises(ValueError):
        q.transition_sign(debruijn8, 0, 2)
    # bond -1 would index the last bond, (7, 7), which bond 15 follows
    with pytest.raises(ValueError, match="unknown bond id -1"):
        q.transition_sign(debruijn8, -1, 15)


@pytest.mark.parametrize("fixture", ["scattering8", "scattering6"])
def test_scattering_is_unitary(fixture, request):
    S = request.getfixturevalue(fixture)
    assert S.unitarity_defect() < 1e-12


def test_scattering_entry_structure(family_graph):
    g, S = family_graph, q.build_bond_scattering(family_graph).matrix
    B = g.num_bonds
    for b_in in range(B):
        for b_out in range(B):
            if g.terminus(b_in) == g.origin(b_out):
                assert abs(S[b_out, b_in]) == pytest.approx(INV_SQRT2)
                sign = q.transition_sign(g, b_in, b_out)
                assert S[b_out, b_in] == pytest.approx(sign * INV_SQRT2)
            else:
                assert S[b_out, b_in] == 0


def test_scattering_has_one_negative_entry_per_vertex(debruijn8, scattering8):
    negatives = np.argwhere(scattering8.matrix.real < -0.1)
    assert len(negatives) == debruijn8.vertex_count
    expected = {
        (debruijn8.out_bonds[v][1], debruijn8.in_bonds[v][1])
        for v in range(debruijn8.vertex_count)
    }
    assert {tuple(rc) for rc in negatives} == expected


def test_scattering_matrix_is_readonly(scattering8):
    with pytest.raises(ValueError):
        scattering8.matrix[0, 0] = 0.0


def test_build_scattering_rejects_invalid_graph():
    g = q.DirectedGraph(2, ((0, 0), (0, 0), (1, 1), (1, 1)))
    with pytest.raises(ValueError, match="validation"):
        q.build_bond_scattering(g)


def test_sample_bond_lengths_properties(debruijn8):
    lengths = q.sample_bond_lengths(debruijn8, 101)
    assert len(lengths) == debruijn8.num_bonds
    assert np.all(lengths.values >= 1.0) and np.all(lengths.values < 2.0)
    assert np.unique(lengths.values).size == len(lengths)
    again = q.sample_bond_lengths(debruijn8, 101)
    assert np.array_equal(lengths.values, again.values)
    other = q.sample_bond_lengths(debruijn8, 102)
    assert not np.array_equal(lengths.values, other.values)


def test_bond_lengths_validation():
    with pytest.raises(ValueError):
        BondLengths(values=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        BondLengths(values=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        BondLengths(values=np.array([]))
    with pytest.raises(ValueError, match="finite"):
        BondLengths(values=np.array([1.0, np.inf]))
    # numpy would read a bool among numbers as a length of 1.0 or 0.0
    for stored in ({"a": 1}, [[1.0], [1.1, 1.2]], ["1.0", "1.5"], [None, 1.5], [1.5, True],
                   [2.5, np.False_, 3.5]):
        with pytest.raises(ValueError, match="vector of numbers"):
            BondLengths(values=stored)
    lengths = BondLengths(values=np.array([1.0, 1.5]))
    with pytest.raises(ValueError):
        lengths.values[0] = 2.0


def test_bond_lengths_is_the_graph_module_class():
    # one class, defined beside the graph file that stores lengths
    assert BondLengths is q.graphs.BondLengths is q.BondLengths


def test_evolution_operator_unitary(scattering6, lengths6):
    for k in (0.0, 1.0, 17.3, 4000.0):
        U = evolution_operator(scattering6, lengths6, k)
        B = scattering6.num_bonds
        assert np.linalg.norm(U.conj().T @ U - np.eye(B)) < 1e-12


def test_evolution_operator_at_zero_is_s(scattering6, lengths6):
    assert np.array_equal(
        evolution_operator(scattering6, lengths6, 0.0), scattering6.matrix
    )


def test_evolution_operator_length_mismatch(scattering8, lengths6):
    with pytest.raises(ValueError):
        evolution_operator(scattering8, lengths6, 1.0)
