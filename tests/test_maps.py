import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp.algebra import BitConfig, HamiltonianSpec, PauliTerm
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain
from spinamp.maps import (
    TildeIndexSet,
    conjugate_hamiltonian,
    gamma_forward,
    gamma_inverse,
    gamma_inverse_indices,
    mirror_map,
    tilde_config,
)

from oracles import (
    cnot_matrix,
    gamma_forward_bits,
    gamma_inverse_bits,
    gamma_matrix,
    kron_dense,
    mirror_bits,
)


def test_tilde_config_examples():
    assert str(tilde_config(TildeIndexSet(5, (3,)))) == "11100"
    assert str(tilde_config(TildeIndexSet(5, (3, 5)))) == "00011"
    assert str(tilde_config(TildeIndexSet(4, ()))) == "0000"


def test_tilde_index_set_validation():
    with pytest.raises(ValueError):
        TildeIndexSet(4, (2, 2))
    with pytest.raises(ValueError):
        TildeIndexSet(4, (5,))


def test_gamma_forward_examples():
    assert str(gamma_forward(BitConfig.from_string("00100"))) == "11100"
    assert str(gamma_forward(BitConfig.from_string("00101"))) == "00011"
    assert str(gamma_forward(BitConfig.from_string("00000"))) == "00000"


def test_gamma_inverse_examples():
    assert str(gamma_inverse(BitConfig.from_string("11100"))) == "00100"
    assert str(gamma_inverse(BitConfig.from_string("11111"))) == "00001"


@pytest.mark.parametrize("n", range(1, 13))
def test_gamma_is_a_bijection(n):
    images = {gamma_forward(BitConfig.from_index(n, i)).index for i in range(1 << n)}
    assert images == set(range(1 << n))


@pytest.mark.parametrize("n", range(1, 11))
def test_ladder_maps_match_per_bit_oracles(n):
    for i in range(1 << n):
        b = BitConfig.from_index(n, i)
        assert gamma_forward(b) == gamma_forward_bits(b)
        assert gamma_inverse(b) == gamma_inverse_bits(b)
        assert mirror_map(b) == mirror_bits(b)


def test_gamma_round_trip_n10():
    for i in range(1 << 10):
        b = BitConfig.from_index(10, i)
        assert gamma_inverse(gamma_forward(b)) == b
        assert gamma_forward(gamma_inverse(b)) == b


def test_gamma_forward_matches_ladder_matrix():
    # the dense CNOT ladder permutes basis states exactly as the bit map
    n = 5
    gm = gamma_matrix(n)
    for i in range(1 << n):
        out = gamma_forward(BitConfig.from_index(n, i))
        col = np.zeros(1 << n)
        col[out.index] = 1.0
        assert np.array_equal(gm[:, i], col)


def test_tilde_consistency():
    for n in range(1, 9):
        for site in range(1, n + 1):
            assert gamma_forward(BitConfig.single(n, site)) == tilde_config(
                TildeIndexSet(n, (site,))
            )


@pytest.mark.parametrize("n", range(1, 13))
def test_mirror_is_an_involution(n):
    for i in range(1 << min(n, 10)):
        b = BitConfig.from_index(n, i)
        assert mirror_map(mirror_map(b)) == b


def test_mirror_examples():
    assert str(mirror_map(BitConfig.from_string("10000"))) == "11111"
    assert str(mirror_map(BitConfig.from_string("00000"))) == "00000"
    assert str(mirror_map(BitConfig.from_string("10100"))) == "11101"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_domain_walls_count_excitations(n, data):
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    b = BitConfig(n, bits)
    walls = sum(x != y for x, y in zip(bits, bits[1:])) + bits[-1]
    assert gamma_inverse(b).weight == walls


def test_conjugation_of_xx_terms():
    spec = HamiltonianSpec(4, (PauliTerm(0.5, {2: "X", 3: "X"}),))
    assert conjugate_hamiltonian(spec).term_map() == {((3, "X"),): 0.5}


def test_conjugation_of_yy_terms():
    interior = HamiltonianSpec(5, (PauliTerm(0.5, {2: "Y", 3: "Y"}),))
    assert conjugate_hamiltonian(interior).term_map() == {
        ((2, "Z"), (3, "X"), (4, "Z")): -0.5
    }
    final = HamiltonianSpec(5, (PauliTerm(0.5, {4: "Y", 5: "Y"}),))
    assert conjugate_hamiltonian(final).term_map() == {((4, "Z"), (5, "X")): -0.5}


def test_conjugation_of_local_fields():
    spec = HamiltonianSpec(4, (PauliTerm(1.5, {2: "Z"}), PauliTerm(-0.5, {4: "Z"})))
    assert conjugate_hamiltonian(spec).term_map() == {
        ((2, "Z"), (3, "Z")): 1.5,
        ((4, "Z"),): -0.5,
    }


@pytest.mark.parametrize("n", range(2, 11))
def test_exchange_conjugates_to_amplification_chain(n):
    rng = np.random.default_rng(600 + n)
    prof = CouplingProfile(n, tuple(rng.uniform(0.2, 2.0, n - 1)),
                           tuple(rng.normal(size=n)))
    assert conjugate_hamiltonian(exchange_chain(prof)).term_map() == \
        cluster_chain(prof).term_map()


def _random_pauli_spec(n, rng, n_terms=8):
    terms = []
    for _ in range(n_terms):
        sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False) + 1
        letters = {int(s): "XYZ"[rng.integers(3)] for s in sites}
        terms.append(PauliTerm(float(rng.normal()) or 1.0, letters))
    return HamiltonianSpec(n, tuple(terms))


@pytest.mark.parametrize("n", range(2, 9))
def test_symbolic_conjugation_matches_dense_oracle(n):
    # arbitrary Pauli sums, not just the chain families
    rng = np.random.default_rng(700 + n)
    gm = gamma_matrix(n)
    for _ in range(5):
        spec = _random_pauli_spec(n, rng)
        symbolic = kron_dense(conjugate_hamiltonian(spec))
        dense = gm @ kron_dense(spec) @ gm.T
        assert np.max(np.abs(symbolic - dense)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_index_conjugation_matches_dense_ladder(n, seed):
    g = gamma_inverse_indices(n)
    assert [int(i) for i in g] == [
        gamma_inverse(BitConfig.from_index(n, i)).index for i in range(1 << n)
    ]
    spec = _random_pauli_spec(n, np.random.default_rng(seed))
    gm = gamma_matrix(n)
    by_index = kron_dense(spec)[np.ix_(g, g)]
    assert np.max(np.abs(by_index - gm @ kron_dense(spec) @ gm.T)) < 1e-12


def test_cnot_matrix_is_its_own_inverse():
    c = cnot_matrix(3, 3, 1)
    assert np.array_equal(c @ c, np.eye(8))
