import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp.algebra import BitConfig, HamiltonianSpec, PauliTerm
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain
from spinamp.evolution import Propagator
from spinamp.maps import (
    _suffix_xor,
    conjugate_hamiltonian,
    gamma_inverse_indices,
    mirror_map,
)

from oracles import (
    cnot_matrix,
    gamma_forward_bits,
    gamma_inverse_bits,
    gamma_matrix,
    kron_dense,
    mirror_bits,
)


def _forward(text):
    """The ladder on one configuration: the suffix-XOR of its index."""
    b = BitConfig.from_string(text)
    return str(BitConfig.from_index(b.n_sites, _suffix_xor(b.index, b.n_sites)))


def _inverse(text):
    """Adjacent differences of one configuration, by index lookup."""
    b = BitConfig.from_string(text)
    return str(BitConfig.from_index(b.n_sites, int(gamma_inverse_indices(b.n_sites)[b.index])))


def test_gamma_forward_examples():
    assert _forward("00100") == "11100"
    assert _forward("00101") == "00011"
    assert _forward("00000") == "00000"


def test_gamma_inverse_examples():
    assert _inverse("11100") == "00100"
    assert _inverse("11111") == "00001"


@pytest.mark.parametrize("n", range(1, 13))
def test_gamma_is_a_bijection(n):
    images = _suffix_xor(np.arange(1 << n), n)
    assert np.array_equal(np.sort(images), np.arange(1 << n))


@pytest.mark.parametrize("n", range(1, 11))
def test_ladder_maps_match_per_bit_oracles(n):
    idx = np.arange(1 << n)
    forward, inverse = _suffix_xor(idx, n), gamma_inverse_indices(n)
    for i in range(1 << n):
        b = BitConfig.from_index(n, i)
        assert forward[i] == _suffix_xor(i, n) == gamma_forward_bits(b).index
        assert inverse[i] == gamma_inverse_bits(b).index
        assert mirror_map(b) == mirror_bits(b)


@pytest.mark.parametrize("n", range(2, 11))
def test_occupied_sites_match_per_bit_oracles(n):
    # the fermion sites of a config: its walls on the amplification
    # chain, its up sites on the exchange chain
    cluster = Propagator(CouplingProfile.uniform(n), "cluster")
    exchange = Propagator(CouplingProfile.uniform(n), "exchange")
    for i in range(1 << n):
        b = BitConfig.from_index(n, i)
        walls = gamma_inverse_bits(b).bits
        assert cluster.occupied(b) == [s for s in range(n) if walls[s]]
        assert exchange.occupied(b) == [s for s in range(n) if b.bits[s]]


def test_gamma_round_trip_n10():
    idx, g = np.arange(1 << 10), gamma_inverse_indices(10)
    assert np.array_equal(g[_suffix_xor(idx, 10)], idx)
    assert np.array_equal(_suffix_xor(g, 10), idx)


def test_gamma_forward_matches_ladder_matrix():
    # the dense CNOT ladder permutes basis states exactly as the bit map
    n = 5
    gm = gamma_matrix(n)
    for i in range(1 << n):
        col = np.zeros(1 << n)
        col[_suffix_xor(i, n)] = 1.0
        assert np.array_equal(gm[:, i], col)


def test_tilde_consistency():
    # a lone excitation at n maps to the prefix pattern 1^n 0^(N-n)
    for n in range(1, 9):
        for site in range(1, n + 1):
            assert _forward(str(BitConfig.single(n, site))) == "1" * site + "0" * (n - site)


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
    assert bin(gamma_inverse_indices(n)[b.index]).count("1") == walls


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
        gamma_inverse_bits(BitConfig.from_index(n, i)).index for i in range(1 << n)
    ]
    spec = _random_pauli_spec(n, np.random.default_rng(seed))
    gm = gamma_matrix(n)
    by_index = kron_dense(spec)[np.ix_(g, g)]
    assert np.max(np.abs(by_index - gm @ kron_dense(spec) @ gm.T)) < 1e-12


def test_cnot_matrix_is_its_own_inverse():
    c = cnot_matrix(3, 3, 1)
    assert np.array_equal(c @ c, np.eye(8))
