import itertools
import math

import numpy as np
import pytest

from spinamp.algebra import (
    BitConfig,
    HamiltonianSpec,
    PauliTerm,
    SizeError,
    commutator,
    sector_blocks,
)
from spinamp.chains import (
    CouplingProfile,
    StarLayout,
    cluster_chain,
    cluster_field_terms,
    exchange_chain,
    spike_hamiltonians,
)
from spinamp.maps import conjugate_hamiltonian

from oracles import gamma_forward_bits, kron_dense, kron_unitary


def test_profile_generators():
    uni = CouplingProfile.uniform(5)
    assert uni.couplings == (1.0,) * 4
    assert uni == CouplingProfile(5, (1, 1, 1, 1))     # a profile is its couplings and fields
    # omitted fields are N zeros, so one profile has one value
    assert uni.fields == (0.0,) * 5
    assert uni == CouplingProfile.uniform(5, (0, 0, 0, 0, 0)) == CouplingProfile(5, (1,) * 4, None)
    eng = CouplingProfile.engineered(4)
    assert eng.couplings == (math.sqrt(3.0), 2.0, math.sqrt(3.0))


def test_profile_validation():
    with pytest.raises(ValueError):
        CouplingProfile(4, (1.0, 1.0))
    with pytest.raises(ValueError):
        CouplingProfile(3, (1.0, 1.0), fields=(0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_refuses_non_finite_values(bad):
    # no spec is built on the fermion route, so the profile is where a
    # non-finite J or B is refused: once, a NaN coupling reached eigh
    with pytest.raises(ValueError, match="finite"):
        CouplingProfile(3, (1.0, bad))
    with pytest.raises(ValueError, match="finite"):
        CouplingProfile(3, (1.0, 1.0), fields=(0.0, bad, 0.0))
    with pytest.raises(ValueError, match="finite"):
        CouplingProfile.engineered(3, fields=(bad, 0.0, 0.0))


def test_zero_coupling_cuts_the_chain():
    # a zero J_n adds no term, as a zero field adds none
    prof = CouplingProfile(4, (1.0, 0.0, 2.0))
    assert exchange_chain(prof).term_map() == {
        ((1, "X"), (2, "X")): 0.5, ((1, "Y"), (2, "Y")): 0.5,
        ((3, "X"), (4, "X")): 1.0, ((3, "Y"), (4, "Y")): 1.0}
    assert cluster_chain(prof).term_map() == {
        ((2, "X"),): 0.5, ((1, "Z"), (2, "X"), (3, "Z")): -0.5,
        ((4, "X"),): 1.0, ((3, "Z"), (4, "X")): -1.0}


def test_exchange_two_sites():
    spec = exchange_chain(CouplingProfile.uniform(2))
    assert spec.term_map() == {
        ((1, "X"), (2, "X")): 0.5,
        ((1, "Y"), (2, "Y")): 0.5,
    }


def test_cluster_two_sites():
    spec = cluster_chain(CouplingProfile.uniform(2))
    assert spec.term_map() == {
        ((2, "X"),): 0.5,
        ((1, "Z"), (2, "X")): -0.5,
    }


def test_cluster_three_sites():
    j1, j2 = 0.7, 1.3
    spec = cluster_chain(CouplingProfile(3, (j1, j2)))
    assert spec.term_map() == {
        ((2, "X"),): j1 / 2,
        ((1, "Z"), (2, "X"), (3, "Z")): -j1 / 2,
        ((3, "X"),): j2 / 2,
        ((2, "Z"), (3, "X")): -j2 / 2,
    }


def test_chains_need_two_sites():
    with pytest.raises(SizeError):
        exchange_chain(CouplingProfile(1, ()))
    with pytest.raises(SizeError):
        cluster_chain(CouplingProfile(1, ()))


def test_field_fragment():
    assert cluster_field_terms(3, (0.0, 0.0, 0.0)).terms == ()
    frag = cluster_field_terms(3, (0.5, 0.0, -0.25))
    assert frag.term_map() == {
        ((1, "Z"), (2, "Z")): 0.5,
        ((3, "Z"),): -0.25,
    }
    with pytest.raises(ValueError):
        cluster_field_terms(3, (0.5,))


def test_field_fragment_matches_conjugation():
    # the ZZ/boundary fragment is exactly the ladder image of sum B_n Z_n
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        fields = tuple(rng.normal(size=n))
        local = exchange_chain(CouplingProfile(n, (1.0,) * (n - 1), fields))
        bare = exchange_chain(CouplingProfile(n, (1.0,) * (n - 1)))
        field_part = conjugate_hamiltonian(local).term_map()
        for key, value in conjugate_hamiltonian(bare).term_map().items():
            assert field_part.pop(key) == value
        assert field_part == cluster_field_terms(n, fields).term_map()


@pytest.mark.parametrize("n", range(2, 11))
def test_tilde_action_is_tridiagonal(n):
    # <m~|H|n~> = J_{n-1} delta_{m,n-1} + J_n delta_{m,n+1}, with J_0 = J_N = 0
    rng = np.random.default_rng(300 + n)
    js = tuple(rng.uniform(0.2, 2.0, n - 1))
    spec = cluster_chain(CouplingProfile(n, js))
    # |k~> = 1^k 0^(N-k), the image of a lone excitation at k (none for k = 0)
    tildes = [gamma_forward_bits(BitConfig.single(n, k)) if k else BitConfig.zeros(n)
              for k in range(n + 1)]
    j = lambda k: js[k - 1] if 1 <= k <= n - 1 else 0.0
    # H's entries, from the library's split into blocks
    h = {(int(d), int(s)): float(block[a, b])
         for rows, blocks in sector_blocks(spec) for indices, block in zip(rows, blocks)
         for a, d in enumerate(indices) for b, s in enumerate(indices)}
    for k in range(n + 1):
        for m in range(n + 1):
            expected = (j(k - 1) if m == k - 1 else 0.0) + (j(k) if m == k + 1 else 0.0)
            assert abs(h.get((tildes[m].index, tildes[k].index), 0.0) - expected) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_exchange_single_excitation_block(n):
    rng = np.random.default_rng(400 + n)
    js = tuple(rng.uniform(0.2, 2.0, n - 1))
    dense = kron_dense(exchange_chain(CouplingProfile(n, js)))
    singles = [BitConfig.single(n, s).index for s in range(1, n + 1)]
    block = dense[np.ix_(singles, singles)]
    expected = np.diag(js, 1) + np.diag(js, -1)
    assert np.max(np.abs(block - expected)) < 1e-12


def test_exchange_conserves_weight():
    dense = kron_dense(exchange_chain(CouplingProfile.engineered(5)))
    for a, b in itertools.product(range(32), repeat=2):
        if bin(a).count("1") != bin(b).count("1"):
            assert dense[a, b] == 0.0


@pytest.mark.parametrize("n", range(2, 11))
def test_wall_operator_symmetry(n):
    rng = np.random.default_rng(500 + n)
    prof = CouplingProfile(n, tuple(rng.uniform(0.2, 2.0, n - 1)),
                           tuple(rng.normal(size=n)))
    # exactly, as Pauli sums: each chain commutes with its conserved count
    walls = cluster_field_terms(n, (1.0,) * n)     # sum_n Z_n Z_{n+1} + Z_N
    assert commutator(cluster_chain(prof), walls).terms == ()
    excitations = HamiltonianSpec(n, tuple(PauliTerm(1.0, {s: "Z"}) for s in range(1, n + 1)))
    assert commutator(exchange_chain(prof), excitations).terms == ()


def test_stabilizer_parts_commute_exactly():
    # the three-body parts (without the bare X) commute pairwise
    n = 6
    parts = []
    for site in range(2, n + 1):
        if site < n:
            letters = {site - 1: "Z", site: "X", site + 1: "Z"}
        else:
            letters = {site - 1: "Z", site: "X"}
        parts.append(kron_dense(HamiltonianSpec(n, (PauliTerm(-0.5, letters),))))
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert np.max(np.abs(parts[i] @ parts[j] - parts[j] @ parts[i])) == 0.0


def _demo_layout(spikes, length):
    return StarLayout(spikes, length, CouplingProfile.engineered(length))


def _star(layout):
    return sum(spike_hamiltonians(layout), HamiltonianSpec(layout.total_sites))


def test_star_single_spike_is_a_chain():
    layout = _demo_layout(1, 5)
    assert _star(layout) == cluster_chain(CouplingProfile.engineered(5))


def test_star_spikes_commute():
    layout = _demo_layout(2, 3)
    h1, h2 = (kron_dense(s) for s in spike_hamiltonians(layout))
    assert np.max(np.abs(h1 @ h2 - h2 @ h1)) < 1e-12


def test_star_spikes_commute_symbolically_at_any_size():
    # no pair of strings from two spikes anticommutes, so every commutator
    # is the empty sum, with no dense cap (301 sites)
    spikes = spike_hamiltonians(_demo_layout(12, 26))
    assert spikes[0].n_sites == 301
    assert all(commutator(a, b).terms == () for i, a in enumerate(spikes) for b in spikes[i + 1:])


def test_star_center_sees_only_z():
    layout = _demo_layout(3, 3)
    for term in _star(layout).terms:
        letters = dict(term.letters)
        if 1 in letters:
            assert letters[1] == "Z"


def test_star_evolution_factorizes():
    layout = _demo_layout(3, 3)
    t = 0.73
    u_star = kron_unitary(_star(layout), t)
    product = np.eye(u_star.shape[0], dtype=complex)
    for spec in spike_hamiltonians(layout):
        product = kron_unitary(spec, t) @ product
    assert np.max(np.abs(u_star - product)) < 1e-10


def test_star_layout_validation():
    with pytest.raises(SizeError):
        StarLayout(2, 1, CouplingProfile(1, ()))
    with pytest.raises(ValueError):
        StarLayout(0, 3, CouplingProfile.engineered(3))
    # fields on a spike are refused, all-zero fields are no fields
    zeros = StarLayout(2, 3, CouplingProfile.engineered(3, (0.0, 0.0, 0.0)))
    assert spike_hamiltonians(zeros) == spike_hamiltonians(_demo_layout(2, 3))
    with pytest.raises(ValueError, match="fields"):
        spike_hamiltonians(StarLayout(2, 3, CouplingProfile.engineered(3, (0.0, 0.5, 0.0))))
    layout = _demo_layout(3, 4)
    assert layout.total_sites == 10
    assert layout.global_site(2, 1) == 1
    assert layout.global_site(2, 2) == 5
