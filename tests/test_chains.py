import itertools
import math

import numpy as np
import pytest

from spinamp.algebra import (
    BitConfig,
    HamiltonianSpec,
    PauliTerm,
    SizeError,
    StateVector,
    apply_spec,
    max_commutator,
)
from spinamp.chains import (
    CouplingProfile,
    StarLayout,
    cluster_chain,
    cluster_field_terms,
    conserved_wall_operator,
    exchange_chain,
    field_difference,
    spike_hamiltonians,
    star_hamiltonian,
)
from spinamp.maps import conjugate_hamiltonian, tilde_config, TildeIndexSet

from oracles import kron_dense, kron_unitary


def test_profile_generators():
    uni = CouplingProfile.uniform(5)
    assert uni.couplings == (1.0,) * 4
    eng = CouplingProfile.engineered(4)
    assert eng.couplings == (math.sqrt(3.0), 2.0, math.sqrt(3.0))


def test_profile_validation():
    with pytest.raises(ValueError):
        CouplingProfile(4, (1.0, 1.0))
    with pytest.raises(ValueError):
        CouplingProfile(3, (1.0, 1.0), fields=(0.0, 0.0))


def test_profile_json_round_trip():
    prof = CouplingProfile.engineered(5, fields=(0.1, 0.0, -0.3, 0.0, 0.2))
    assert CouplingProfile.from_json(prof.to_json()) == prof


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


def test_field_difference():
    assert field_difference((1.0, 2.0, 3.0)) == (-1.0, -1.0, -1.0)
    assert field_difference(()) == ()


@pytest.mark.parametrize("n", range(2, 11))
def test_tilde_action_is_tridiagonal(n):
    # <m~|H|n~> = J_{n-1} delta_{m,n-1} + J_n delta_{m,n+1}, with J_0 = J_N = 0
    rng = np.random.default_rng(300 + n)
    js = tuple(rng.uniform(0.2, 2.0, n - 1))
    spec = cluster_chain(CouplingProfile(n, js))
    tildes = [tilde_config(TildeIndexSet(n, (k,) if k else ())) for k in range(n + 1)]
    j = lambda k: js[k - 1] if 1 <= k <= n - 1 else 0.0
    for k in range(n + 1):
        out = apply_spec(spec, StateVector.basis_state(tildes[k]))
        for m in range(n + 1):
            expected = (j(k - 1) if m == k - 1 else 0.0) + (j(k) if m == k + 1 else 0.0)
            assert abs(out.amplitude(tildes[m]) - expected) < 1e-12


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
    assert max_commutator(cluster_chain(prof), conserved_wall_operator(n)) < 1e-12


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


def test_star_single_spike_is_a_chain():
    layout = _demo_layout(1, 5)
    assert star_hamiltonian(layout) == cluster_chain(CouplingProfile.engineered(5))


def test_star_spikes_commute():
    layout = _demo_layout(2, 3)
    h1, h2 = (kron_dense(s) for s in spike_hamiltonians(layout))
    assert np.max(np.abs(h1 @ h2 - h2 @ h1)) < 1e-12


def test_star_center_sees_only_z():
    layout = _demo_layout(3, 3)
    for term in star_hamiltonian(layout).terms:
        letters = term.letter_map
        if 1 in letters:
            assert letters[1] == "Z"


def test_star_evolution_factorizes():
    layout = _demo_layout(3, 3)
    t = 0.73
    u_star = kron_unitary(star_hamiltonian(layout), t)
    product = np.eye(u_star.shape[0], dtype=complex)
    for spec in spike_hamiltonians(layout):
        product = kron_unitary(spec, t) @ product
    assert np.max(np.abs(u_star - product)) < 1e-10


def test_star_layout_validation():
    with pytest.raises(SizeError):
        StarLayout(2, 1, CouplingProfile(1, ()))
    with pytest.raises(ValueError):
        StarLayout(0, 3, CouplingProfile.engineered(3))
    layout = _demo_layout(3, 4)
    assert layout.total_sites == 10
    assert layout.global_site(2, 1) == 1
    assert layout.global_site(2, 2) == 5
