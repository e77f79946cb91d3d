import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp.algebra import (
    BitConfig,
    DimensionMismatchError,
    HamiltonianSpec,
    PauliTerm,
    SizeError,
    StateVector,
    apply_spec,
    expectation,
    max_commutator,
    max_permuted_deviation,
    sector_blocks,
)
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain
from spinamp.maps import conjugate_hamiltonian, gamma_inverse_indices

from oracles import kron_dense


def _from_blocks(spec):
    """The 2^N x 2^N matrix assembled from :func:`sector_blocks`' block matrices."""
    blocks, _, matrices = sector_blocks(spec)
    out = np.zeros((spec.dim, spec.dim), dtype=matrices[0].dtype)
    for rows, mats in zip(blocks, matrices):
        out[rows[:, :, None], rows[:, None, :]] = mats
    return out


def test_realize_single_site_z():
    spec = HamiltonianSpec(1, (PauliTerm(1.0, {1: "Z"}),))
    assert np.array_equal(_from_blocks(spec), np.diag([1.0, -1.0]))


def test_realize_two_site_hopping():
    # hand Kronecker product: 0.5(X1X2 + Y1Y2) hops |10> <-> |01>
    spec = HamiltonianSpec(2, (PauliTerm(0.5, {1: "X", 2: "X"}),
                               PauliTerm(0.5, {1: "Y", 2: "Y"})))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.max(np.abs(_from_blocks(spec) - expected)) == 0.0


def test_duplicate_terms_merge():
    spec = HamiltonianSpec(2, (PauliTerm(1.0, {1: "X"}), PauliTerm(1.0, {1: "X"})))
    assert spec.terms == (PauliTerm(2.0, {1: "X"}),)


def test_zero_sum_terms_drop():
    spec = HamiltonianSpec(2, (PauliTerm(1.0, {1: "X"}), PauliTerm(-1.0, {1: "X"})))
    assert spec.terms == ()


def test_dense_cap_enforced():
    spec = HamiltonianSpec(13, (PauliTerm(1.0, {1: "Z"}),))
    with pytest.raises(SizeError):
        sector_blocks(spec)


def test_term_validation():
    with pytest.raises(ValueError):
        PauliTerm(0.0, {1: "X"})
    with pytest.raises(ValueError):
        PauliTerm(float("nan"), {1: "X"})
    with pytest.raises(ValueError):
        PauliTerm(1.0, {1: "Q"})
    with pytest.raises(ValueError):
        PauliTerm(1.0, {0: "X"})
    with pytest.raises(ValueError):
        HamiltonianSpec(2, (PauliTerm(1.0, {3: "X"}),))


def test_apply_z_on_zeros():
    spec = HamiltonianSpec(4, (PauliTerm(1.0, {1: "Z"}),))
    psi = StateVector.basis_state(BitConfig.zeros(4))
    out = apply_spec(spec, psi)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_apply_amplification_chain_first_step():
    # hand application at N=3 engineered: the end term kills |100>, the
    # interior term doubles the X_2 branch, leaving sqrt(2)|110>
    spec = cluster_chain(CouplingProfile.engineered(3))
    psi = StateVector.basis_state(BitConfig.from_string("100"))
    out = apply_spec(spec, psi)
    expected = np.zeros(8, dtype=complex)
    expected[BitConfig.from_string("110").index] = np.sqrt(2.0)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_apply_dimension_mismatch():
    spec = HamiltonianSpec(3, (PauliTerm(1.0, {1: "Z"}),))
    psi = StateVector.basis_state(BitConfig.zeros(4))
    with pytest.raises(DimensionMismatchError):
        apply_spec(spec, psi)


def _random_spec(n, rng, n_terms=6):
    terms = []
    for _ in range(n_terms):
        sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False) + 1
        letters = {int(s): "XYZ"[rng.integers(3)] for s in sites}
        terms.append(PauliTerm(float(rng.normal()) or 1.0, letters))
    return HamiltonianSpec(n, tuple(terms))


@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_free_matches_dense(n):
    rng = np.random.default_rng(100 + n)
    spec = _random_spec(n, rng)
    dense = kron_dense(spec)
    for _ in range(100):
        psi = StateVector.random(n, rng)
        out = apply_spec(spec, psi)
        assert np.linalg.norm(out.amplitudes - dense @ psi.amplitudes) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_realized_specs_are_hermitian(n):
    rng = np.random.default_rng(200 + n)
    for mats in sector_blocks(_random_spec(n, rng))[2]:
        assert np.max(np.abs(mats - mats.conj().swapaxes(1, 2))) < 1e-12


def test_apply_is_linear():
    rng = np.random.default_rng(7)
    spec = _random_spec(5, rng)
    psi, phi = StateVector.random(5, rng), StateVector.random(5, rng)
    a, b = 0.3 - 0.2j, -1.1 + 0.7j
    combo = StateVector(5, a * psi.amplitudes + b * phi.amplitudes)
    lhs = apply_spec(spec, combo).amplitudes
    rhs = a * apply_spec(spec, psi).amplitudes + b * apply_spec(spec, phi).amplitudes
    assert np.linalg.norm(lhs - rhs) < 1e-12


_letter = st.sampled_from("XYZ")
_term = st.builds(
    PauliTerm,
    st.floats(-5, 5).filter(lambda c: abs(c) > 1e-6),
    st.dictionaries(st.integers(1, 5), _letter, min_size=1, max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_term, max_size=8))
def test_canonicalization_idempotent(terms):
    spec = HamiltonianSpec(5, tuple(terms))
    again = HamiltonianSpec(5, spec.terms)
    assert spec.terms == again.terms


def _specs(letters):
    """Random specs on 1..6 sites whose Pauli letters come from ``letters``."""
    return st.integers(1, 6).flatmap(lambda n: st.lists(st.builds(
        PauliTerm,
        st.floats(-5, 5).filter(lambda c: abs(c) > 1e-6),
        st.dictionaries(st.integers(1, n), st.sampled_from(letters), max_size=n),
    ), max_size=10).map(lambda terms: HamiltonianSpec(n, tuple(terms))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_specs("XYZ"), _specs("Z")), st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_kronecker_oracle(spec, seed):
    oracle = kron_dense(spec)
    dense = _from_blocks(spec)
    assert np.max(np.abs(dense - oracle)) < 1e-12
    has_odd_y = any(sum(p == "Y" for _, p in t.letters) % 2 for t in spec.terms)
    assert dense.dtype == (complex if has_odd_y else np.float64)
    psi = StateVector.random(spec.n_sites, np.random.default_rng(seed))
    out = apply_spec(spec, psi).amplitudes
    assert np.max(np.abs(out - oracle @ psi.amplitudes)) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_chain_matrices_are_real(n):
    rng = np.random.default_rng(300 + n)
    prof = CouplingProfile(n, tuple(rng.uniform(0.2, 2.0, n - 1)), tuple(rng.normal(size=n)))
    for spec in (exchange_chain(prof), cluster_chain(prof)):
        assert all(mats.dtype == np.float64 for mats in sector_blocks(spec)[2])
        assert np.max(np.abs(_from_blocks(spec) - kron_dense(spec))) < 1e-12


def test_flip_groups_merge_terms_with_one_flip_mask():
    spec = cluster_chain(CouplingProfile.engineered(5))
    groups = spec.flip_groups
    assert spec.flip_groups is groups    # compiled once per spec
    # X_n and Z_{n-1} X_n Z_{n+1} share one group per flipped site
    assert [flip for flip, _, _ in groups] == [0b00010, 0b00100, 0b01000, 0b10000]
    flip, axes, weights = groups[1]
    assert axes == (2,)              # site 3 is axis N - 3 of the (2,)*N state
    assert weights.shape == (1, 2, 1, 2, 1)   # signed sites 2 and 4
    assert weights.dtype == np.float64


def test_expectation_examples():
    z1 = HamiltonianSpec(1, (PauliTerm(1.0, {1: "Z"}),))
    assert expectation(z1, StateVector.basis_state(BitConfig.zeros(1))) == 1.0

    h4 = cluster_chain(CouplingProfile.engineered(4))
    vac = StateVector.basis_state(BitConfig.zeros(4))
    assert abs(expectation(h4, vac)) < 1e-12

    hx2 = exchange_chain(CouplingProfile.uniform(2))
    plus = StateVector.superposition([
        (2 ** -0.5, BitConfig.from_string("01")),
        (2 ** -0.5, BitConfig.from_string("10")),
    ])
    assert abs(expectation(hx2, plus) - 1.0) < 1e-12


def test_json_round_trip():
    rng = np.random.default_rng(11)
    spec = _random_spec(4, rng)
    assert HamiltonianSpec.from_json(spec.to_json()) == spec


def test_bit_config_round_trips():
    cfg = BitConfig.from_string("10110")
    assert str(cfg) == "10110"
    assert BitConfig.from_index(5, cfg.index) == cfg
    assert cfg.index == 0b01101  # site 1 is the least significant bit
    assert cfg.weight == 3
    assert str(cfg.reversed_sites()) == "01101"


def test_state_vector_probabilities():
    psi = StateVector.superposition([
        (0.6, BitConfig.from_string("10")),
        (0.8, BitConfig.from_string("01")),
    ])
    assert abs(psi.site_up_probability(1) - 0.36) < 1e-12
    assert abs(psi.site_up_probability(2) - 0.64) < 1e-12


def _spec_pairs():
    """Two random specs on one chain of 1..6 sites, Y letters included; an
    X-only string makes a group with no signed site."""
    def specs(n):
        return st.lists(st.builds(
            PauliTerm,
            st.floats(-5, 5).filter(lambda c: abs(c) > 1e-6),
            st.dictionaries(st.integers(1, n), st.sampled_from("XYZ"), max_size=n),
        ), max_size=6).map(lambda terms: HamiltonianSpec(n, tuple(terms)))
    return st.integers(1, 6).flatmap(lambda n: st.tuples(specs(n), specs(n)))


@settings(max_examples=100, deadline=None)
@given(_spec_pairs())
def test_commutator_matches_kronecker_oracle(pair):
    a, b = pair
    ka, kb = kron_dense(a), kron_dense(b)
    expected = float(np.max(np.abs(ka @ kb - kb @ ka)))
    assert abs(max_commutator(a, b) - expected) < 1e-12 * max(1.0, expected)


def test_commutator_of_groups_without_signed_sites():
    # X_1 and X_2 carry one weight each, kept with a length-1 axis per site
    x1, z1, x2 = (HamiltonianSpec(2, (PauliTerm(1.0, {site: p}),))
                  for site, p in ((1, "X"), (1, "Z"), (2, "X")))
    assert x1.flip_groups[0][2].shape == (1, 1)
    assert max_commutator(x1, z1) == 2.0
    assert max_commutator(x1, x2) == 0.0
    assert max_commutator(x1, HamiltonianSpec(2)) == 0.0


@pytest.mark.parametrize("factor", [1.0, 1.01])
@pytest.mark.parametrize("n", range(2, 8))
def test_permuted_deviation_equals_dense_oracle_bitwise(n, factor):
    # the conjugated chains of verify-equivalence, with and without the
    # perturbed couplings of its negative control
    rng = np.random.default_rng(900 + n)
    couplings = rng.uniform(0.2, 2.0, n - 1)
    fields = tuple(rng.uniform(-1.0, 1.0, n))
    h_ex = exchange_chain(CouplingProfile(n, tuple(couplings), fields))
    h_cluster = cluster_chain(CouplingProfile(n, tuple(factor * couplings), fields))
    g = gamma_inverse_indices(n)
    dense = float(np.max(np.abs(kron_dense(h_ex)[np.ix_(g, g)] - kron_dense(h_cluster))))
    assert max_permuted_deviation(h_ex, h_cluster, g) == dense
    assert (dense == 0.0) == (factor == 1.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_permuted_deviation_of_random_specs(n):
    rng = np.random.default_rng(950 + n)
    g = gamma_inverse_indices(n)
    perm = rng.permutation(1 << n)
    for _ in range(5):
        a, b = _random_spec(n, rng), _random_spec(n, rng)
        assert max_permuted_deviation(a, conjugate_hamiltonian(a), g) < 1e-12
        dense = np.max(np.abs(kron_dense(a)[np.ix_(perm, perm)] - kron_dense(b)))
        assert abs(max_permuted_deviation(a, b, perm) - dense) < 1e-12
