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
    realize_dense,
)
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain

from oracles import kron_dense


def test_realize_single_site_z():
    spec = HamiltonianSpec(1, (PauliTerm(1.0, {1: "Z"}),))
    assert np.array_equal(realize_dense(spec), np.diag([1.0 + 0j, -1.0]))


def test_realize_two_site_hopping():
    # hand Kronecker product: 0.5(X1X2 + Y1Y2) hops |10> <-> |01>
    spec = HamiltonianSpec(2, (PauliTerm(0.5, {1: "X", 2: "X"}),
                               PauliTerm(0.5, {1: "Y", 2: "Y"})))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.max(np.abs(realize_dense(spec) - expected)) == 0.0


def test_duplicate_terms_merge():
    spec = HamiltonianSpec(2, (PauliTerm(1.0, {1: "X"}), PauliTerm(1.0, {1: "X"})))
    assert spec.terms == (PauliTerm(2.0, {1: "X"}),)


def test_zero_sum_terms_drop():
    spec = HamiltonianSpec(2, (PauliTerm(1.0, {1: "X"}), PauliTerm(-1.0, {1: "X"})))
    assert spec.terms == ()


def test_dense_cap_enforced():
    spec = HamiltonianSpec(13, (PauliTerm(1.0, {1: "Z"}),))
    with pytest.raises(SizeError):
        realize_dense(spec)


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
    dense = realize_dense(spec)
    for _ in range(100):
        psi = StateVector.random(n, rng)
        out = apply_spec(spec, psi)
        assert np.linalg.norm(out.amplitudes - dense @ psi.amplitudes) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_realized_specs_are_hermitian(n):
    rng = np.random.default_rng(200 + n)
    mat = realize_dense(_random_spec(n, rng))
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


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
    dense = realize_dense(spec)
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
        dense = realize_dense(spec)
        assert dense.dtype == np.float64
        assert np.max(np.abs(dense - kron_dense(spec))) < 1e-12


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
