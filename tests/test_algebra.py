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
    _entries,
    commutator,
    max_commutator,
    max_permuted_deviation,
    sector_blocks,
)
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain
from spinamp.maps import conjugate_hamiltonian, gamma_inverse_indices

from oracles import entries_by_term, kron_dense


def _block_entries(spec):
    """(src, dst, values): every entry of :func:`sector_blocks`' blocks by
    basis index, <dst|H|src> = values; the blocks tile the basis."""
    pairs = sector_blocks(spec)
    rows = np.concatenate([indices.ravel() for indices, _ in pairs])
    assert np.array_equal(np.sort(rows), np.arange(spec.dim))
    src = np.concatenate([np.broadcast_to(i[:, None, :], h.shape).ravel() for i, h in pairs])
    dst = np.concatenate([np.broadcast_to(i[:, :, None], h.shape).ravel() for i, h in pairs])
    return src, dst, np.concatenate([h.ravel() for _, h in pairs])


def _from_blocks(spec):
    """The 2^N x 2^N matrix assembled from :func:`sector_blocks`' blocks,
    each entry of which links two positions of one block."""
    src, dst, values = _block_entries(spec)
    out = np.zeros((spec.dim, spec.dim), dtype=values.dtype)
    out[dst, src] = values
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
    vac = np.eye(16)[BitConfig.zeros(4).index]
    assert np.array_equal(_from_blocks(spec) @ vac, vac)


def test_apply_amplification_chain_first_step():
    # hand application at N=3 engineered: the end term kills |100>, the
    # interior term doubles the X_2 branch, leaving sqrt(2)|110>
    spec = cluster_chain(CouplingProfile.engineered(3))
    out = _from_blocks(spec)[:, BitConfig.from_string("100").index]
    expected = np.zeros(8)
    expected[BitConfig.from_string("110").index] = np.sqrt(2.0)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_apply_dimension_mismatch():
    spec = HamiltonianSpec(3, (PauliTerm(1.0, {1: "Z"}),))
    with pytest.raises(DimensionMismatchError):
        spec + HamiltonianSpec(4, (PauliTerm(1.0, {1: "Z"}),))


def _random_spec(n, rng, n_terms=6):
    terms = []
    for _ in range(n_terms):
        sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False) + 1
        letters = {int(s): "XYZ"[rng.integers(3)] for s in sites}
        terms.append(PauliTerm(float(rng.normal()) or 1.0, letters))
    return HamiltonianSpec(n, tuple(terms))


@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_free_matches_dense(n):
    # H psi from the blocks' entries, as a sparse matvec reads them, for
    # psi on the blocks of a few random states: the result stays on those
    # blocks, and the entries match the oracle
    rng = np.random.default_rng(100 + n)
    spec = _random_spec(n, rng)
    dense = kron_dense(spec)
    src, dst, values = _block_entries(spec)
    block = np.empty(1 << n, dtype=np.intp)     # a label per block
    rows = [row for indices, _ in sector_blocks(spec) for row in indices]
    for label, row in enumerate(rows):
        block[row] = label
    for _ in range(20):
        seeds = rng.integers(1 << n, size=2)
        on = np.isin(block, block[seeds])
        psi = np.where(on, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n), 0.0)
        out = np.zeros(1 << n, dtype=complex)
        np.add.at(out, dst, values * psi[src])
        assert not out[~on].any()
        assert np.linalg.norm(out - dense @ psi) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_realized_specs_are_hermitian(n):
    rng = np.random.default_rng(200 + n)
    dense = _from_blocks(_random_spec(n, rng))
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


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
@given(st.one_of(_specs("XYZ"), _specs("Z")))
def test_kernel_matches_kronecker_oracle(spec):
    dense = _from_blocks(spec)
    assert np.max(np.abs(dense - kron_dense(spec))) < 1e-12
    # the one entry reader lists each nonzero (src, dst) once
    src, dst, values = _entries(spec)
    assert np.unique(dst * spec.dim + src).size == src.size and values.all()
    assert np.max(np.abs(kron_dense(spec)[dst, src] - values), initial=0.0) < 1e-12
    assert np.count_nonzero(np.abs(kron_dense(spec)) > 1e-12) <= src.size
    has_odd_y = any(sum(p == "Y" for _, p in t.letters) % 2 for t in spec.terms)
    assert dense.dtype == (complex if has_odd_y else np.float64)


@pytest.mark.parametrize("n", range(2, 9))
def test_chain_matrices_are_real(n):
    rng = np.random.default_rng(300 + n)
    prof = CouplingProfile(tuple(rng.uniform(0.2, 2.0, n - 1)), tuple(rng.normal(size=n)))
    for spec in (exchange_chain(prof), cluster_chain(prof)):
        assert all(h.dtype == np.float64 for _, h in sector_blocks(spec))
        assert np.max(np.abs(_from_blocks(spec) - kron_dense(spec))) < 1e-12


def test_entries_merge_terms_with_one_flip_mask():
    spec = cluster_chain(CouplingProfile.engineered(5))
    # X_n and Z_{n-1} X_n Z_{n+1} flip the same site, so their weights add
    # into one entry per (src, dst), which holds <dst|H|src>
    src, dst, values = _entries(spec)
    assert sorted(set((src ^ dst).tolist())) == [0b00010, 0b00100, 0b01000, 0b10000]
    assert np.unique(dst * spec.dim + src).size == src.size
    assert values.dtype == np.float64
    dense = kron_dense(spec)
    assert np.max(np.abs(dense[dst, src] - values)) < 1e-12
    assert np.count_nonzero(np.abs(dense) > 1e-12) == src.size


def _assert_entries_match_by_term(spec):
    got, expected = _entries(spec), entries_by_term(spec)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# a few flip masks, so terms share them, and any z: |x&z| odd is a string
# with an odd number of Y letters; coefficients that round differently
# when added in another order
_coefficients = st.one_of(st.floats(-5, 5).filter(lambda c: abs(c) > 1e-6),
                          st.sampled_from([1.0, 3.0, 1e16, -1e16]))


def _masked_terms(n):
    return st.lists(st.builds(
        lambda c, x, z: PauliTerm.from_masks(c, x & ((1 << n) - 1), z),
        _coefficients, st.integers(0, 3), st.integers(0, (1 << n) - 1),
    ), max_size=12).map(lambda terms: HamiltonianSpec(n, tuple(terms)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(_masked_terms))
def test_entries_equal_the_term_loop_bitwise(spec):
    _assert_entries_match_by_term(spec)


def test_entries_of_the_empty_spec():
    _assert_entries_match_by_term(HamiltonianSpec(3))
    src, dst, values = _entries(HamiltonianSpec(3))
    assert src.size == dst.size == values.size == 0 and values.dtype == np.float64


def test_entries_add_one_flip_mask_in_term_order():
    # Z1, Z1 Z2, Z2 in canonical order: at b = 0, (1 + 1e16) - 1e16 is 0,
    # where 1 + (1e16 - 1e16) would be 1; likewise at b = 2
    spec = HamiltonianSpec(2, (PauliTerm(1.0, {1: "Z"}), PauliTerm(1e16, {1: "Z", 2: "Z"}),
                               PauliTerm(-1e16, {2: "Z"})))
    assert [t.coefficient for t in spec.terms] == [1.0, 1e16, -1e16]
    _assert_entries_match_by_term(spec)
    src, dst, values = _entries(spec)
    assert src.tolist() == dst.tolist() == [1, 3]


def test_merged_coefficients_must_stay_finite():
    with pytest.raises(ValueError):
        HamiltonianSpec(1, [(1e308, {1: "Z"}), (1e308, {1: "Z"})])


def test_expectation_examples():
    def expectation(spec, psi):
        psi = np.asarray(psi, dtype=complex)
        return np.vdot(psi, _from_blocks(spec) @ psi)

    z1 = HamiltonianSpec(1, (PauliTerm(1.0, {1: "Z"}),))
    assert expectation(z1, [1.0, 0.0]) == 1.0

    h4 = cluster_chain(CouplingProfile.engineered(4))
    vac = np.eye(16)[BitConfig.zeros(4).index]
    assert abs(expectation(h4, vac)) < 1e-12

    hx2 = exchange_chain(CouplingProfile.uniform(2))
    plus = [0.0, 2 ** -0.5, 2 ** -0.5, 0.0]     # (|10> + |01>) / sqrt 2
    assert abs(expectation(hx2, plus) - 1.0) < 1e-12


def test_bit_config_round_trips():
    cfg = BitConfig.from_string("10110")
    assert str(cfg) == "10110"
    assert BitConfig.from_index(5, cfg.index) == cfg
    assert cfg.index == 0b01101  # site 1 is the least significant bit
    assert str(cfg.reversed_sites()) == "01101"


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
    # entry by entry: a wrong product phase flips the sign of a term, which
    # the largest |entry| alone cannot see
    a, b = pair
    ka, kb = kron_dense(a), kron_dense(b)
    expected = 1j * (ka @ kb - kb @ ka)
    assert np.max(np.abs(kron_dense(commutator(a, b)) - expected)) < 1e-12
    largest = float(np.max(np.abs(expected)))
    assert abs(max_commutator(a, b) - largest) < 1e-12 * max(1.0, largest)


@settings(max_examples=100, deadline=None)
@given(_spec_pairs())
def test_commutator_is_antisymmetric(pair):
    a, b = pair
    assert commutator(b, a).term_map() == {
        k: -v for k, v in commutator(a, b).term_map().items()}
    assert commutator(a, a).terms == ()


def test_commutator_of_groups_without_signed_sites():
    # X_1 and X_2 sign no site, so every basis index gets the same weight
    x1, z1, x2 = (HamiltonianSpec(2, (PauliTerm(1.0, {site: p}),))
                  for site, p in ((1, "X"), (1, "Z"), (2, "X")))
    src, dst, values = _entries(x1)
    assert np.array_equal(dst, src ^ 0b01) and np.array_equal(values, np.ones(4))
    # XZ = -iY, so i[X, Z] = 2Y
    assert commutator(x1, z1).term_map() == {((1, "Y"),): 2.0}
    assert max_commutator(x1, z1) == 2.0
    assert max_commutator(x1, x2) == 0.0
    assert max_commutator(x1, HamiltonianSpec(2)) == 0.0


def test_commutator_drops_underflowing_products():
    x1, z1 = (HamiltonianSpec(1, (PauliTerm(1e-200, {1: p}),)) for p in "XZ")
    assert commutator(x1, z1).terms == ()
    assert max_commutator(x1, z1) == 0.0


def test_commutator_refuses_mismatched_chains():
    with pytest.raises(DimensionMismatchError):
        commutator(HamiltonianSpec(2), HamiltonianSpec(3))


def test_masks_are_the_tableau_pair():
    term = PauliTerm(0.5, {1: "X", 3: "Y", 4: "Z"})
    assert term.masks() == (0b0101, 0b1100)
    assert PauliTerm.from_masks(0.5, *term.masks()) == term
    assert PauliTerm.from_masks(1.0, 0, 0) == PauliTerm(1.0)


@pytest.mark.parametrize("factor", [1.0, 1.01])
@pytest.mark.parametrize("n", range(2, 8))
def test_permuted_deviation_equals_dense_oracle_bitwise(n, factor):
    # the conjugated chains of verify-equivalence, with and without the
    # perturbed couplings of its negative control
    rng = np.random.default_rng(900 + n)
    couplings = rng.uniform(0.2, 2.0, n - 1)
    fields = tuple(rng.uniform(-1.0, 1.0, n))
    h_ex = exchange_chain(CouplingProfile(tuple(couplings), fields))
    h_cluster = cluster_chain(CouplingProfile(tuple(factor * couplings), fields))
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
