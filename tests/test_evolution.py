import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp.algebra import (
    BitConfig,
    HamiltonianSpec,
    PauliTerm,
    SizeError,
    StateVector,
    expectation,
    sector_blocks,
)
from spinamp.chains import CouplingProfile, cluster_chain, conserved_wall_operator, exchange_chain
from spinamp.evolution import (
    Propagator,
    amplification_check,
    max_fidelity_scan,
    phase_separability_probe,
    pst_time,
    transfer_fidelity,
)
from spinamp.maps import gamma_forward, gamma_inverse_indices, mirror_map

from oracles import kron_dense


def _cluster_prop(n, profile="engineered", **kw):
    prof = getattr(CouplingProfile, profile)(n)
    return Propagator(cluster_chain(prof), **kw)


def _exchange_prop(n, profile="engineered", **kw):
    prof = getattr(CouplingProfile, profile)(n)
    return Propagator(exchange_chain(prof), **kw)


def test_zero_time_is_identity():
    rng = np.random.default_rng(0)
    prop = _cluster_prop(5)
    psi = StateVector.random(5, rng)
    assert np.linalg.norm(prop.evolve(psi, 0.0).amplitudes - psi.amplitudes) < 1e-12


def test_all_zeros_is_stationary():
    prop = _cluster_prop(4)
    vac = StateVector.basis_state(BitConfig.zeros(4))
    for t in (0.1, 1.0, math.pi / 2, 17.3):
        out = prop.evolve(vac, t)
        assert np.linalg.norm(out.amplitudes - vac.amplitudes) < 1e-12


def test_unitarity_and_inverse():
    rng = np.random.default_rng(1)
    for prop in (_cluster_prop(6), _exchange_prop(6)):
        psi = StateVector.random(6, rng)
        out = prop.evolve(psi, 1.7)
        assert abs(out.norm - 1.0) < 1e-10
        back = prop.evolve(out, -1.7)
        assert np.linalg.norm(back.amplitudes - psi.amplitudes) < 1e-10


def test_composition():
    rng = np.random.default_rng(2)
    prop = _cluster_prop(6)
    psi = StateVector.random(6, rng)
    two_step = prop.evolve(prop.evolve(psi, 0.6), 1.1)
    one_step = prop.evolve(psi, 1.7)
    assert np.linalg.norm(two_step.amplitudes - one_step.amplitudes) < 1e-9


def test_energy_and_wall_conservation():
    rng = np.random.default_rng(3)
    prop = _cluster_prop(6)
    walls = conserved_wall_operator(6)
    psi = StateVector.random(6, rng)
    e0 = expectation(prop.spec, psi)
    w0 = expectation(walls, psi)
    for t in np.linspace(0.5, 10.0, 8):
        out = prop.evolve(psi, float(t))
        assert abs(expectation(prop.spec, out) - e0) < 1e-9
        assert abs(expectation(walls, out) - w0) < 1e-10


def test_exchange_perfect_transfer_n6():
    prop = _exchange_prop(6)
    fid = transfer_fidelity(prop, BitConfig.single(6, 1), BitConfig.single(6, 6),
                            math.pi / 2)
    assert fid > 1.0 - 1e-10


def test_pst_time_examples():
    assert pst_time(2) == math.pi / 2
    with pytest.raises(SizeError):
        pst_time(1)
    # N=2: single-excitation block is J_1 X with J_1 = 1, so |sin(t)| = 1 at pi/2
    assert transfer_fidelity(_exchange_prop(2), BitConfig.single(2, 1),
                             BitConfig.single(2, 2), pst_time(2)) > 1.0 - 1e-12
    assert transfer_fidelity(_exchange_prop(3), BitConfig.single(3, 1),
                             BitConfig.single(3, 3), pst_time(3)) > 1.0 - 1e-12
    assert transfer_fidelity(_exchange_prop(10), BitConfig.single(10, 1),
                             BitConfig.single(10, 10), pst_time(10)) > 1.0 - 1e-10


def test_transfer_identity_at_zero_time():
    prop = _cluster_prop(4)
    b = BitConfig.from_string("0110")
    assert transfer_fidelity(prop, b, b, 0.0) > 1.0 - 1e-12


def test_cluster_chain_moves_single_excitations():
    # a lone excitation at site n travels to site N+2-n
    prop = _cluster_prop(6)
    t = pst_time(6)
    for n in range(2, 7):
        fid = transfer_fidelity(prop, BitConfig.single(6, n),
                                BitConfig.single(6, 8 - n), t)
        assert fid > 1.0 - 1e-8


def test_uniform_scan_small_chains():
    t2, f2, _, _ = max_fidelity_scan(_exchange_prop(2, "uniform"),
                                     BitConfig.single(2, 1), BitConfig.single(2, 2),
                                     t_max=10.0, grid_step=0.01)
    assert f2 > 1.0 - 1e-8
    assert abs(t2 - math.pi / 2) < 1e-6
    t3, f3, _, _ = max_fidelity_scan(_exchange_prop(3, "uniform"),
                                     BitConfig.single(3, 1), BitConfig.single(3, 3),
                                     t_max=10.0, grid_step=0.01)
    assert f3 > 1.0 - 1e-8
    assert abs(t3 - math.pi / math.sqrt(2.0)) < 1e-6


def test_uniform_six_site_transfer_stays_imperfect():
    _, best, _, _ = max_fidelity_scan(_exchange_prop(6, "uniform"),
                                      BitConfig.single(6, 1), BitConfig.single(6, 6),
                                      t_max=200.0, grid_step=0.1)
    assert best < 1.0 - 1e-3


@pytest.mark.parametrize("method", ["dense", "krylov"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_evolve_rejects_non_finite_time(method, t):
    prop = _cluster_prop(4, method=method)
    with pytest.raises(ValueError):
        prop.evolve(StateVector.basis_state(BitConfig.single(4, 1)), t)


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_scan_grid_matches_transfer_fidelity(method):
    prop = Propagator(exchange_chain(CouplingProfile.uniform(5)), method=method)
    source, target = BitConfig.single(5, 1), BitConfig.single(5, 5)
    # at t_max=3.0 the best grid point is the last one, where the
    # golden-section midpoint once fell 2.2e-9 below the grid maximum
    for t_max, points in ((5.0, 21), (3.0, 13)):
        t_star, f_star, ts, fids = max_fidelity_scan(prop, source, target,
                                                     t_max=t_max, grid_step=0.25)
        assert len(ts) == len(fids) == points
        assert np.allclose(ts, 0.25 * np.arange(points), rtol=0.0, atol=1e-12)
        for t, fid in zip(ts, fids):
            assert abs(fid - transfer_fidelity(prop, source, target, t)) < 1e-12
        assert f_star >= fids.max() - 1e-12


def test_scan_argument_validation():
    prop = _exchange_prop(2)
    with pytest.raises(ValueError):
        max_fidelity_scan(prop, BitConfig.single(2, 1), BitConfig.single(2, 2),
                          t_max=-1.0, grid_step=0.1)


def test_amplification_trivial_branches():
    prop = _cluster_prop(5)
    assert amplification_check(prop, 1.0, 0.0, 3.7).fidelity > 1.0 - 1e-12
    with pytest.raises(ValueError):
        amplification_check(prop, 1.0, 1.0, 0.5)


def test_amplification_engineered_vs_uniform():
    a = 1.0 / math.sqrt(2.0)
    good = amplification_check(_cluster_prop(6), a, a, math.pi / 2)
    assert good.fidelity > 1.0 - 1e-8
    assert good.fid0 > 1.0 - 1e-10

    uniform = _cluster_prop(6, "uniform")
    best = max(
        amplification_check(uniform, a, a, t).fidelity
        for t in np.linspace(0.05, 200.0, 4000)
    )
    assert best < 1.0 - 1e-3


def test_mirror_theorem_exhaustive():
    for n in range(2, 8):
        prop = _cluster_prop(n)
        unitary = prop.unitary(pst_time(n))
        for i in range(1 << n):
            b = BitConfig.from_index(n, i)
            m = mirror_map(b)
            assert abs(unitary[m.index, b.index]) > 1.0 - 1e-8


def test_phase_probe_cluster_has_no_conditional_phase():
    report = phase_separability_probe(_cluster_prop(6), pst_time(6), "cluster")
    assert report.excluded == ()
    assert report.max_abs_deviation() < 1e-6


def test_phase_probe_exchange_shows_crossing_phase():
    report = phase_separability_probe(_exchange_prop(6), pst_time(6), "exchange")
    assert report.excluded == ()
    values = list(report.deviation.values())
    assert values
    # constant modulo 2 pi and bounded away from zero
    for dev in values:
        assert abs(abs(dev) - abs(values[0])) < 1e-6
        assert abs(dev) > 1e-3


@pytest.mark.parametrize("family", ["cluster", "exchange"])
def test_phase_probe_krylov_matches_dense(family):
    chain = cluster_chain if family == "cluster" else exchange_chain
    spec = chain(CouplingProfile.engineered(6))
    dense = phase_separability_probe(Propagator(spec, "dense"), pst_time(6), family)
    krylov = phase_separability_probe(Propagator(spec, "krylov"), pst_time(6), family)
    assert krylov.excluded == dense.excluded
    for field in ("phi1", "phi2", "deviation"):
        a, b = getattr(dense, field), getattr(krylov, field)
        assert a.keys() == b.keys()
        for key in a:
            assert abs(math.remainder(a[key] - b[key], 2.0 * math.pi)) < 1e-9


def test_phase_probe_two_sites_trivial():
    report = phase_separability_probe(_cluster_prop(2), pst_time(2), "cluster")
    assert report.deviation == {}


def test_krylov_matches_dense():
    rng = np.random.default_rng(4)
    spec = cluster_chain(CouplingProfile.engineered(7))
    dense = Propagator(spec, "dense")
    krylov = Propagator(spec, "krylov")
    psi = StateVector.random(7, rng)
    for t in (0.4, math.pi / 2, 3.9, -1.3):
        gap = np.linalg.norm(dense.evolve(psi, t).amplitudes
                             - krylov.evolve(psi, t).amplitudes)
        assert gap < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.sampled_from([cluster_chain, exchange_chain]),
    st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
    st.integers(0, 2 ** n - 1), st.integers(0, 2 ** n - 1),
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4))))
def test_amplitudes_krylov_matches_dense(case):
    chain, couplings, fields, i, j, ts = case
    n = len(fields)
    spec = chain(CouplingProfile(n, tuple(couplings), tuple(fields)))
    source, target = BitConfig.from_index(n, i), BitConfig.from_index(n, j)
    dense = Propagator(spec, "dense").amplitudes(source, target, ts)
    krylov = Propagator(spec, "krylov").amplitudes(source, target, ts)
    assert dense.shape == krylov.shape == (len(ts),)
    assert np.max(np.abs(dense - krylov)) < 1e-9


def test_krylov_handles_long_chain():
    spec = cluster_chain(CouplingProfile.engineered(14))
    prop = Propagator(spec)
    assert prop.method == "krylov"
    out = prop.evolve(StateVector.basis_state(BitConfig.single(14, 1)), pst_time(14))
    assert abs(abs(out.amplitude(BitConfig(14, (1,) * 14))) - 1.0) < 1e-8


def test_dense_refused_above_cap():
    spec = cluster_chain(CouplingProfile.engineered(13))
    with pytest.raises(SizeError):
        Propagator(spec, "dense")
    with pytest.raises(SizeError):
        Propagator(spec).unitary(1.0)


def test_krylov_matches_dense_at_long_times():
    # the Lanczos step does not reorthogonalize; uniform couplings give a
    # generic spectrum, so five walls / excitations (a 252-state block)
    # never fit in one Krylov basis and t = 500 takes hundreds of substeps
    n, t = 10, 500.0
    profile = CouplingProfile.uniform(n)
    excitations = BitConfig.from_string("1011001010")
    walls = gamma_forward(excitations)
    cases = ((cluster_chain(profile), walls, mirror_map(walls)),
             (exchange_chain(profile), excitations, excitations.reversed_sites()))
    for spec, source, target in cases:
        dense = Propagator(spec, "dense").amplitudes(source, target, t)
        krylov = Propagator(spec, "krylov").amplitudes(source, target, t)
        assert abs(dense[0]) > 1e-3
        assert abs(dense[0] - krylov[0]) < 1e-9


@st.composite
def _block_specs(draw):
    """Random chains with fields, a complex chain, or a diagonal-only spec."""
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["cluster", "exchange", "complex", "diagonal"]))
    if kind == "diagonal":
        strings = draw(st.lists(st.tuples(st.floats(0.1, 2.0), st.sets(st.integers(1, n), min_size=1)),
                                min_size=1, max_size=6))
        return HamiltonianSpec(n, tuple(PauliTerm(c, {s: "Z" for s in sites})
                                        for c, sites in strings))
    couplings = draw(st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1))
    fields = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    profile = CouplingProfile(n, tuple(couplings), tuple(fields))
    if kind == "cluster":
        return cluster_chain(profile)
    spec = exchange_chain(profile)
    if kind == "complex":
        # X_i Y_{i+1} - Y_i X_{i+1}: one Y per string, so H is complex; it
        # hops an excitation like XX + YY and keeps the blocks
        strengths = draw(st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1))
        spec = spec + HamiltonianSpec(n, tuple(
            PauliTerm(sign * d, {i: a, i + 1: b})
            for i, d in enumerate(strengths, 1)
            for sign, a, b in ((1.0, "X", "Y"), (-1.0, "Y", "X"))))
    return spec


@settings(max_examples=40, deadline=None)
@given(_block_specs(), st.data())
def test_block_backend_matches_full_space(spec, data):
    n = spec.n_sites
    i = data.draw(st.integers(0, 2 ** n - 1))
    j = data.draw(st.integers(0, 2 ** n - 1))
    ts = data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3))
    psi = StateVector.random(n, np.random.default_rng(data.draw(st.integers(0, 2 ** 32))))
    source, target = BitConfig.from_index(n, i), BitConfig.from_index(n, j)
    prop = Propagator(spec, "dense")
    vals, vecs = np.linalg.eigh(kron_dense(spec))
    amps = prop.amplitudes(source, target, ts)
    for t, amp in zip(ts, amps):
        u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
        assert np.max(np.abs(prop.unitary(t) - u)) < 1e-12
        assert np.max(np.abs(prop.evolve(psi, t).amplitudes - u @ psi.amplitudes)) < 1e-12
        assert abs(amp - u[j, i]) < 1e-12
        indices, block_u = prop.block_unitary(source, t)
        assert i in indices
        assert np.max(np.abs(block_u - u[np.ix_(indices, indices)])) < 1e-12


def _sector_labels(family, n):
    """Wall count (cluster) or excitation number (exchange) of every basis index."""
    if family == "cluster":
        return np.diag(kron_dense(conserved_wall_operator(n))).real
    return np.array([bin(i).count("1") for i in range(1 << n)])


@pytest.mark.parametrize("family", ["cluster", "exchange"])
def test_amplitudes_between_blocks_are_exactly_zero(family):
    n = 5
    chain = cluster_chain if family == "cluster" else exchange_chain
    prop = Propagator(chain(CouplingProfile.uniform(n)), "dense")
    labels = _sector_labels(family, n)
    pairs = [(i, j) for i in range(1 << n) for j in range(1 << n) if labels[i] != labels[j]]
    assert pairs
    for i, j in pairs:
        amps = prop.amplitudes(BitConfig.from_index(n, i), BitConfig.from_index(n, j),
                               [0.7, 3.1, -40.0])
        assert np.all(amps == 0.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_blocks_are_the_conserved_sectors(n):
    rng = np.random.default_rng(n)
    profile = CouplingProfile(n, tuple(rng.uniform(0.2, 2.0, n - 1)),
                              tuple(rng.uniform(-1.0, 1.0, n)))
    blocks = {family: [row for rows in sector_blocks(chain(profile))[0] for row in rows]
              for family, chain in (("cluster", cluster_chain), ("exchange", exchange_chain))}
    for family, rows in blocks.items():
        labels = _sector_labels(family, n)
        # one block per level set of the conserved quantity, and no more
        assert len(rows) == n + 1
        assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(1 << n))
        assert all(len(set(labels[row])) == 1 for row in rows)
    # the CNOT ladder maps each cluster block onto an exchange block
    g = gamma_inverse_indices(n)
    assert ({frozenset(g[row].tolist()) for row in blocks["cluster"]}
            == {frozenset(row.tolist()) for row in blocks["exchange"]})
