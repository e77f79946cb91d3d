import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinamp.algebra import (
    BitConfig,
    HamiltonianSpec,
    PauliTerm,
    SizeError,
    SpinChainError,
    max_commutator,
    max_permuted_deviation,
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
from spinamp import evolution
from spinamp.evolution import (
    PST_TIME,
    Propagator,
    TimeRangeError,
    amplification_check,
    block_unitaries,
    max_fidelity_scan,
    transfer_fidelity,
)
from spinamp.maps import gamma_inverse_indices, mirror_map

from oracles import (
    binomial_transfer,
    exchange_sector,
    gamma_forward_bits,
    kron_dense,
    kron_unitary,
    pair_phase_deviations,
    uniform_chain_amplitude,
)


CHAIN = {"cluster": cluster_chain, "exchange": exchange_chain}


def _cluster(n, profile="engineered"):
    return cluster_chain(getattr(CouplingProfile, profile)(n))


def _exchange(n, profile="engineered"):
    return exchange_chain(getattr(CouplingProfile, profile)(n))


def _cluster_prop(n, profile="engineered"):
    return Propagator(getattr(CouplingProfile, profile)(n), "cluster")


def _exchange_prop(n, profile="engineered"):
    return Propagator(getattr(CouplingProfile, profile)(n), "exchange")


def _random_state(n, rng):
    """A normalized state of 2^N complex Gaussian amplitudes."""
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def _evolve(spec, psi, t):
    """U(t) psi, block by block from :func:`block_unitaries`."""
    out = np.empty_like(psi)
    for indices, u in block_unitaries(spec, t):
        out[indices] = (u @ psi[indices][:, :, None])[:, :, 0]
    return out


def _block_of(spec, config, t):
    """(indices, u): the basis indices of the block holding ``config``,
    ascending, and e^{-iHt} on it, read off :func:`block_unitaries`."""
    for rows, us in block_unitaries(spec, t):
        hit = np.flatnonzero((rows == config.index).any(axis=1))
        if hit.size:
            return rows[hit[0]], us[hit[0]]
    raise AssertionError(f"no block holds {config}")


def _block_amplitudes(spec, source, target, ts):
    """<target|U(t)|source> read off the block holding ``source``."""
    indices, _ = _block_of(spec, source, 0.0)
    if target.index not in indices:
        return np.zeros(len(ts), dtype=complex)
    i, j = np.searchsorted(indices, [source.index, target.index])
    return np.array([_block_of(spec, source, t)[1][j, i] for t in ts])


def test_zero_time_is_identity():
    rng = np.random.default_rng(0)
    psi = _random_state(5, rng)
    assert np.linalg.norm(_evolve(_cluster(5), psi, 0.0) - psi) < 1e-12


def test_all_zeros_is_stationary():
    spec = _cluster(4)
    vac = np.eye(16, dtype=complex)[BitConfig.zeros(4).index]
    for t in (0.1, 1.0, math.pi / 2, 17.3):
        assert np.linalg.norm(_evolve(spec, vac, t) - vac) < 1e-12


def test_unitarity_and_inverse():
    rng = np.random.default_rng(1)
    for spec in (_cluster(6), _exchange(6)):
        psi = _random_state(6, rng)
        out = _evolve(spec, psi, 1.7)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10
        back = _evolve(spec, out, -1.7)
        assert np.linalg.norm(back - psi) < 1e-10
        for (_, u), (_, u_back) in zip(block_unitaries(spec, 1.7), block_unitaries(spec, -1.7)):
            eye = np.eye(u.shape[1])
            assert np.max(np.abs(u @ u.conj().swapaxes(1, 2) - eye)) < 1e-10
            assert np.max(np.abs(u_back @ u - eye)) < 1e-10


def test_composition():
    rng = np.random.default_rng(2)
    spec = _cluster(6)
    psi = _random_state(6, rng)
    two_step = _evolve(spec, _evolve(spec, psi, 0.6), 1.1)
    one_step = _evolve(spec, psi, 1.7)
    assert np.linalg.norm(two_step - one_step) < 1e-9
    source = BitConfig.from_string("011010")
    u = {t: _block_of(spec, source, t)[1] for t in (0.6, 1.1, 1.7)}
    assert np.max(np.abs(u[1.1] @ u[0.6] - u[1.7])) < 1e-9


def test_energy_and_wall_conservation():
    rng = np.random.default_rng(3)
    spec = _cluster(6)
    h, walls = kron_dense(spec), kron_dense(cluster_field_terms((1.0,) * 6))

    def expectation(op, psi):
        value = np.vdot(psi, op @ psi)
        assert abs(value.imag) < 1e-10
        return value.real

    psi = _random_state(6, rng)
    e0 = expectation(h, psi)
    w0 = expectation(walls, psi)
    for t in np.linspace(0.5, 10.0, 8):
        out = _evolve(spec, psi, float(t))
        assert abs(expectation(h, out) - e0) < 1e-9
        assert abs(expectation(walls, out) - w0) < 1e-10


def test_exchange_perfect_transfer_n6():
    prop = _exchange_prop(6)
    fid = transfer_fidelity(prop, BitConfig.single(6, 1), BitConfig.single(6, 6),
                            math.pi / 2)
    assert fid > 1.0 - 1e-10


def test_pst_time_examples():
    assert PST_TIME == math.pi / 2
    # N=2: single-excitation block is J_1 X with J_1 = 1, so |sin(t)| = 1 at pi/2
    assert transfer_fidelity(_exchange_prop(2), BitConfig.single(2, 1),
                             BitConfig.single(2, 2), PST_TIME) > 1.0 - 1e-12
    assert transfer_fidelity(_exchange_prop(3), BitConfig.single(3, 1),
                             BitConfig.single(3, 3), PST_TIME) > 1.0 - 1e-12
    assert transfer_fidelity(_exchange_prop(10), BitConfig.single(10, 1),
                             BitConfig.single(10, 10), PST_TIME) > 1.0 - 1e-10


def test_transfer_identity_at_zero_time():
    prop = _cluster_prop(4)
    b = BitConfig.from_string("0110")
    assert transfer_fidelity(prop, b, b, 0.0) > 1.0 - 1e-12


def test_cluster_chain_moves_single_excitations():
    # a lone excitation at site n travels to site N+2-n
    prop = _cluster_prop(6)
    for n in range(2, 7):
        fid = transfer_fidelity(prop, BitConfig.single(6, n),
                                BitConfig.single(6, 8 - n), PST_TIME)
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


@pytest.mark.parametrize("route", ["dense", "fermions"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_evolve_rejects_non_finite_time(route, t):
    # the dense route is the block unitaries, the fermion route amplitudes
    spec, source = _cluster(4), BitConfig.single(4, 1)
    prop = _cluster_prop(4)
    with pytest.raises(ValueError):
        if route == "dense":
            next(block_unitaries(spec, t))
        else:
            prop.amplitudes(source, source, [0.5, t])


def test_scan_grid_matches_transfer_fidelity():
    prop = _exchange_prop(5, "uniform")
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


_GRID_RULE = ("t_max and grid_step must be positive, t_max / grid_step below 2^63, "
              "t_max + grid_step / 2 finite")


def test_scan_argument_validation(monkeypatch):
    # the one grid rule, refused before any amplitude; the last grid once
    # reached np.arange, whose stop overflows, as "Maximum allowed size exceeded"
    prop = _exchange_prop(2)
    monkeypatch.setattr(prop, "amplitude_fn", lambda *args: pytest.fail("evolved"))
    for t_max, grid_step in ((-1.0, 0.1), (0.0, 0.1), (1.0, 0.0), (1.0, -0.1),
                             (math.nan, 0.1), (1.0, math.nan), (math.inf, 0.1), (1.0, math.inf),
                             (1.0, 1e-300), (2.0 ** 63, 1.0), (1.79e308, 1e307)):
        with pytest.raises(ValueError) as refused:
            max_fidelity_scan(prop, BitConfig.single(2, 1), BitConfig.single(2, 2),
                              t_max=t_max, grid_step=grid_step)
        assert str(refused.value) == _GRID_RULE, (t_max, grid_step)


def test_amplification_trivial_branches():
    prop = _cluster_prop(5)
    assert amplification_check(prop, 1.0, 0.0, 3.7).fidelity > 1.0 - 1e-12
    with pytest.raises(ValueError):
        amplification_check(prop, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
                                         (math.inf, 0.0), (1.0, 1.0), (0.6, 0.8 + 1e-8)])
def test_amplification_refuses_amplitudes_off_the_unit_circle(alpha, beta, monkeypatch):
    # the one check of alpha^2 + beta^2 = 1: a NaN once passed it and came
    # out as NaN fidelities
    prop = _cluster_prop(4)
    monkeypatch.setattr(prop, "amplitudes", lambda *args: pytest.fail("evolved"))
    with pytest.raises(ValueError) as refused:
        amplification_check(prop, alpha, beta, 0.5)
    assert str(refused.value) == f"need alpha^2 + beta^2 = 1, got alpha={alpha}, beta={beta}"


@pytest.mark.parametrize("alpha, beta, t", [
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), math.pi / 2),
    (0.3, 0.9539392014169457, 1.1),
])
def test_amplification_phase_stays_in_range(alpha, beta, t):
    # the two amplitudes' ratio lies on the negative real axis, where
    # math.remainder alone may return -pi, outside (-pi, pi]
    assert amplification_check(_cluster_prop(3), alpha, beta, t).phase == math.pi


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
        mirror = {b: mirror_map(BitConfig.from_index(n, b)).index for b in range(1 << n)}
        for rows, us in block_unitaries(_cluster(n), PST_TIME):
            for indices, u in zip(rows, us):
                position = {int(x): k for k, x in enumerate(indices)}
                for k, b in enumerate(indices.tolist()):
                    assert abs(u[position[mirror[b]], k]) > 1.0 - 1e-8


def test_phase_probe_cluster_has_no_conditional_phase():
    # excitations on sites 2..N; site 1 is the encoding site
    deviation = pair_phase_deviations(_cluster_prop(6), PST_TIME, 2, mirror_map)
    assert len(deviation) == 10
    assert max(abs(d) for d in deviation.values()) < 1e-6


def test_phase_probe_exchange_shows_crossing_phase():
    deviation = pair_phase_deviations(_exchange_prop(6), PST_TIME, 1,
                                      BitConfig.reversed_sites)
    values = list(deviation.values())
    assert len(values) == 15
    # constant modulo 2 pi and bounded away from zero
    for dev in values:
        assert abs(abs(dev) - abs(values[0])) < 1e-6
        assert abs(dev) > 1e-3


def test_free_fermions_match_every_block_amplitude():
    # every pair of basis states: the block unitaries where both lie in one
    # block, exactly 0 between blocks
    spec, prop = _cluster(7), _cluster_prop(7)
    ts = (0.4, math.pi / 2, 3.9, -1.3)
    expected = np.zeros((len(ts), 1 << 7, 1 << 7), dtype=complex)
    for k, t in enumerate(ts):
        for rows, us in block_unitaries(spec, t):
            for indices, u in zip(rows, us):
                expected[k][np.ix_(indices, indices)] = u
    for i in range(1 << 7):
        for j in range(1 << 7):
            amps = prop.amplitudes(BitConfig.from_index(7, i), BitConfig.from_index(7, j), ts)
            assert np.max(np.abs(amps - expected[:, j, i])) < 1e-12
            assert expected[0, j, i] != 0.0 or not amps.any()


_CUT_PROFILES = [CouplingProfile((1.0, 0.0, 0.7, 1.3)),
                 CouplingProfile((0.0, 1.1, 0.0, 0.6), (0.3, 0.0, -0.5, 0.2, 0.1))]


@pytest.mark.parametrize("family", ["cluster", "exchange"])
@pytest.mark.parametrize("profile", _CUT_PROFILES, ids=["cut", "cuts with fields"])
def test_cut_chain_matches_kronecker_oracle(family, profile):
    # a zero J_n adds no term and leaves h block diagonal: the chain still
    # takes the fermion route, and det u[D, S] still holds
    spec, prop = CHAIN[family](profile), Propagator(profile, family)
    ts = (0.4, 2.1, -1.3)
    expected = np.array([kron_unitary(spec, t) for t in ts])
    for i in range(1 << 5):
        for j in range(1 << 5):
            amps = prop.amplitudes(BitConfig.from_index(5, i), BitConfig.from_index(5, j), ts)
            assert np.max(np.abs(amps - expected[:, j, i])) < 1e-12


@st.composite
def _chains(draw):
    """A random chain on 2..9 sites, with or without fields, and a random
    or mirror pair of basis states."""
    n = draw(st.integers(2, 9))
    couplings = draw(st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1))
    fields = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    family = draw(st.sampled_from(["cluster", "exchange"]))
    source = BitConfig.from_index(n, draw(st.integers(0, 2 ** n - 1)))
    if draw(st.booleans()):
        target = mirror_map(source) if family == "cluster" else source.reversed_sites()
    else:
        target = BitConfig.from_index(n, draw(st.integers(0, 2 ** n - 1)))
    return CouplingProfile(couplings, fields), family, source, target


@settings(max_examples=60, deadline=None)
@given(_chains(), st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4))
def test_free_fermions_match_block_unitaries(case, ts):
    # h from the couplings, against the blocks of the chain's Pauli spec
    profile, family, source, target = case
    amps = Propagator(profile, family).amplitudes(source, target, ts)
    assert amps.shape == (len(ts),)
    expected = _block_amplitudes(CHAIN[family](profile), source, target, ts)
    assert np.max(np.abs(amps - expected)) < 1e-12


@pytest.mark.parametrize("n", [63, 512])
@pytest.mark.parametrize("family", ["cluster", "exchange"])
def test_engineered_mirror_is_perfect_on_long_chains(family, n):
    mirror = mirror_map if family == "cluster" else BitConfig.reversed_sites
    prop = Propagator(CouplingProfile.engineered(n), family)
    rng = np.random.default_rng(63)
    for source in (BitConfig.single(n, 2), BitConfig(tuple(rng.integers(0, 2, n)))):
        amp = prop.amplitudes(source, mirror(source), PST_TIME)[0]
        assert abs(abs(amp) ** 2 - 1.0) < 1e-9


def test_dense_refused_above_cap():
    spec = cluster_chain(CouplingProfile.engineered(13))
    with pytest.raises(SizeError):
        sector_blocks(spec)
    # every block-route query reads _entries, which refuses first
    with pytest.raises(SizeError):
        max_commutator(spec, spec)
    with pytest.raises(SizeError):
        max_permuted_deviation(exchange_chain(CouplingProfile.engineered(13)), spec,
                               gamma_inverse_indices(13))
    # block unitaries above the cap are refused for the chains and any other spec
    for refused in (spec, spec + HamiltonianSpec(13, (PauliTerm(0.3, {1: "X"}),))):
        with pytest.raises(SizeError):
            next(block_unitaries(refused, 1.0))


def test_free_fermions_match_blocks_at_long_times():
    # uniform couplings give a generic spectrum; at t = 500 both routes
    # still agree on a 252-state block (five walls / excitations)
    n, t = 10, 500.0
    profile = CouplingProfile.uniform(n)
    excitations = BitConfig.from_string("1011001010")
    walls = gamma_forward_bits(excitations)
    cases = (("cluster", walls, mirror_map(walls)),
             ("exchange", excitations, excitations.reversed_sites()))
    for family, source, target in cases:
        dense = _block_amplitudes(CHAIN[family](profile), source, target, [t])
        assert abs(dense[0]) > 1e-3
        amp = Propagator(profile, family).amplitudes(source, target, t)[0]
        assert abs(amp - dense[0]) < 1e-9


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
    profile = CouplingProfile(tuple(couplings), tuple(fields))
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
    psi = _random_state(n, np.random.default_rng(data.draw(st.integers(0, 2 ** 32))))
    source, target = BitConfig.from_index(n, i), BitConfig.from_index(n, j)
    amps = _block_amplitudes(spec, source, target, ts)
    for t, amp in zip(ts, amps):
        u = kron_unitary(spec, t)
        # the blocks tile U: each matches the oracle, which is 0 between them
        between = u.copy()
        for rows, block_us in block_unitaries(spec, t):
            for indices, block_u in zip(rows, block_us):
                assert np.max(np.abs(block_u - u[np.ix_(indices, indices)])) < 1e-12
                between[np.ix_(indices, indices)] = 0.0
        assert np.max(np.abs(between)) < 1e-12
        assert np.max(np.abs(_evolve(spec, psi, t) - u @ psi)) < 1e-12
        assert abs(amp - u[j, i]) < 1e-12
        indices, block_u = _block_of(spec, source, t)
        assert i in indices
        assert np.max(np.abs(block_u - u[np.ix_(indices, indices)])) < 1e-12


def _sector_labels(family, n):
    """Wall count (cluster) or excitation number (exchange) of every basis index."""
    if family == "cluster":
        return np.diag(kron_dense(cluster_field_terms((1.0,) * n))).real
    return np.array([bin(i).count("1") for i in range(1 << n)])


@pytest.mark.parametrize("family", ["cluster", "exchange"])
def test_amplitudes_between_blocks_are_exactly_zero(family):
    n = 5
    prop = Propagator(CouplingProfile.uniform(n), family)
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
    profile = CouplingProfile(tuple(rng.uniform(0.2, 2.0, n - 1)),
                              tuple(rng.uniform(-1.0, 1.0, n)))
    blocks = {family: [row for rows, _ in sector_blocks(chain(profile)) for row in rows]
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


def _star(spikes, length, profile=CouplingProfile.engineered):
    layout = StarLayout(spikes, profile(length))
    return sum(spike_hamiltonians(layout), HamiltonianSpec(layout.total_sites))


_FIELDS = tuple(np.random.default_rng(13).uniform(-1.0, 1.0, 13))
_CHAINS_13 = {      # name: (profile, family)
    "exchange": (CouplingProfile.engineered(13), "exchange"),
    "exchange with fields": (CouplingProfile.engineered(13, _FIELDS), "exchange"),
    "cluster": (CouplingProfile.uniform(13), "cluster"),
    "cluster with fields": (CouplingProfile.uniform(13, _FIELDS), "cluster"),
    "one-spike star": (CouplingProfile.engineered(13), "cluster"),
}


@pytest.mark.parametrize("name", list(_CHAINS_13))
def test_route_is_read_off_the_spec(name):
    # at 13 sites the chain's spec has no block unitaries, its blocks being
    # above the dense cap, and the propagator still has amplitudes; a
    # one-spike star is the cluster chain of its spike's profile
    profile, family = _CHAINS_13[name]
    spec = _star(1, 13) if name == "one-spike star" else CHAIN[family](profile)
    with pytest.raises(SizeError):
        next(block_unitaries(spec, 0.5))
    source = BitConfig.from_string("0110010000000")
    amps = Propagator(profile, family).amplitudes(source, source, [0.0, 0.5])
    assert amps[0] == pytest.approx(1.0, abs=1e-12) and abs(amps[1]) <= 1.0 + 1e-12


@pytest.mark.parametrize("family", ["cluster", "exchange"])
@pytest.mark.parametrize("other", [BitConfig.single(3, 1), BitConfig.single(6, 6)])
def test_propagator_refuses_configs_of_another_site_count(family, other):
    prop, start = Propagator(CouplingProfile.engineered(4), family), BitConfig.single(4, 1)
    for call in (lambda: prop.occupied(other), lambda: prop.amplitudes(other, start, 0.0),
                 lambda: prop.amplitudes(start, other, 0.0)):
        with pytest.raises(SpinChainError, match="differ in site count"):
            call()


def test_propagator_refuses_an_unknown_family():
    with pytest.raises(ValueError, match="unknown Hamiltonian family 'foo'"):
        Propagator(CouplingProfile.engineered(4), "foo")


@pytest.mark.parametrize("family", ["cluster", "exchange"])
def test_huge_finite_times_are_refused(family):
    # t * lambda overflows at t = 1e308, where both routes once returned
    # NaN; t = 1e300 keeps every phase finite and still evaluates
    profile = CouplingProfile.engineered(4)
    prop, source = Propagator(profile, family), BitConfig.from_string("0100")
    with pytest.raises(TimeRangeError, match=r"phases t \* lambda"):
        prop.amplitudes(source, source, [0.5, 1e308])
    with pytest.raises(TimeRangeError, match=r"phases t \* lambda"):
        list(block_unitaries(CHAIN[family](profile), 1e308))
    # exp(-it sum B) is checked too: here |sum B| = 4e10 is twice h's
    # largest |eigenvalue|, and only t * sum B overflows
    fields = Propagator(CouplingProfile((0.0,) * 3, (1e10,) * 4), family)
    with pytest.raises(TimeRangeError):
        fields.amplitudes(BitConfig.zeros(4), BitConfig.zeros(4), 6e297)
    assert np.all(np.isfinite(prop.amplitudes(source, source, 1e300)))
    assert all(np.all(np.isfinite(u)) for _, u in block_unitaries(CHAIN[family](profile), 1e300))


def test_scan_refinement_stops_at_float_spacing():
    # near t = 5e8 adjacent floats lie 6e-8 apart, above the refinement
    # tolerance: the golden-section search once looped there for ever
    source, target = BitConfig.single(3, 1), BitConfig.single(3, 3)
    t_star, f_star, ts, fids = max_fidelity_scan(_exchange_prop(3), source, target,
                                                 t_max=1e9, grid_step=1e8)
    assert 0.0 <= t_star <= ts[-1] and f_star >= fids.max()
    # near the largest float the midpoint a + b once overflowed to inf
    peak = 1.7e308
    t, _ = evolution._golden_max(lambda t: -abs(t - peak), 1.6e308, 1.75e308,
                                 evolution.REFINE_TOL)
    assert abs(t - peak) <= 1e-12 * peak


@pytest.mark.parametrize("fields", [None, _FIELDS])
def test_free_fermions_match_a_1287_state_sector(fields):
    # five excitations on 13 sites: the C(13, 5) = 1287-state sector, built
    # entry by entry from the chain's definition, above the dense cap
    profile = CouplingProfile.engineered(13, fields)
    source = BitConfig.from_string("1101010010000")
    target = source.reversed_sites()
    ts = [0.3, PST_TIME, -2.9]
    amps = Propagator(profile, "exchange").amplitudes(source, target, ts)
    indices, h = exchange_sector(profile, 5)
    assert indices.size == 1287
    vals, vecs = np.linalg.eigh(h)
    i, j = np.searchsorted(indices, [source.index, target.index])
    expected = np.exp(-1j * np.multiply.outer(ts, vals)) @ (vecs[j] * vecs[i])
    if fields is None:
        assert abs(expected[1]) > 0.99      # the mirror transfer at pi/2
    assert np.max(np.abs(amps - expected)) < 1e-12


def test_unitary_refused_on_a_block_above_the_dense_cap():
    # seven excitations on 15 sites: C(15, 7) = 6435 states > 2^DENSE_CAP
    source = BitConfig.from_string("110101010010100")
    with pytest.raises(SizeError):
        next(block_unitaries(_exchange(15), 1.0))
    # free fermions still answer its amplitudes: the mirror transfer at pi/2
    amp = _exchange_prop(15).amplitudes(source, source.reversed_sites(), PST_TIME)[0]
    assert abs(abs(amp) - 1.0) < 1e-8


def test_scan_memory_stays_within_one_batch():
    # a default-grid scan (2001 times) with k = 48 occupied sites: u[D, S]
    # at every time at once would take 2001 * 48^2 * 16 B = 70 MiB
    prop = _exchange_prop(96)       # eigh not measured
    source = BitConfig((1, 0) * 48)
    tracemalloc.start()
    try:
        max_fidelity_scan(prop, source, source.reversed_sites())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def test_time_batches_match_one_batch(monkeypatch):
    # 23 times in batches of 5 leave a short last batch; the pair kernel is
    # the amplitudes' own, over the batches and one time at a time, as the
    # scan's refinement calls it (a lone time and a batch may differ in the
    # last bits, as einsum sums them in another order)
    prop = Propagator(CouplingProfile.engineered(9, _FIELDS[:9]), "cluster")
    source = BitConfig.from_string("011010000")
    target = mirror_map(source)
    k = len(prop.occupied(source))
    ts = np.linspace(-3.0, 7.0, 23)
    whole = prop.amplitudes(source, target, ts)
    monkeypatch.setattr(evolution, "BATCH_ELEMENTS", 6 * k * k - 1)
    assert np.array_equal(prop.amplitudes(source, target, ts), whole)
    kernel = prop.amplitude_fn(source, target)
    assert np.array_equal(kernel(prop.times(ts)), whole)
    assert all(kernel(np.array([t]))[0] == prop.amplitudes(source, target, t)[0] for t in ts)
    # a pair of unequal counts: exactly 0 at every time
    assert np.array_equal(prop.amplitude_fn(source, BitConfig.zeros(9))(ts), np.zeros(23))


@pytest.mark.parametrize("target, grid_step", [
    (BitConfig.single(6, 6), 0.25),       # a refinement of about 40 steps
    (BitConfig.single(6, 6), 0.02),
    (BitConfig.zeros(6), 0.1),            # unreachable: every amplitude 0
])
def test_scan_reads_its_pair_and_checks_its_times_once(target, grid_step, monkeypatch):
    # however many golden-section steps it takes, one scan reads each
    # config's occupied sites once and checks its times once
    calls = {"occupied": 0, "require_times": 0, "refine": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    golden = evolution._golden_max
    monkeypatch.setattr(Propagator, "occupied", counted("occupied", Propagator.occupied))
    monkeypatch.setattr(evolution, "require_times", counted("require_times", evolution.require_times))
    monkeypatch.setattr(evolution, "_golden_max",
                        lambda f, *args: golden(counted("refine", f), *args))
    max_fidelity_scan(_exchange_prop(6), BitConfig.single(6, 1), target,
                      t_max=2.0, grid_step=grid_step)
    assert calls["refine"] > 30
    assert (calls["occupied"], calls["require_times"]) == (2, 1)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(_FINITE, st.one_of(_FINITE, st.integers(0, 8)))
@example(1.6e308, 1.75e308)     # a + b overflows
@example(5e-324, 0)             # halving the least subnormal rounds to 0
def test_golden_max_stays_in_its_bracket(a, other):
    # f is called only inside [a, b], so a scan's one check of its grid
    # covers every refinement step; b is another float, or a few ulps above
    # a, below the 4 ulps at which the search stops at once
    if isinstance(other, int):
        b = a
        for _ in range(other):
            b = math.nextafter(b, math.inf)
    else:
        a, b = min(a, other), max(a, other)
    assume(math.isfinite(b - a))
    seen = []

    def f(t):
        seen.append(t)
        return -abs(t - (a + 0.3 * (b - a)))

    t, _ = evolution._golden_max(f, a, b, evolution.REFINE_TOL)
    assert a <= t <= b and all(a <= s <= b for s in seen)


@pytest.mark.parametrize("n", [7, 64, 256, 1024])
def test_engineered_transfer_is_binomial(n):
    # a closed form at intermediate times, far above the dense cap; sites
    # within 1 of the peak, where the probability is not tiny
    prop = _exchange_prop(n)
    for t in (0.4, 1.1):
        peak = 1 + round(math.sin(t) ** 2 * (n - 1))
        for site in range(max(1, peak - 1), min(n, peak + 1) + 1):
            expected = binomial_transfer(n, site, t)
            assert expected > 0.02
            fid = transfer_fidelity(prop, BitConfig.single(n, 1), BitConfig.single(n, site), t)
            assert abs(fid - expected) < 1e-12


@pytest.mark.parametrize("n", [8, 256, 1024])
def test_amplify_closed_form(n):
    # the ladder carries 10...0 to one excitation on site 1 and 1...1 to one
    # on site N, so fid1 is the binomial law's last term; 0...0 stays put
    t = math.pi / 2 - 0.05
    result = amplification_check(_cluster_prop(n), 2 ** -0.5, 2 ** -0.5, t)
    assert abs(result.fid1 - math.sin(t) ** (2 * (n - 1))) < 1e-12
    assert abs(result.fid0 - 1.0) < 1e-12


@pytest.mark.parametrize("n, first", [(64, 20), (1024, 500)])
@pytest.mark.parametrize("k", [2, 3])
def test_uniform_chain_determinant_closed_form(n, first, k):
    # k excitations on every other site, each one site to the right at
    # t = 1: the only closed form with k > 1, on both families
    sites = [first + 2 * j for j in range(k)]
    expected = uniform_chain_amplitude(n, sites, [s + 1 for s in sites], 1.0)
    assert abs(expected) >= 1e-3
    source = BitConfig(tuple(int(s in sites) for s in range(1, n + 1)))
    target = BitConfig((0,) + source.bits[:-1])
    for family, config in (("exchange", lambda b: b), ("cluster", gamma_forward_bits)):
        prop = Propagator(CouplingProfile.uniform(n), family)
        amp = prop.amplitudes(config(source), config(target), 1.0)[0]
        assert abs(amp - expected) < 1e-12
