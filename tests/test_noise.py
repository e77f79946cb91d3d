import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spinamp import noise
from spinamp.algebra import BitConfig, SpinChainError
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain
from spinamp.evolution import PST_TIME, Propagator, TimeRangeError, transfer_fidelity
from spinamp.noise import (
    NoiseConfig,
    RunRecord,
    dephasing_ensemble,
    noise_sweep,
    trial_draws,
)

from oracles import binomial_transfer, dephasing_trial, forward_ensemble, gamma_forward_bits

N = 6
T = PST_TIME
FAMILY = {cluster_chain: "cluster", exchange_chain: "exchange"}


@pytest.fixture(scope="module")
def props():
    prof = CouplingProfile.engineered(N)
    return Propagator(prof, "cluster"), Propagator(prof, "exchange")


def _tasks(props):
    """(prop, source) of the sweep's two chains, in its record order."""
    cluster, exchange = props
    return [(cluster, BitConfig.single(N, 2)), (exchange, BitConfig.single(N, 1))]


def test_config_validation():
    # the extremes are accepted, and a p given as text is read as a float
    cfg = NoiseConfig(["0", "1", 0.5], 1e-300, steps=1, trials=2 ** 32, seed=2 ** 64 - 1)
    assert cfg.p_grid == (0.0, 1.0, 0.5)
    for mean in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            RunRecord(0.1, mean, 0.0, "cluster", 5)


_BAD_CONFIG = [
    (dict(p_grid=[-0.1]), "flip probability"),
    (dict(p_grid=[0.2, 1.5]), "flip probability"),
    (dict(p_grid=[0.2, math.nan]), "flip probability"),
    (dict(p_grid=[]), "nonempty"),
    (dict(total_time=0.0), "total_time must be positive"),
    (dict(total_time=-1.0), "total_time must be positive"),
    (dict(total_time=math.nan), "total_time must be positive"),
    (dict(steps=0), "steps"),
    (dict(trials=0), "trials"),
    (dict(trials=2 ** 32 + 1), "trials"),
    (dict(seed=-1), "seed"),
    (dict(seed=2 ** 64), "seed"),
]


@pytest.mark.parametrize("bad, message", _BAD_CONFIG,
                         ids=[",".join(f"{k}={v}" for k, v in bad.items()) for bad, _ in _BAD_CONFIG])
def test_config_refuses_each_bad_input(bad, message):
    with pytest.raises(ValueError, match=message):
        NoiseConfig(**{"p_grid": [0.1], "total_time": T, **bad})


def test_noiseless_trials_reach_unit_fidelity(props):
    cfg = NoiseConfig([0.0], T, trials=1)
    uniforms, sites = trial_draws(cfg, N)
    for prop, source in _tasks(props):
        fid = dephasing_trial(prop, source, N, T, 0.0, cfg, uniforms[0], sites[0])
        assert abs(fid - 1.0) < 1e-8
        clean = transfer_fidelity(prop, source, BitConfig.single(N, N), T)
        assert abs(fid - clean) < 1e-10


def test_double_z_is_identity(props):
    cluster, _ = props
    psi = np.eye(1 << N, dtype=complex)[BitConfig.single(N, 2).index]
    amps = psi.copy()
    idx = np.arange(amps.size)
    for _ in range(2):
        amps[(idx & 0b100) != 0] *= -1.0
    assert np.array_equal(amps, psi)


def test_trials_stay_normalized(props):
    cluster, _ = props
    cfg = NoiseConfig([1.0], T, trials=1, seed=9)
    many = NoiseConfig([1.0], T, trials=50, seed=9)
    fids = dephasing_ensemble([(cluster, BitConfig.single(N, 2))], many)[0][0]
    assert np.all(fids <= 1.0)
    # per-trial norm: evolve manually and check
    uniforms, sites = trial_draws(cfg, N)
    fid = dephasing_trial(cluster, BitConfig.single(N, 2), N, T, 1.0, cfg, uniforms[0], sites[0])
    assert 0.0 <= fid <= 1.0


_RNG = np.random.default_rng(8)
_FIELD_PROFILE = CouplingProfile(tuple(_RNG.uniform(0.2, 2.0, N - 1)),
                                 tuple(_RNG.uniform(-1.0, 1.0, N)))


# single-particle occupations k on the exchange / cluster chain: 0 / 0,
# 1 / 1, 1 / 2, 2 / 1, 3 / 3 and 6 / 1; three seeds, three sets of flips
@pytest.mark.parametrize("chain", [cluster_chain, exchange_chain])
@pytest.mark.parametrize("source", ["000000", "100000", "010000", "110000", "101100", "111111"])
@pytest.mark.parametrize("seed", [1, 3, 6])
def test_batch_matches_single_trials(chain, source, seed):
    prop = Propagator(_FIELD_PROFILE, FAMILY[chain])
    cfg = NoiseConfig([0.3], 1.3, trials=16, seed=seed)
    config = BitConfig.from_string(source)
    batch = dephasing_ensemble([(prop, config)], cfg)[0][0]
    singles = np.array([
        dephasing_trial(prop, config, N, 1.3, 0.3, cfg, uniforms, sites)
        for uniforms, sites in zip(*trial_draws(cfg, N))
    ])
    assert np.max(np.abs(batch - singles)) < 1e-12


# steps = 1, one trial, a flip at every step, and k = 0 (all down, on both
# chains) or k = N (all up, on the exchange chain)
@pytest.mark.parametrize("chain", [cluster_chain, exchange_chain])
@pytest.mark.parametrize("source", ["000000", "111111", "010000"])
@pytest.mark.parametrize("steps, trials, p", [(1, 16, 0.3), (25, 1, 0.3), (25, 16, 1.0),
                                              (1, 1, 1.0)])
def test_ensemble_edges_match_single_trials(chain, source, steps, trials, p):
    prop = Propagator(_FIELD_PROFILE, FAMILY[chain])
    cfg = NoiseConfig([p], 0.9, steps=steps, trials=trials, seed=3)
    config = BitConfig.from_string(source)
    draws = trial_draws(cfg, N)
    ensemble = dephasing_ensemble([(prop, config)], cfg)[0]
    assert ensemble.shape == (1, trials)
    batch = ensemble[0]
    singles = np.array([dephasing_trial(prop, config, N, 0.9, p, cfg, uniforms, sites)
                        for uniforms, sites in zip(*draws)])
    assert np.max(np.abs(batch - singles)) < 1e-12
    forward = forward_ensemble(prop, config, N, 0.9, p, cfg, draws)
    assert np.max(np.abs(batch - forward)) < 1e-12


_LONG = 64
_RNG_LONG = np.random.default_rng(64)
_LONG_PROFILE = CouplingProfile(tuple(_RNG_LONG.uniform(0.2, 2.0, _LONG - 1)),
                                tuple(_RNG_LONG.uniform(-1.0, 1.0, _LONG)))


@pytest.mark.parametrize("chain", [cluster_chain, exchange_chain])
@pytest.mark.parametrize("k", [1, 2, _LONG // 2])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
def test_ensemble_matches_forward_loop_on_long_chains(chain, k, p):
    # far above 2^N: the site-basis loop of oracles.forward_ensemble, with k
    # occupied orbitals picked at random; the cluster chain's source is the
    # suffix XOR of them
    prop = Propagator(_LONG_PROFILE, FAMILY[chain])
    rng = np.random.default_rng(k)
    occupied = sorted(rng.choice(_LONG, k, replace=False).tolist())
    pattern = BitConfig(tuple(int(s in occupied) for s in range(_LONG)))
    source = gamma_forward_bits(pattern) if chain is cluster_chain else pattern
    assert prop.occupied(source) == occupied
    cfg = NoiseConfig([p], 1.3, steps=25, trials=12, seed=11)
    draws = trial_draws(cfg, _LONG)
    batch = dephasing_ensemble([(prop, source)], cfg)[0][0]
    reference = forward_ensemble(prop, source, _LONG, 1.3, p, cfg, draws)
    assert np.max(np.abs(batch - reference)) < 1e-12


def test_noiseless_ensemble_is_binomial_at_1024_sites():
    # p = 0 leaves every trial on the free evolution: the exchange chain's
    # one-excitation law, P(1 -> m) = C(N-1, m-1) s^(m-1) (1-s)^(N-m) with
    # s = sin^2 t, and by reflection P(m -> N) = P(1 -> N + 1 - m): from the
    # CLI's source site 1 and from sources whose image lies within 1 of the
    # law's peak
    n, t = 1024, 1.1
    prop = Propagator(CouplingProfile.engineered(n), "exchange")
    cfg = NoiseConfig([0.0], t, trials=3)
    peak = 1 + round(math.sin(t) ** 2 * (n - 1))
    for source in (1, n - peak, n + 1 - peak, n + 2 - peak):
        fids = dephasing_ensemble([(prop, BitConfig.single(n, source))], cfg)[0][0]
        clean = transfer_fidelity(prop, BitConfig.single(n, source), BitConfig.single(n, n), t)
        expected = binomial_transfer(n, n + 1 - source, t)
        assert source == 1 or expected > 0.02
        assert np.max(np.abs(fids - clean)) < 1e-12
        assert np.max(np.abs(fids - expected)) < 1e-12


@pytest.mark.parametrize("n, t", [(12, PST_TIME), (64, 24.0)])
def test_small_noiseless_fidelity_keeps_its_digits(n, t):
    # site N scores sum_c |W_Nc|^2, so a small fidelity keeps its relative
    # digits, which 1 - det(I - 2 W_N W_N^H) would cancel away: 9.1e-12 on
    # the CLI's uniform N = 12 exchange task, 1.3e-9 at N = 64 and t = 24.
    # (At N = 64 and t = pi/2 the exact fidelity, about 1e-150, lies below
    # the rounding of u itself, so no route resolves it.)
    profile = CouplingProfile.uniform(n)
    prop = Propagator(profile, "exchange")
    clean = transfer_fidelity(prop, BitConfig.single(n, 1), BitConfig.single(n, n), t)
    assert 1e-13 < clean < 1e-8
    _, record = noise_sweep(profile, NoiseConfig([0.0], t, trials=4))
    assert record.hamiltonian == "exchange"
    assert abs(record.mean_fidelity / clean - 1.0) < 1e-9


def test_trial_blocks_match_single_trials(props, monkeypatch):
    # 23 trials in batches of 5 leave a short last batch
    cluster, _ = props
    k = len(cluster.occupied(BitConfig.single(N, 2)))
    monkeypatch.setattr(noise, "BATCH_ELEMENTS", 6 * N * k - 1)
    cfg = NoiseConfig([0.3], T, trials=23, seed=4)
    batch = dephasing_ensemble([(cluster, BitConfig.single(N, 2))], cfg)[0][0]
    singles = np.array([
        dephasing_trial(cluster, BitConfig.single(N, 2), N, T, 0.3, cfg, uniforms, sites)
        for uniforms, sites in zip(*trial_draws(cfg, N))
    ])
    assert np.max(np.abs(batch - singles)) < 1e-12


def test_row_batches_end_inside_a_p_row(props, monkeypatch):
    # 3 p rows of 23 trials, the rows that flip in batches of 7: batches
    # start inside every p row, and past the p = 0.05 rows that never flip,
    # so a hit row reads its flip site at busy[lo + hit] % trials; each
    # chain alone, then both in one call
    p_grid = [0.3, 1.0, 0.05]
    cfg = NoiseConfig(p_grid, T, trials=23, seed=4)
    draws = trial_draws(cfg, N)
    assert not (draws[0] < 0.05).any(axis=1).all()
    for tasks in [[task] for task in _tasks(props)] + [_tasks(props)]:
        k = sum(len(prop.occupied(source)) for prop, source in tasks)
        monkeypatch.setattr(noise, "BATCH_ELEMENTS", 8 * N * k - 1)
        ensemble = dephasing_ensemble(tasks, cfg)
        assert ensemble.shape == (len(tasks), 3, 23)
        for (prop, source), rows in zip(tasks, ensemble):
            for p, row in zip(p_grid, rows):
                reference = forward_ensemble(prop, source, N, T, p, cfg, draws)
                assert np.max(np.abs(row - reference)) < 1e-12


@pytest.mark.parametrize("n, profile, cfg", [
    (12, CouplingProfile.uniform(12), NoiseConfig([0.0, 0.01, 0.5, 1.0], T, steps=7,
                                                  seed=2 ** 64 - 1)),
    (8, CouplingProfile.engineered(8), NoiseConfig([0.0, 0.03, 0.15], T, trials=2000, seed=5)),
], ids=["uniform-12", "engineered-8"])
def test_two_tasks_equal_one_task_calls_bitwise(n, profile, cfg):
    # both chains in one step loop: each gets the bits of a call of its own,
    # on the configuration whose digits once moved with how trials were
    # grouped into BLAS calls, and on a noise-mc sized sweep
    tasks = [(Propagator(profile, "cluster"), BitConfig.single(n, 2)),
             (Propagator(profile, "exchange"), BitConfig.single(n, 1))]
    both = dephasing_ensemble(tasks, cfg)
    assert both.shape == (2, len(cfg.p_grid), cfg.trials)
    for task, rows in zip(tasks, both):
        assert np.array_equal(rows, dephasing_ensemble([task], cfg)[0])


def test_rows_that_never_flip_keep_the_noiseless_score(props):
    # a row with no flip is scored once, from the unflipped orbitals: every
    # p = 0 row and each p = 0.05 row whose draws never fire carry one
    # value, the noiseless score; no p = 1 row is quiet
    cfg = NoiseConfig([0.0, 0.05, 1.0], T, trials=300, seed=12)
    draws = trial_draws(cfg, N)
    quiet = ~(draws[0] < 0.05).any(axis=1)
    assert 0 < quiet.sum() < cfg.trials
    for (prop, source), rows in zip(_tasks(props), dephasing_ensemble(_tasks(props), cfg)):
        clean = forward_ensemble(prop, source, N, T, 0.0, cfg, draws)
        assert np.max(np.abs(rows[0] - clean)) < 1e-12
        assert np.unique(rows[0]).size == 1
        assert np.array_equal(rows[1][quiet], rows[0][quiet])
        assert not np.array_equal(rows[1], rows[0])
        noisy = forward_ensemble(prop, source, N, T, 1.0, cfg, draws)
        assert np.max(np.abs(rows[2] - noisy)) < 1e-12


def test_ensemble_draws_its_own_trials(props):
    # the trials are drawn for the tasks' own chain length: draws for
    # another N, once the caller's to pass, were scored without an error
    cfg = NoiseConfig([0.0, 0.3, 1.0], T, trials=40, seed=21)
    draws = trial_draws(cfg, N)
    for (prop, source), rows in zip(_tasks(props), dephasing_ensemble(_tasks(props), cfg)):
        for p, row in zip(cfg.p_grid, rows):
            reference = forward_ensemble(prop, source, N, T, p, cfg, draws)
            assert np.max(np.abs(row - reference)) < 1e-12


def test_ensemble_refuses_tasks_on_different_profiles():
    # the eigenpairs come from the first task's propagator; equal profiles
    # built apart are accepted
    cfg = NoiseConfig([0.1], T, trials=4)
    cluster = (Propagator(CouplingProfile.engineered(N), "cluster"), BitConfig.single(N, 2))
    for profile, accepted in ((CouplingProfile.engineered(N), True),
                              (CouplingProfile.uniform(N), False),
                              (CouplingProfile.engineered(N, (0.1,) * N), False)):
        tasks = [cluster, (Propagator(profile, "exchange"), BitConfig.single(N, 1))]
        if accepted:
            assert dephasing_ensemble(tasks, cfg).shape == (2, 1, 4)
        else:
            with pytest.raises(ValueError, match="equal profiles"):
                dephasing_ensemble(tasks, cfg)


@pytest.mark.parametrize("family", ["cluster", "exchange"])
@pytest.mark.parametrize("source", [BitConfig.single(6, 6), BitConfig.single(3, 1)])
def test_ensemble_refuses_a_source_of_another_site_count(family, source):
    # 000001 once scored as the vacuum, and 100 as 1000
    cfg = NoiseConfig([0.0, 0.5], T, trials=4)
    prop = Propagator(CouplingProfile.engineered(4), family)
    with pytest.raises(SpinChainError, match="differ in site count"):
        dephasing_ensemble([(prop, source)], cfg)


def test_sweep_diagonalizes_h_once(monkeypatch):
    # both chains read the one h = tridiag(J) - 2 diag(B), so a sweep's two
    # propagators share one eigh, whose arrays neither can write
    Propagator(CouplingProfile.uniform(3), "exchange")       # another profile's eigh last
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    profile = CouplingProfile.engineered(N)
    noise_sweep(profile, NoiseConfig([0.1], T, trials=10))
    assert calls == [(N, N)]
    cluster, exchange = Propagator(profile, "cluster"), Propagator(profile, "exchange")
    assert calls == [(N, N)]
    assert cluster.vecs is exchange.vecs and cluster.vals is exchange.vals
    for array in (cluster.vals, cluster.vecs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("p_grid", [[0.0, 0.01, 0.5, 1.0], [0.3, 0.0, 1.0, 0.3]])
def test_grid_rows_equal_single_p_calls_bitwise(p_grid):
    # the configuration whose digits once moved with how trials were
    # grouped into BLAS calls: one step loop over every p must give each
    # row the bits of that p alone, whatever the grid's order or repeats
    profile = CouplingProfile.uniform(12)
    cfg = NoiseConfig(p_grid, T, steps=7, seed=2 ** 64 - 1)
    for family, site in (("cluster", 2), ("exchange", 1)):
        prop, source = Propagator(profile, family), BitConfig.single(12, site)
        rows = dephasing_ensemble([(prop, source)], cfg)[0]
        for p, row in zip(p_grid, rows):
            alone = replace(cfg, p_grid=[p])
            assert np.array_equal(row, dephasing_ensemble([(prop, source)], alone)[0][0])
        assert np.unique(rows[p_grid.index(0.0)]).size == 1
        if p_grid.count(0.3) == 2:
            assert np.array_equal(rows[0], rows[3])


def test_grid_memory_stays_within_one_batch():
    # 50 p rows of 100 trials with k = 32 of N = 64 orbitals: every row at
    # once would take 50 * 100 * 32 * 64 * 16 B = 156 MiB; mostly p = 0,
    # so only the last row flips
    n = 64
    prop = Propagator(CouplingProfile.engineered(n), "exchange")
    source = BitConfig((1, 0) * (n // 2))
    cfg = NoiseConfig([0.0] * 49 + [0.05], T, trials=100, seed=7)
    tracemalloc.start()
    try:
        rows = dephasing_ensemble([(prop, source)], cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (50, 100)
    assert peak < 48 * 2 ** 20


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("n_sites", [2, 63])
def test_draws_follow_the_seeded_generator(seed, n_sites):
    # the draw contract, written out: one generator, uniforms then sites,
    # row i for trial i
    cfg = NoiseConfig([0.1], T, steps=25, trials=300, seed=seed)
    uniforms, sites = trial_draws(cfg, n_sites)
    rng = np.random.default_rng(seed)
    assert uniforms.dtype == np.float64 and sites.dtype == np.int64
    assert uniforms.tobytes() == rng.random((300, 25)).tobytes()
    assert sites.tobytes() == rng.integers(1, n_sites + 1, (300, 25)).tobytes()
    assert sites.min() == 1 and sites.max() == n_sites
    # a byte-identical rerun would pass even if the seed were ignored
    zero, one = (trial_draws(replace(cfg, seed=s), n_sites) for s in (0, 1))
    assert not np.array_equal(zero[0], one[0]) and not np.array_equal(zero[1], one[1])
    # the p grid and the time are not read: every p and time share the draws
    other = trial_draws(replace(cfg, p_grid=[0.9, 0.0], total_time=7.0), n_sites)
    assert other[0].tobytes() == uniforms.tobytes() and other[1].tobytes() == sites.tobytes()


def test_sweep_is_deterministic(props):
    cfg = NoiseConfig([0.0, 0.08], T, trials=300, seed=123)
    first = noise_sweep(CouplingProfile.engineered(N), cfg)
    second = noise_sweep(CouplingProfile.engineered(N), cfg)
    assert first == second


def test_sweep_reuses_draws_without_changing_records(props):
    # one set of draws feeds every (p, chain), and one step loop every p of
    # a chain; each record must equal the ensemble drawn afresh for that p
    # alone
    cfg = NoiseConfig([0.05, 0.3], T, trials=200, seed=31)
    records = noise_sweep(CouplingProfile.engineered(N), cfg)
    assert [(r.p, r.hamiltonian, r.block_dim) for r in records] == [
        (p, family, dim) for p in (0.05, 0.3) for family, dim in (("cluster", 15), ("exchange", 6))]
    for record, (prop, source) in zip(records, _tasks(props) * 2):
        alone = replace(cfg, p_grid=[record.p])
        fids = dephasing_ensemble([(prop, source)], alone)[0][0]
        assert record.mean_fidelity == float(np.mean(fids))


def test_sweep_rejects_bad_inputs():
    # a sweep's inputs are refused when its config is built, so no sweep
    # sees them; the first bad one is named: the time, then each p in grid
    # order, read as a float and held to [0, 1], then steps, trials, seed
    for bad, message in (
        (dict(p_grid=["0.1", "nan", "x"], total_time=-1.0, steps=0), "total_time"),
        (dict(p_grid=["0.1", "nan", "x"], steps=0), "got nan"),
        (dict(p_grid=["2", "x"]), "got 2.0"),
        (dict(p_grid=["0.1", "x", "2"], steps=0), "could not convert string to float: 'x'"),
        (dict(p_grid=[], steps=0), "nonempty"),
        (dict(steps=0, trials=0), "steps"),
        (dict(trials=0, seed=-1), "trials"),
    ):
        with pytest.raises(ValueError, match=message):
            NoiseConfig(**{"p_grid": [0.1], "total_time": T, **bad})


def test_ensemble_refuses_a_time_whose_phases_overflow(props):
    # at t = 1e308 the free phases t * lambda overflow; the ensemble once
    # scored such trials NaN
    cfg = NoiseConfig([0.0, 0.1], 1e308, trials=10)
    for prop, source in _tasks(props):
        with pytest.raises(TimeRangeError, match=r"phases t \* lambda"):
            dephasing_ensemble([(prop, source)], cfg)


def test_standard_error_scales_with_trials(props):
    cluster, _ = props
    cfg_small = NoiseConfig([0.1], T, trials=400, seed=5)
    cfg_large = NoiseConfig([0.1], T, trials=1600, seed=5)
    se = []
    for cfg in (cfg_small, cfg_large):
        fids = dephasing_ensemble([(cluster, BitConfig.single(N, 2))], cfg)[0][0]
        se.append(np.std(fids, ddof=1) / math.sqrt(cfg.trials))
    ratio = se[0] / se[1]
    assert 2.0 / 1.5 < ratio < 2.0 * 1.5


def test_cluster_beats_exchange_under_noise(props):
    cfg = NoiseConfig([0.1], T, trials=2000, seed=77)
    records = noise_sweep(CouplingProfile.engineered(N), cfg)
    by_label = {r.hamiltonian: r for r in records}
    gap = by_label["cluster"].mean_fidelity - by_label["exchange"].mean_fidelity
    se = math.hypot(by_label["cluster"].standard_error,
                    by_label["exchange"].standard_error)
    assert gap > -3.0 * se
    assert gap > 0.0  # comfortably separated at p = 0.1 in practice


def test_identical_trials_have_zero_spread():
    # at p = 0 every trial is bitwise the same, and the rounding of their
    # mean alone once gave the spread of 10^4 of them as 5.2e-28 (cluster
    # chain, uniform N = 12); at p = 1 the trials differ
    profile = CouplingProfile.uniform(12)
    cfg = NoiseConfig([0.0, 1.0], T)
    records = noise_sweep(profile, cfg)
    for record, family, site in zip(records, ("cluster", "exchange") * 2, (2, 1) * 2):
        fids = dephasing_ensemble([(Propagator(profile, family), BitConfig.single(12, site))],
                                  replace(cfg, p_grid=[record.p]))[0][0]
        assert (np.unique(fids).size == 1) == (record.p == 0.0)
        assert (record.standard_error == 0.0) == (record.p == 0.0)
