import itertools
import math

import numpy as np
import pytest

from spinamp import noise
from spinamp.algebra import BitConfig
from spinamp.chains import (
    CouplingProfile,
    StarLayout,
    cluster_chain,
    exchange_chain,
    star_hamiltonian,
)
from spinamp.evolution import Propagator, pst_time, transfer_fidelity
from spinamp.noise import (
    NoiseConfig,
    RunRecord,
    TransferTask,
    dephasing_ensemble,
    noise_sweep,
    trial_draws,
)

from oracles import dephasing_trial, trial_rngs

N = 6
T = pst_time(N)


@pytest.fixture(scope="module")
def props():
    prof = CouplingProfile.engineered(N)
    return Propagator(cluster_chain(prof)), Propagator(exchange_chain(prof))


def _tasks(props):
    cluster, exchange = props
    return [
        TransferTask("cluster", cluster, BitConfig.single(N, 2), N, T),
        TransferTask("exchange", exchange, BitConfig.single(N, 1), N, T),
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(p=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(p=0.1, steps=0)
    with pytest.raises(ValueError):
        NoiseConfig(p=0.1, trials=0)
    NoiseConfig(p=0.1, trials=2 ** 32)     # every spawn key still fits one word
    with pytest.raises(ValueError):
        NoiseConfig(p=0.1, trials=2 ** 32 + 1)
    with pytest.raises(ValueError):
        RunRecord(0.1, 1.5, 0.0, 10, 0, "cluster", 2, 6, 5)


def test_noiseless_trials_reach_unit_fidelity(props):
    cfg = NoiseConfig(p=0.0, trials=1)
    for task in _tasks(props):
        fid = dephasing_trial(task.prop, task.source, task.measure_site,
                              task.total_time, cfg, trial_rngs(0, 1)[0])
        assert abs(fid - 1.0) < 1e-8
        clean = transfer_fidelity(task.prop, task.source,
                                  BitConfig.single(N, task.measure_site), T)
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
    cfg = NoiseConfig(p=1.0, trials=1, seed=9)
    fids = dephasing_ensemble(cluster, BitConfig.single(N, 2), N, T,
                              NoiseConfig(p=1.0, trials=50, seed=9))
    assert np.all(fids <= 1.0)
    # per-trial norm: evolve manually and check
    rng = trial_rngs(9, 1)[0]
    fid = dephasing_trial(cluster, BitConfig.single(N, 2), N, T, cfg, rng)
    assert 0.0 <= fid <= 1.0


_RNG = np.random.default_rng(8)
_FIELD_PROFILE = CouplingProfile(N, tuple(_RNG.uniform(0.2, 2.0, N - 1)),
                                 tuple(_RNG.uniform(-1.0, 1.0, N)))


# single-particle occupations k on the exchange / cluster chain: 0 / 0,
# 1 / 1, 1 / 2, 2 / 1, 3 / 3 and 6 / 1
@pytest.mark.parametrize("chain", [cluster_chain, exchange_chain])
@pytest.mark.parametrize("source", ["000000", "100000", "010000", "110000", "101100", "111111"])
@pytest.mark.parametrize("measure_site", [1, (N + 1) // 2, N])
def test_batch_matches_single_trials(chain, source, measure_site):
    prop = Propagator(chain(_FIELD_PROFILE))
    cfg = NoiseConfig(p=0.3, trials=16, seed=21)
    config = BitConfig.from_string(source)
    batch = dephasing_ensemble(prop, config, measure_site, 1.3, cfg)
    singles = np.array([
        dephasing_trial(prop, config, measure_site, 1.3, cfg, rng)
        for rng in trial_rngs(cfg.seed, cfg.trials)
    ])
    assert np.max(np.abs(batch - singles)) < 1e-12


def test_trial_blocks_match_single_trials(props, monkeypatch):
    # 23 trials in batches of 5 leave a short last batch
    cluster, _ = props
    k = len(cluster.occupied(BitConfig.single(N, 2)))
    monkeypatch.setattr(noise, "BATCH_ELEMENTS", 6 * N * k - 1)
    cfg = NoiseConfig(p=0.3, trials=23, seed=4)
    batch = dephasing_ensemble(cluster, BitConfig.single(N, 2), N, T, cfg)
    singles = np.array([
        dephasing_trial(cluster, BitConfig.single(N, 2), N, T, cfg, rng)
        for rng in trial_rngs(cfg.seed, cfg.trials)
    ])
    assert np.max(np.abs(batch - singles)) < 1e-12


def _oracle_draws(seed, trials, steps, n_sites):
    rows = [(rng.random(steps), rng.integers(1, n_sites + 1, size=steps))
            for rng in trial_rngs(seed, trials)]
    return np.array([u for u, _ in rows]), np.array([s for _, s in rows])


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 4345047245122777519])
def test_draws_equal_the_per_trial_generators(seed):
    # one and two root-seed words, at both ends of each; 63 sites is the
    # widest chain, and 2**32 mod N is 0 for N = 2, 8 but not for 3, 12, 63
    for n_sites, steps, trials in itertools.product((2, 3, 8, 12, 63), (1, 24, 25), (1, 300)):
        uniforms, sites = trial_draws(NoiseConfig(0.1, steps, trials, seed), n_sites)
        expected = _oracle_draws(seed, trials, steps, n_sites)
        assert uniforms.dtype == expected[0].dtype and sites.dtype == expected[1].dtype
        assert uniforms.tobytes() == expected[0].tobytes()
        assert sites.tobytes() == expected[1].tobytes()


def test_rejected_site_word_is_skipped():
    # 2**32 mod 61 = 57: site word 421 (from 0) of trial 3135 falls below
    # it, so numpy takes the next word, and every later site moves
    uniforms, sites = trial_draws(NoiseConfig(p=0.1, steps=1000, trials=3136, seed=7), 61)
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3135,)))
    assert uniforms[3135].tobytes() == rng.random(1000).tobytes()
    assert np.array_equal(sites[3135], rng.integers(1, 62, 1000))


def test_draw_batches_match_one_batch(monkeypatch):
    # 5 + 3 outputs per trial, 3 trials per batch: a short last batch
    cfg = NoiseConfig(p=0.1, steps=5, trials=13, seed=3)
    whole = trial_draws(cfg, 6)
    monkeypatch.setattr(noise, "DRAW_BATCH", 3 * 8 + 7)
    for part, full in zip(trial_draws(cfg, 6), whole):
        assert part.tobytes() == full.tobytes()


def test_sweep_is_deterministic(props):
    cfg = NoiseConfig(p=0.0, trials=300, seed=123)
    first = noise_sweep(_tasks(props), [0.0, 0.08], cfg)
    second = noise_sweep(_tasks(props), [0.0, 0.08], cfg)
    assert first == second


def test_sweep_reuses_draws_without_changing_records(props):
    # one set of draws feeds every (p, task); each record must equal the
    # ensemble drawn afresh for that p alone
    cfg = NoiseConfig(p=0.0, trials=200, seed=31)
    records = noise_sweep(_tasks(props), [0.05, 0.3], cfg)
    for record in records:
        task = next(t for t in _tasks(props) if t.label == record.hamiltonian)
        fids = dephasing_ensemble(task.prop, task.source, task.measure_site, T,
                                  NoiseConfig(p=record.p, trials=200, seed=31))
        assert record.mean_fidelity == float(np.mean(fids))


def test_sweep_rejects_bad_inputs(props, monkeypatch):
    with pytest.raises(ValueError):
        noise_sweep(_tasks(props), [], NoiseConfig(p=0.0, trials=10))
    mixed = _tasks(props) + [TransferTask(
        "short", Propagator(cluster_chain(CouplingProfile.engineered(4))),
        BitConfig.single(4, 2), 4, T,
    )]
    with pytest.raises(ValueError):
        noise_sweep(mixed, [0.0], NoiseConfig(p=0.0, trials=10))
    for site in (0, N + 1):
        with pytest.raises(ValueError):
            dephasing_ensemble(props[0], BitConfig.single(N, 2), site, T,
                               NoiseConfig(p=0.0, trials=10))
    # a star of two spikes is no chain: refused before any draw
    star = star_hamiltonian(StarLayout(2, 4, CouplingProfile.engineered(4)))
    draws = []
    monkeypatch.setattr(noise, "trial_draws", lambda *args: draws.append(args))
    with pytest.raises(ValueError):
        noise_sweep([TransferTask("star", Propagator(star), BitConfig.single(7, 2), 7, T)],
                    [0.0], NoiseConfig(p=0.0, trials=10))
    assert draws == []


def test_standard_error_scales_with_trials(props):
    cluster, _ = props
    cfg_small = NoiseConfig(p=0.1, trials=400, seed=5)
    cfg_large = NoiseConfig(p=0.1, trials=1600, seed=5)
    se = []
    for cfg in (cfg_small, cfg_large):
        fids = dephasing_ensemble(cluster, BitConfig.single(N, 2), N, T, cfg)
        se.append(np.std(fids, ddof=1) / math.sqrt(cfg.trials))
    ratio = se[0] / se[1]
    assert 2.0 / 1.5 < ratio < 2.0 * 1.5


def test_cluster_beats_exchange_under_noise(props):
    cfg = NoiseConfig(p=0.0, trials=2000, seed=77)
    records = noise_sweep(_tasks(props), [0.1], cfg)
    by_label = {r.hamiltonian: r for r in records}
    gap = by_label["cluster"].mean_fidelity - by_label["exchange"].mean_fidelity
    se = math.hypot(by_label["cluster"].standard_error,
                    by_label["exchange"].standard_error)
    assert gap > -3.0 * se
    assert gap > 0.0  # comfortably separated at p = 0.1 in practice
