import math

import numpy as np
import pytest

from spinamp import noise
from spinamp.algebra import BitConfig
from spinamp.chains import CouplingProfile, cluster_chain, exchange_chain
from spinamp.evolution import Propagator, pst_time, transfer_fidelity
from spinamp.noise import (
    NoiseConfig,
    RunRecord,
    TransferTask,
    dephasing_ensemble,
    noise_sweep,
    trial_rngs,
)

from oracles import dephasing_trial

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


def test_batch_matches_single_trials(props):
    cluster, _ = props
    cfg = NoiseConfig(p=0.1, trials=64, seed=21)
    batch = dephasing_ensemble(cluster, BitConfig.single(N, 2), N, T, cfg)
    singles = np.array([
        dephasing_trial(cluster, BitConfig.single(N, 2), N, T, cfg, rng)
        for rng in trial_rngs(cfg.seed, cfg.trials)
    ])
    assert np.max(np.abs(batch - singles)) < 1e-12


def test_trial_blocks_match_single_trials(props, monkeypatch):
    # 23 trials in blocks of 5 leave a short last block
    monkeypatch.setattr(noise, "TRIAL_BLOCK", 5)
    cluster, _ = props
    cfg = NoiseConfig(p=0.3, trials=23, seed=4)
    batch = dephasing_ensemble(cluster, BitConfig.single(N, 2), N, T, cfg)
    singles = np.array([
        dephasing_trial(cluster, BitConfig.single(N, 2), N, T, cfg, rng)
        for rng in trial_rngs(cfg.seed, cfg.trials)
    ])
    assert np.max(np.abs(batch - singles)) < 1e-12


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


def test_sweep_rejects_bad_inputs(props):
    with pytest.raises(ValueError):
        noise_sweep(_tasks(props), [], NoiseConfig(p=0.0, trials=10))
    mixed = _tasks(props) + [TransferTask(
        "short", Propagator(cluster_chain(CouplingProfile.engineered(4))),
        BitConfig.single(4, 2), 4, T,
    )]
    with pytest.raises(ValueError):
        noise_sweep(mixed, [0.0], NoiseConfig(p=0.0, trials=10))


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
