"""Seeded Monte Carlo dephasing during state transfer.

The transfer time is sliced into equal segments (default 25).  After each
segment, with probability p, a single Z is applied at one uniformly random
site.  The score of a trial is the probability of finding the excitation
on the expected output site in the final state.

Reproducibility contract: every trial owns a substream spawned
deterministically from (seed, trial index), and each trial draws exactly
``steps`` uniforms followed by ``steps`` site indices, whether or not the
flips fire.  Identical (seed, config, inputs) therefore give bit-identical
records run to run.  The draws depend only on (seed, trials, steps, N),
so a sweep draws them once and reuses them for every p and every
Hamiltonian (common random numbers).

A Z flip is diagonal in the computational basis, so a trial never leaves
the block of H that holds its source (see :class:`Propagator`): trials
evolve as (block_dim, TRIAL_BLOCK) arrays under the block's segment
unitary, 28 states for the cluster chain and 8 for the exchange chain at
N = 8, against 256 for the whole space.  A sweep reads its blocks before
it draws, so a chain above the dense cap, which
:meth:`Propagator.block_unitary` refuses, costs no draws.  The test suite
replays single trials one by one over the whole 2^N space as an oracle
for the batched evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .algebra import BitConfig
from .evolution import Propagator

__all__ = [
    "NoiseConfig",
    "RunRecord",
    "TransferTask",
    "trial_rngs",
    "trial_draws",
    "dephasing_ensemble",
    "noise_sweep",
]

#: Where in each segment the possible phase flip is applied.
ERROR_PLACEMENT = "evolve-then-flip"

#: Trials :func:`dephasing_ensemble` evolves together, as (block_dim, TRIAL_BLOCK) arrays.
TRIAL_BLOCK = 256


@dataclass(frozen=True)
class NoiseConfig:
    p: float
    steps: int = 25
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {self.p}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class RunRecord:
    p: float
    mean_fidelity: float
    standard_error: float
    trials: int
    seed: int
    hamiltonian: str
    source_site: int
    target_site: int
    block_dim: int          # size of the block of H the trials evolved in
    error_placement: str = ERROR_PLACEMENT

    def __post_init__(self):
        if not 0.0 <= self.mean_fidelity <= 1.0:
            raise ValueError(f"mean fidelity {self.mean_fidelity} out of [0, 1]")


@dataclass(frozen=True)
class TransferTask:
    """One Hamiltonian with its transfer endpoints for the comparison."""

    label: str
    prop: Propagator
    source: BitConfig
    measure_site: int
    total_time: float


def trial_rngs(seed: int, trials: int) -> List[np.random.Generator]:
    """Deterministic per-trial generators from one 64-bit seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]


def trial_draws(cfg: NoiseConfig, n_sites: int) -> tuple:
    """(uniforms, sites), each of shape (trials, steps), in trial order.

    Trial i draws ``steps`` uniforms, then ``steps`` sites in 1..n_sites,
    from the i-th generator of :func:`trial_rngs`.
    """
    uniforms = np.empty((cfg.trials, cfg.steps))
    sites = np.empty((cfg.trials, cfg.steps), dtype=np.int64)
    for i, rng in enumerate(trial_rngs(cfg.seed, cfg.trials)):
        uniforms[i] = rng.random(cfg.steps)
        sites[i] = rng.integers(1, n_sites + 1, size=cfg.steps)
    return uniforms, sites


def dephasing_ensemble(prop: Propagator, source: BitConfig, measure_site: int,
                       total_time: float, cfg: NoiseConfig,
                       draws: Optional[tuple] = None) -> np.ndarray:
    """All trial fidelities, batched over trials, evolved in the source's block.

    ``draws`` is the output of :func:`trial_draws` for ``cfg`` and this
    chain length; it is drawn here when omitted.
    """
    if total_time <= 0.0:
        raise ValueError("total_time must be positive")
    indices, u_seg = prop.block_unitary(source, total_time / cfg.steps)
    uniforms, sites = trial_draws(cfg, prop.n_sites) if draws is None else draws
    flips = uniforms < cfg.p

    # column s - 1: the sign a flip on site s gives each basis state
    site_signs = np.where((indices[:, None] >> np.arange(prop.n_sites)) & 1, -1.0, 1.0)
    site_mask = ((indices >> (measure_site - 1)) & 1).astype(bool)
    start = np.searchsorted(indices, source.index)
    fids = np.empty(cfg.trials)
    for lo in range(0, cfg.trials, TRIAL_BLOCK):
        block = slice(lo, lo + TRIAL_BLOCK)
        states = np.zeros((indices.size, fids[block].size), dtype=complex)
        states[start, :] = 1.0
        for step in range(cfg.steps):
            states = u_seg @ states
            hit = np.flatnonzero(flips[block, step])
            states[:, hit] *= site_signs[:, sites[block, step][hit] - 1]
        fids[block] = np.sum(np.abs(states[site_mask, :]) ** 2, axis=0)
    return np.minimum(fids, 1.0)


def noise_sweep(tasks: Sequence[TransferTask], p_grid: Sequence[float],
                cfg: NoiseConfig) -> List[RunRecord]:
    """One record per (task, p); the same draws feed every task and every p
    (common random numbers sharpen the comparison)."""
    if not p_grid:
        raise ValueError("p grid must be nonempty")
    n_sites = {task.prop.n_sites for task in tasks}
    if len(n_sites) != 1:
        raise ValueError("all tasks must share one chain length for common streams")
    n = n_sites.pop()
    # the blocks, and SizeError above the dense cap, come before the draws
    block_dims = [task.prop.block_unitary(task.source, 0.0)[0].size for task in tasks]
    draws = trial_draws(cfg, n)
    records = []
    for p in p_grid:
        p_cfg = NoiseConfig(p=p, steps=cfg.steps, trials=cfg.trials, seed=cfg.seed)
        for task, block_dim in zip(tasks, block_dims):
            fids = dephasing_ensemble(
                task.prop, task.source, task.measure_site, task.total_time, p_cfg, draws
            )
            mean = float(np.mean(fids))
            stderr = float(np.std(fids, ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            records.append(RunRecord(
                p=float(p), mean_fidelity=mean, standard_error=stderr, trials=cfg.trials,
                seed=cfg.seed, hamiltonian=task.label, target_site=task.measure_site,
                source_site=next(i for i, b in enumerate(task.source.bits, 1) if b),
                block_dim=block_dim))
    return records
