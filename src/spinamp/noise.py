"""Seeded Monte Carlo dephasing during state transfer.

The transfer time is sliced into equal segments (default 25).  After each
segment, with probability p, a single Z is applied at one uniformly random
site.  The score of a trial is the probability of finding the excitation
on the expected output site in the final state.

Reproducibility contract: one ``default_rng(seed)`` draws a (trials, steps)
array of uniforms, then a (trials, steps) array of sites in 1..N; row i
is trial i, which draws whether or not its flips fire.  The draws depend
only on (seed, trials, steps, N), so a sweep draws them once and reuses
them for every p and every Hamiltonian (common random numbers).
:class:`NoiseConfig` holds exactly (seed, trials, steps); p is passed apart.

A task's records are labelled by its :class:`Propagator`'s family.  Both
chains are free fermions: a trial is the N x k matrix W of its k occupied
orbitals, kept in h's eigenbasis with the elapsed free phases divided
out, so only a flip touches it.  A Z on site s multiplies each orbital by
-1 on site s (exchange chain) or on sites s..N (cluster chain, through
the CNOT ladder); the score is (1 - det(I - 2 W_A W_A^H)) / 2, with A
the measured site's sign set, and sum_c |W_ac|^2 when A is one site a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .algebra import BitConfig
from .evolution import BATCH_ELEMENTS, Propagator, require_times

__all__ = [
    "NoiseConfig",
    "require_probability",
    "RunRecord",
    "TransferTask",
    "trial_draws",
    "dephasing_ensemble",
    "noise_sweep",
]

#: Where in each segment the possible phase flip is applied.
ERROR_PLACEMENT = "evolve-then-flip"


@dataclass(frozen=True)
class NoiseConfig:
    """What the draws depend on, besides the chain length."""

    steps: int = 25
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 1 <= self.trials <= 2 ** 32:
            raise ValueError("trials must be in 1..2**32")
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
    block_dim: int          # C(N, k): the particle-number sector the trials evolved in

    def __post_init__(self):
        if not 0.0 <= self.mean_fidelity <= 1.0:
            raise ValueError(f"mean fidelity {self.mean_fidelity} out of [0, 1]")


@dataclass(frozen=True)
class TransferTask:
    """One chain with its transfer endpoints for the comparison."""

    prop: Propagator
    source: BitConfig
    measure_site: int
    total_time: float


def require_probability(p: float) -> float:
    """``p``, or ValueError unless it is a flip probability in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    return p


def trial_draws(cfg: NoiseConfig, n_sites: int) -> tuple:
    """(uniforms, sites), each of shape (trials, steps): from
    ``default_rng(cfg.seed)``, ``random`` then ``integers(1, n_sites + 1)``,
    row i for trial i."""
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.trials, cfg.steps)
    return rng.random(shape), rng.integers(1, n_sites + 1, shape)


def dephasing_ensemble(prop: Propagator, source: BitConfig, measure_site: int,
                       total_time: float, p: float, cfg: NoiseConfig,
                       draws: tuple) -> np.ndarray:
    """All trial fidelities at flip probability ``p``, batched over trials,
    evolved as free fermions.

    ``draws`` is the output of :func:`trial_draws` for ``cfg`` and this
    chain length.  TimeRangeError when the free phases of ``total_time``
    are not finite.
    """
    require_probability(p)
    if total_time <= 0.0 or not 1 <= measure_site <= prop.n_sites:
        raise ValueError("total_time must be positive and measure_site a site of the chain")
    vals, vecs = prop.vals, prop.vecs.astype(complex)
    require_times(total_time, vals)
    occupied = prop.occupied(source)
    n, k = prop.n_sites, len(occupied)
    # row s - 1: the sign a flip on site s gives each single-particle site
    signs = 1.0 - 2.0 * (np.tri(n).T if prop.ladder else np.eye(n))
    measured = vecs[signs[measure_site - 1] < 0]                            # rows A of V
    uniforms, sites = draws
    flips = uniforms < p
    rate = -1j * total_time / cfg.steps * vals      # free phases of j segments: exp(rate j)

    fids = np.empty(cfg.trials)
    batch = max(1, BATCH_ELEMENTS // max(1, n * k))
    for lo in range(0, cfg.trials, batch):
        # row c of trial t: orbital c as w^T V, free phases divided out
        y = np.tile(vecs[occupied], (min(batch, cfg.trials - lo), 1, 1))
        for step in np.flatnonzero(flips[lo:lo + len(y)].any(axis=0)):
            hit = np.flatnonzero(flips[lo:lo + len(y), step])
            v_phi = vecs * np.exp(rate * (step + 1))         # V diag(phi_j): w^T = y v_phi^T
            w = (y[hit].reshape(-1, n) @ v_phi.T).reshape(hit.size, k, n)
            w *= signs[sites[lo + hit, step] - 1][:, None]
            y[hit] = (w.reshape(-1, n) @ v_phi.conj()).reshape(hit.size, k, n)
        w_a = (y.reshape(-1, n) @ (measured * np.exp(rate * cfg.steps)).T).reshape(
            len(y), k, len(measured)).swapaxes(1, 2)                        # rows A of W
        gram = w_a @ w_a.conj().swapaxes(1, 2)      # W_A W_A^H; one site: sum_c |W_ac|^2
        fids[lo:lo + len(y)] = gram[:, 0, 0].real if len(measured) == 1 else (
            1.0 - np.linalg.det(np.eye(len(measured)) - 2.0 * gram).real) / 2.0
    return np.clip(fids, 0.0, 1.0)


def noise_sweep(tasks: Sequence[TransferTask], p_grid: Sequence[float],
                cfg: NoiseConfig) -> List[RunRecord]:
    """One record per (task, p); the same draws feed every task and every p
    (common random numbers sharpen the comparison)."""
    if not p_grid:
        raise ValueError("p grid must be nonempty")
    for p in p_grid:
        require_probability(p)
    n_sites = {task.prop.n_sites for task in tasks}
    if len(n_sites) != 1:
        raise ValueError("all tasks must share one chain length for common streams")
    n = n_sites.pop()
    # the sector sizes, and ValueError for a source with no up site, come
    # before the draws
    block_dims = []
    for task in tasks:
        if 1 not in task.source.bits:
            raise ValueError(f"task {task.prop.family!r}: the source has no up site")
        block_dims.append(math.comb(n, len(task.prop.occupied(task.source))))
    draws = trial_draws(cfg, n)
    records = []
    for p in p_grid:
        for task, block_dim in zip(tasks, block_dims):
            fids = dephasing_ensemble(
                task.prop, task.source, task.measure_site, task.total_time, p, cfg, draws
            )
            mean = float(np.mean(fids))
            stderr = float(np.std(fids, ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            records.append(RunRecord(
                p=float(p), mean_fidelity=mean, standard_error=stderr, trials=cfg.trials,
                seed=cfg.seed, hamiltonian=task.prop.family, block_dim=block_dim))
    return records
