"""Seeded Monte Carlo dephasing during state transfer.

The transfer time is sliced into equal segments (default 25).  After each
segment, with probability p, a single Z is applied at one uniformly random
site.  A sweep runs two tasks, the cluster chain from site 2 and the
exchange chain from site 1, and scores a trial by the probability that
site N is up in the final state.

Reproducibility contract: one ``default_rng(seed)`` draws a (trials, steps)
array of uniforms, then a (trials, steps) array of sites in 1..N; row i
is trial i, which draws whether or not its flips fire.  The draws depend
only on (seed, trials, steps, N), so a sweep draws them once and reuses
them for every p and both chains (common random numbers).
:class:`NoiseConfig` holds a sweep's inputs and is the one place that
checks them.  A sweep runs one step loop for both chains and the whole
grid, over the (p, trial) rows that flip at least once, p-major (row
i T + t is trial t at p_i), batched by rows; a row that never flips is
scored once, from the unflipped orbitals.

Records are labelled by the :class:`Propagator`'s family.  Both chains
are free fermions of one single-particle h = tridiag(J) - 2 diag(B): a
trial is the N x k matrix W of its k occupied orbitals, kept in h's
eigenbasis with the elapsed free phases divided out, so only a flip
touches it, and the k_c + k_e orbitals of the two chains are stacked in
one array.  A Z on site s multiplies each orbital by -1 on site s
(exchange chain) or on sites s..N (cluster chain, through the CNOT
ladder).  Site N is fermion site N on both chains (b_N ^ b_{N+1} = b_N
through the ladder), so the score is the diagonal entry
C_NN = sum_c |W_Nc|^2 of the trial's correlation matrix, over each
chain's orbitals, at a cost of 2 (k_c + k_e) N^2 per flip plus
(k_c + k_e) N per row that flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .algebra import BitConfig
from .chains import CouplingProfile
from .evolution import BATCH_ELEMENTS, Propagator, require_times

__all__ = [
    "NoiseConfig",
    "RunRecord",
    "trial_draws",
    "dephasing_ensemble",
    "noise_sweep",
]

#: Where in each segment the possible phase flip is applied.
ERROR_PLACEMENT = "evolve-then-flip"


@dataclass(frozen=True)
class NoiseConfig:
    """A sweep's inputs, checked here and nowhere else, in this order: time
    > 0, each p a float in [0, 1] in a nonempty grid, steps, trials, seed."""

    p_grid: Sequence[float]
    total_time: float
    steps: int = 25
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.total_time > 0.0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        grid = []
        for p in map(float, self.p_grid):       # read and checked in turn
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"flip probability must be in [0, 1], got {p}")
            grid.append(p)
        if not grid:
            raise ValueError("p grid must be nonempty")
        object.__setattr__(self, "p_grid", tuple(grid))
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
    hamiltonian: str
    block_dim: int          # C(N, k): the particle-number sector the trials evolved in

    def __post_init__(self):
        if not 0.0 <= self.mean_fidelity <= 1.0:
            raise ValueError(f"mean fidelity {self.mean_fidelity} out of [0, 1]")


def trial_draws(cfg: NoiseConfig, n_sites: int) -> tuple:
    """(uniforms, sites), each of shape (trials, steps): from
    ``default_rng(cfg.seed)``, ``random`` then ``integers(1, n_sites + 1)``,
    row i for trial i."""
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.trials, cfg.steps)
    return rng.random(shape), rng.integers(1, n_sites + 1, shape)


def dephasing_ensemble(tasks: Sequence[tuple], cfg: NoiseConfig) -> np.ndarray:
    """Every trial's probability that site N is up after ``cfg.total_time``
    at every p of ``cfg.p_grid``, shape (len(tasks), len(p_grid), trials),
    for each (Propagator, source) pair of ``tasks``, evolved as free
    fermions in one step loop over the orbitals of every task and the
    (p, trial) rows that flip, batched by rows.

    The trials are :func:`trial_draws` for ``cfg`` and this chain length,
    drawn once per call.  ValueError unless every propagator was built on
    equal profiles; TimeRangeError when the free phases of the time are
    not finite.
    """
    props = [prop for prop, _ in tasks]
    if any(prop.profile != props[0].profile for prop in props):
        raise ValueError("the tasks' propagators must be built on equal profiles")
    ps, total_time = np.array(cfg.p_grid), cfg.total_time
    vals, vecs = props[0].vals, props[0].vecs.astype(complex)
    require_times(total_time, vals)
    n = props[0].n_sites
    occupied = [prop.occupied(source) for prop, source in tasks]
    ends = np.cumsum([len(sites) for sites in occupied]).tolist()
    spans = list(zip([0] + ends, ends))         # each task's orbitals in the stack
    k = ends[-1]
    # row s + base[c]: the sign a flip on site s gives each single-particle
    # site of orbital c, from the exchange chain's rows, then the cluster's
    signs = 1.0 - 2.0 * np.concatenate([np.eye(n), np.tri(n).T])
    base = np.array([n * prop.ladder - 1 for prop, sites in zip(props, occupied) for _ in sites],
                    dtype=int)
    start = vecs[[site for sites in occupied for site in sites]]   # row c: orbital c as w^T V
    uniforms, sites = trial_draws(cfg, n)
    flips = (uniforms < ps[:, None, None]).reshape(-1, cfg.steps)   # row i T + t: trial t at p_i
    rate = -1j * total_time / cfg.steps * vals      # free phases of j segments: exp(rate j)
    read = (vecs[-1:] * np.exp(rate * cfg.steps)).T

    def scores(y):
        # C_NN = W_N W_N^H from row N of W (a sum of |W_Nc|^2 moves last digits)
        w_n = (y.reshape(-1, n) @ read).reshape(len(y), k, 1).swapaxes(1, 2)
        return [(w_n[:, :, a:b] @ w_n[:, :, a:b].conj().swapaxes(1, 2))[:, 0, 0].real
                for a, b in spans]

    # rows that never flip keep the free score, read off two copies of the
    # start: numpy sends a lone row to its dot kernel, whose last digits
    # differ from the matrix-vector kernel that scores a batch
    fids = np.repeat(np.array(scores(np.tile(start, (2, 1, 1))))[:, :1], len(flips), axis=1)
    busy = np.flatnonzero((uniforms.min(axis=1) < ps[:, None]).ravel())   # rows that flip
    batch = max(1, BATCH_ELEMENTS // max(1, n * k))
    for lo in range(0, busy.size, batch):
        rows = busy[lo:lo + batch]
        hits = flips[rows]
        y = np.tile(start, (rows.size, 1, 1))
        for step in np.flatnonzero(hits.any(axis=0)):
            hit = np.flatnonzero(hits[:, step])
            v_phi = vecs * np.exp(rate * (step + 1))         # V diag(phi_j): w^T = y v_phi^T
            w = (y[hit].reshape(-1, n) @ v_phi.T).reshape(hit.size, k, n)
            flipped = sites[busy[lo + hit] % cfg.trials, step]
            w *= np.take(signs, flipped[:, None] + base, axis=0)
            y[hit] = (w.reshape(-1, n) @ v_phi.conj()).reshape(hit.size, k, n)
        fids[:, rows] = scores(y)
    return np.clip(fids, 0.0, 1.0).reshape(len(tasks), len(ps), cfg.trials)


def noise_sweep(profile: CouplingProfile, cfg: NoiseConfig) -> List[RunRecord]:
    """One record per (p, chain): the cluster chain from site 2, then the
    exchange chain from site 1, both read at site N.  The same draws feed
    every chain and every p (common random numbers sharpen the comparison)."""
    n = profile.n_sites
    tasks = [(Propagator(profile, family), BitConfig.single(n, site))
             for family, site in (("cluster", 2), ("exchange", 1))]
    fidelities = dephasing_ensemble(tasks, cfg)
    records = []
    for p, rows in zip(cfg.p_grid, fidelities.swapaxes(0, 1)):
        for (prop, source), fids in zip(tasks, rows):
            # equal trials have no spread, though their rounded mean gives one
            stderr = 0.0 if fids.min() == fids.max() else float(
                np.std(fids, ddof=1) / np.sqrt(cfg.trials))
            records.append(RunRecord(
                p=p, mean_fidelity=float(np.mean(fids)), standard_error=stderr,
                hamiltonian=prop.family, block_dim=math.comb(n, len(prop.occupied(source)))))
    return records
