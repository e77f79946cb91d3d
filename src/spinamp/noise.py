"""Seeded Monte Carlo dephasing during state transfer.

The transfer time is sliced into equal segments (default 25).  After each
segment, with probability p, a single Z is applied at one uniformly random
site.  The score of a trial is the probability of finding the excitation
on the expected output site in the final state.

Reproducibility contract: trial i draws ``steps`` uniforms, then ``steps``
site indices, from ``default_rng(SeedSequence(seed).spawn(trials)[i])``,
whether or not the flips fire.  :func:`trial_draws` computes that stream
for all trials at once in fixed-width integer arithmetic, and the tests
check it bit for bit against the generators.  The draws depend only on
(seed, trials, steps, N), so a sweep draws them once and reuses them for
every p and every Hamiltonian (common random numbers).

Both chains are free fermions (see :class:`Propagator`): a trial is the
N x k matrix W of its k occupied orbitals.  A Z on site s multiplies each
orbital by -1 on site s (exchange chain) or on sites s..N (cluster chain,
through the CNOT ladder); the score is (1 - det(I - 2 W_A W_A^H)) / 2, with
A the measured site's sign set.  The tests replay single trials over 2^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .algebra import BitConfig
from .evolution import Propagator

__all__ = [
    "NoiseConfig",
    "RunRecord",
    "TransferTask",
    "trial_draws",
    "dephasing_ensemble",
    "noise_sweep",
]

#: Where in each segment the possible phase flip is applied.
ERROR_PLACEMENT = "evolve-then-flip"

#: Most orbital entries :func:`dephasing_ensemble` evolves at once (16 MiB).
BATCH_ELEMENTS = 1 << 20

#: Most 64-bit outputs :func:`trial_draws` computes at once (128 KiB).
DRAW_BATCH = 1 << 14

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants and the PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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
        if not 1 <= self.trials <= 2 ** 32:
            raise ValueError("trials must be in 1..2**32, one spawn-key word each")
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
    block_dim: int          # C(N, k): the particle-number sector the trials evolved in
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


def _hasher(const: int, mult: int):
    """numpy's SeedSequence word hash, with its running constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _seed_states(seed: int, trials: int) -> list:
    """(init_hi, init_lo, inc_hi, inc_lo) as (trials,) uint64 arrays: the
    PCG64 seed and increment of each spawned child.  The child's entropy is
    the root seed's 32-bit words padded to 4, then its spawn key, one word;
    the pool mixes as in ``SeedSequence.mix_entropy``, so only the last
    round reads the key, and ``generate_state(4, np.uint64)`` hashes it."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words + [0] * (4 - len(words))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    key = np.arange(trials, dtype=np.uint64)
    pool = [_mix(word, hashmix(key)) for word in pool]
    hashmix = _hasher(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % 4]) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (half[k] | half[k + 1] << 32 for k in range(0, 8, 2))
    return [seed_hi, seed_lo, seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1]


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """(a * b) mod 2**128 on uint64 (hi, lo) pairs, the low product from
    32-bit limbs."""
    a0, a1, b0, b1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _pcg_outputs(state: list, first: int, count: int) -> np.ndarray:
    """PCG64 outputs ``first`` .. ``first + count - 1``, counted from 0, as
    (trials, count) uint64.  ``srandom_r`` leaves the LCG at
    (init + inc) M + inc, and each output steps it first, so output j
    reads M^(j+2) init + (1 + M + ... + M^(j+2)) inc through XSL-RR."""
    powers = _PCG_MULT ** 2 & _M128
    sums, rows = 1 + _PCG_MULT + powers & _M128, []
    for _ in range(first + count):
        rows.append([powers >> 64, powers & _M64, sums >> 64, sums & _M64])
        powers = powers * _PCG_MULT & _M128
        sums = sums + powers & _M128
    a_hi, a_lo, c_hi, c_lo = np.array(rows[first:], dtype=np.uint64).T
    s_hi, s_lo = _mul128(state[0][:, None], state[1][:, None], a_hi, a_lo)
    t_hi, t_lo = _mul128(state[2][:, None], state[3][:, None], c_hi, c_lo)
    lo = s_lo + t_lo
    hi = s_hi + t_hi + (lo < s_lo)
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _bounded(state: list, words: np.ndarray, steps: int, n: int) -> np.ndarray:
    """``integers(1, n + 1, steps)`` from the 64-bit outputs ``words`` on:
    numpy's buffered Lemire method on their 32-bit halves, low half first.
    A half w with (w n) mod 2**32 < 2**32 mod n is skipped, and a row that
    runs short takes further outputs."""
    while True:
        scaled = np.stack([words & _M32, words >> 32], axis=-1).reshape(len(words), -1) * n
        accept = (scaled & _M32) >= 2 ** 32 % n
        short = steps - int(accept.sum(axis=1).min())
        if short <= 0:
            keep = accept & (np.cumsum(accept, axis=1) <= steps)
            return (scaled[keep] >> 32).astype(np.int64).reshape(len(words), steps) + 1
        words = np.hstack([words, _pcg_outputs(state, steps + words.shape[1], (short + 1) // 2)])


def trial_draws(cfg: NoiseConfig, n_sites: int) -> tuple:
    """(uniforms, sites), each of shape (trials, steps): row i is what
    ``default_rng(SeedSequence(cfg.seed).spawn(cfg.trials)[i])`` returns for
    ``random(steps)``, one output x each as (x >> 11) 2**-53, and then for
    ``integers(1, n_sites + 1, steps)``, ``DRAW_BATCH`` outputs at a time."""
    steps, state = cfg.steps, _seed_states(cfg.seed, cfg.trials)
    uniforms = np.empty((cfg.trials, steps))
    sites = np.empty((cfg.trials, steps), dtype=np.int64)
    span = steps + (steps + 1) // 2
    batch = max(1, DRAW_BATCH // span)
    for lo in range(0, cfg.trials, batch):
        rows = slice(lo, lo + batch)
        part = [v[rows] for v in state]
        out = _pcg_outputs(part, 0, span)
        uniforms[rows] = (out[:, :steps] >> 11) * 2.0 ** -53
        sites[rows] = _bounded(part, out[:, steps:], steps, n_sites)
    return uniforms, sites


def dephasing_ensemble(prop: Propagator, source: BitConfig, measure_site: int,
                       total_time: float, cfg: NoiseConfig,
                       draws: Optional[tuple] = None) -> np.ndarray:
    """All trial fidelities, batched over trials, evolved as free fermions.

    ``draws`` is the output of :func:`trial_draws` for ``cfg`` and this
    chain length; it is drawn here when omitted.
    """
    if total_time <= 0.0 or not 1 <= measure_site <= prop.n_sites:
        raise ValueError("total_time must be positive and measure_site a site of the chain")
    occupied = prop.occupied(source)
    ladder, _, (vals, vecs) = prop.fermions
    n, k = prop.n_sites, len(occupied)
    u_seg = (vecs * np.exp(-1j * vals * total_time / cfg.steps)) @ vecs.T    # symmetric
    # row s - 1: the sign a flip on site s gives each single-particle site
    signs = 1.0 - 2.0 * (np.tri(n).T if ladder else np.eye(n))
    uniforms, sites = trial_draws(cfg, n) if draws is None else draws
    flips = uniforms < cfg.p

    fids = np.empty(cfg.trials)
    batch = max(1, BATCH_ELEMENTS // max(1, n * k))
    for lo in range(0, cfg.trials, batch):
        block = slice(lo, lo + batch)
        # row c of trial t is orbital c; rows evolve as W^T u^T = W^T u
        orbitals = np.zeros((fids[block].size, k, n), dtype=complex)
        orbitals[:, np.arange(k), occupied] = 1.0
        for step in range(cfg.steps):
            orbitals = (orbitals.reshape(-1, n) @ u_seg).reshape(orbitals.shape)
            hit = np.flatnonzero(flips[block, step])
            orbitals[hit] *= signs[sites[block, step][hit] - 1][:, None]
        w_a = orbitals[:, :, signs[measure_site - 1] < 0].swapaxes(1, 2)     # rows A of W
        parity = np.linalg.det(np.eye(w_a.shape[1]) - 2.0 * w_a @ w_a.conj().swapaxes(1, 2))
        fids[block] = (1.0 - parity.real) / 2.0
    return np.clip(fids, 0.0, 1.0)


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
    # the sector sizes, and ValueError for a spec that is neither chain, come before the draws
    block_dims = [math.comb(n, len(task.prop.occupied(task.source))) for task in tasks]
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
