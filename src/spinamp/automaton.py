"""Classical cellular automaton mirroring the amplification chain.

One half-step updates all sites of one parity at once, reading the
pre-step configuration: an interior site flips iff its two neighbours
differ, the last site flips iff its left neighbour is 1, and site 1
never flips.  Half-steps alternate parity; starting on the even sites
grows 10...0 to all-ones in N-1 half-steps.

On a basis index (site i at bit i-1) a half-step is one integer
expression, ``x ^ (((x << 1) ^ (x >> 1)) & parity_mask)``, so the
comparison report runs the automaton on the array of all 2^N indices at
once and reads continuous evolution one block of the propagator at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BitConfig
from .chains import CouplingProfile, cluster_chain
from .evolution import Propagator, pst_time
from .maps import _suffix_xor, gamma_inverse_indices

__all__ = [
    "CARun",
    "ca_half_step",
    "ca_run",
    "CAComparisonRow",
    "ca_vs_hamiltonian_report",
]

_PARITIES = ("even", "odd")


@dataclass(frozen=True)
class CARun:
    initial: BitConfig
    half_steps: tuple            # parity labels in application order
    trajectory: tuple            # len(half_steps) + 1 snapshots

    @property
    def final(self) -> BitConfig:
        return self.trajectory[-1]


def ca_half_step(b: BitConfig, parity: str) -> BitConfig:
    return BitConfig.from_index(b.n_sites, _half_step(b.index, b.n_sites, parity))


def _half_step(x, n_sites: int, parity: str):
    """One half-step on a basis index or index array; site 1 is never in the mask."""
    if parity not in _PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    first = 2 if parity == "even" else 3
    mask = sum(1 << (site - 1) for site in range(first, n_sites + 1, 2))
    return x ^ (((x << 1) ^ (x >> 1)) & mask)


def ca_run(b: BitConfig, k_half_steps: int, start_parity: str = "even") -> CARun:
    if k_half_steps < 0:
        raise ValueError("number of half-steps must be >= 0")
    if start_parity not in _PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {start_parity!r}")
    first = _PARITIES.index(start_parity)
    parities = tuple(_PARITIES[(first + i) % 2] for i in range(k_half_steps))
    trajectory = [b]
    for p in parities:
        trajectory.append(ca_half_step(trajectory[-1], p))
    return CARun(b, parities, tuple(trajectory))


@dataclass(frozen=True)
class CAComparisonRow:
    input: BitConfig
    continuous_output: BitConfig
    continuous_prob: float
    mirror_output: BitConfig
    agree: bool
    ca_hit_step: int             # half-step at which the CA first shows the
                                 # mirror output; -1 if never (within the cap)


def ca_vs_hamiltonian_report(n_sites: int) -> list[CAComparisonRow]:
    """Exhaustive comparison of continuous evolution, mirror map and CA.

    For every classical config b: evolve under the engineered amplification
    chain for the transfer time and take the most likely output config;
    compare with mirror_map(b); and search the canonical CA trajectory
    (even start, stopping on a revisit or after 4N half-steps) for the
    mirror output.  Rows run over the configs with site 1 varying slowest.
    """
    t = pst_time(n_sites)
    prop = Propagator(cluster_chain(CouplingProfile.engineered(n_sites)))
    dim = 1 << n_sites
    output = np.empty(dim, dtype=np.intp)
    prob = np.empty(dim)
    for indices, u in prop.block_unitaries(t):
        probs = abs(u) ** 2
        output[indices] = indices[probs.argmax(axis=0)]
        prob[indices] = probs.max(axis=0)
    configs = np.arange(dim)
    # site reversal of each index: also the configs with site 1 varying slowest
    reverse = configs.reshape((2,) * n_sites).T.ravel()
    mirror = _suffix_xor(reverse[gamma_inverse_indices(n_sites)], n_sites)
    trajectory = [configs]
    for step in range(4 * n_sites):
        trajectory.append(_half_step(trajectory[-1], n_sites, _PARITIES[step % 2]))
    trajectory = np.array(trajectory)
    hits = trajectory == mirror
    revisits = np.array([(trajectory[:k] == row).any(axis=0)
                         for k, row in enumerate(trajectory)])
    first = (hits | revisits).argmax(axis=0)    # the search stops at either
    hit_step = np.where(hits[first, configs], first, -1)
    return [
        CAComparisonRow(
            input=BitConfig.from_index(n_sites, x),
            continuous_output=BitConfig.from_index(n_sites, int(output[x])),
            continuous_prob=float(prob[x]),
            mirror_output=BitConfig.from_index(n_sites, int(mirror[x])),
            agree=bool(output[x] == mirror[x]),
            ca_hit_step=int(hit_step[x]),
        )
        for x in reverse.tolist()
    ]
