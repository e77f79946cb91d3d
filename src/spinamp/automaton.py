"""Classical cellular automaton mirroring the amplification chain.

One half-step updates all sites of one parity at once, reading the
pre-step configuration: an interior site flips iff its two neighbours
differ, the last site flips iff its left neighbour is 1, and site 1
never flips.  Half-steps alternate parity; starting on the even sites
grows 10...0 to all-ones in N-1 half-steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from .algebra import BitConfig
from .chains import CouplingProfile, cluster_chain
from .evolution import Propagator, pst_time
from .maps import mirror_map

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
    if parity not in _PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    n = b.n_sites
    want = 0 if parity == "even" else 1
    bits = list(b.bits)
    for site in range(2, n + 1):
        if site % 2 != want:
            continue
        if site < n:
            if b.bits[site - 2] != b.bits[site]:
                bits[site - 1] ^= 1
        else:
            if b.bits[site - 2] == 1:
                bits[site - 1] ^= 1
    return BitConfig(n, tuple(bits))


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
    ca_capped: bool = False


def ca_vs_hamiltonian_report(n_sites: int) -> List[CAComparisonRow]:
    """Exhaustive comparison of continuous evolution, mirror map and CA.

    For every classical config b: evolve under the engineered amplification
    chain for the transfer time and take the most likely output config;
    compare with mirror_map(b); and search the canonical CA trajectory
    (even start, stopping on a revisit or after 4N half-steps) for the
    mirror output.
    """
    t = pst_time(n_sites)
    step_cap = 4 * n_sites
    prop = Propagator(cluster_chain(CouplingProfile.engineered(n_sites)))
    probs = abs(prop.unitary(t)) ** 2
    rows = []
    for bits in itertools.product((0, 1), repeat=n_sites):
        b = BitConfig(n_sites, bits)
        col = probs[:, b.index]
        best = int(col.argmax())
        continuous = BitConfig.from_index(n_sites, best)
        mirror = mirror_map(b)
        hit = -1
        capped = False
        seen = set()
        config = b
        parity_cycle = itertools.cycle(_PARITIES)
        for step in range(step_cap + 1):
            if config == mirror:
                hit = step
                break
            if config in seen:
                break
            seen.add(config)
            if step == step_cap:
                capped = True
                break
            config = ca_half_step(config, next(parity_cycle))
        rows.append(CAComparisonRow(
            input=b,
            continuous_output=continuous,
            continuous_prob=float(col[best]),
            mirror_output=mirror,
            agree=continuous == mirror,
            ca_hit_step=hit,
            ca_capped=capped,
        ))
    return rows
