"""Classical cellular automaton mirroring the amplification chain.

One half-step updates all sites of one parity at once, reading the
pre-step configuration: an interior site flips iff its two neighbours
differ, the last site flips iff its left neighbour is 1, and site 1
never flips.  Half-steps alternate parity; starting on the even sites
grows 10...0 to all-ones in N-1 half-steps.

On a basis index (site i at bit i-1) a half-step is one integer
expression, ``x ^ (((x << 1) ^ (x >> 1)) & parity_mask)``.
:func:`ca_half_step` takes a Python int, at any chain length, or an
array of indices: the comparison report runs the automaton on all 2^N
indices at once and reads continuous evolution one block of
e^{-iHt} at a time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chains import CouplingProfile, cluster_chain
from .evolution import PST_TIME, block_unitaries
from .maps import _suffix_xor, gamma_inverse_indices

__all__ = [
    "ca_half_step",
    "CAReport",
    "ca_vs_hamiltonian_report",
]

_PARITIES = ("even", "odd")


def ca_half_step(x, n_sites: int, parity: str):
    """One half-step on a basis index or index array; site 1 is never in the mask."""
    if parity not in _PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    first = 2 if parity == "even" else 3
    # sites first, first + 2, ...: the bits of 0b...0101 shifted up, cut to N
    mask = ((1 << 2 * n_sites) // 3 << first - 1) & ((1 << n_sites) - 1)
    return x ^ (((x << 1) ^ (x >> 1)) & mask)


class CAReport(NamedTuple):
    """The comparison table, one array entry per row; configs are basis indices."""
    inputs: np.ndarray
    continuous_output: np.ndarray
    continuous_prob: np.ndarray
    mirror_output: np.ndarray
    ca_hit_step: np.ndarray      # half-step at which the CA first shows the
                                 # mirror output; -1 if never (within the cap)

    @property
    def agree(self) -> np.ndarray:
        return self.continuous_output == self.mirror_output


def ca_vs_hamiltonian_report(n_sites: int) -> CAReport:
    """Exhaustive comparison of continuous evolution, mirror map and CA.

    For every classical config b: evolve under the engineered amplification
    chain for the transfer time and take the most likely output config;
    compare with mirror_map(b); and search the canonical CA trajectory
    (even start, stopping on a revisit or after 4N half-steps) for the
    mirror output.  Rows run over the configs with site 1 varying slowest.
    """
    chain = cluster_chain(CouplingProfile.engineered(n_sites))    # refuses N < 2 first
    dim = 1 << n_sites
    output = np.empty(dim, dtype=np.intp)
    prob = np.empty(dim)
    for indices, u in block_unitaries(chain, PST_TIME):
        probs = abs(u) ** 2
        output[indices] = np.take_along_axis(indices, probs.argmax(axis=1), axis=1)
        prob[indices] = probs.max(axis=1)
    configs = np.arange(dim)
    # site reversal of each index: also the configs with site 1 varying slowest
    reverse = configs.reshape((2,) * n_sites).T.ravel()
    mirror = _suffix_xor(reverse[gamma_inverse_indices(n_sites)], n_sites)
    trajectory = [configs]
    for step in range(4 * n_sites):
        trajectory.append(ca_half_step(trajectory[-1], n_sites, _PARITIES[step % 2]))
    trajectory = np.array(trajectory)
    hits = trajectory == mirror
    revisits = np.array([(trajectory[:k] == row).any(axis=0)
                         for k, row in enumerate(trajectory)])
    first = (hits | revisits).argmax(axis=0)    # the search stops at either
    hit_step = np.where(hits[first, configs], first, -1)
    return CAReport(reverse, output[reverse], prob[reverse], mirror[reverse], hit_step[reverse])
