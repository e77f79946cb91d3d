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
indices at once and reads each continuous row off one determinant.
Half-steps and the mirror map are linear over GF(2) (an additive CA: Martin,
Odlyzko & Wolfram, Commun. Math. Phys. 93, 219 (1984)), and agree on the N
unit vectors after N half-steps, so on every config ``ca_hit_step``, the
first half-step at which the CA shows the mirror, is in 0..N.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import SizeError, SpinChainError
from .chains import CouplingProfile
from .evolution import PST_TIME, Propagator
from .maps import _suffix_xor, gamma_inverse_indices

__all__ = [
    "ca_half_step",
    "CAReport",
    "ca_vs_hamiltonian_report",
]

_PARITIES = ("even", "odd")

CA_LIMIT = 16       #: longest chain of the exhaustive report: 2^16 rows, 4.2 MB of CSV


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
    continuous_output: np.ndarray    # -1 where no output has probability above 1/2
    continuous_prob: np.ndarray      # of the mirror output
    mirror_output: np.ndarray
    ca_hit_step: np.ndarray          # first half-step, 0 to N, showing the mirror

    @property
    def agree(self) -> np.ndarray:
        return self.continuous_output == self.mirror_output


def ca_vs_hamiltonian_report(n_sites: int) -> CAReport:
    """Exhaustive comparison of continuous evolution, mirror map and CA.

    b fills the fermion sites S of b ^ (b >> 1), mirror_map(b) their reversal
    R(S), so at the transfer time the mirror has p = |det u[R(S), S]|^2, with
    u = (-i)^(N-1) R; it is the continuous output if p > 1/2 (|U|^2's columns
    sum to 1), else there is none (-1).  The CA runs N half-steps from an even
    start; SpinChainError unless the last shows the mirror on every row.  Rows
    run over the configs with site 1 varying slowest.  SizeError above CA_LIMIT.
    """
    if n_sites > CA_LIMIT:
        raise SizeError(f"N={n_sites} exceeds ca-compare's exhaustive limit {CA_LIMIT}")
    prop = Propagator(CouplingProfile.engineered(n_sites), "cluster")    # refuses N < 2
    # a Newton-Schulz step makes V orthogonal to rounding: p errs 2e-15, not 8e-15
    vecs = prop.vecs @ (1.5 * np.eye(n_sites) - 0.5 * prop.vecs.T @ prop.vecs)
    u = (vecs * np.exp(-1j * PST_TIME * prop.vals)) @ vecs.T
    configs, walls = np.arange(1 << n_sites), gamma_inverse_indices(n_sites)
    occupied = walls[:, None] >> np.arange(n_sites) & 1     # the sites of b ^ (b >> 1)
    prob, counts = np.ones(configs.size), occupied.sum(axis=1)      # k = 0 gives 1
    for k in range(1, n_sites + 1):
        rows = np.flatnonzero(counts == k)
        s = np.nonzero(occupied[rows])[1].reshape(-1, k)            # S, ascending
        prob[rows] = abs(np.linalg.det(u[(n_sites - 1 - s)[:, :, None], s[:, None, :]])) ** 2
    # site reversal of each index: also the configs with site 1 varying slowest
    reverse = configs.reshape((2,) * n_sites).T.ravel()
    mirror = _suffix_xor(reverse[walls], n_sites)
    output = np.where(prob > 0.5, mirror, -1)
    trajectory = [configs]
    for step in range(n_sites):
        trajectory.append(ca_half_step(trajectory[-1], n_sites, _PARITIES[step % 2]))
    hits = np.array(trajectory) == mirror
    if not hits[-1].all():
        raise SpinChainError(f"N={n_sites}: {n_sites} half-steps of the CA are not the mirror map")
    hit_step = hits.argmax(axis=0)
    return CAReport(reverse, output[reverse], prob[reverse], mirror[reverse], hit_step[reverse])
