"""Time evolution, transfer fidelities and fidelity scans.

Evolution is Schrodinger, U(t) = exp(-i H t) with hbar = 1.  Both chains
conserve a sector (wall count, excitation number), so a basis state never
leaves its connected block of H.  :class:`Propagator` works on the blocks
a query touches, at every chain length: a spectral sum over a block's
eigenpairs or, above ``EIGH_CAP`` states (``SEARCH_EIGH_CAP`` above the
dense cap), adaptive Lanczos steps on the block's entries.  The tests check
both routes against a full-space eigendecomposition and each other.

With the engineered couplings J_n = sqrt(n*(N-n)) and the chain
normalizations used here, perfect transfer happens at t = pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    DENSE_CAP,
    BitConfig,
    HamiltonianSpec,
    SizeError,
    SpinChainError,
    require_dense,
    sector_blocks,
)
from .maps import mirror_map

__all__ = [
    "ConvergenceError",
    "Propagator",
    "pst_time",
    "transfer_fidelity",
    "max_fidelity_scan",
    "AmplificationResult",
    "amplification_check",
    "PhaseReport",
    "phase_separability_probe",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_TOL = 1e-8       # width at which a scan's golden-section refinement stops
KRYLOV_TOL = 1e-10      # largest local error one Krylov substep may leave
KRYLOV_DIM = 30         # Lanczos basis size of one Krylov substep
MODULUS_FLOOR = 0.5     # phase-probe elements below this carry no usable phase

#: Largest block whose amplitudes come from its eigendecomposition; a larger
#: one runs Lanczos.  924 is the largest block of either chain at N <= 12.
#: On one AMD EPYC core, eigh takes 44 ms at 924 states and 109 ms at 1287,
#: where a Lanczos transfer to t = pi/2 takes 20 ms; a scan reuses the eigh.
EIGH_CAP = 924
#: The cap above the dense cap: there an eigh's O(s^2) memory (13.6 MB more
#: peak RSS for a 715-state N = 13 transfer) would make a command's peak
#: follow its input's sector, where Lanczos needs O(s).
SEARCH_EIGH_CAP = 256


class ConvergenceError(SpinChainError):
    """Krylov propagation failed to reach the requested local error."""


def _times(ts) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all(np.isfinite(ts)):
        raise ValueError("evolution times must be finite")
    return ts


class Propagator:
    """e^{-iHt} of a fixed Hamiltonian, answered one block of H at a time.

    A query finds the blocks of H it touches on first use and caches them
    (:func:`~spinamp.algebra.sector_blocks`); above the dense cap it searches
    from its basis states, so its cost follows their size, not 2^N.  An
    amplitude between two blocks is exactly 0.  :meth:`amplitudes` sums
    over the eigenpairs of a block of at most ``EIGH_CAP`` states (above
    the dense cap, ``SEARCH_EIGH_CAP``), or of any block a unitary query
    has diagonalized, and runs Lanczos on a larger one: there the route,
    and the last digits, depend on the queries before.  The unitary
    queries diagonalize any block of at most 2^DENSE_CAP states, blocks of
    one size in one batched ``eigh``.  The caches fill lazily: not safe to
    share between threads.
    """

    def __init__(self, spec: HamiltonianSpec):
        self.spec = spec
        self._searches = []     # [blocks, where, entries, {size class: eigenpairs}]

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    def amplitudes(self, source: BitConfig, target: BitConfig, ts) -> np.ndarray:
        """<target|U(t)|source> for each t in ``ts``: 0 when the target lies
        in another block, else a spectral sum over the source's block,
        O(block) per time, or one Lanczos evolution through the times in
        ascending order, each from the one before."""
        if {source.n_sites, target.n_sites} != {self.n_sites}:
            raise SpinChainError("configs and propagator differ in site count")
        ts = _times(ts)
        found, c, r, i = self._locate(source.index)
        block = found[0][c][r]
        j = int(np.searchsorted(block, target.index))
        if j == block.size or block[j] != target.index:
            return np.zeros(ts.shape, dtype=complex)
        cap = EIGH_CAP if self.n_sites <= DENSE_CAP else min(EIGH_CAP, SEARCH_EIGH_CAP)
        if c in found[3] or block.size <= cap:
            vals, vecs = self._eigen(found, c)
            weights = vecs[r, j] * vecs[r, i].conj()
            return np.exp(-1j * np.multiply.outer(ts, vals[r])) @ weights
        where, (src, dst, values) = found[1], found[2]
        mine = (where[1, src] == c) & (where[2, src] == r)
        col, row, values = where[3, src[mine]], where[3, dst[mine]], values[mine]

        def matvec(v: np.ndarray) -> np.ndarray:
            terms = values * v[col]
            return (np.bincount(row, terms.real, block.size)
                    + 1j * np.bincount(row, terms.imag, block.size))

        state = np.zeros(block.size, dtype=complex)
        state[i] = 1.0
        out = np.empty(ts.shape, dtype=complex)
        now = 0.0
        for k in np.argsort(ts, kind="stable"):
            state = _krylov_evolve(matvec, state, ts[k] - now)
            now = ts[k]
            out[k] = state[j]
        return out

    def block_unitary(self, config: BitConfig, t: float) -> tuple:
        """(indices, u): the basis indices of the block holding ``config``,
        ascending, and e^{-iHt} on the block in that order.  Raises
        SizeError for a block of more than 2^DENSE_CAP states."""
        _times(t)
        found, c, r, _ = self._locate(config.index)
        vals, vecs = self._eigen(found, c)
        return found[0][c][r], (vecs[r] * np.exp(-1j * vals[r] * t)) @ vecs[r].conj().T

    def block_unitaries(self, t: float):
        """Yield (indices, u) for the blocks of each size in turn: ``indices``
        is (k, s), one block of s basis indices per row as
        :meth:`block_unitary` gives them, and ``u`` is (k, s, s), their
        unitaries.  Raises SizeError above the dense cap."""
        _times(t)
        require_dense(self.n_sites)
        found = self._locate(0)[0]      # within the cap, the one search is the whole space
        for c, blocks in enumerate(found[0]):
            vals, vecs = self._eigen(found, c)
            yield blocks, (vecs * np.exp(-1j * vals * t)[:, None, :]) @ vecs.conj().swapaxes(1, 2)

    def _locate(self, index: int) -> tuple:
        """(search, size class, row, position) of a basis index.  On a miss,
        a chain within the dense cap splits its whole space in one pass,
        cheaper there than a search level by level; a longer chain searches
        from the index."""
        for found in self._searches:
            states = found[1][0]
            k = np.searchsorted(states, index)
            if k < states.size and states[k] == index:
                return (found, *found[1][1:, k])
        seeds = None if self.n_sites <= DENSE_CAP else [index]
        self._searches.append([*sector_blocks(self.spec, seeds), {}])
        return self._locate(index)

    @staticmethod
    def _eigen(found: list, c: int) -> tuple:
        """Eigenpairs of H on a search's blocks of size class ``c``, from
        one batched ``eigh`` on first use."""
        blocks, where, (src, dst, values), eigen = found
        if c not in eigen:
            if blocks[c].shape[1] > 1 << DENSE_CAP:
                raise SizeError(f"a block of {blocks[c].shape[1]} states exceeds "
                                f"the {1 << DENSE_CAP} of the dense cap")
            mine = where[1, src] == c
            col, row = src[mine], dst[mine]
            mats = np.zeros(blocks[c].shape + blocks[c].shape[1:], dtype=values.dtype)
            mats[where[2, col], where[3, row], where[3, col]] = values[mine]
            eigen[c] = np.linalg.eigh(mats)
        return eigen[c]


# -- Krylov route -----------------------------------------------------------


def _krylov_evolve(matvec: Callable, amps: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) amps in adaptive Lanczos substeps, H given by ``matvec``."""
    remaining = float(t)
    direction = math.copysign(1.0, remaining)
    remaining = abs(remaining)
    dt = remaining
    v = amps.copy()
    min_dt = remaining * 1e-12
    while remaining > 0.0:
        dt = min(dt, remaining)
        step, err = _lanczos_step(matvec, v, direction * dt)
        if err > KRYLOV_TOL:
            if dt <= min_dt:
                raise ConvergenceError(
                    f"Krylov step stalled at dt={dt:.3e} with local error {err:.3e}"
                )
            dt *= 0.5
            continue
        v = step
        remaining -= dt
        if err < 0.01 * KRYLOV_TOL:
            dt *= 2.0
    return v


def _lanczos_step(matvec: Callable, v: np.ndarray, dt: float) -> tuple:
    """One exp(-iH dt) v via a Lanczos basis; returns (result, error est)."""
    norm_v = np.linalg.norm(v)
    m = KRYLOV_DIM
    basis = np.empty((m, v.size), dtype=complex)
    alpha = np.empty(m)
    beta = np.empty(m)
    basis[0] = v / norm_v
    w = matvec(basis[0])
    alpha[0] = np.real(np.vdot(basis[0], w))
    w -= alpha[0] * basis[0]
    k = 1
    while k < m:
        beta[k] = np.linalg.norm(w)
        if beta[k] < 1e-14:     # breakdown: the Krylov space is invariant
            break
        basis[k] = w / beta[k]
        w = matvec(basis[k])
        alpha[k] = np.real(np.vdot(basis[k], w))
        w -= alpha[k] * basis[k] + beta[k] * basis[k - 1]
        k += 1
    tri = np.diag(alpha[:k]) + np.diag(beta[1:k], 1) + np.diag(beta[1:k], -1)
    tw, tv = np.linalg.eigh(tri)
    small = tv @ (np.exp(-1j * tw * dt) * tv[0].conj())
    result = norm_v * (basis[:k].T @ small)
    # residual-style estimate: weight leaking out of the Krylov space
    err = 0.0 if k < m else float(np.linalg.norm(w) * abs(small[-1]))
    return result, err


def _wrap(angle: float) -> float:
    """``angle`` wrapped to (-pi, pi]; ``math.remainder`` may return -pi."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    return wrapped + 2.0 * math.pi if wrapped <= -math.pi else wrapped


def pst_time(n_sites: int) -> float:
    """Perfect-transfer time of the engineered profile in this normalization."""
    if n_sites < 2:
        raise SizeError(f"chain needs at least 2 sites, got {n_sites}")
    return math.pi / 2.0


def transfer_fidelity(prop: Propagator, source: BitConfig, target: BitConfig,
                      t: float) -> float:
    """|<target| U(t) |source>|^2 between basis configurations."""
    return float(abs(prop.amplitudes(source, target, t)[0]) ** 2)


def _golden_max(f: Callable[[float], float], a: float, b: float,
                tol: float) -> tuple:
    """Golden-section search for the maximum of f on [a, b]."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    t_star = 0.5 * (a + b)
    return float(t_star), float(f(t_star))


def max_fidelity_scan(prop: Propagator, source: BitConfig, target: BitConfig,
                      t_max: float = 200.0, grid_step: float = 0.1) -> tuple:
    """Maximize |<target|U(t)|source>|^2 over t in [0, t_max].

    Scans the grid 0, grid_step, ... up to t_max, then refines around the
    best grid point by golden-section search, keeping that grid point unless
    the refinement does strictly better.  Returns (t_star, f_star, ts,
    fidelities), the last two being the grid scan itself.
    """
    if not (0.0 < t_max < math.inf and 0.0 < grid_step < math.inf):
        raise ValueError("t_max and grid_step must be positive and finite")
    ts = np.arange(0.0, t_max + 0.5 * grid_step, grid_step)
    fidelities = np.abs(prop.amplitudes(source, target, ts)) ** 2
    best = int(np.argmax(fidelities))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, len(ts) - 1)]
    t_star, f_star = _golden_max(
        lambda t: float(abs(prop.amplitudes(source, target, t)[0]) ** 2),
        lo, hi, REFINE_TOL)
    if f_star <= fidelities[best]:
        t_star, f_star = float(ts[best]), float(fidelities[best])
    return t_star, f_star, ts, fidelities


@dataclass(frozen=True)
class AmplificationResult:
    """Outcome of one amplification run alpha|0..0> + beta|10..0> -> target."""

    fidelity: float     # overlap^2 with alpha|0..0> + e^{i phase} beta|1..1>
    fid0: float         # survival of the all-zeros sector
    fid1: float         # arrival probability of the all-ones sector
    phase: float        # maximizing relative phase, radians in (-pi, pi]


def amplification_check(prop: Propagator, alpha: complex, beta: complex,
                        t: float) -> AmplificationResult:
    """Evolve the encoded qubit and score it against the amplified target.

    The target is alpha|0...0> + e^{i phi} beta|1...1> with phi chosen to
    maximize the overlap; the evolution fixes a relative phase the ideal
    conversion leaves open, so it is scored out and reported.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("alpha, beta must satisfy |a|^2 + |b|^2 = 1")
    n = prop.n_sites
    zeros = BitConfig.zeros(n)
    start = BitConfig.single(n, 1)
    ones = BitConfig(n, (1,) * n)

    def amp(source: BitConfig, target: BitConfig) -> complex:
        return complex(prop.amplitudes(source, target, t)[0])

    a0 = alpha * amp(zeros, zeros) + beta * amp(start, zeros)
    a1 = alpha * amp(zeros, ones) + beta * amp(start, ones)
    fidelity = (abs(alpha) * abs(a0) + abs(beta) * abs(a1)) ** 2
    fid0 = abs(a0 / alpha) ** 2 if alpha != 0 else 1.0
    fid1 = abs(a1 / beta) ** 2 if beta != 0 else 1.0
    if alpha != 0 and beta != 0 and a0 != 0 and a1 != 0:
        phase = _wrap(np.angle(a1 / beta) - np.angle(a0 / alpha))
    else:
        phase = 0.0
    return AmplificationResult(float(fidelity), float(fid0), float(fid1), float(phase))


@dataclass(frozen=True)
class PhaseReport:
    """Transfer phases of physical excitations and their pair deviations."""

    family: str
    phi1: dict          # site -> single-excitation transfer phase
    phi2: dict          # (n, m) -> two-excitation transfer phase
    deviation: dict     # (n, m) -> phi2 - phi1(n) - phi1(m), wrapped to (-pi, pi]
    excluded: tuple     # pairs whose matrix element had negligible modulus

    def max_abs_deviation(self) -> float:
        return max((abs(d) for d in self.deviation.values()), default=0.0)


#: family -> (first physical site, the configuration a transfer reaches)
_FAMILIES = {"cluster": (2, mirror_map), "exchange": (1, BitConfig.reversed_sites)}


def phase_separability_probe(prop: Propagator, t: float,
                             family: str) -> PhaseReport:
    """Compare two-excitation transfer phases with sums of single ones.

    Physical excitations are lone 1s on the chain (sites 2..N for the
    amplification chain, where site 1 is the encoding site; all sites for
    the exchange chain).  A vanishing deviation means excitations move
    through each other with no conditional phase.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    first, mirror = _FAMILIES[family]
    n = prop.n_sites
    sites = list(range(first, n + 1))

    def transfer_phase(config: BitConfig):
        element = prop.amplitudes(config, mirror(config), t)[0]
        if abs(element) < MODULUS_FLOOR:
            return None
        return float(np.angle(element))

    phi1 = {}
    for s in sites:
        ph = transfer_phase(BitConfig.single(n, s))
        if ph is not None:
            phi1[s] = ph
    phi2 = {}
    deviation = {}
    excluded = []
    for i, s1 in enumerate(sites):
        for s2 in sites[i + 1:]:
            pair = (s1, s2)
            if s1 not in phi1 or s2 not in phi1:
                excluded.append(pair)
                continue
            config = BitConfig.single(n, s1) ^ BitConfig.single(n, s2)
            ph = transfer_phase(config)
            if ph is None:
                excluded.append(pair)
                continue
            phi2[pair] = ph
            deviation[pair] = _wrap(ph - phi1[s1] - phi1[s2])
    return PhaseReport(family, phi1, phi2, deviation, tuple(excluded))
