"""Time evolution, transfer fidelities and fidelity scans.

Evolution is Schrodinger, U(t) = exp(-i H t) with hbar = 1.  There are
two routes, and they answer different questions.

:class:`Propagator` gives basis amplitudes of the two chains at any
length.  Under Jordan-Wigner the exchange chain, with any couplings J and
fields B, is quadratic (Lieb, Schultz & Mattis, Ann. Phys. 16, 407
(1961)), and the CNOT ladder carries the amplification chain onto it by
a basis permutation.  So a basis amplitude of either chain is
exp(-it sum B) det u[D, S], u = exp(-iht), from h = tridiag(J) - 2 diag(B)
alone, with S, D the occupied sites, read off a Python int.

:func:`block_unitaries` gives e^{-iHt} on every connected block of H, for
any spec up to the dense cap, from the eigenpairs of the blocks.  The
tests check the two against each other and against a full-space
eigendecomposition.

With the engineered couplings J_n = sqrt(n*(N-n)) and the chain
normalizations used here, perfect transfer happens at t = pi/2.
:func:`amplification_check` and :func:`max_fidelity_scan` are the one
check of alpha^2 + beta^2 = 1 and of a scan grid, nan and inf included;
the CLI adds none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    BitConfig,
    DimensionMismatchError,
    HamiltonianSpec,
    sector_blocks,
)
from .chains import CouplingProfile

__all__ = [
    "PST_TIME",
    "Propagator",
    "TimeRangeError",
    "require_times",
    "block_unitaries",
    "transfer_fidelity",
    "max_fidelity_scan",
    "AmplificationResult",
    "amplification_check",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_TOL = 1e-8       # width at which a scan's golden-section refinement stops

#: Perfect-transfer time of the engineered profile in this normalization.
PST_TIME = math.pi / 2.0

#: Most complex entries one batch of free-fermion matrices holds (16 MiB):
#: u[D, S] over times in :meth:`Propagator.amplitudes`, the orbitals of
#: every task over the (p, trial) rows that flip in
#: :func:`~spinamp.noise.dephasing_ensemble`.
BATCH_ELEMENTS = 1 << 20


class TimeRangeError(ValueError):
    """An evolution time that is not finite, or whose phases t * lambda are not."""


def require_times(ts, vals) -> np.ndarray:
    """``ts`` as a 1-d float array; TimeRangeError unless the product of
    every time with every value in ``vals`` is finite (inf * 0 is not)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    top = float(np.max(np.abs(ts), initial=0.0))
    if not math.isfinite(top * float(np.max(np.abs(vals)))):
        raise TimeRangeError(f"evolution time {top:g}: phases t * lambda must be finite")
    return ts


@functools.lru_cache(maxsize=1)
def _eigenpairs(profile: CouplingProfile) -> tuple:
    """The eigenpairs of h = tridiag(J) - 2 diag(B), read-only, so the two
    chains of one profile share one ``eigh``."""
    js, bs = profile.couplings, profile.fields
    vals, vecs = np.linalg.eigh(np.diag(js, 1) + np.diag(js, -1) - 2.0 * np.diag(bs))
    vals.flags.writeable = vecs.flags.writeable = False
    return vals, vecs


class Propagator:
    """e^{-iHt} of ``exchange_chain(profile)`` or ``cluster_chain(profile)``,
    as free fermions.

    ``family`` is "exchange" or "cluster", else ValueError before the
    ``eigh``: the one check of a family, the CLI's included.  h holds the
    couplings J on its off-diagonals (a zero J_n cuts it into blocks) and
    -2B on its diagonal; ``vals`` and ``vecs`` are its eigenpairs, read-only
    and shared with the last propagator built on an equal profile,
    ``field_sum`` is sum B, and ``ladder`` is True for the amplification
    chain, whose configurations reach h through the CNOT ladder.
    """

    def __init__(self, profile: CouplingProfile, family: str):
        if family not in ("cluster", "exchange"):
            raise ValueError(f"unknown Hamiltonian family {family!r}")
        self.profile, self.family, self.n_sites = profile, family, profile.n_sites
        self.ladder = family == "cluster"
        self.field_sum = sum(profile.fields)
        self.vals, self.vecs = _eigenpairs(profile)

    def amplitudes(self, source: BitConfig, target: BitConfig, ts) -> np.ndarray:
        """<target|U(t)|source> for each t in ``ts``: :meth:`amplitude_fn` on :meth:`times`."""
        return self.amplitude_fn(source, target)(self.times(ts))

    def times(self, ts) -> np.ndarray:
        """``ts`` as a 1-d float array; TimeRangeError unless t * lambda, t * sum B are finite."""
        return require_times(ts, np.append(self.vals, self.field_sum))

    def amplitude_fn(self, source: BitConfig, target: BitConfig) -> Callable:
        """<target|U(t)|source> as a function of times that :meth:`times` passed: 0
        when S and D, the occupied sites of source and target, differ in number, else
        exp(-it sum B) det u[D, S], in batches of at most ``BATCH_ELEMENTS`` entries of u."""
        s, d = self.occupied(source), self.occupied(target)
        if len(s) != len(d):
            return lambda ts: np.zeros(ts.shape, dtype=complex)
        vd, vs = self.vecs[d], self.vecs[s]
        batch = max(1, BATCH_ELEMENTS // max(1, len(s) ** 2))

        def amps(ts: np.ndarray) -> np.ndarray:
            dets = np.empty(ts.shape, dtype=complex)
            for lo in range(0, ts.size, batch):
                phases = np.exp(-1j * np.multiply.outer(ts[lo:lo + batch], self.vals))
                u = np.einsum("dn,tn,sn->tds", vd, phases, vs)      # u[D, S]
                dets[lo:lo + batch] = np.linalg.det(u)
            return np.exp(-1j * self.field_sum * ts) * dets
        return amps

    def occupied(self, config: BitConfig) -> list:
        """The single-particle sites ``config`` fills, ascending from 0: its up sites,
        through ``b ^ (b >> 1)`` on the amplification chain; DimensionMismatchError
        (a SpinChainError and a ValueError) on another N."""
        if config.n_sites != self.n_sites:
            raise DimensionMismatchError("config and propagator differ in site count")
        b = config.index
        if self.ladder:
            b ^= b >> 1
        return [s for s in range(self.n_sites) if b >> s & 1]


def block_unitaries(spec: HamiltonianSpec, t: float):
    """Yield (indices, u) for the blocks of each size in turn: ``indices``
    is (k, s), as :func:`~spinamp.algebra.sector_blocks` gives it, and
    ``u`` is (k, s, s), e^{-iHt} on each block in that order, from one
    batched ``eigh`` per size.  SizeError above the dense cap;
    TimeRangeError for a size whose phases t * lambda are not finite."""
    blocks = sector_blocks(spec)
    while blocks:
        indices, h = blocks.pop(0)
        vals, vecs = np.linalg.eigh(h)
        del h                   # freed before the class's unitary is built
        require_times(t, vals)
        yield indices, (vecs * np.exp(-1j * vals * t)[:, None, :]) @ vecs.conj().swapaxes(1, 2)


def _wrap(angle: float) -> float:
    """``angle`` wrapped to (-pi, pi]; ``math.remainder`` may return -pi."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    return wrapped + 2.0 * math.pi if wrapped <= -math.pi else wrapped


def transfer_fidelity(prop: Propagator, source: BitConfig, target: BitConfig,
                      t: float) -> float:
    """|<target| U(t) |source>|^2 between basis configurations, squared over
    an array as a scan squares its grid, so the two agree bitwise at equal t."""
    return float((np.abs(prop.amplitudes(source, target, t)) ** 2)[0])


def _golden_max(f: Callable[[float], float], a: float, b: float,
                tol: float) -> tuple:
    """Golden-section maximum of f on [a, b], to width tol or 4 ulps; f is called only in [a, b]."""
    tol = max(tol, 4.0 * math.ulp(max(abs(a), abs(b))))
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
    t_star = min(max(0.5 * a + 0.5 * b, a), b)     # a + b may overflow; a subnormal's half rounds
    return float(t_star), float(f(t_star))


def max_fidelity_scan(prop: Propagator, source: BitConfig, target: BitConfig,
                      t_max: float = 200.0, grid_step: float = 0.1) -> tuple:
    """Maximize |<target|U(t)|source>|^2 over t in [0, t_max].

    Scans the grid 0, grid_step, ... up to t_max, then refines around the
    best grid point by golden-section search, keeping that grid point unless
    the refinement does strictly better.  Returns (t_star, f_star, ts,
    fidelities), the last two being the grid scan itself.  The grid's time check
    covers the refinement, as :func:`_golden_max` calls f only within [lo, hi].
    """
    if not (0.0 < grid_step and 0.0 < t_max < grid_step * 2.0 ** 63
            and math.isfinite(t_max + grid_step / 2)):      # the grid's stop
        raise ValueError("t_max and grid_step must be positive, t_max / grid_step below 2^63, "
                         "t_max + grid_step / 2 finite")
    amps = prop.amplitude_fn(source, target)
    ts = prop.times(np.arange(0.0, t_max + 0.5 * grid_step, grid_step))
    fidelities = np.abs(amps(ts)) ** 2
    best = int(np.argmax(fidelities))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, len(ts) - 1)]
    # squared over an array, as the grid is, so f equals the grid at a grid time
    t_star, f_star = _golden_max(lambda t: float((np.abs(amps(np.array([t]))) ** 2)[0]),
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
    # squared by *, which overflows to inf, where a float's ** 2 raises OverflowError
    if not abs(abs(alpha) * abs(alpha) + abs(beta) * abs(beta) - 1.0) <= 1e-9:
        raise ValueError(f"need alpha^2 + beta^2 = 1, got alpha={alpha}, beta={beta}")
    n = prop.n_sites
    zeros = BitConfig.zeros(n)
    start = BitConfig.single(n, 1)
    ones = BitConfig((1,) * n)

    def amp(source: BitConfig, target: BitConfig) -> complex:
        return complex(prop.amplitudes(source, target, t)[0])

    # 10...0 -> 0...0 and 0...0 -> 1...1 change the fermion number: exactly 0
    a0 = alpha * amp(zeros, zeros)
    a1 = beta * amp(start, ones)
    fidelity = (abs(alpha) * abs(a0) + abs(beta) * abs(a1)) ** 2
    fid0 = abs(a0 / alpha) ** 2 if alpha != 0 else 1.0
    fid1 = abs(a1 / beta) ** 2 if beta != 0 else 1.0
    if alpha != 0 and beta != 0 and a0 != 0 and a1 != 0:
        phase = _wrap(np.angle(a1 / beta) - np.angle(a0 / alpha))
    else:
        phase = 0.0
    return AmplificationResult(float(fidelity), float(fid0), float(fid1), float(phase))
