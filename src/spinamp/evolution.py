"""Time evolution, transfer fidelities and fidelity scans.

Evolution is Schrodinger, U(t) = exp(-i H t) with hbar = 1.  Two routes
are provided: a block-diagonal dense eigendecomposition (chains up to the
dense cap) and a matrix-free Lanczos/Krylov propagator with adaptive
substeps for longer chains.  The dense route splits H into its connected
blocks in the computational basis -- the conserved sectors of both
chains -- and diagonalizes each block on its own, so its cost follows the
largest block rather than 2^N.  The tests check both routes against a
full-space eigendecomposition of the Kronecker-product matrix and
against each other.

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
    StateVector,
    apply_spec,
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


class ConvergenceError(SpinChainError):
    """Krylov propagation failed to reach the requested local error."""


class Propagator:
    """Reusable e^{-iHt} applier for a fixed Hamiltonian.

    The one place that knows which backend evolves a spec and what each
    backend can answer.  method: "dense" (N <= dense cap), "krylov"
    (matrix-free Lanczos), or "auto" (dense when it fits).

    The dense backend diagonalizes each connected block of H (see
    :func:`~spinamp.algebra.sector_blocks`) on its own, blocks of one size
    in one batched ``eigh``; a spec with a single block is just the
    one-block case.  Every query answers per block: an amplitude between
    two blocks is exactly 0.  Immutable after construction; safe to share
    between threads.
    """

    def __init__(self, spec: HamiltonianSpec, method: str = "auto"):
        if method == "auto":
            method = "dense" if spec.n_sites <= DENSE_CAP else "krylov"
        if method not in ("dense", "krylov"):
            raise ValueError(f"unknown method {method!r}")
        self.spec = spec
        self.method = method
        if method == "dense":
            # sector_blocks raises SizeError above the dense cap
            self._blocks, self._where, matrices = sector_blocks(spec)
            self._eigen = [np.linalg.eigh(m) for m in matrices]

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    def evolve(self, psi: StateVector, t: float) -> StateVector:
        if psi.n_sites != self.spec.n_sites:
            raise SpinChainError(
                f"state on {psi.n_sites} sites, propagator on {self.spec.n_sites}"
            )
        if not math.isfinite(t):
            raise ValueError(f"evolution time must be finite, got {t!r}")
        if self.method == "krylov":
            return StateVector(psi.n_sites, self._krylov_evolve(psi.amplitudes, t))
        out = np.empty_like(psi.amplitudes)
        for blocks, (vals, vecs) in zip(self._blocks, self._eigen):
            coeffs = psi.amplitudes[blocks][:, None, :] @ vecs.conj()
            coeffs *= np.exp(-1j * vals * t)[:, None, :]
            out[blocks] = (coeffs @ vecs.swapaxes(1, 2))[:, 0]
        return StateVector(psi.n_sites, out)

    def amplitudes(self, source: BitConfig, target: BitConfig, ts) -> np.ndarray:
        """<target|U(t)|source> for each t in ``ts``.

        Dense: a spectral sum over the eigenpairs of the source's block,
        O(block) per time, and exactly 0 when the target lies in another
        block.  Krylov: one evolution from t = 0 per time.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if {source.n_sites, target.n_sites} != {self.n_sites}:
            raise SpinChainError("configs and propagator differ in site count")
        if not np.all(np.isfinite(ts)):
            raise ValueError("evolution times must be finite")
        if self.method == "krylov":
            psi = StateVector.basis_state(source)
            return np.array([self.evolve(psi, t).amplitude(target) for t in ts])
        block, i, vals, vecs = self._block_of(source)
        if self._block_of(target)[0] != block:
            return np.zeros(ts.shape, dtype=complex)
        j = self._where[2, target.index]
        weights = vecs[j] * vecs[i].conj()
        return np.exp(-1j * np.multiply.outer(ts, vals)) @ weights

    def block_unitary(self, config: BitConfig, t: float) -> tuple:
        """(indices, u): the block holding ``config`` and e^{-iHt} on it.

        ``indices`` are the block's basis indices, ascending; ``u`` is the
        block's unitary in that order.  Only the dense backend holds blocks.
        """
        self._require_dense("block_unitary()")
        (c, k), _, vals, vecs = self._block_of(config)
        return self._blocks[c][k], (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T

    def block_unitaries(self, t: float):
        """Yield (indices, u) for every block, as :meth:`block_unitary` gives
        them, blocks of one size evolved together; dense backend only."""
        self._require_dense("block_unitaries()")
        for blocks, (vals, vecs) in zip(self._blocks, self._eigen):
            u = (vecs * np.exp(-1j * vals * t)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
            yield from zip(blocks, u)

    def _block_of(self, config: BitConfig) -> tuple:
        """((size class, block row), position, eigenvalues, eigenvectors)
        of the block holding ``config``."""
        c, k, position = self._where[:, config.index]
        vals, vecs = self._eigen[c]
        return (c, k), position, vals[k], vecs[k]

    def _require_dense(self, query: str) -> None:
        if self.method != "dense":
            raise SizeError(f"{query} needs the dense backend: N={self.n_sites}, "
                            f"dense cap {DENSE_CAP}, method {self.method!r}")

    # -- Krylov route -----------------------------------------------------

    def _krylov_evolve(self, amps: np.ndarray, t: float) -> np.ndarray:
        remaining = float(t)
        if remaining == 0.0:
            return amps.copy()
        direction = math.copysign(1.0, remaining)
        remaining = abs(remaining)
        dt = remaining
        v = amps.copy()
        min_dt = remaining * 1e-12
        while remaining > 0.0:
            dt = min(dt, remaining)
            step, err = self._lanczos_step(v, direction * dt)
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

    def _lanczos_step(self, v: np.ndarray, dt: float) -> tuple:
        """One exp(-iH dt) v via a Lanczos basis; returns (result, error est)."""
        norm_v = np.linalg.norm(v)
        m = KRYLOV_DIM
        basis = np.empty((m, v.size), dtype=complex)
        alpha = np.empty(m)
        beta = np.empty(m)
        basis[0] = v / norm_v
        w = self._matvec(basis[0])
        alpha[0] = np.real(np.vdot(basis[0], w))
        w -= alpha[0] * basis[0]
        k = 1
        breakdown = False
        while k < m:
            beta[k] = np.linalg.norm(w)
            if beta[k] < 1e-14:
                breakdown = True
                break
            basis[k] = w / beta[k]
            w = self._matvec(basis[k])
            alpha[k] = np.real(np.vdot(basis[k], w))
            w -= alpha[k] * basis[k] + beta[k] * basis[k - 1]
            k += 1
        tri = np.diag(alpha[:k]) + np.diag(beta[1:k], 1) + np.diag(beta[1:k], -1)
        tw, tv = np.linalg.eigh(tri)
        small = tv @ (np.exp(-1j * tw * dt) * tv[0].conj())
        result = norm_v * (basis[:k].T @ small)
        # residual-style estimate: weight leaking out of the Krylov space
        err = 0.0 if breakdown else float(np.linalg.norm(w) * abs(small[-1]))
        return result, err

    def _matvec(self, amps: np.ndarray) -> np.ndarray:
        state = StateVector(self.spec.n_sites, amps)
        return apply_spec(self.spec, state).amplitudes


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
    psi = StateVector.superposition([(alpha, zeros), (beta, start)])
    out = prop.evolve(psi, t)
    a0 = out.amplitude(zeros)
    a1 = out.amplitude(ones)
    fidelity = (abs(alpha) * abs(a0) + abs(beta) * abs(a1)) ** 2
    fid0 = abs(a0 / alpha) ** 2 if alpha != 0 else 1.0
    fid1 = abs(a1 / beta) ** 2 if beta != 0 else 1.0
    if alpha != 0 and beta != 0 and a0 != 0 and a1 != 0:
        phase = math.remainder(
            np.angle(a1 / beta) - np.angle(a0 / alpha), 2.0 * math.pi
        )
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


def _mirror_for_family(family: str, config: BitConfig) -> BitConfig:
    if family == "cluster":
        return mirror_map(config)
    if family == "exchange":
        return config.reversed_sites()
    raise ValueError(f"unknown family {family!r}")


def phase_separability_probe(prop: Propagator, t: float,
                             family: str) -> PhaseReport:
    """Compare two-excitation transfer phases with sums of single ones.

    Physical excitations are lone 1s on the chain (sites 2..N for the
    amplification chain, where site 1 is the encoding site; all sites for
    the exchange chain).  A vanishing deviation means excitations move
    through each other with no conditional phase.
    """
    n = prop.n_sites
    if family == "cluster":
        sites = range(2, n + 1)
    elif family == "exchange":
        sites = range(1, n + 1)
    else:
        raise ValueError(f"unknown family {family!r}")
    sites = list(sites)

    def transfer_phase(config: BitConfig):
        element = prop.amplitudes(config, _mirror_for_family(family, config), t)[0]
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
            deviation[pair] = math.remainder(
                ph - phi1[s1] - phi1[s2], 2.0 * math.pi
            )
    return PhaseReport(family, phi1, phi2, deviation, tuple(excluded))
