"""Independent reference implementations the library is checked against.

Each one computes by the textbook route, with no code shared with
``spinamp``'s kernels:

* ``kron_dense``      -- a Hamiltonian as a sum of Kronecker products;
* ``kron_unitary``    -- e^{-iHt} from a full eigendecomposition of it;
* ``cnot_matrix`` / ``gamma_matrix`` -- the CNOT ladder as products of
  dense 2^N x 2^N permutation matrices;
* ``dephasing_trial`` -- one noisy transfer, evolved step by step over
  the whole 2^N space;
* ``gamma_forward_bits`` / ``gamma_inverse_bits`` / ``mirror_bits`` --
  the ladder maps and the mirror map, bit by bit on ``BitConfig`` tuples;
* ``ca_half_step_bits`` -- one CA half-step, site by site;
* ``ca_report_rows`` -- the CA comparison table, one config at a time,
  reading the full 2^N x 2^N unitary of ``kron_unitary``.
"""

import itertools

import numpy as np

from spinamp.algebra import BitConfig, HamiltonianSpec, StateVector
from spinamp.chains import CouplingProfile, cluster_chain
from spinamp.evolution import pst_time

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_dense(spec: HamiltonianSpec) -> np.ndarray:
    """The 2^N x 2^N matrix of ``spec`` by explicit Kronecker products."""
    n = spec.n_sites
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for term in spec.terms:
        letters = term.letter_map
        # site 1 occupies the least significant index block
        mat = np.array([[term.coefficient]], dtype=complex)
        for site in range(n, 0, -1):
            mat = np.kron(mat, PAULI_MATRICES[letters.get(site, "I")])
        out += mat
    return out


def kron_unitary(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """e^{-iHt} over the whole 2^N space, from ``eigh`` of :func:`kron_dense`."""
    vals, vecs = np.linalg.eigh(kron_dense(spec))
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def cnot_matrix(n_sites: int, control: int, target: int) -> np.ndarray:
    """Dense CNOT on the full 2^N space."""
    dim = 1 << n_sites
    idx = np.arange(dim)
    flipped = np.where((idx >> (control - 1)) & 1, idx ^ (1 << (target - 1)), idx)
    mat = np.zeros((dim, dim))
    mat[flipped, idx] = 1.0
    return mat


def gamma_matrix(n_sites: int) -> np.ndarray:
    """The full ladder C_2^1 C_3^2 ... C_N^{N-1} as a dense permutation."""
    mat = np.eye(1 << n_sites)
    for n in range(n_sites, 1, -1):
        mat = cnot_matrix(n_sites, n, n - 1) @ mat
    return mat


def dephasing_trial(prop, source, measure_site, total_time, cfg, rng) -> float:
    """One noisy transfer with its own generator; P(measure_site is up).

    Draws ``steps`` uniforms, then ``steps`` sites, as the batched
    ensemble does; evolves segment by segment over the whole 2^N space,
    with e^{-iHt} from :func:`kron_unitary`, and flips the sign of every
    amplitude whose drawn site is up when the uniform falls below p.
    """
    n = prop.n_sites
    uniforms = rng.random(cfg.steps)
    sites = rng.integers(1, n + 1, size=cfg.steps)
    u_seg = kron_unitary(prop.spec, total_time / cfg.steps)
    idx = np.arange(1 << n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[source.index] = 1.0
    for step in range(cfg.steps):
        psi = u_seg @ psi
        if uniforms[step] < cfg.p:
            psi[((idx >> (int(sites[step]) - 1)) & 1).astype(bool)] *= -1.0
    return min(1.0, StateVector(n, psi).site_up_probability(measure_site))


def gamma_forward_bits(b: BitConfig) -> BitConfig:
    """Suffix-XOR: output bit i = XOR of input bits i..N."""
    out = []
    acc = 0
    for bit in reversed(b.bits):
        acc ^= bit
        out.append(acc)
    return BitConfig(b.n_sites, tuple(reversed(out)))


def gamma_inverse_bits(b: BitConfig) -> BitConfig:
    """Adjacent differences: output bit i = b_i xor b_{i+1} (b_{N+1} = 0)."""
    padded = b.bits + (0,)
    return BitConfig(b.n_sites, tuple(x ^ y for x, y in zip(padded, padded[1:])))


def mirror_bits(b: BitConfig) -> BitConfig:
    """Site reversal conjugated through the ladder, bit by bit."""
    return gamma_forward_bits(gamma_inverse_bits(b).reversed_sites())


def ca_half_step_bits(b: BitConfig, parity: str) -> BitConfig:
    """One CA half-step, site by site, reading the pre-step configuration."""
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


def ca_report_rows(n_sites: int) -> list:
    """The comparison table as (input, continuous_output, continuous_prob,
    mirror_output, agree, ca_hit_step) tuples, site 1 varying slowest.

    Continuous outputs are column argmaxes of |U|^2 for the full unitary
    of :func:`kron_unitary`; the CA runs config by config from an even
    start, stopping on the mirror output, on a revisit or after 4N
    half-steps.
    """
    step_cap = 4 * n_sites
    spec = cluster_chain(CouplingProfile.engineered(n_sites))
    probs = abs(kron_unitary(spec, pst_time(n_sites))) ** 2
    rows = []
    for bits in itertools.product((0, 1), repeat=n_sites):
        b = BitConfig(n_sites, bits)
        col = probs[:, b.index]
        best = int(col.argmax())
        continuous = BitConfig.from_index(n_sites, best)
        mirror = mirror_bits(b)
        hit = -1
        seen = set()
        config = b
        parity_cycle = itertools.cycle(("even", "odd"))
        for step in range(step_cap + 1):
            if config == mirror:
                hit = step
                break
            if config in seen or step == step_cap:
                break
            seen.add(config)
            config = ca_half_step_bits(config, next(parity_cycle))
        rows.append((b, continuous, float(col[best]), mirror, continuous == mirror, hit))
    return rows
