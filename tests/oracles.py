"""Independent reference implementations the library is checked against.

Each one computes by the textbook route, with no code shared with
``spinamp``'s kernels:

* ``kron_dense``      -- a Hamiltonian as a sum of Kronecker products;
* ``cnot_matrix`` / ``gamma_matrix`` -- the CNOT ladder as products of
  dense 2^N x 2^N permutation matrices;
* ``dephasing_trial`` -- one noisy transfer, evolved step by step.
"""

import numpy as np

from spinamp.algebra import HamiltonianSpec, StateVector

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
    ensemble does; evolves segment by segment and flips the sign of every
    amplitude whose drawn site is up when the uniform falls below p.
    """
    n = prop.n_sites
    uniforms = rng.random(cfg.steps)
    sites = rng.integers(1, n + 1, size=cfg.steps)
    dt = total_time / cfg.steps
    psi = StateVector.basis_state(source)
    for step in range(cfg.steps):
        psi = prop.evolve(psi, dt)
        if uniforms[step] < cfg.p:
            amps = psi.amplitudes.copy()
            bit = 1 << (int(sites[step]) - 1)
            idx = np.arange(amps.size)
            amps[(idx & bit) != 0] *= -1.0
            psi = StateVector(n, amps)
    return min(1.0, psi.site_up_probability(measure_site))
