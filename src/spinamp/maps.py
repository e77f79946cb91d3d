"""Basis maps linking the exchange chain and the amplification chain.

The two Hamiltonians are conjugate under a ladder of CNOT gates with
control n and target n-1, applied for n = N down to 2.  On classical
configurations that ladder is the suffix-XOR transform (each output bit
is the XOR of all input bits from its site to the end of the chain); its
inverse is the adjacent-difference transform.  On Pauli strings it acts
by the usual propagation rules: X spreads from control to target, Z from
target to control.

The mirror map conjugates site reversal through the ladder.  It is the
classical bijection that continuous evolution of the amplification chain
realizes on every basis state at the transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BitConfig, HamiltonianSpec, PauliTerm

__all__ = [
    "TildeIndexSet",
    "tilde_config",
    "gamma_forward",
    "gamma_inverse",
    "gamma_inverse_indices",
    "conjugate_hamiltonian",
    "mirror_map",
]


@dataclass(frozen=True)
class TildeIndexSet:
    """Sorted set of effective excitation positions in 1..N."""

    n_sites: int
    indices: tuple = ()

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate excitation index")
        if idx and not (1 <= idx[0] and idx[-1] <= self.n_sites):
            raise ValueError(f"indices {idx} out of range 1..{self.n_sites}")
        object.__setattr__(self, "indices", idx)


def tilde_config(indices: TildeIndexSet) -> BitConfig:
    """XOR of the prefix patterns 1^n 0^(N-n) over the index set.

    A single index n gives 1s on sites 1..n; several indices combine by
    bitwise addition mod 2, e.g. {3,5} at N=5 -> 11100 xor 11111 = 00011.
    """
    bits = [0] * indices.n_sites
    for n in indices.indices:
        for i in range(n):
            bits[i] ^= 1
    return BitConfig(indices.n_sites, tuple(bits))


def gamma_forward(b: BitConfig) -> BitConfig:
    """Suffix-XOR: output bit i = XOR of input bits i..N."""
    return BitConfig.from_index(b.n_sites, _suffix_xor(b.index, b.n_sites))


def gamma_inverse(b: BitConfig) -> BitConfig:
    """Adjacent differences: output bit i = b_i xor b_{i+1} (b_{N+1} = 0)."""
    return BitConfig.from_index(b.n_sites, b.index ^ (b.index >> 1))


def gamma_inverse_indices(n_sites: int) -> np.ndarray:
    """``gamma_inverse`` applied to every basis index 0..2^N-1 at once.

    The ladder maps basis state b to gamma_forward(b), so a matrix H in
    the original basis becomes ``H[np.ix_(g, g)]`` after conjugation.
    """
    idx = np.arange(1 << n_sites)
    return idx ^ (idx >> 1)


def mirror_map(b: BitConfig) -> BitConfig:
    """Site reversal conjugated through the CNOT ladder; an involution."""
    return gamma_forward(gamma_inverse(b).reversed_sites())


def _suffix_xor(x, n_sites: int):
    """Suffix-XOR of a basis index or index array, by doubling shifts."""
    shift = 1
    while shift < n_sites:
        x = x ^ (x >> shift)
        shift *= 2
    return x


def _conjugate_term(term: PauliTerm, n_sites: int) -> PauliTerm:
    """Push one Pauli string through the ladder, gate by gate.

    Strings are tracked in tableau form: per-site bits (x, z) with
    x = z = 1 meaning Y, plus an overall sign.  A CNOT with control c and
    target t maps x_t ^= x_c, z_c ^= z_t and flips the sign when
    x_c z_t (x_t + z_c + 1) is odd.
    """
    x_mask, y_mask, z_mask = term.masks()
    x = x_mask | y_mask
    z = z_mask | y_mask
    sign = 1
    for n in range(n_sites, 1, -1):
        c_bit = 1 << (n - 1)      # control: site n
        t_bit = 1 << (n - 2)      # target: site n-1
        xc = 1 if x & c_bit else 0
        zt = 1 if z & t_bit else 0
        xt = 1 if x & t_bit else 0
        zc = 1 if z & c_bit else 0
        if xc and zt and (xt ^ zc ^ 1):
            sign = -sign
        if xc:
            x ^= t_bit
        if zt:
            z ^= c_bit
    letters = {}
    for site in range(1, n_sites + 1):
        bit = 1 << (site - 1)
        has_x = bool(x & bit)
        has_z = bool(z & bit)
        if has_x and has_z:
            letters[site] = "Y"
        elif has_x:
            letters[site] = "X"
        elif has_z:
            letters[site] = "Z"
    return PauliTerm(sign * term.coefficient, letters)


def conjugate_hamiltonian(spec: HamiltonianSpec) -> HamiltonianSpec:
    """Conjugate every term by the CNOT ladder; exchange -> amplification."""
    return HamiltonianSpec(
        spec.n_sites,
        tuple(_conjugate_term(t, spec.n_sites) for t in spec.terms),
    )
