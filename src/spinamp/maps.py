"""Basis maps linking the exchange chain and the amplification chain.

The two Hamiltonians are conjugate under a ladder of CNOT gates with
control n and target n-1, applied for n = N down to 2.  On classical
configurations that ladder is the suffix-XOR transform (each output bit
is the XOR of all input bits from its site to the end of the chain); its
inverse is the adjacent-difference transform.  On Pauli strings it acts
by the usual propagation rules, X spreading from control to target and Z
from target to control, which compose into one closed form per string.

The mirror map conjugates site reversal through the ladder.  It is the
classical bijection that continuous evolution of the amplification chain
realizes on every basis state at the transfer time.
"""

from __future__ import annotations

import numpy as np

from .algebra import BitConfig, HamiltonianSpec, PauliTerm

__all__ = [
    "gamma_inverse_indices",
    "conjugate_hamiltonian",
    "mirror_map",
]


def gamma_inverse_indices(n_sites: int) -> np.ndarray:
    """Adjacent differences, b ^ (b >> 1), of every basis index 0..2^N-1.

    The ladder maps basis state b to its suffix-XOR, whose inverse this
    is, so a matrix H in the original basis becomes ``H[np.ix_(g, g)]``
    after conjugation.
    """
    idx = np.arange(1 << n_sites)
    return idx ^ (idx >> 1)


def mirror_map(b: BitConfig) -> BitConfig:
    """Site reversal conjugated through the CNOT ladder; an involution:
    adjacent differences, then site reversal, then suffix-XOR."""
    walls = BitConfig.from_index(b.n_sites, b.index ^ (b.index >> 1))
    return BitConfig.from_index(b.n_sites, _suffix_xor(walls.reversed_sites().index, b.n_sites))


def _suffix_xor(x, n_sites: int):
    """Suffix-XOR of a basis index or index array, by doubling shifts."""
    shift = 1
    while shift < n_sites:
        x = x ^ (x >> shift)
        shift *= 2
    return x


def _conjugate_term(term: PauliTerm, n_sites: int) -> PauliTerm:
    """Push one Pauli string through the ladder, in closed form.

    In tableau form (:meth:`PauliTerm.masks`) a string is i^|x&z| X^x Z^z.
    The ladder sends X^x to X^x', x' the suffix-XOR of x, and Z^z to Z^z',
    z' = z ^ (z << 1) on N bits, so the string gains the factor
    i^(|x&z| - |x'&z'|): -1 when that is 2 mod 4.
    """
    x, z = term.masks()
    x2 = _suffix_xor(x, n_sites)
    z2 = (z ^ (z << 1)) & ((1 << n_sites) - 1)
    sign = -1 if ((x & z).bit_count() - (x2 & z2).bit_count()) % 4 == 2 else 1
    return PauliTerm.from_masks(sign * term.coefficient, x2, z2)


def conjugate_hamiltonian(spec: HamiltonianSpec) -> HamiltonianSpec:
    """Conjugate every term by the CNOT ladder; exchange -> amplification."""
    return HamiltonianSpec(
        spec.n_sites,
        tuple(_conjugate_term(t, spec.n_sites) for t in spec.terms),
    )
