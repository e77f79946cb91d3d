"""Pauli-string operators on a chain of spin-1/2 sites.

Sites are numbered 1..N.  Computational basis states are indexed by the
integer whose bit (i-1) -- least significant bit first -- holds the value
of site i.  All textual I/O prints site 1 leftmost, so the string "110"
means sites 1 and 2 are up and corresponds to basis index 3.

A Hamiltonian is a weighted sum of Pauli strings with real coefficients,
kept in a canonical form (duplicate strings merged, zero weights dropped).
Each spec is compiled once into flip-mask groups (see
:func:`_compile_groups`), and every query reads those groups, so all of
them share one rule for the matrix elements: the connected blocks of H in
the computational basis, each with H on it (:func:`sector_blocks`, one
(indices, h) pair per block size, which evolution diagonalizes one size
at a time), and the entry-wise checks of a commutator and of a basis
permutation.  No
query builds a 2^N x 2^N matrix or holds a vector of 2^N amplitudes.  The
test suite checks the rule against an independent Kronecker-product
realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

__all__ = [
    "DENSE_CAP",
    "SpinChainError",
    "SizeError",
    "DimensionMismatchError",
    "PauliTerm",
    "HamiltonianSpec",
    "BitConfig",
    "require_dense",
    "sector_blocks",
    "max_commutator",
    "max_permuted_deviation",
]

#: Largest chain whose 2^N basis indices are split into blocks of H.
DENSE_CAP = 12

_LETTERS = frozenset("XYZ")


class SpinChainError(Exception):
    """Base class for errors raised by this package."""


class SizeError(SpinChainError):
    """Chain too large (or too small) for the requested operation."""


class DimensionMismatchError(SpinChainError):
    """Operands defined on different numbers of sites."""


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string: coefficient * prod_i P_i.

    ``letters`` maps 1-based site indices to "X", "Y" or "Z"; absent sites
    act as identity.  An empty map is the scalar identity term.
    """

    coefficient: float
    letters: tuple = ()

    def __post_init__(self):
        coeff = float(self.coefficient)
        if not np.isfinite(coeff) or coeff == 0.0:
            raise ValueError(f"coefficient must be finite and nonzero, got {coeff!r}")
        if isinstance(self.letters, Mapping):
            items = self.letters.items()
        else:
            items = self.letters
        norm = tuple(sorted((int(s), str(p)) for s, p in items))
        for site, pauli in norm:
            if site < 1:
                raise ValueError(f"site index must be >= 1, got {site}")
            if pauli not in _LETTERS:
                raise ValueError(f"unknown Pauli letter {pauli!r} at site {site}")
        if len({s for s, _ in norm}) != len(norm):
            raise ValueError("duplicate site in Pauli string")
        object.__setattr__(self, "coefficient", coeff)
        object.__setattr__(self, "letters", norm)

    def max_site(self) -> int:
        return max((s for s, _ in self.letters), default=1)

    def masks(self) -> tuple:
        """(x_mask, y_mask, z_mask) bit masks; site i sits at bit i-1."""
        x = y = z = 0
        for site, pauli in self.letters:
            bit = 1 << (site - 1)
            if pauli == "X":
                x |= bit
            elif pauli == "Y":
                y |= bit
            else:
                z |= bit
        return x, y, z


@dataclass(frozen=True)
class HamiltonianSpec:
    """Canonical real-weighted Pauli-string sum on ``n_sites`` sites.

    Construction merges terms with identical strings and drops exact zero
    coefficients, so canonicalization is idempotent by design.
    """

    n_sites: int
    terms: tuple = ()

    def __post_init__(self):
        n = int(self.n_sites)
        if n < 1:
            raise SizeError(f"n_sites must be >= 1, got {n}")
        merged: dict = {}
        for term in self.terms:
            if not isinstance(term, PauliTerm):
                term = PauliTerm(*term)
            if term.max_site() > n:
                raise ValueError(
                    f"term {term.letters} exceeds chain of {n} sites"
                )
            merged[term.letters] = merged.get(term.letters, 0.0) + term.coefficient
        canon = tuple(
            PauliTerm(c, ls) for ls, c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "terms", canon)

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    def term_map(self) -> dict:
        return {t.letters: t.coefficient for t in self.terms}

    @cached_property
    def flip_groups(self) -> tuple:
        """The compiled terms, (flip_mask, weights) pairs with one weight per
        basis index, built on first use; see :func:`_compile_groups`.
        Every block-route query starts here: SizeError above ``DENSE_CAP``."""
        require_dense(self.n_sites)
        return _compile_groups(self)

    def __add__(self, other: "HamiltonianSpec") -> "HamiltonianSpec":
        if other.n_sites != self.n_sites:
            raise DimensionMismatchError(
                f"cannot add specs on {self.n_sites} and {other.n_sites} sites"
            )
        return HamiltonianSpec(self.n_sites, self.terms + other.terms)


@dataclass(frozen=True)
class BitConfig:
    """Classical configuration of the chain: one bit per site, site 1 first."""

    n_sites: int
    bits: tuple = ()

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if len(bits) != self.n_sites:
            raise ValueError(
                f"expected {self.n_sites} bits, got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> "BitConfig":
        return cls(len(text), tuple(int(c) for c in text))

    @classmethod
    def from_index(cls, n_sites: int, index: int) -> "BitConfig":
        return cls(n_sites, tuple((index >> i) & 1 for i in range(n_sites)))

    @classmethod
    def zeros(cls, n_sites: int) -> "BitConfig":
        return cls(n_sites, (0,) * n_sites)

    @classmethod
    def single(cls, n_sites: int, site: int) -> "BitConfig":
        """Configuration with a lone 1 at ``site``."""
        bits = [0] * n_sites
        bits[site - 1] = 1
        return cls(n_sites, tuple(bits))

    @property
    def index(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    def reversed_sites(self) -> "BitConfig":
        return BitConfig(self.n_sites, self.bits[::-1])

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _compile_groups(spec: HamiltonianSpec) -> tuple:
    """Merge the terms of ``spec`` by the bits they flip.

    A term with masks (x, y, z) and coefficient c maps basis state b to
    b ^ (x|y) with weight c * i**popcount(y) * (-1)**popcount(b & (y|z)).
    Terms sharing the flip mask x|y (X_n and Z_{n-1} X_n Z_{n+1}; XX and
    YY) form one group whose weights add.  A group's weights are one array
    over the 2^N basis indices, weights[b] for source b, float64 unless a
    term carries an odd number of Y letters.

    Returns (flip_mask, weights) pairs sorted by flip mask.
    """
    states = np.arange(spec.dim)
    weights: dict = {}
    for term in spec.terms:
        x, y, z = term.masks()
        # float: bitwise_count is uint8, where 1 - 2 * parity would wrap
        signs = 1.0 - 2.0 * (np.bitwise_count(states & (y | z)) & 1)
        w = term.coefficient * (1, 1j, -1, -1j)[y.bit_count() % 4] * signs
        weights[x | y] = weights.get(x | y, 0.0) + w
    return tuple(sorted(weights.items()))


def require_dense(n_sites: int) -> None:
    """Raise SizeError when a chain of ``n_sites`` is above ``DENSE_CAP``."""
    if n_sites > DENSE_CAP:
        raise SizeError(f"N={n_sites} exceeds the dense cap {DENSE_CAP}")


def _entries(spec: HamiltonianSpec) -> tuple:
    """(src, dst, values): every nonzero <dst|H|src> over all basis states."""
    src, dst, values = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for flip, weights in spec.flip_groups:
        nonzero = weights.nonzero()[0]
        src.append(nonzero)
        dst.append(nonzero ^ flip)
        values.append(weights[nonzero])
    return np.concatenate(src), np.concatenate(dst), np.concatenate(values)


def sector_blocks(spec: HamiltonianSpec) -> list:
    """The connected blocks of H in the computational basis, with H on each.

    Every basis index's label falls to the smallest index it is linked
    to by a nonzero entry of H, with pointer jumping.  Both chains split
    into conserved sectors this way (wall count, and excitation number).
    SizeError above ``DENSE_CAP``.

    Returns one (indices, h) pair per block size s, ascending in s.
    ``indices`` is (k, s): one block per row, its basis indices ascending,
    rows ordered by their smallest index.  ``h`` is (k, s, s), H on each
    block, h[r, a, b] = <indices[r, a]|H|indices[r, b]>; float64 unless a
    group is complex.
    """
    src, dst, values = _entries(spec)
    states = np.arange(spec.dim)
    linked = src != dst
    labels = states
    while True:
        new = labels.copy()
        np.minimum.at(new, src[linked], labels[dst[linked]])
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    # every block shares its smallest index as label; sort by block
    # size, then by label, keeping each block's indices ascending
    size_of = np.bincount(labels)[labels]
    members = np.argsort(size_of * states.size + labels, kind="stable")
    row, pos = np.empty((2, states.size), dtype=np.intp)     # block row, position
    pairs, lo = [], 0
    for s in sorted(set(size_of.tolist())):
        indices = members[lo:lo + int((size_of == s).sum())].reshape(-1, s)
        lo += indices.size
        row[indices] = np.arange(len(indices))[:, None]
        pos[indices] = np.arange(s)
        mine = size_of[src] == s
        h = np.zeros(indices.shape + (s,), dtype=values.dtype)
        h[row[src[mine]], pos[dst[mine]], pos[src[mine]]] = values[mine]
        pairs.append((indices, h))
    return pairs


def max_commutator(a: HamiltonianSpec, b: HamiltonianSpec) -> float:
    """Largest |entry| of [A, B], from the two specs' flip groups.

    Group f of A after group g of B sends b to b ^ f ^ g with weight
    w_f(b ^ g) * w_g(b).  Terms with one combined flip f ^ g add up over
    the basis indices.  SizeError above ``DENSE_CAP``."""
    states = np.arange(a.dim)
    total: dict = {}
    for f, wf in a.flip_groups:
        for g, wg in b.flip_groups:
            term = wf[states ^ g] * wg - wg[states ^ f] * wf
            total[f ^ g] = total.get(f ^ g, 0.0) + term
    return max((float(np.max(np.abs(t))) for t in total.values()), default=0.0)


def max_permuted_deviation(a: HamiltonianSpec, b: HamiltonianSpec, perm) -> float:
    """max |A[perm][:, perm] - B| from the two specs' nonzero entries.  Entry
    <d|A|s> lands at (inv[d], inv[s]), inv the inverse permutation; where
    both specs have an entry it holds a - b, as the dense difference does.
    SizeError above ``DENSE_CAP``."""
    inv = np.argsort(perm)
    src_a, dst_a, values_a = _entries(a)
    src_b, dst_b, values_b = _entries(b)
    keys = np.concatenate([inv[dst_a] * a.dim + inv[src_a], dst_b * b.dim + src_b])
    unique, position = np.unique(keys, return_inverse=True)
    diff = np.zeros(unique.size, dtype=np.result_type(values_a, values_b))
    np.add.at(diff, position, np.concatenate([values_a, -values_b]))
    return float(np.max(np.abs(diff), initial=0.0))
