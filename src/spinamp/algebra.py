"""Pauli-string operators on a chain of spin-1/2 sites.

Sites are numbered 1..N.  Computational basis states are indexed by the
integer whose bit (i-1) -- least significant bit first -- holds the value
of site i.  All textual I/O prints site 1 leftmost, so the string "110"
means sites 1 and 2 are up and corresponds to basis index 3.

A Hamiltonian is a weighted sum of Pauli strings with real coefficients,
kept in a canonical form (duplicate strings merged, zero weights dropped).
Each string is the tableau pair (x, z) of bit masks (:meth:`PauliTerm.masks`),
and :func:`commutator` is Pauli algebra on those masks.  :func:`_entries` is
the one reader of a spec's matrix entries, so every matrix query shares one
rule: the connected blocks of H in the computational basis, each with H on
it (:func:`sector_blocks`, one (indices, h) pair per block size, which
evolution diagonalizes one size at a time), and the entry-wise checks of a
commutator and of a basis permutation.  No query builds a 2^N x 2^N matrix
or holds a vector of 2^N amplitudes.  The test suite checks both against an
independent Kronecker-product realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "commutator",
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


class DimensionMismatchError(SpinChainError, ValueError):
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
        coeff = _coefficient(self.coefficient)
        items = self.letters.items() if hasattr(self.letters, "items") else self.letters
        norm = tuple(sorted([(int(s), str(p)) for s, p in items]))
        x = z = 0
        for site, pauli in norm:
            if site < 1:
                raise ValueError(f"site index must be >= 1, got {site}")
            if pauli not in _LETTERS:
                raise ValueError(f"unknown Pauli letter {pauli!r} at site {site}")
            bit = 1 << (site - 1)
            if (x | z) & bit:
                raise ValueError("duplicate site in Pauli string")
            x |= bit * (pauli != "Z")
            z |= bit * (pauli != "X")
        vars(self).update(coefficient=coeff, letters=norm, _xz=(x, z))

    def masks(self) -> tuple:
        """The tableau pair (x, z) of bit masks, site i at bit i-1: X sets
        x, Z sets z and Y sets both, so the string is i^|x&z| X^x Z^z."""
        return self._xz

    @classmethod
    def from_masks(cls, coefficient: float, x: int, z: int) -> "PauliTerm":
        """coefficient * i^|x&z| X^x Z^z, the inverse of :meth:`masks`.
        Only the coefficient is checked: letters read off masks are valid."""
        letters = []
        rest = x | z
        while rest:
            site = (rest & -rest).bit_length()
            letters.append((site, " XZY"[(x >> (site - 1) & 1) | (z >> (site - 1) & 1) << 1]))
            rest &= rest - 1
        term = object.__new__(cls)
        vars(term).update(coefficient=_coefficient(coefficient), letters=tuple(letters), _xz=(x, z))
        return term


def _coefficient(value) -> float:
    coeff = float(value)
    if not math.isfinite(coeff) or coeff == 0.0:
        raise ValueError(f"coefficient must be finite and nonzero, got {coeff!r}")
    return coeff


@dataclass(frozen=True)
class HamiltonianSpec:
    """Canonical real-weighted Pauli-string sum on ``n_sites`` sites.

    Construction merges terms with identical strings, drops exact zero
    coefficients and sorts terms by letters: it is idempotent by design.
    """

    n_sites: int
    terms: tuple = ()

    def __post_init__(self):
        n = int(self.n_sites)
        if n < 1:
            raise SizeError(f"n_sites must be >= 1, got {n}")
        merged: dict = {}       # letters: (coefficient sum, first term)
        for term in self.terms:
            if not isinstance(term, PauliTerm):
                term = PauliTerm(*term)
            if max(term.masks()) >> n:
                raise ValueError(f"term {term.letters} exceeds chain of {n} sites")
            total, first = merged.get(term.letters, (0.0, term))
            merged[term.letters] = (total + term.coefficient, first)
        # a sum is rebuilt only if it moved; from_masks refuses an inf one
        canon = tuple(first if c == first.coefficient else PauliTerm.from_masks(c, *first.masks())
                      for _, (c, first) in sorted(merged.items()) if c != 0.0)
        object.__setattr__(self, "n_sites", n)
        object.__setattr__(self, "terms", canon)

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    def term_map(self) -> dict:
        return {t.letters: t.coefficient for t in self.terms}

    def __add__(self, other: "HamiltonianSpec") -> "HamiltonianSpec":
        if other.n_sites != self.n_sites:
            raise DimensionMismatchError(
                f"cannot add specs on {self.n_sites} and {other.n_sites} sites"
            )
        return HamiltonianSpec(self.n_sites, self.terms + other.terms)


@dataclass(frozen=True)
class BitConfig:
    """Classical configuration of N = len(bits) sites: one bit per site, site 1 first."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def n_sites(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, text: str) -> "BitConfig":
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_index(cls, n_sites: int, index: int) -> "BitConfig":
        return cls(tuple((index >> i) & 1 for i in range(n_sites)))

    @classmethod
    def zeros(cls, n_sites: int) -> "BitConfig":
        return cls((0,) * n_sites)

    @classmethod
    def single(cls, n_sites: int, site: int) -> "BitConfig":
        """Configuration with a lone 1 at ``site``, in 1..n_sites, else ValueError."""
        if not 1 <= site <= n_sites:
            raise ValueError(f"site must be in 1..{n_sites}, got {site}")
        bits = [0] * n_sites
        bits[site - 1] = 1
        return cls(tuple(bits))

    @property
    def index(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    def reversed_sites(self) -> "BitConfig":
        return BitConfig(self.bits[::-1])

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def commutator(a: HamiltonianSpec, b: HamiltonianSpec) -> HamiltonianSpec:
    """i[A, B], a real Pauli sum, by Pauli algebra on the tableau masks.

    Strings (x1, z1) and (x2, z2) anticommute iff |x1&z2| + |z1&x2| is odd,
    and then contribute 2i c1 c2 P1 P2, with P1 P2 = i^e P(x1^x2, z1^z2),
    e = a1 + a2 - a3 + 2|z1&x2| and a_k = |x_k & z_k| (Aaronson & Gottesman,
    PRA 70, 052328 (2004)).  e is odd, so the term is +-2 c1 c2 P3.  The
    coefficients add per string, exactly rounded, before any term is
    built: the sum does not depend on term order, so commutator(b, a) is
    exactly -commutator(a, b), and an exact cancellation, or a product
    that underflows, leaves no term.
    """
    if a.n_sites != b.n_sites:
        raise DimensionMismatchError(f"cannot commute specs on {a.n_sites} and {b.n_sites} sites")
    left, right = ([(t.coefficient, *t.masks()) for t in spec.terms] for spec in (a, b))
    total: dict = {}
    for c1, x1, z1 in left:
        for c2, x2, z2 in right:
            if ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2:
                x3, z3 = x1 ^ x2, z1 ^ z2
                e = ((x1 & z1).bit_count() + (x2 & z2).bit_count()
                     - (x3 & z3).bit_count() + 2 * (z1 & x2).bit_count())
                c = 2.0 * c1 * c2 * (1.0 if e % 4 == 3 else -1.0)
                total.setdefault((x3, z3), []).append(c)
    sums = {masks: math.fsum(cs) for masks, cs in total.items()}
    return HamiltonianSpec(a.n_sites, tuple(
        PauliTerm.from_masks(c, x, z) for (x, z), c in sums.items() if c != 0.0))


def require_dense(n_sites: int) -> None:
    """Raise SizeError when a chain of ``n_sites`` is above ``DENSE_CAP``."""
    if n_sites > DENSE_CAP:
        raise SizeError(f"N={n_sites} exceeds the dense cap {DENSE_CAP}")


def _entries(spec: HamiltonianSpec) -> tuple:
    """(src, dst, values): every nonzero <dst|H|src> over all basis states,
    each pair once, by flip mask, then by src.  SizeError above ``DENSE_CAP``.

    A term c * P(x, z) maps basis state b to b ^ x with weight
    c * i**|x&z| * (-1)**|b&z|: one row of a (T, 2^N) table over the T
    terms.  Terms sharing the flip mask x (X_n and Z_{n-1} X_n Z_{n+1};
    XX and YY) add up, in term order from 0.0, into one row per flip.
    The values are float64 unless a term carries an odd number of Y letters.
    """
    require_dense(spec.n_sites)
    dim = spec.dim
    x, z = np.array([t.masks() for t in spec.terms], dtype=np.int64).reshape(-1, 2).T
    states = np.arange(dim)
    # float: bitwise_count is uint8, where 1 - 2 * parity would wrap
    signs = 1.0 - 2.0 * (np.bitwise_count(states & z[:, None]) & 1)
    # i**|x&z| puts c, with a sign, in the real or the imaginary part
    parts = np.array([t.coefficient for t in spec.terms]) * np.array(
        [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])[:, np.bitwise_count(x & z) % 4]
    flips, group = np.unique(x, return_inverse=True)
    cells = (group[:, None] * dim + states).ravel()
    odd = bool(parts[1].any())
    # bincount adds each cell's weights in term order, starting from 0.0
    sums = np.stack([np.bincount(cells, (part[:, None] * signs).ravel(), minlength=flips.size * dim)
                     for part in parts[:1 + odd]], axis=-1)
    weights = sums.view(np.complex128 if odd else np.float64).reshape(flips.size, dim)
    rows, src = np.nonzero(weights)
    return src, src ^ flips[rows], weights[rows, src]


def sector_blocks(spec: HamiltonianSpec) -> list:
    """The connected blocks of H in the computational basis, with H on each.

    Every basis index's label falls to the smallest index it is linked
    to by a nonzero entry of H, with pointer jumping.  Both chains split
    into conserved sectors this way (wall count, and excitation number).
    SizeError above ``DENSE_CAP``.

    Returns one (indices, h) pair per block size s, ascending in s.
    ``indices`` is (k, s): one block per row, its basis indices ascending,
    rows ordered by their smallest index.  ``h`` is (k, s, s), H on each
    block, h[r, a, b] = <indices[r, a]|H|indices[r, b]>; float64 unless an
    entry is complex.
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
    """Largest |entry| of [A, B], read off :func:`commutator`; exactly 0.0
    when no pair of strings anticommutes.  SizeError above ``DENSE_CAP``."""
    return float(np.max(np.abs(_entries(commutator(a, b))[2]), initial=0.0))


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
