"""Pauli-string operators on a chain of spin-1/2 sites.

Sites are numbered 1..N.  Computational basis states are indexed by the
integer whose bit (i-1) -- least significant bit first -- holds the value
of site i.  All textual I/O prints site 1 leftmost, so the string "110"
means sites 1 and 2 are up and corresponds to basis index 3.

A Hamiltonian is a weighted sum of Pauli strings with real coefficients,
kept in a canonical form (duplicate strings merged, zero weights dropped).
Each spec is compiled once into flip-mask groups (see
:func:`_compile_groups`), and every query reads those groups, so all of
them share one rule for the matrix elements: the matrix-free action, the
connected blocks of H in the computational basis and H on each block
(:func:`sector_blocks`, which dense evolution diagonalizes one block at a
time), and the entry-wise checks of a commutator and of a basis
permutation.  No query builds a 2^N x 2^N matrix.  The test suite checks
the rule against an independent Kronecker-product realization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "DENSE_CAP",
    "SpinChainError",
    "SizeError",
    "DimensionMismatchError",
    "PauliTerm",
    "HamiltonianSpec",
    "StateVector",
    "BitConfig",
    "require_dense",
    "sector_blocks",
    "max_commutator",
    "max_permuted_deviation",
    "apply_spec",
    "expectation",
]

#: Largest chain whose 2^N basis indices are split into blocks of H.
DENSE_CAP = 12

#: Largest imaginary part :func:`expectation` lets pass as rounding.
IMAG_TOL = 1e-10

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

    @property
    def letter_map(self) -> dict:
        return dict(self.letters)

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
        """The compiled terms, built on first use; see :func:`_compile_groups`."""
        return _compile_groups(self)

    def __add__(self, other: "HamiltonianSpec") -> "HamiltonianSpec":
        if other.n_sites != self.n_sites:
            raise DimensionMismatchError(
                f"cannot add specs on {self.n_sites} and {other.n_sites} sites"
            )
        return HamiltonianSpec(self.n_sites, self.terms + other.terms)

    # JSON schema: {"n_sites": N, "terms": [{"coeff": c, "letters": {"1": "X"}}]}
    def to_json(self) -> str:
        doc = {
            "n_sites": self.n_sites,
            "terms": [
                {"coeff": t.coefficient, "letters": {str(s): p for s, p in t.letters}}
                for t in self.terms
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HamiltonianSpec":
        doc = json.loads(text)
        terms = [
            PauliTerm(t["coeff"], {int(s): p for s, p in t["letters"].items()})
            for t in doc["terms"]
        ]
        return cls(doc["n_sites"], tuple(terms))


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

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def reversed_sites(self) -> "BitConfig":
        return BitConfig(self.n_sites, self.bits[::-1])

    def __xor__(self, other: "BitConfig") -> "BitConfig":
        if other.n_sites != self.n_sites:
            raise DimensionMismatchError("XOR of configs of different lengths")
        return BitConfig(self.n_sites, tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass
class StateVector:
    """Complex amplitudes over the 2^N computational basis.

    Not automatically normalized: operator application returns raw
    (unnormalized) results.  Evolution code checks norms explicitly.
    """

    n_sites: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_sites,):
            raise DimensionMismatchError(
                f"expected {1 << self.n_sites} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps

    @classmethod
    def basis_state(cls, config: BitConfig) -> "StateVector":
        amps = np.zeros(1 << config.n_sites, dtype=complex)
        amps[config.index] = 1.0
        return cls(config.n_sites, amps)

    @classmethod
    def superposition(cls, parts: Iterable) -> "StateVector":
        """Weighted sum of basis configs: iterable of (amplitude, BitConfig)."""
        parts = list(parts)
        n = parts[0][1].n_sites
        amps = np.zeros(1 << n, dtype=complex)
        for a, cfg in parts:
            if cfg.n_sites != n:
                raise DimensionMismatchError("mixed chain lengths in superposition")
            amps[cfg.index] += a
        return cls(n, amps)

    @classmethod
    def random(cls, n_sites: int, rng: np.random.Generator) -> "StateVector":
        amps = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
        amps /= np.linalg.norm(amps)
        return cls(n_sites, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.n_sites != self.n_sites:
            raise DimensionMismatchError("overlap of states on different chains")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def amplitude(self, config: BitConfig) -> complex:
        return complex(self.amplitudes[config.index])

    def site_up_probability(self, site: int) -> float:
        """Probability that the given site is measured in state 1."""
        idx = np.arange(self.amplitudes.size)
        mask = (idx >> (site - 1)) & 1
        return float(np.sum(np.abs(self.amplitudes[mask == 1]) ** 2))


def _sites(mask: int) -> list:
    """Sites whose bit is set in ``mask``, in increasing order."""
    return [s for s in range(1, mask.bit_length() + 1) if (mask >> (s - 1)) & 1]


def _compile_groups(spec: HamiltonianSpec) -> tuple:
    """Merge the terms of ``spec`` by the bits they flip.

    A term with masks (x, y, z) and coefficient c maps basis state b to
    b ^ (x|y) with weight c * i**popcount(y) * (-1)**popcount(b & (y|z)).
    Terms sharing the flip mask x|y (X_n and Z_{n-1} X_n Z_{n+1}; XX and
    YY) form one group whose weights add.  A group's weights depend only
    on the bits of its signed sites, so they are kept as an array with 2
    on those sites' axes and 1 elsewhere, which broadcasts against the
    state reshaped to (2,)*N (site s on axis N - s).  They are float64
    unless a term carries an odd number of Y letters.

    Returns (flip_mask, flip_axes, weights) triples sorted by flip mask.
    """
    n = spec.n_sites
    # (-1)**b_s for each site s, shaped to vary along that site's axis only
    signs = [1.0 - 2.0 * b for b in reversed(np.indices((2,) * n, sparse=True))]
    weights: dict = {}
    for term in spec.terms:
        x, y, z = term.masks()
        w = np.full((1,) * n, term.coefficient * (1, 1j, -1, -1j)[y.bit_count() % 4])
        for site in _sites(y | z):
            w = w * signs[site - 1]
        weights[x | y] = weights.get(x | y, 0.0) + w
    return tuple((flip, tuple(n - s for s in _sites(flip)), w)
                 for flip, w in sorted(weights.items()))


def require_dense(n_sites: int) -> None:
    """Raise SizeError when a chain of ``n_sites`` is above ``DENSE_CAP``."""
    if n_sites > DENSE_CAP:
        raise SizeError(f"N={n_sites} exceeds the dense cap {DENSE_CAP}")


def _entries(spec: HamiltonianSpec) -> tuple:
    """(src, dst, values): every nonzero <dst|H|src>, scattered from the flip groups.

    values are float64 when every group is real, complex otherwise.
    """
    n = spec.n_sites
    dim = 1 << n
    src, dst, values = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for flip, _, weights in spec.flip_groups:
        w = np.broadcast_to(weights, (2,) * n).reshape(dim)
        nonzero = w.nonzero()[0]
        src.append(nonzero)
        dst.append(nonzero ^ flip)
        values.append(w[nonzero])
    return np.concatenate(src), np.concatenate(dst), np.concatenate(values)


def sector_blocks(spec: HamiltonianSpec) -> tuple:
    """The connected blocks of H in the computational basis, and H on each.

    Basis states b and b ^ flip are linked wherever a flip group's weight
    at b is nonzero; each state's label falls to the smallest index it is
    linked to, with pointer jumping, until no label changes.  Both chains
    split into conserved sectors this way (wall count for the cluster
    chain, excitation number for the exchange chain) without a 2^N x 2^N
    pattern.  Raises SizeError above ``DENSE_CAP``.

    Returns (blocks, where, matrices).  ``blocks`` holds one (k, s) index
    array per block size s, ascending in s; each row is one block, its
    indices ascending, and rows are ordered by their smallest index.
    ``where`` is (3, 2^N): for each basis index, which array of
    ``blocks`` holds it, the row there and the position in that row.
    ``matrices[c][r]`` is H on row r of ``blocks[c]``, scattered from the
    flip groups; float64 when every group is real, complex otherwise.
    """
    n = spec.n_sites
    require_dense(n)
    src, dst, values = _entries(spec)
    linked = src != dst
    idx = np.arange(1 << n)
    labels = idx
    while True:
        new = labels.copy()
        np.minimum.at(new, src[linked], labels[dst[linked]])
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    # every block shares its smallest index as label; sort by block size,
    # then by label, keeping each block's indices ascending
    size_of = np.bincount(labels)[labels]
    members = np.argsort(size_of * idx.size + labels, kind="stable")
    blocks, lo = [], 0
    where = np.empty((3, idx.size), dtype=np.intp)
    for c, s in enumerate(sorted(set(size_of.tolist()))):
        group = members[lo:lo + int((size_of == s).sum())].reshape(-1, s)
        lo += group.size
        blocks.append(group)
        where[0, group] = c
        where[1, group] = np.arange(len(group))[:, None]
        where[2, group] = np.arange(s)
    size_class = where[0, src]
    matrices = []
    for c, group in enumerate(blocks):
        mats = np.zeros(group.shape + group.shape[1:], dtype=values.dtype)
        mine = size_class == c
        col, row = src[mine], dst[mine]
        mats[where[1, col], where[2, row], where[2, col]] = values[mine]
        matrices.append(mats)
    return tuple(blocks), where, matrices


def max_commutator(a: HamiltonianSpec, b: HamiltonianSpec) -> float:
    """Largest |entry| of [A, B], from the two specs' flip groups.

    Group f of A after group g of B sends b to b ^ f ^ g with weight
    w_f(b ^ g) * w_g(b): f's weights flipped along g's axes, times g's.
    Terms with one combined flip f ^ g add up on the (2,)*N grid."""
    total: dict = {}
    for f, f_axes, wf in a.flip_groups:
        for g, g_axes, wg in b.flip_groups:
            term = np.flip(wf, g_axes) * wg - np.flip(wg, f_axes) * wf
            total[f ^ g] = total.get(f ^ g, 0.0) + term
    return max((float(np.max(np.abs(t))) for t in total.values()), default=0.0)


def max_permuted_deviation(a: HamiltonianSpec, b: HamiltonianSpec, perm) -> float:
    """max |A[perm][:, perm] - B| from the two specs' nonzero entries.  Entry
    <d|A|s> lands at (inv[d], inv[s]), inv the inverse permutation; where
    both specs have an entry it holds a - b, as the dense difference does."""
    inv = np.argsort(perm)
    src_a, dst_a, values_a = _entries(a)
    src_b, dst_b, values_b = _entries(b)
    keys = np.concatenate([inv[dst_a] * a.dim + inv[src_a], dst_b * b.dim + src_b])
    unique, position = np.unique(keys, return_inverse=True)
    diff = np.zeros(unique.size, dtype=np.result_type(values_a, values_b))
    np.add.at(diff, position, np.concatenate([values_a, -values_b]))
    return float(np.max(np.abs(diff), initial=0.0))


def apply_spec(spec: HamiltonianSpec, psi: StateVector) -> StateVector:
    """Matrix-free H|psi>; result is generally unnormalized.

    Each flip group multiplies the state by its weights and reverses the
    flipped axes, so cost is O(groups * 2^N) with no matrix built.
    """
    if spec.n_sites != psi.n_sites:
        raise DimensionMismatchError(
            f"operator on {spec.n_sites} sites applied to state on {psi.n_sites}"
        )
    amps = psi.amplitudes.reshape((2,) * psi.n_sites)
    out = np.zeros_like(amps)
    for _, axes, weights in spec.flip_groups:
        out += np.flip(weights * amps, axes)
    return StateVector(psi.n_sites, out.reshape(-1))


def expectation(spec: HamiltonianSpec, psi: StateVector) -> float:
    """<psi|H|psi> as a real number; trips an assertion if it is not."""
    value = psi.overlap(apply_spec(spec, psi))
    if abs(value.imag) >= IMAG_TOL:
        raise SpinChainError(
            f"expectation value has imaginary part {value.imag:.3e}"
        )
    return value.real
