"""Builders for the Hamiltonian families used throughout the package.

Two chains share one tridiagonal skeleton:

* the exchange chain  (1/2) sum_n J_n (X_n X_{n+1} + Y_n Y_{n+1}),
  which hops single excitations with amplitude J_n, and
* the cluster-like amplification chain, a sum of three-body flip terms
  that grows/shrinks domains of 1s with the same amplitudes.

Coupling profiles carry the J_n and the local fields B_n (zeros when
omitted); a zero J_n or B_n adds no term, so a zero coupling cuts the
chain in two.  The "engineered" profile J_n = sqrt(n*(N-n)) makes both
chains transfer perfectly at t = pi/2; the "uniform" profile sets every
J_n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import HamiltonianSpec, PauliTerm, SizeError

__all__ = [
    "CouplingProfile",
    "StarLayout",
    "exchange_chain",
    "cluster_chain",
    "cluster_field_terms",
    "spike_hamiltonians",
]


@dataclass(frozen=True)
class CouplingProfile:
    """J_1..J_{N-1} couplings and local fields B_1..B_N, all finite; omitted
    (None or empty) fields are N zeros."""

    n_sites: int
    couplings: tuple
    fields: tuple = ()

    def __post_init__(self):
        if self.n_sites < 2:
            raise SizeError(f"chain needs at least 2 sites, got {self.n_sites}")
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        object.__setattr__(self, "fields",
                           tuple(float(b) for b in self.fields or (0.0,) * self.n_sites))
        if len(self.couplings) != self.n_sites - 1:
            raise ValueError(
                f"need {self.n_sites - 1} couplings for {self.n_sites} sites, "
                f"got {len(self.couplings)}"
            )
        if len(self.fields) != self.n_sites:
            raise ValueError(
                f"need {self.n_sites} fields, got {len(self.fields)}"
            )
        if not all(map(math.isfinite, self.couplings + self.fields)):
            raise ValueError("couplings and fields must be finite")

    @classmethod
    def uniform(cls, n_sites: int, fields: Sequence[float] = ()) -> "CouplingProfile":
        return cls(n_sites, (1.0,) * (n_sites - 1), fields)

    @classmethod
    def engineered(cls, n_sites: int, fields: Sequence[float] = ()) -> "CouplingProfile":
        """Perfect-transfer couplings J_n = sqrt(n*(N-n))."""
        js = tuple(math.sqrt(n * (n_sites - n)) for n in range(1, n_sites))
        return cls(n_sites, js, fields)


@dataclass(frozen=True)
class StarLayout:
    """R radial chains ("spikes") of length L sharing site 1 as the center."""

    spikes: int
    spike_length: int
    profile: CouplingProfile

    def __post_init__(self):
        if self.spikes < 1:
            raise ValueError("need at least one spike")
        if self.profile.n_sites != self.spike_length:
            raise ValueError("profile length must match spike length")

    @property
    def total_sites(self) -> int:
        return self.spikes * (self.spike_length - 1) + 1

    def global_site(self, spike: int, local_site: int) -> int:
        """Map (spike 1..R, local site 1..L) to a site on the star."""
        if local_site == 1:
            return 1
        return 1 + (spike - 1) * (self.spike_length - 1) + (local_site - 1)


def exchange_chain(profile: CouplingProfile) -> HamiltonianSpec:
    """(1/2) sum_n J_n (X_n X_{n+1} + Y_n Y_{n+1})  [+ sum_n B_n Z_n]."""
    n = profile.n_sites
    terms = []
    for i, j in enumerate(profile.couplings, start=1):
        if 0.5 * j != 0.0:      # a zero coupling cuts the chain
            terms.append(PauliTerm(0.5 * j, {i: "X", i + 1: "X"}))
            terms.append(PauliTerm(0.5 * j, {i: "Y", i + 1: "Y"}))
    for i, b in enumerate(profile.fields, start=1):
        if b != 0.0:
            terms.append(PauliTerm(b, {i: "Z"}))
    return HamiltonianSpec(n, tuple(terms))


def _cluster_terms(profile: CouplingProfile, relabel=None) -> list:
    """Three-body amplification terms, optionally relabeled onto a star."""
    n = profile.n_sites
    sites = relabel or (lambda s: s)
    terms = []
    for site in range(2, n + 1):
        half = 0.5 * profile.couplings[site - 2]
        if half == 0.0:
            continue
        terms.append(PauliTerm(half, {sites(site): "X"}))
        # no Z to the right at the end of the chain: site N flips when site N-1 is up
        right = {sites(site + 1): "Z"} if site < n else {}
        terms.append(PauliTerm(-half, {sites(site - 1): "Z", sites(site): "X", **right}))
    return terms


def cluster_chain(profile: CouplingProfile) -> HamiltonianSpec:
    """The amplification chain: sum over sites of J * (flip-if-walls) terms.

    Interior site n contributes J_{n-1}/2 * (X_n - Z_{n-1} X_n Z_{n+1});
    the last site contributes J_{N-1}/2 * (X_N - Z_{N-1} X_N), so it flips
    whenever its left neighbour is up.  If the profile carries nonzero
    fields, the equivalent Z Z / boundary-Z fragment is included too.
    """
    n = profile.n_sites
    spec = HamiltonianSpec(n, tuple(_cluster_terms(profile)))
    if any(profile.fields):
        spec = spec + cluster_field_terms(n, profile.fields)
    return spec


def cluster_field_terms(n_sites: int, fields: Sequence[float]) -> HamiltonianSpec:
    """Image of the exchange-model fields sum_n B_n Z_n on the cluster side.

    Interior fields become B_n Z_n Z_{n+1}; the last one stays B_N Z_N
    (site N has no right neighbour to pick up under the basis change).
    With every B_n = 1 this is the domain-wall count, which the cluster
    chain conserves.
    """
    if len(fields) != n_sites:
        raise ValueError(f"need {n_sites} field values, got {len(fields)}")
    terms = [PauliTerm(b, {i: "Z", i + 1: "Z"} if i < n_sites else {i: "Z"})
             for i, b in enumerate(fields, start=1) if b != 0.0]
    return HamiltonianSpec(n_sites, tuple(terms))


def spike_hamiltonians(layout: StarLayout) -> list:
    """One cluster-chain spec per spike, each on the full star site set."""
    if any(layout.profile.fields):
        raise ValueError("fields on star spikes are not supported")
    return [HamiltonianSpec(layout.total_sites, tuple(_cluster_terms(
                layout.profile, lambda s, k=k: layout.global_site(k, s))))
            for k in range(1, layout.spikes + 1)]
