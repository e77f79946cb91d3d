"""Builders for the Hamiltonian families used throughout the package.

Two chains share one tridiagonal skeleton:

* the exchange chain  (1/2) sum_n J_n (X_n X_{n+1} + Y_n Y_{n+1}),
  which hops single excitations with amplitude J_n, and
* the cluster-like amplification chain, a sum of three-body flip terms
  that grows/shrinks domains of 1s with the same amplitudes.

Coupling profiles carry the J_n (and optional local fields B_n).  The
"engineered" profile J_n = sqrt(n*(N-n)) makes both chains transfer
perfectly at t = pi/2; the "uniform" profile sets every J_n = 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import HamiltonianSpec, PauliTerm, SizeError

__all__ = [
    "CouplingProfile",
    "StarLayout",
    "exchange_chain",
    "cluster_chain",
    "cluster_field_terms",
    "field_difference",
    "star_hamiltonian",
    "spike_hamiltonians",
    "conserved_wall_operator",
]


@dataclass(frozen=True)
class CouplingProfile:
    """J_1..J_{N-1} couplings plus optional local fields B_1..B_N."""

    n_sites: int
    couplings: tuple
    fields: Optional[tuple] = None
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        if self.fields is not None:
            object.__setattr__(self, "fields", tuple(float(b) for b in self.fields))
        if len(self.couplings) != self.n_sites - 1:
            raise ValueError(
                f"need {self.n_sites - 1} couplings for {self.n_sites} sites, "
                f"got {len(self.couplings)}"
            )
        if self.fields is not None and len(self.fields) != self.n_sites:
            raise ValueError(
                f"need {self.n_sites} fields, got {len(self.fields)}"
            )

    @classmethod
    def uniform(cls, n_sites: int, fields: Optional[Sequence[float]] = None) -> "CouplingProfile":
        return cls(n_sites, (1.0,) * (n_sites - 1),
                   None if fields is None else tuple(fields), kind="uniform")

    @classmethod
    def engineered(cls, n_sites: int, fields: Optional[Sequence[float]] = None) -> "CouplingProfile":
        """Perfect-transfer couplings J_n = sqrt(n*(N-n))."""
        js = tuple(math.sqrt(n * (n_sites - n)) for n in range(1, n_sites))
        return cls(n_sites, js, None if fields is None else tuple(fields),
                   kind="engineered")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sites": self.n_sites,
                "couplings": list(self.couplings),
                "fields": None if self.fields is None else list(self.fields),
                "kind": self.kind,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "CouplingProfile":
        doc = json.loads(text)
        return cls(
            doc["n_sites"],
            tuple(doc["couplings"]),
            None if doc.get("fields") is None else tuple(doc["fields"]),
            doc.get("kind", "custom"),
        )


@dataclass(frozen=True)
class StarLayout:
    """R radial chains ("spikes") of length L sharing site 1 as the center."""

    spikes: int
    spike_length: int
    profile: CouplingProfile

    def __post_init__(self):
        if self.spikes < 1:
            raise ValueError("need at least one spike")
        if self.spike_length < 2:
            raise SizeError("spikes must have length >= 2")
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


def _require_chain(n_sites: int) -> None:
    if n_sites < 2:
        raise SizeError(f"chain needs at least 2 sites, got {n_sites}")


def exchange_chain(profile: CouplingProfile) -> HamiltonianSpec:
    """(1/2) sum_n J_n (X_n X_{n+1} + Y_n Y_{n+1})  [+ sum_n B_n Z_n]."""
    n = profile.n_sites
    _require_chain(n)
    terms = []
    for i, j in enumerate(profile.couplings, start=1):
        terms.append(PauliTerm(0.5 * j, {i: "X", i + 1: "X"}))
        terms.append(PauliTerm(0.5 * j, {i: "Y", i + 1: "Y"}))
    if profile.fields is not None:
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
        j = profile.couplings[site - 2]
        half = 0.5 * j
        terms.append(PauliTerm(half, {sites(site): "X"}))
        if site < n:
            terms.append(
                PauliTerm(-half, {sites(site - 1): "Z", sites(site): "X", sites(site + 1): "Z"})
            )
        else:
            # end of chain: flip site N only when site N-1 is up
            terms.append(PauliTerm(-half, {sites(site - 1): "Z", sites(site): "X"}))
    return terms


def cluster_chain(profile: CouplingProfile) -> HamiltonianSpec:
    """The amplification chain: sum over sites of J * (flip-if-walls) terms.

    Interior site n contributes J_{n-1}/2 * (X_n - Z_{n-1} X_n Z_{n+1});
    the last site contributes J_{N-1}/2 * (X_N - Z_{N-1} X_N), so it flips
    whenever its left neighbour is up.  If the profile carries fields, the
    equivalent Z Z / boundary-Z fragment is included too.
    """
    n = profile.n_sites
    _require_chain(n)
    spec = HamiltonianSpec(n, tuple(_cluster_terms(profile)))
    if profile.fields is not None:
        spec = spec + cluster_field_terms(n, profile.fields)
    return spec


def cluster_field_terms(n_sites: int, fields: Sequence[float]) -> HamiltonianSpec:
    """Image of the exchange-model fields sum_n B_n Z_n on the cluster side.

    Interior fields become B_n Z_n Z_{n+1}; the last one stays B_N Z_N
    (site N has no right neighbour to pick up under the basis change).
    """
    if len(fields) != n_sites:
        raise ValueError(f"need {n_sites} field values, got {len(fields)}")
    terms = [PauliTerm(b, {i: "Z", i + 1: "Z"} if i < n_sites else {i: "Z"})
             for i, b in enumerate(fields, start=1) if b != 0.0]
    return HamiltonianSpec(n_sites, tuple(terms))


def field_difference(fields: Sequence[float]) -> tuple:
    """Alternative local-field profile B'_n = B_{n-1} - B_n (B_0 = 0)."""
    fields = [float(b) for b in fields]
    return tuple(prev - b for prev, b in zip([0.0] + fields, fields))


def spike_hamiltonians(layout: StarLayout) -> list:
    """One cluster-chain spec per spike, each on the full star site set."""
    if layout.profile.fields is not None:
        raise ValueError("fields on star spikes are not supported")
    return [HamiltonianSpec(layout.total_sites, tuple(_cluster_terms(
                layout.profile, lambda s, k=k: layout.global_site(k, s))))
            for k in range(1, layout.spikes + 1)]


def star_hamiltonian(layout: StarLayout) -> HamiltonianSpec:
    """Union of the spike Hamiltonians; only Z touches the shared center."""
    return sum(spike_hamiltonians(layout), HamiltonianSpec(layout.total_sites))


def conserved_wall_operator(n_sites: int) -> HamiltonianSpec:
    """Domain-wall counter sum_n Z_n Z_{n+1} + Z_N; commutes with the cluster chain."""
    terms = [PauliTerm(1.0, {i: "Z", i + 1: "Z"}) for i in range(1, n_sites)]
    terms.append(PauliTerm(1.0, {n_sites: "Z"}))
    return HamiltonianSpec(n_sites, tuple(terms))
