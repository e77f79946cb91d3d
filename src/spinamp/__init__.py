"""Spin-chain signal amplification: dynamics engine and differential tests.

Subpackages:

* ``algebra``    -- Pauli-string Hamiltonians, basis configurations, and
  one compiled operator kernel behind H's blocks and the entry-wise checks
* ``chains``     -- builders for the exchange and amplification chains, stars
* ``maps``       -- CNOT-ladder basis maps, symbolic conjugation, mirror map
* ``evolution``  -- the two chains' free-fermion propagator, e^{-iHt} on
  the blocks of H, transfer fidelities, scans, the amplification check
* ``automaton``  -- the classical cellular automaton and its comparison table
* ``noise``      -- seeded Monte Carlo dephasing comparison
* ``cli``        -- command-line experiments with reproducible file output
"""

__version__ = "0.1.0"

from .algebra import (
    BitConfig,
    HamiltonianSpec,
    PauliTerm,
)
from .chains import CouplingProfile, StarLayout, cluster_chain, exchange_chain
from .evolution import PST_TIME, Propagator, amplification_check, transfer_fidelity
from .maps import conjugate_hamiltonian, mirror_map

__all__ = [
    "__version__",
    "BitConfig",
    "HamiltonianSpec",
    "PauliTerm",
    "CouplingProfile",
    "StarLayout",
    "cluster_chain",
    "exchange_chain",
    "PST_TIME",
    "Propagator",
    "amplification_check",
    "transfer_fidelity",
    "conjugate_hamiltonian",
    "mirror_map",
]
