"""Spin-chain signal amplification: dynamics engine and differential tests.

Subpackages:

* ``algebra``    -- Pauli-string Hamiltonians, states, and one compiled
  operator kernel behind the matrix-free action, H's blocks and the
  entry-wise checks
* ``chains``     -- builders for the exchange and amplification chains, stars
* ``maps``       -- CNOT-ladder basis maps, symbolic conjugation, mirror map
* ``evolution``  -- propagators, transfer fidelities, scans, phase probes
* ``automaton``  -- the classical cellular automaton and its comparison table
* ``noise``      -- seeded Monte Carlo dephasing comparison
* ``cli``        -- command-line experiments with reproducible file output
"""

__version__ = "0.1.0"

from .algebra import (
    BitConfig,
    HamiltonianSpec,
    PauliTerm,
    StateVector,
    apply_spec,
    expectation,
)
from .chains import CouplingProfile, StarLayout, cluster_chain, exchange_chain, star_hamiltonian
from .evolution import Propagator, amplification_check, pst_time, transfer_fidelity
from .maps import conjugate_hamiltonian, gamma_forward, gamma_inverse, mirror_map, tilde_config

__all__ = [
    "__version__",
    "BitConfig",
    "HamiltonianSpec",
    "PauliTerm",
    "StateVector",
    "apply_spec",
    "expectation",
    "CouplingProfile",
    "StarLayout",
    "cluster_chain",
    "exchange_chain",
    "star_hamiltonian",
    "Propagator",
    "amplification_check",
    "pst_time",
    "transfer_fidelity",
    "conjugate_hamiltonian",
    "gamma_forward",
    "gamma_inverse",
    "mirror_map",
    "tilde_config",
]
