"""Tests for maximally entangled states under locality restrictions.

Construction of the optimal acceptance operators, exact error probabilities,
Monte-Carlo twirl verification, and measurement-protocol simulation.
"""

__version__ = "0.1.0"

from . import classical, multisource, protocols, quantum, qubit_pair  # noqa: F401
from .states import (
    DensityMatrix,
    Ket,
    Operator,
    RankOnePOVM,
    TestOperator,
    bell_basis,
    fidelity_defect,
    generalized_pauli,
    isotropic_state,
    max_entangled_ket,
    partial_trace,
    permute_systems,
    random_density,
    random_ket,
    random_rank_one_povm,
    random_test,
    tensor,
)
from .twirl import (
    GroupAction,
    TwirlEstimate,
    doubled_twirl,
    haar_unitary,
    mc_twirl,
    orthocomplement_unitary,
    pair_conjugate_unitary,
    phase_twirl,
    phase_unitary,
)

__all__ = [
    "DensityMatrix",
    "GroupAction",
    "Ket",
    "Operator",
    "RankOnePOVM",
    "TestOperator",
    "TwirlEstimate",
    "bell_basis",
    "doubled_twirl",
    "fidelity_defect",
    "generalized_pauli",
    "haar_unitary",
    "isotropic_state",
    "max_entangled_ket",
    "mc_twirl",
    "orthocomplement_unitary",
    "pair_conjugate_unitary",
    "partial_trace",
    "permute_systems",
    "phase_twirl",
    "phase_unitary",
    "random_density",
    "random_ket",
    "random_rank_one_povm",
    "random_test",
    "tensor",
]
