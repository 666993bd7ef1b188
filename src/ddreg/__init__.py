"""Data-driven output regulation toolkit for discrete-time MIMO linear plants.

Designs output-regulating feedback controllers for unknown plants from
input-output data corrupted by an unknown exosignal, and verifies every
design against a ground-truth oracle.
"""

from .exo_factorization import (
    Regressor,
    analyze_exosystem,
    build_M_jordan,
    build_M_krylov,
    reduce_to_full_row_rank,
)
from .experiment import (
    DataMatrices,
    ExperimentRecord,
    NormalInputPolicy,
    assemble_data_matrices,
    collect_experiment,
)
from .internal_model import InternalModel, build_internal_model
from .plant import (
    ExoMatrix,
    JordanSpec,
    PlantTruth,
    StructuralMatrices,
    build_structural_matrices,
    observability_index,
)
from .synthesis import (
    SdpProblem,
    SynthesisResult,
    assemble_sdp,
    extract_gain,
    feasibility_precheck,
    solve_feasibility_sdp,
)
from .verify import (
    AuxiliaryMatrices,
    ClosedLoopModel,
    assemble_closed_loop,
    build_auxiliary_matrices,
    check_claim1,
    check_data_identity,
    check_internal_stability,
    check_regulator_equations,
    check_representation_equivalence,
    check_solution_correspondence,
    oracle_factorization_residual,
    simulate_closed_loop,
)

__version__ = "0.1.0"

__all__ = [
    "JordanSpec",
    "Regressor",
    "analyze_exosystem",
    "build_M_jordan",
    "build_M_krylov",
    "reduce_to_full_row_rank",
    "DataMatrices",
    "ExperimentRecord",
    "NormalInputPolicy",
    "assemble_data_matrices",
    "collect_experiment",
    "InternalModel",
    "build_internal_model",
    "ExoMatrix",
    "PlantTruth",
    "StructuralMatrices",
    "build_structural_matrices",
    "observability_index",
    "SdpProblem",
    "SynthesisResult",
    "assemble_sdp",
    "extract_gain",
    "feasibility_precheck",
    "solve_feasibility_sdp",
    "AuxiliaryMatrices",
    "ClosedLoopModel",
    "assemble_closed_loop",
    "build_auxiliary_matrices",
    "check_claim1",
    "check_data_identity",
    "check_internal_stability",
    "check_regulator_equations",
    "check_representation_equivalence",
    "check_solution_correspondence",
    "oracle_factorization_residual",
    "simulate_closed_loop",
]
