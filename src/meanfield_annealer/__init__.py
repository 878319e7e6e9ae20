"""Mean-field solver suite for two-cluster quantum annealing models.

Dense model: classical ground states as two angles on the xz torus
(every minimum has m_y = 0) and harmonic excitation gaps.  Sparse model:
exact decoupling through a two-spin effective Hamiltonian iterated to
self-consistency.  Hysteresis continuation and first-order transition
detection take either model.  Both are validated against an independent
finite-size exact-diagonalization oracle.
"""

__version__ = "0.1.0"

from .classical import ClassicalState, global_minimize, minimize, start_set
from .ed import (EDOperator, EDResult, build_dense_full_operator,
                 build_dense_sector_operator, build_sparse_full_hamiltonian,
                 dense_ed, ed_solve, extrapolate_gap, gap_sequence, sparse_ed)
from .errors import (CatalystRangeError, ConfigError, ConvergenceError,
                     DegenerateModeError, InstabilityError, SizeError,
                     StationarityError)
from .model import (Coupling, MagPair, ModelSpec, conjugate_fields, coupling_matrix,
                    dense_energy_density, dense_gradient, dense_hessian,
                    sparse_mean_field_density, sparse_mean_field_gradient)
from .saddle import (SaddleSolution, build_effective_hamiltonian, global_saddle,
                     ground_block, solve_saddle)
from .spinwave import (GapPoint, GapSpectrum, excitation_gaps, fluctuation_matrix,
                       gap_profile, gaps_at, min_gap, optimize_catalyst)
from .transitions import TransitionReport, detect_transition, sweep

__all__ = [
    "__version__",
    "ClassicalState", "Coupling", "EDOperator",
    "EDResult", "GapPoint", "GapSpectrum", "MagPair", "ModelSpec",
    "SaddleSolution", "TransitionReport",
    "CatalystRangeError", "ConfigError", "ConvergenceError",
    "DegenerateModeError", "InstabilityError", "SizeError", "StationarityError",
    "build_dense_full_operator", "build_dense_sector_operator",
    "build_effective_hamiltonian", "build_sparse_full_hamiltonian",
    "conjugate_fields", "coupling_matrix",
    "dense_ed", "dense_energy_density", "dense_gradient", "dense_hessian",
    "detect_transition", "ed_solve",
    "excitation_gaps", "extrapolate_gap", "fluctuation_matrix",
    "gap_profile", "gap_sequence", "gaps_at",
    "global_minimize", "global_saddle", "ground_block",
    "min_gap", "minimize", "optimize_catalyst", "solve_saddle",
    "sparse_ed", "sparse_mean_field_density", "sparse_mean_field_gradient",
    "start_set", "sweep",
]
