"""Desk-scale simulation of time-average estimators for spectral quantities.

Evolve a random state under a Hermitian generator, bin its energy content
on a phase register, weight the bins, and time-average: the plateau is the
diagonal ensemble, which for thermalizing observables matches trace
averages and yields inverse expectations and log-det gradients. Everything
runs on dense matrices next to exact oracles so every estimate is checked.
"""

from .core import (
    DenseOperator,
    PauliTerm,
    StateVector,
    all_ones_delta,
    basis_state,
    commutator_norm,
    derivative_mask,
    from_pauli_terms,
    identity_operator,
    operator_from_matrix,
    projector_from_state,
    qft_matrix,
    random_state,
    uniform_superposition,
)
from .config import ExperimentConfig, from_dict, load_config, to_keyvalue_text
from .errors import ConfigError, DomainError, SimulationError, SingularityError
from .estimators import (
    CostCounters,
    EthConfig,
    EthEstimate,
    InitialState,
    NormalizedEstimate,
    ThermalizationVerdict,
    batch_means_standard_error,
    estimate_inverse_expectation,
    estimate_logdet_gradient,
    inverse_expectation_result,
    logdet_gradient_result,
    run_operator_form,
    run_vector_form,
    swap_test_estimate,
    thermalization_diagnostics,
)
from .evolution import (
    EvolutionConfig,
    evolution_series,
    evolve_exact,
    evolve_trotter,
)
from .phase_estimation import (
    PhaseCollisionWarning,
    QpeConfig,
    WeightedJointState,
    apply_upsilon,
    energy_table,
    phase_map,
    qpe_disentangle,
    qpe_entangle,
    register_indices,
    register_residual,
    reweighted_delta,
    system_slice,
)
from .presets import PRESET_NAMES, build_preset
from .reporting import RunReport, compare_summaries
from .runner import ExecutionResult, execute_experiment
from .spectral import (
    Spectrum,
    diagonal_ensemble,
    eigendecompose,
    logdet_gradient_oracle,
    matrix_function,
    trace_weighted,
)
from .weights import WeightSpec, singularity_window

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CostCounters",
    "DenseOperator",
    "DomainError",
    "EthConfig",
    "EthEstimate",
    "EvolutionConfig",
    "ExecutionResult",
    "ExperimentConfig",
    "InitialState",
    "NormalizedEstimate",
    "PauliTerm",
    "PhaseCollisionWarning",
    "PRESET_NAMES",
    "QpeConfig",
    "RunReport",
    "SimulationError",
    "SingularityError",
    "Spectrum",
    "StateVector",
    "ThermalizationVerdict",
    "WeightSpec",
    "WeightedJointState",
    "all_ones_delta",
    "apply_upsilon",
    "basis_state",
    "batch_means_standard_error",
    "build_preset",
    "commutator_norm",
    "compare_summaries",
    "derivative_mask",
    "diagonal_ensemble",
    "eigendecompose",
    "energy_table",
    "estimate_inverse_expectation",
    "estimate_logdet_gradient",
    "evolution_series",
    "evolve_exact",
    "evolve_trotter",
    "execute_experiment",
    "from_dict",
    "from_pauli_terms",
    "identity_operator",
    "inverse_expectation_result",
    "load_config",
    "logdet_gradient_oracle",
    "logdet_gradient_result",
    "matrix_function",
    "operator_from_matrix",
    "phase_map",
    "projector_from_state",
    "qft_matrix",
    "qpe_disentangle",
    "qpe_entangle",
    "random_state",
    "register_indices",
    "register_residual",
    "reweighted_delta",
    "run_operator_form",
    "run_vector_form",
    "singularity_window",
    "swap_test_estimate",
    "system_slice",
    "thermalization_diagnostics",
    "to_keyvalue_text",
    "trace_weighted",
    "uniform_superposition",
    "__version__",
]
