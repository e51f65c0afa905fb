"""phasekit: phase-difference operator dynamics for two-site quantum systems.

Builds hermitian (raw) and unitary (vacuum-completed) cosine/sine
phase-difference operators for a fixed-N boson dimer and for a pair of
two-component fermions on four modes, propagates states exactly or with a
fixed-step RK4 integrator, and emits reproducible CSV datasets for averages,
fluctuations, and number-squeezing measures.
"""

from .errors import ConfigError, NumericalError, PhasekitError, StepSizeError
from .evolve import (
    Trajectory,
    boson_free_amplitudes,
    boson_pair_closed_form,
    eigen_propagate,
    fermion_pair_closed_form,
    rk4_propagate,
)
from .fock import boson_basis, fock_state
from .hamiltonians import (
    boson_dimer_hamiltonian,
    fermion_pair_embedding,
    fermion_pair_hamiltonian,
)
from .observe import (
    TimeSeries,
    embedded_fermion_states,
    expectation_series,
    xi_fermion_closed_form,
)
from .operators import (
    anticommutator,
    boson_cn_phase,
    boson_number_diff,
    boson_unitary_phase,
    boson_vacuum_phase,
    commutator,
    fermion_cn_phase,
    fermion_ladder,
    fermion_number_diff,
    fermion_number_op,
    fermion_unitary_phase,
    fermion_vacuum_coupling,
    half_filled_projector,
    unitarity_deficiency,
    well_number_diff,
)
from .presets import PRESET_NAMES, preset_entries, run_figure
from .scenario import (
    ScenarioConfig,
    parse_config,
    run,
    run_scenario,
    serialize_config,
    write_csv,
)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericalError",
    "PhasekitError",
    "PRESET_NAMES",
    "ScenarioConfig",
    "StepSizeError",
    "TimeSeries",
    "Trajectory",
    "VerificationReport",
    "anticommutator",
    "boson_basis",
    "boson_cn_phase",
    "boson_dimer_hamiltonian",
    "boson_free_amplitudes",
    "boson_number_diff",
    "boson_pair_closed_form",
    "boson_unitary_phase",
    "boson_vacuum_phase",
    "commutator",
    "eigen_propagate",
    "embedded_fermion_states",
    "expectation_series",
    "fermion_cn_phase",
    "fermion_ladder",
    "fermion_number_diff",
    "fermion_number_op",
    "fermion_pair_closed_form",
    "fermion_pair_embedding",
    "fermion_pair_hamiltonian",
    "fermion_unitary_phase",
    "fermion_vacuum_coupling",
    "fock_state",
    "half_filled_projector",
    "parse_config",
    "preset_entries",
    "rk4_propagate",
    "run",
    "run_figure",
    "run_scenario",
    "run_verification",
    "serialize_config",
    "unitarity_deficiency",
    "well_number_diff",
    "write_csv",
    "xi_fermion_closed_form",
    "__version__",
]
