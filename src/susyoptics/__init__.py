"""Partner-potential quantum dynamics and their linear-optics realization.

Layers, bottom up: grids (FFT position/momentum substrate), susy (the
superpotential algebra and spectra), evolution (split-step propagation and
the diagonalization oracle), optics (SI-unit Fresnel bench, plate trains,
the two-arm raising interferometer), experiments/cli (gated scenario
runners and the CSV front end).
"""

from ._version import __version__
from .config import ExperimentConfig, config_hash, parse_config, serialize_config
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateStateError,
    NumericalError,
    ParaxialWarning,
    SamplingError,
    SimulationError,
)
from .evolution import (
    ConvergenceScan,
    EigenBasis,
    EvolutionTrace,
    TrotterPlan,
    eigenbasis,
    exact_evolve,
    fit_loglog_slope,
    kinetic_step,
    trotter_convergence_scan,
    trotter_evolve,
    trotter_states,
)
from .experiments import (
    GatedScalar,
    ScenarioResult,
    Table,
    emit_csv,
    run_all,
    run_bdag_validation,
    run_eta_sweep,
    run_spectrum,
    run_susy_check,
    run_trotter_convergence,
)
from .grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    WaveFunction,
    fidelity,
    gaussian_packet,
    inner,
    make_grid,
    make_random_states,
    norm,
    normalized,
    sample,
    spectral_derivative,
    to_momentum,
    to_position,
)
from .optics import (
    AmplitudeModulator,
    CalibratedInterferometer,
    FreeSpace,
    InterferometerSpec,
    OpticalTrain,
    ParityFlip,
    PhasePlate,
    PhysicalUnits,
    ThinLens,
    alpha_passivity_bound,
    calibrate_interferometer,
    compile_trotter_train,
    interferometric_B_dag,
    map_distance_to_time,
    map_time_to_distance,
    simulate_train,
    spot_size,
)
from .susy import (
    DegeneracyReport,
    PotentialField,
    SpectrumResult,
    Superpotential,
    apply_B,
    apply_B_dag,
    bound_spectrum,
    check_degeneracy,
    dense_hamiltonian,
    eta_potential,
    partner_potential,
    zero_mode,
)

__all__ = [
    "__version__",
    "ExperimentConfig", "config_hash", "parse_config", "serialize_config",
    "ConfigurationError", "ContractError", "DegenerateStateError",
    "NumericalError", "ParaxialWarning", "SamplingError",
    "SimulationError",
    "ConvergenceScan", "EigenBasis", "EvolutionTrace", "TrotterPlan",
    "eigenbasis", "exact_evolve", "fit_loglog_slope", "kinetic_step",
    "trotter_convergence_scan", "trotter_evolve", "trotter_states",
    "GatedScalar", "ScenarioResult", "Table", "emit_csv", "run_all",
    "run_bdag_validation", "run_eta_sweep", "run_spectrum",
    "run_susy_check", "run_trotter_convergence",
    "MOMENTUM", "POSITION", "Grid1D", "WaveFunction", "fidelity",
    "gaussian_packet", "inner", "make_grid", "make_random_states", "norm",
    "normalized", "sample", "spectral_derivative", "to_momentum",
    "to_position",
    "AmplitudeModulator", "CalibratedInterferometer", "FreeSpace",
    "InterferometerSpec", "OpticalTrain", "ParityFlip", "PhasePlate",
    "PhysicalUnits", "ThinLens", "alpha_passivity_bound",
    "calibrate_interferometer", "compile_trotter_train",
    "interferometric_B_dag", "map_distance_to_time",
    "map_time_to_distance", "simulate_train", "spot_size",
    "DegeneracyReport", "PotentialField", "SpectrumResult",
    "Superpotential", "apply_B", "apply_B_dag", "bound_spectrum",
    "check_degeneracy", "dense_hamiltonian", "eta_potential",
    "partner_potential", "zero_mode",
]
