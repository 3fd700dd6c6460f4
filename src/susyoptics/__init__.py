"""Partner-potential quantum dynamics and their linear-optics realization.

Layers, bottom up: grids (FFT position/momentum substrate), susy (the
superpotential algebra and spectra), evolution (split-step propagation and
the diagonalization oracle), optics (SI-unit Fresnel bench, plate trains,
the two-arm raising interferometer), experiments/cli (gated scenario
runners and the CSV front end).

The package exports the documented API: the names the README's examples
import, the scenario runners and the error classes of the CLI's exit codes.
Everything else is imported from its module.
"""

from ._version import __version__
from .config import parse_config
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateStateError,
    NumericalError,
    ParaxialWarning,
    SimulationError,
)
from .evolution import (
    TrotterPlan,
    eigenbasis,
    exact_evolve,
    trotter_evolve,
    trotter_states,
)
from .experiments import (
    emit_csv,
    run_bdag_validation,
    run_eta_sweep,
    run_spectrum,
    run_susy_check,
    run_trotter_convergence,
)
from .grids import (
    WaveFunction,
    fidelity,
    gaussian_packet,
    inner,
    make_grid,
    norm,
    normalized,
    to_momentum,
    to_position,
)
from .optics import compile_trotter_train, simulate_train
from .susy import (
    Superpotential,
    apply_B,
    apply_B_dag,
    bound_spectrum,
    eta_potential,
    partner_potential,
    zero_mode,
)

__all__ = [
    "__version__",
    "parse_config",
    "ConfigurationError", "ContractError", "DegenerateStateError",
    "NumericalError", "ParaxialWarning", "SimulationError",
    "TrotterPlan", "eigenbasis", "exact_evolve", "trotter_evolve",
    "trotter_states",
    "emit_csv", "run_bdag_validation", "run_eta_sweep", "run_spectrum",
    "run_susy_check", "run_trotter_convergence",
    "WaveFunction", "fidelity", "gaussian_packet", "inner", "make_grid",
    "norm", "normalized", "to_momentum", "to_position",
    "compile_trotter_train", "simulate_train",
    "Superpotential", "apply_B", "apply_B_dag", "bound_spectrum",
    "eta_potential", "partner_potential", "zero_mode",
]
