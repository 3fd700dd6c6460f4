"""Exception and warning types shared across the package."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SimulationError):
    """Invalid parameters, config files, or physically unrealizable setups."""


class ContractError(SimulationError):
    """An operation was called outside its documented contract."""


class DegenerateStateError(ContractError):
    """A zero-norm field was used where a normalizable state is required."""


class NumericalError(SimulationError):
    """A solver failed to converge or produced unusable output."""


class ParaxialWarning(UserWarning):
    """Free-space propagation outside the paraxial validity regime."""
