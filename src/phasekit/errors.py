"""Error taxonomy shared by the library and the CLI.

The CLI maps ConfigError to exit code 1 and NumericalError to exit code 2;
everything else is a genuine bug and propagates.
"""


class PhasekitError(Exception):
    """Base class for all phasekit errors."""


class ConfigError(PhasekitError):
    """Invalid user input: config files, labels, enum values, preconditions."""


class NumericalError(PhasekitError):
    """Numerical consistency failure: hermiticity, norm drift, bad radicand."""


class StepSizeError(NumericalError):
    """Fixed-step integration rejected: its step is beyond RK4's stability
    limit, or its norm drift exceeded tolerance."""
