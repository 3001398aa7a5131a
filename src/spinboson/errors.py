"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid kernel or run configuration (bad table, non-positive cutoff, ...)."""


class SamplingError(RuntimeError):
    """Sampling requested from a degenerate (zero-mass) distribution."""


class StructureError(ValueError):
    """A combinatorial structure does not satisfy the required connectivity."""


class ResourceError(ValueError):
    """Requested enumeration order exceeds the configured factorial-growth cap."""


class EstimateUnreliableError(RuntimeError):
    """A Monte Carlo estimate overflowed or is otherwise numerically unusable."""


class CertificateError(ValueError):
    """The convergence certificate does not apply at the requested coupling."""
