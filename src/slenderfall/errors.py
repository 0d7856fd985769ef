"""Exception hierarchy shared by all solver modules."""


class SlenderFallError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(SlenderFallError):
    """Invalid or degenerate curve geometry."""


class KernelDomainError(SlenderFallError, ValueError):
    """Kernel evaluated outside its domain (negative distance)."""


class OracleError(SlenderFallError):
    """Fourier-space verification quadrature failed to converge."""


class AssemblyError(SlenderFallError):
    """Collocation system cannot be assembled (e.g. duplicate nodes)."""


class SolverError(SlenderFallError):
    """Dense factorization or solve failed."""


class ConvergenceError(SlenderFallError):
    """Discretization too coarse for a requested tolerance gate."""


class DegeneracyError(SlenderFallError):
    """Rotationally degenerate body without a consistent restriction."""

    def __init__(self, message, null_direction=None):
        super().__init__(message)
        self.null_direction = null_direction


class InternalConsistencyError(SlenderFallError):
    """A computed steady state violates the momentum balance gate."""


class MassModelError(SlenderFallError):
    """Inertia tensor singular in a direction that carries torque."""


class InstabilityError(SlenderFallError):
    """Time integration blew up."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(SlenderFallError):
    """Malformed or inconsistent run configuration."""
