"""Exception types shared across the package."""


class CavityRamanError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CavityRamanError):
    """An input lies outside the physically meaningful domain."""


class DegenerateSpectrum(CavityRamanError):
    """Eigenvalues too close together to label the dressed branches."""


class NonUniqueSteadyState(CavityRamanError):
    """The Liouvillian null space has dimension greater than one."""


class UnstableLiouvillian(CavityRamanError):
    """A nonzero Liouvillian eigenvalue has nonnegative real part."""


class FitError(CavityRamanError):
    """Base class for least-squares fitting failures."""


class NoConvergence(FitError):
    """Iteration cap reached without meeting the convergence criterion."""


class NonDecaying(FitError):
    """Exponential fit returned a nonpositive decay time."""


class DegeneratePeaks(FitError):
    """Multi-peak fit collapsed onto a single center."""


class AmbiguousAssignment(FitError):
    """Peaks cannot be uniquely labelled as Raman / spontaneous."""


class IllConditioned(FitError):
    """Fit covariance is too ill-conditioned to report parameters."""


class VanishingSpontaneous(FitError):
    """Spontaneous peak area is indistinguishable from zero.

    Carries the partially computed ratio point in ``point`` (may be None
    when the ratio itself is not finite).
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class _LineError(CavityRamanError):
    """An input error that may name the line it was found on."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(_LineError):
    """Bad or missing configuration value."""


class ParseError(_LineError):
    """Malformed input data file."""
