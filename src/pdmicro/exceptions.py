"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so numerical failures, fit failures, and
config problems must stay distinguishable.
"""


class PdmicroError(Exception):
    """Base class for all package errors."""


class ConfigError(PdmicroError):
    """Bad run configuration (syntax, unknown key, invalid value)."""


class NumericsError(PdmicroError):
    """A numerical routine could not reach its accuracy target."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class OutputError(PdmicroError):
    """An output artifact could not be written."""


class FitConvergenceError(PdmicroError):
    """Nonlinear least squares did not converge."""
