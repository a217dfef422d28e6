"""Exception types shared across the package."""


class HdseError(Exception):
    """Base class for all package errors."""


class ConfigError(HdseError):
    """Invalid configuration, unknown name, or unsupported combination."""


class NumericError(HdseError):
    """Numerical failure: non-finite values, failed decomposition, failed root find."""


class SingularJacobian(NumericError):
    """Finite-difference Jacobian is rank deficient beyond recovery."""


class NonConvergence(HdseError):
    """Iteration budget exhausted. Carries the best iterate seen."""

    def __init__(self, message, best=None, residual_norm=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual_norm = residual_norm
        self.iterations = iterations


class LikelyNonExistence(NonConvergence):
    """The requested state-equation root does not exist.

    Raised before any iteration: by the logistic solves when kappa is at or
    above the existence boundary ``solving.kappa_critical(r_star)`` (a
    function of r_star alone, integrated on Gauss-Legendre panels), past this
    maximum-likelihood phase transition; by the M solves with a monotone
    (logistic) loss at kappa >= 1/2; and by the lasso solves at lambda_star = 0
    where kappa = 1 (tau diverges) or, for ``lasso_cgmt``, kappa > 1 (theta -> 0).
    """


class MleNonExistence(HdseError):
    """Finite-sample logistic likelihood has no minimizer: some beta has every
    margin y_i x_i' beta > 0, so the data are separable."""
