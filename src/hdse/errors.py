"""Exception types shared across the package."""


class HdseError(Exception):
    """Base class for all package errors."""


class ConfigError(HdseError):
    """Invalid configuration, unknown name, or unsupported combination."""


class StateError(HdseError):
    """Operation requested on an object in the wrong state."""


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
    above the closed-form existence boundary
    ``solving.kappa_critical(r_star, rule)``, past this maximum-likelihood
    phase transition, and by the lasso solves at lambda_star = 0 where
    kappa = 1 (tau diverges) or, for ``lasso_cgmt``, kappa > 1 (theta -> 0).
    """


class MleNonExistence(HdseError):
    """Finite-sample logistic likelihood has no minimizer (separable data)."""
