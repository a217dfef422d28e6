"""State-equation toolkit for high-dimensional regression asymptotics.

Solves the scalar equation systems that pin down the limiting risk of
M-estimation, l1-regularized least squares, and logistic maximum likelihood,
verifies the parameter maps tying the systems of each family together, and
validates the predictions against Monte-Carlo simulation of the actual
estimators.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    HdseError,
    LikelyNonExistence,
    MleNonExistence,
    NonConvergence,
    NumericError,
    SingularJacobian,
)
from .expectations import (
    DistributionSpec,
    QuadratureRule,
    bernoulli_gaussian,
    gauss_hermite,
    gaussian,
    point_mass,
    two_point,
)
from .losses import LossSpec, MoreauBundle, eval_loss, moreau_bundle, prox, soft_threshold
from .solving import SolverOptions, solve_system
from .systems import ProblemSpec, SeSolution, SYSTEMS, mse_from_solution
from .transforms import EquivalenceReport, map_parameters, verify_equivalence

__all__ = [
    "ConfigError",
    "DistributionSpec",
    "EquivalenceReport",
    "HdseError",
    "LikelyNonExistence",
    "LossSpec",
    "MleNonExistence",
    "MoreauBundle",
    "NonConvergence",
    "NumericError",
    "ProblemSpec",
    "QuadratureRule",
    "SYSTEMS",
    "SeSolution",
    "SingularJacobian",
    "SolverOptions",
    "bernoulli_gaussian",
    "eval_loss",
    "gauss_hermite",
    "gaussian",
    "map_parameters",
    "moreau_bundle",
    "mse_from_solution",
    "point_mass",
    "prox",
    "soft_threshold",
    "solve_system",
    "two_point",
    "verify_equivalence",
]
