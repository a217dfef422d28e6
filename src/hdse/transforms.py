"""Parameter maps between equivalent state-equation systems.

Each estimator family has one canonical system (``CANONICAL``): ``m_loo``,
``lasso_amp`` and ``logistic_loo``.  Every other system carries one map to
its canonical system and one back:

    m_amp          -> m_loo         tau1 = tau2, lam1 = lam2 (identity)
    m_cgmt         -> m_loo         tau1 = tau3, lam1 = alpha/mu
    lasso_cgmt     -> lasso_amp     tau1 = gamma2/theta,
                                    gamma1 = lambda*/theta - lambda*
    logistic_cgmt  -> logistic_loo  alpha1 = alpha2/sqrt(kappa), sigma = mu/r*,
                                    lam1 = lam2

Any two distinct systems of a family are mapped through the canonical one.
The inverses recover the under-determined coordinates from the target
system's own equations, never from extra assumptions, so a wrong map fails
loudly on the remaining equations.  ``verify_equivalence`` runs the
operational check: solve the source system, map the root, and evaluate the
target residual at the mapped point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ConfigError, NumericError
from .expectations import expect_noise_sum
from .systems import (
    SYSTEMS,
    ProblemSpec,
    SeSolution,
    lasso_signal_moments,
    system_for,
)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one solve-map-substitute verification."""

    source_system: str
    target_system: str
    source_solution: dict[str, float]
    source_residual_norm: float
    source_iterations: int
    mapped_params: dict[str, float]
    target_residual_norm: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.target_residual_norm <= self.tolerance


def _m_loo_to_cgmt(params, spec: ProblemSpec):
    tau, lam = params["tau1"], params["lam1"]
    # mu is pinned by the third CGMT equation at the fixed envelope scale lam
    e_dt = expect_noise_sum(
        lambda s: losses.moreau_bundle(spec.loss, s, lam).dm_dt,
        spec.noise, tau, spec.rule(), kinks=losses.prox_kinks(spec.loss, lam))
    if e_dt >= 0:
        raise NumericError("envelope t-derivative must be negative at a root")
    mu = float(np.sqrt(-2.0 * e_dt))
    return {"tau3": tau, "alpha": lam * mu, "mu": mu}


def _lasso_amp_to_cgmt(params, spec: ProblemSpec):
    tau1, gamma1 = params["tau1"], params["gamma1"]
    k, s2 = spec.kappa, spec.sigma_star ** 2
    # The fifth CGMT equation with theta = 1/(lam + 1) gives
    # theta = 1 - kappa P(|theta B + gamma2 Z| > lambda*), and with
    # gamma2 = theta tau1 that event is |B + tau1 Z| > lambda* + gamma1.
    active = lasso_signal_moments(spec.prior, 1.0, tau1, spec.lambda_star + gamma1)
    theta = 1.0 - k * active.eta_deriv
    if theta <= 0:
        raise NumericError(f"recovered theta = {theta} is not positive")
    lam = 1.0 / theta - 1.0
    gamma2 = theta * tau1
    lp1 = lam + 1.0                # sigma * tau2, from the two quadratic equations
    mom = lasso_signal_moments(spec.prior, theta, gamma2, spec.lambda_star)
    m2 = spec.prior.second_moment()
    if m2 <= 0:
        raise NumericError("signal recovery needs a prior with mass away from zero")
    alpha = lp1 * mom.beta_eta / m2
    R = k * m2
    sigma_sq = lp1 ** 2 * (gamma2 ** 2 - R - s2
                           + 2.0 * ((alpha + lam) * R + lam * s2) / lp1) \
        - (alpha + lam) ** 2 * R - lam ** 2 * s2
    if sigma_sq <= 0:
        raise NumericError(f"recovered sigma^2 = {sigma_sq} is not positive")
    sigma = np.sqrt(sigma_sq)
    return {"alpha": alpha, "sigma": sigma, "tau2": lp1 / sigma, "theta": theta, "lam": lam,
            "gamma2": gamma2}


def _logistic_cgmt_to_loo(p, spec: ProblemSpec):
    if spec.r_star <= 0:
        raise ConfigError("logistic maps require r_star > 0")
    return {"alpha1": p["alpha2"] / np.sqrt(spec.kappa), "sigma": p["mu"] / spec.r_star,
            "lam1": p["lam2"]}


CANONICAL = {"m_estimator": "m_loo", "lasso": "lasso_amp", "logistic": "logistic_loo"}

# system -> (map to its family's canonical system, map back from it)
_MAPS = {
    "m_amp": (lambda p, spec: {"tau1": p["tau2"], "lam1": p["lam2"]},
              lambda p, spec: {"tau2": p["tau1"], "lam2": p["lam1"]}),
    "m_cgmt": (lambda p, spec: {"tau1": p["tau3"], "lam1": p["alpha"] / p["mu"]},
               _m_loo_to_cgmt),
    "lasso_cgmt": (lambda p, spec: {"tau1": p["gamma2"] / p["theta"],
                                    "gamma1": spec.lambda_star / p["theta"] - spec.lambda_star},
                   _lasso_amp_to_cgmt),
    "logistic_cgmt": (_logistic_cgmt_to_loo,
                      lambda p, spec: {"alpha2": np.sqrt(spec.kappa) * p["alpha1"],
                                       "mu": spec.r_star * p["sigma"], "lam2": p["lam1"]}),
}


def supported_pairs():
    return sorted((a, b) for a in SYSTEMS for b in SYSTEMS
                  if a != b and SYSTEMS[a].model == SYSTEMS[b].model)


def map_params(params, source: str, target: str, spec: ProblemSpec) -> dict[str, float]:
    """Map a parameter dict of ``source`` into ``target``, two distinct systems
    of one family, through the family's canonical system."""
    model = system_for(source).model
    if source == target or system_for(target).model != model:
        raise ConfigError(
            f"no parameter map from {source} to {target}; "
            f"supported pairs: {supported_pairs()}")
    canonical = CANONICAL[model]
    if source != canonical:
        params = _MAPS[source][0](params, spec)
    if target != canonical:
        params = _MAPS[target][1](params, spec)
    return {name: float(value) for name, value in params.items()}


def map_parameters(sol: SeSolution, target: str, spec: ProblemSpec) -> dict[str, float]:
    """Map a converged source root into the target system's parameters."""
    return map_params(sol.params, sol.system, target, spec)


def verify_equivalence(source: str, target: str, spec: ProblemSpec,
                       opts=None) -> EquivalenceReport:
    """Solve the source system, map the root, evaluate the target residual.

    The pass threshold is 100x the solve tolerance: the mapped point inherits
    the source-solve error amplified through the nonlinear expectations.
    """
    from .solving import SolverOptions, solve_system

    opts = opts or SolverOptions()
    sol = solve_system(source, spec, opts=opts)
    mapped = map_parameters(sol, target, spec)
    sdef = system_for(target)
    vec = np.array([mapped[n] for n in sdef.params])
    residual = sdef.residual(vec, spec)
    return EquivalenceReport(
        source_system=source,
        target_system=target,
        source_solution=dict(sol.params),
        source_residual_norm=float(sol.residual_norm),
        source_iterations=int(sol.iterations),
        mapped_params=mapped,
        target_residual_norm=float(np.max(np.abs(residual))),
        tolerance=opts.tol * 100.0,
    )
