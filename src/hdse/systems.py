"""Residual functions for the seven state-equation systems.

Each system is a small set of nonlinear scalar equations whose root
characterizes the asymptotic behavior of one estimator:

    m_loo          {tau1, lam1}                       M-estimation
    m_amp          {tau2, lam2}                       M-estimation
    m_cgmt         {tau3, alpha, mu}                  M-estimation
    lasso_amp      {tau1, gamma1}                     l1-regularized least squares
    lasso_cgmt     {alpha, sigma, tau2, theta, lam, gamma2}
    logistic_loo   {alpha1, sigma, lam1}              logistic maximum likelihood
    logistic_cgmt  {alpha2, mu, lam2}

Residuals are written as f(p) = 0 and evaluated with deterministic
quadrature, so a given (params, spec) pair always produces bitwise-identical
values.  The lasso systems use closed-form Gaussian moments of the soft
threshold instead of quadrature; their expectations carry no integration
error at all.

Every residual takes a stack of points, ``p`` of shape ``(m, n_params)``, and
returns ``(m, n_eq)``; a 1-D ``p`` (or a dict of named values) returns one
1-D residual.  Each row is computed as a call of its own would compute it.
The M-estimation systems push the quadrature nodes of all rows through the
loss in one pass, and the lasso moments are elementwise; a logistic point
integrates over a tensor grid of its own, so those residuals take the rows
in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import losses
from .errors import ConfigError, StateError

# expect_noise_zweighted is not called here (m_cgmt asks expect_noise_sum for
# its Z-weighted integral); the benchmark tracer wraps it under this module's
# name, so the import stays.
from .expectations import (
    DEFAULT_QUAD_ORDER,
    KINKED_QUAD_ORDER,
    DistributionSpec,
    QuadratureRule,
    bivariate_nodes,
    expect_noise_sum,
    expect_noise_zweighted,  # noqa: F401
    gauss_hermite,
    gaussian,
    point_mass,
    soft_threshold_moments,
    zv_nodes,
)
from .losses import LossSpec

MODELS = ("m_estimator", "lasso", "logistic")

_CONSISTENCY_RTOL = 1e-8


@dataclass(frozen=True)
class ProblemSpec:
    """Asymptotic problem description shared by all systems.

    ``kappa`` is the feature/sample aspect ratio, ``sigma_star`` the noise
    scale, ``r_star`` the signal strength (root of the prior second moment),
    ``lambda_star`` the l1 penalty.  Omitted fields are resolved from the
    model: the lasso always uses the quadratic data-fit loss, the logistic
    model its own log loss, and sigma_star/r_star default to the values
    implied by the noise and prior laws.
    """

    model: str
    kappa: float
    loss: LossSpec | None = None
    prior: DistributionSpec | None = None
    noise: DistributionSpec | None = None
    sigma_star: float | None = None
    r_star: float | None = None
    lambda_star: float = 0.0
    quad_order: int | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if not np.isfinite(self.kappa) or self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.model in ("m_estimator", "logistic") and self.kappa >= 1:
            raise ConfigError(f"{self.model} requires kappa < 1, got {self.kappa}")
        if self.lambda_star < 0:
            raise ConfigError("lambda_star must be nonnegative")

        loss = self.loss
        if self.model == "lasso":
            if loss is None:
                loss = LossSpec("quadratic")
            elif loss.kind != "quadratic":
                raise ConfigError("the lasso systems are defined for the quadratic loss")
        elif self.model == "logistic":
            if loss is None:
                loss = LossSpec("logistic_rho")
            elif loss.kind not in ("logistic_rho", "logistic_ell"):
                raise ConfigError("the logistic systems are defined for the logistic loss")
        elif loss is None:
            raise ConfigError("m_estimator requires an explicit loss")
        object.__setattr__(self, "loss", loss)

        sigma = self.sigma_star
        noise = self.noise
        if noise is None:
            if self.model == "logistic":
                noise = point_mass(0.0)
                sigma = 0.0 if sigma is None else sigma
            else:
                noise = gaussian(0.0, 1.0 if sigma is None else sigma)
        noise_sd = np.sqrt(noise.variance())
        if sigma is None:
            sigma = noise_sd
        elif self.model != "logistic" and abs(sigma * sigma - noise.variance()) > \
                _CONSISTENCY_RTOL * max(1.0, noise.variance()):
            raise ConfigError(
                f"sigma_star={sigma} disagrees with the noise variance {noise.variance()}")
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "sigma_star", float(sigma))

        prior = self.prior
        if prior is None:
            if self.r_star is not None:
                prior = gaussian(0.0, self.r_star) if self.model == "logistic" \
                    else point_mass(self.r_star)
            else:
                prior = point_mass(0.0)
        m2 = prior.second_moment()
        r = self.r_star
        if r is None:
            r = np.sqrt(m2)
        elif self.model in ("lasso", "logistic") and abs(r * r - m2) > \
                _CONSISTENCY_RTOL * max(1.0, m2):
            raise ConfigError(
                f"r_star^2={r * r} disagrees with the prior second moment {m2}")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "r_star", float(r))

        if self.quad_order is not None and self.quad_order < 3:
            raise ConfigError("quad_order must be at least 3")

    def default_quad_order(self) -> int:
        # Kinked integrands converge slower, so the absolute loss (as data fit
        # or as the l1 regularizer) doubles the base order wherever plain
        # quadrature still appears.
        if self.quad_order is not None:
            return self.quad_order
        if self.loss.kind == "absolute" or self.model == "lasso":
            return KINKED_QUAD_ORDER
        return DEFAULT_QUAD_ORDER

    def rule(self, order: int | None = None) -> QuadratureRule:
        return gauss_hermite(order if order is not None else self.default_quad_order())

    def with_kappa(self, kappa: float) -> "ProblemSpec":
        return replace(self, kappa=kappa)


@dataclass
class SeSolution:
    """Named root of one system plus solver diagnostics."""

    system: str
    params: dict[str, float]
    residual_norm: float
    iterations: int
    tol: float = 1e-9
    jac_cond: float | None = None

    @property
    def converged(self) -> bool:
        return np.isfinite(self.residual_norm) and self.residual_norm <= self.tol

    def vector(self) -> np.ndarray:
        return np.array([self.params[name] for name in SYSTEMS[self.system].params])


def _unpack(p, names):
    """Parameter columns of a stack, and whether ``p`` was a single point."""
    if isinstance(p, dict):
        missing = [n for n in names if n not in p]
        if missing:
            raise ConfigError(f"missing parameters {missing}")
        p = [p[n] for n in names]
    arr = np.asarray(p, dtype=float)
    single = arr.ndim < 2
    if single:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != len(names):
        raise ConfigError(f"expected {len(names)} parameters {names}, got {arr.shape[-1]}")
    return list(arr.T), single


def _rows(equations, single):
    out = np.array(equations).T
    return out[0] if single else out


def _require_positive(**kv):
    for name, value in kv.items():
        if not (value.min() > 0 and value.max() < np.inf):  # a NaN fails the first test
            bad = value[~((value > 0) & (value < np.inf))][0]
            raise ValueError(f"{name} must be positive, got {bad}")


# ---------------------------------------------------------------------------
# M-estimation systems


def residual_m_loo(p, spec: ProblemSpec) -> np.ndarray:
    """LOO system: prox-derivative equation and residual-variance equation."""
    (tau, lam), single = _unpack(p, ("tau1", "lam1"))
    _require_positive(tau1=tau, lam1=lam)
    loss = spec.loss
    e_pd, e_sq = expect_noise_sum(
        lambda s: np.array([losses.prox_deriv(loss, s, lam),
                            (s - losses.prox(loss, s, lam)) ** 2]),
        spec.noise, tau, spec.rule(), kinks=losses.prox_kinks(loss, lam))
    k = spec.kappa
    return _rows([e_pd - (1.0 - k), e_sq - k * tau * tau], single)


def residual_m_amp(p, spec: ProblemSpec) -> np.ndarray:
    """AMP system, written on the Moreau envelope derivatives."""
    (tau, lam), single = _unpack(p, ("tau2", "lam2"))
    _require_positive(tau2=tau, lam2=lam)
    loss = spec.loss

    def envelope(s):
        b = losses.moreau_bundle(loss, s, lam)
        return np.array([b.dm_dx ** 2, b.d2m_dx2])

    e_dx2, e_dxx = expect_noise_sum(envelope, spec.noise, tau, spec.rule(),
                                    kinks=losses.prox_kinks(loss, lam))
    k = spec.kappa
    return _rows([lam * lam * e_dx2 / k - tau * tau, lam * e_dxx - k], single)


def residual_m_cgmt(p, spec: ProblemSpec) -> np.ndarray:
    """CGMT saddle-point conditions with envelope scale alpha/mu.

    The Z-weighted expectation in the stationarity condition for tau is
    evaluated by quadrature on its own (no Stein rewrite), so the Stein
    identity remains an independent cross-check of this system against the
    AMP one.
    """
    (tau, alpha, mu), single = _unpack(p, ("tau3", "alpha", "mu"))
    _require_positive(tau3=tau, alpha=alpha, mu=mu)
    loss = spec.loss
    b = alpha / mu

    def envelope(s):
        mb = losses.moreau_bundle(loss, s, b)
        return np.array([mb.dm_dt, mb.dm_dx])

    # E[dm_dt(S)] and E[Z dm_dx(S)] on one node set
    e_dt, e_z_dx = expect_noise_sum(envelope, spec.noise, tau, spec.rule(),
                                    kinks=losses.prox_kinks(loss, b), zweighted=(False, True))
    rk = np.sqrt(spec.kappa)
    return _rows([
        0.5 * alpha - tau * rk - (alpha / mu ** 2) * e_dt,
        -mu * rk + e_z_dx,
        0.5 * mu + e_dt / mu,
    ], single)


# ---------------------------------------------------------------------------
# Lasso systems


@dataclass(frozen=True)
class SignalMoments:
    """Prior-averaged soft-threshold moments for S = theta*B + gamma*Z.

    Fields are floats for scalar arguments, else arrays of their shape.
    """

    eta: float          # E[eta(S; thresh)]
    eta_sq: float       # E[eta(S; thresh)^2]
    beta_eta: float     # E[B eta(S; thresh)]
    eta_deriv: float    # E[eta'(S; thresh)]
    shift_sq: float     # E[(eta(S; thresh) - B)^2]


def lasso_signal_moments(prior: DistributionSpec, theta, gamma, thresh) -> SignalMoments:
    """Exact moments of the thresholded signal over every prior component,
    elementwise over broadcastable ``theta``, ``gamma`` and ``thresh``."""
    wts, ms, ss = np.array([c for c in prior.mixture() if c[0] != 0.0]).T
    # the prior components on a last axis, summed over in order at the end
    theta, gamma, thresh = (np.asarray(v, dtype=float)[..., None] for v in (theta, gamma, thresh))
    mean_s = theta * ms
    var = (theta * ss) ** 2 + gamma * gamma
    spread = var > 0.0
    # entries with var = 0 are point evaluations; give them a dummy sd
    safe_var = np.where(spread, var, 1.0)
    e1, e2, es, ep = soft_threshold_moments(mean_s, np.sqrt(safe_var), thresh)
    if not spread.all():
        val, der = losses.soft_threshold(mean_s, thresh)
        e1, e2 = np.where(spread, e1, val), np.where(spread, e2, val * val)
        es, ep = np.where(spread, es, mean_s * val), np.where(spread, ep, der)
    cov_bs = theta * ss * ss
    ebe = np.where(spread & (cov_bs != 0.0),
                   ms * e1 + (cov_bs / safe_var) * (es - mean_s * e1), ms * e1)
    e1t, e2t, ebt, ept = ((wts * v).sum(axis=-1) for v in (e1, e2, ebe, ep))
    fields = (e1t, e2t, ebt, ept, e2t - 2.0 * ebt + prior.second_moment())
    return SignalMoments(*(float(f) if np.ndim(f) == 0 else f for f in fields))


def residual_lasso_amp(p, spec: ProblemSpec) -> np.ndarray:
    """AMP system for the l1 problem; gamma1 = 0 is admitted when lambda_star = 0."""
    (tau, gam), single = _unpack(p, ("tau1", "gamma1"))
    _require_positive(tau1=tau)
    if (gam < 0).any():
        raise ValueError(f"gamma1 must be nonnegative, got {gam[gam < 0][0]}")
    thresh = spec.lambda_star + gam
    mom = lasso_signal_moments(spec.prior, 1.0, tau, thresh)
    k, s2 = spec.kappa, spec.sigma_star ** 2
    return _rows([
        s2 + k * mom.shift_sq - tau * tau,
        k * thresh * mom.eta_deriv - gam,
    ], single)


def residual_lasso_cgmt(p, spec: ProblemSpec) -> np.ndarray:
    """Six-equation CGMT system; the regularizer prox is the soft threshold."""
    (alpha, sigma, tau2, theta, lam, gamma2), single = _unpack(
        p, ("alpha", "sigma", "tau2", "theta", "lam", "gamma2"))
    _require_positive(sigma=sigma, tau2=tau2, gamma2=gamma2)
    bad = ~((0.0 < theta) & (theta <= 1.0))
    if bad.any():
        raise ValueError(f"theta must lie in (0, 1], got {theta[bad][0]}")
    if (lam < 0).any():
        raise ValueError(f"lam must be nonnegative, got {lam[lam < 0][0]}")
    k = spec.kappa
    s2 = spec.sigma_star ** 2
    R = k * spec.prior.second_moment()   # kappa * E[B^2]
    mom = lasso_signal_moments(spec.prior, theta, gamma2, spec.lambda_star)
    st = sigma * tau2
    lp1 = lam + 1.0
    return _rows([
        -alpha / st + theta - 1.0 + (alpha + lam) / lp1,
        -0.5 / tau2 + R * alpha ** 2 / (2.0 * sigma ** 2 * tau2)
        - 0.5 * tau2 * k * mom.eta_sq + sigma / lp1,
        gamma2 ** 2 - R - s2 + 2.0 * ((alpha + lam) * R + lam * s2) / lp1
        - ((alpha + lam) ** 2 * R + sigma ** 2 + lam ** 2 * s2) / lp1 ** 2,
        R * alpha - st * k * mom.beta_eta,
        st * k * mom.eta_deriv - lam,
        sigma / (2.0 * tau2 ** 2) + R * alpha ** 2 / (2.0 * st * tau2)
        - 0.5 * sigma * k * mom.eta_sq,
    ], single)


# ---------------------------------------------------------------------------
# Logistic systems


def logistic_loo_covariance(spec: ProblemSpec, alpha1: float, sigma: float) -> np.ndarray:
    """Covariance of the (true logit, negative fitted logit) Gaussian pair."""
    r2 = spec.r_star ** 2
    return np.array([
        [r2, -sigma * r2],
        [-sigma * r2, sigma ** 2 * r2 + alpha1 ** 2 * spec.kappa],
    ])


def _row_by_row(point_residual, p, spec: ProblemSpec, names, positive):
    # Each point of a logistic system integrates over its own tensor grid, so
    # a stack shares no nodes; its rows are evaluated in turn, which keeps
    # every grid temporary small (one 61x61 grid, not one per row).
    cols, single = _unpack(p, names)
    _require_positive(**{n: c for n, c in zip(names, cols) if n in positive})
    out = np.array([point_residual(*map(float, row), spec) for row in zip(*cols)])
    return out[0] if single else out


def _logistic_loo_point(alpha1, sigma, lam, spec: ProblemSpec) -> np.ndarray:
    rho = LossSpec("logistic_rho")
    q1, q2, wgt = bivariate_nodes(logistic_loo_covariance(spec, alpha1, sigma), spec.rule())
    rho_p_q1 = expit(q1)
    _, rp, rpp = losses.prox(rho, q2, lam, with_derivs=True)
    k = spec.kappa
    e_sq = float(np.sum(wgt * 2.0 * rho_p_q1 * (lam * rp) ** 2))
    e_cross = float(np.sum(wgt * rho_p_q1 * q1 * lam * rp))
    e_deriv = float(np.sum(wgt * 2.0 * rho_p_q1 / (1.0 + lam * rpp)))
    return np.array([e_sq / k ** 2 - alpha1 ** 2, e_cross, e_deriv - (1.0 - k)])


def residual_logistic_loo(p, spec: ProblemSpec) -> np.ndarray:
    if spec.r_star <= 0:
        raise ConfigError("the logistic LOO system requires r_star > 0")
    return _row_by_row(_logistic_loo_point, p, spec, ("alpha1", "sigma", "lam1"),
                       ("alpha1", "lam1"))


def _logistic_cgmt_point(alpha2, mu, lam, spec: ProblemSpec) -> np.ndarray:
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    ell = LossSpec("logistic_ell")
    Z, V, wgt = zv_nodes(spec.r_star, spec.rule())
    _, ellp, ellpp = losses.prox(ell, alpha2 * Z + mu * V, lam, with_derivs=True)
    k = spec.kappa
    return np.array([
        float(np.sum(wgt * V * ellp)),
        lam ** 2 * float(np.sum(wgt * ellp ** 2)) - alpha2 ** 2 * k,
        lam * float(np.sum(wgt * ellpp / (1.0 + lam * ellpp))) - k,
    ])


def residual_logistic_cgmt(p, spec: ProblemSpec) -> np.ndarray:
    return _row_by_row(_logistic_cgmt_point, p, spec, ("alpha2", "mu", "lam2"),
                       ("alpha2", "lam2"))


# ---------------------------------------------------------------------------
# Registry and MSE extraction


@dataclass(frozen=True)
class SystemDef:
    name: str
    model: str
    params: tuple[str, ...]
    residual: object
    # parameters clamped to stay strictly positive during solves
    positive: tuple[str, ...]
    # parameters clamped to stay nonnegative
    nonnegative: tuple[str, ...] = ()


SYSTEMS: dict[str, SystemDef] = {
    d.name: d for d in (
        SystemDef("m_loo", "m_estimator", ("tau1", "lam1"), residual_m_loo,
                  ("tau1", "lam1")),
        SystemDef("m_amp", "m_estimator", ("tau2", "lam2"), residual_m_amp,
                  ("tau2", "lam2")),
        SystemDef("m_cgmt", "m_estimator", ("tau3", "alpha", "mu"), residual_m_cgmt,
                  ("tau3", "alpha", "mu")),
        SystemDef("lasso_amp", "lasso", ("tau1", "gamma1"), residual_lasso_amp,
                  ("tau1",), ("gamma1",)),
        SystemDef("lasso_cgmt", "lasso",
                  ("alpha", "sigma", "tau2", "theta", "lam", "gamma2"),
                  residual_lasso_cgmt, ("sigma", "tau2", "theta", "gamma2"), ("lam",)),
        SystemDef("logistic_loo", "logistic", ("alpha1", "sigma", "lam1"),
                  residual_logistic_loo, ("alpha1", "sigma", "lam1")),
        SystemDef("logistic_cgmt", "logistic", ("alpha2", "mu", "lam2"),
                  residual_logistic_cgmt, ("alpha2", "lam2"), ("mu",)),
    )
}


def system_for(name: str) -> SystemDef:
    try:
        return SYSTEMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown system {name!r}; valid systems: {', '.join(sorted(SYSTEMS))}") from None


def mse_candidates(sol: SeSolution, spec: ProblemSpec) -> tuple[float, float]:
    """(nominal extraction, extraction pinned by the closed-form reductions).

    The two coincide for the M-estimation systems.  For the lasso the nominal
    reading of the solved parameters disagrees with the ordinary-least-squares
    limit, so both are surfaced; the second entry is the value every oracle in
    the test suite checks against.  Other systems are read at their root
    mapped to the family's canonical system; ``lasso_cgmt`` has its own pair.
    """
    from .transforms import CANONICAL, map_params

    p = sol.params
    if sol.system == "lasso_cgmt":
        reduction = p["sigma"] ** 2 + spec.kappa * (p["alpha"] - 1.0) ** 2 * spec.r_star ** 2
        return p["lam"] / p["theta"], reduction
    canonical = CANONICAL[system_for(sol.system).model]
    if sol.system != canonical:
        p = map_params(p, sol.system, canonical, spec)
    if canonical == "m_loo":
        v = p["tau1"] ** 2
        return v, v
    if canonical == "lasso_amp":
        return p["tau1"] ** 2, p["tau1"] ** 2 - spec.sigma_star ** 2
    inflation, noise_scale = p["sigma"], p["alpha1"]
    prior_mean = spec.prior.mean()
    m2 = spec.prior.second_moment()
    nominal = ((inflation - 1.0) * prior_mean) ** 2 + noise_scale ** 2
    reduction = spec.kappa * ((inflation - 1.0) ** 2 * m2 + noise_scale ** 2)
    return nominal, reduction


def mse_from_solution(sol: SeSolution, spec: ProblemSpec) -> float:
    """MSE extraction used by verification; requires a converged solution."""
    if not sol.converged:
        raise StateError(
            f"solution of {sol.system} has residual {sol.residual_norm}, above tol {sol.tol}")
    nominal, reduction = mse_candidates(sol, spec)
    if sol.system.startswith("logistic"):
        return nominal
    return reduction
