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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import losses
from .errors import ConfigError, StateError
from .expectations import (
    DEFAULT_QUAD_ORDER,
    KINKED_QUAD_ORDER,
    DistributionSpec,
    QuadratureRule,
    bivariate_nodes,
    expect_noise_sum,
    expect_noise_zweighted,
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
    if isinstance(p, dict):
        missing = [n for n in names if n not in p]
        if missing:
            raise ConfigError(f"missing parameters {missing}")
        return [float(p[n]) for n in names]
    vals = list(np.asarray(p, dtype=float).ravel())
    if len(vals) != len(names):
        raise ConfigError(f"expected {len(names)} parameters {names}, got {len(vals)}")
    return vals


def _require_positive(**kv):
    for name, value in kv.items():
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


# ---------------------------------------------------------------------------
# M-estimation systems


def residual_m_loo(p, spec: ProblemSpec, order: int | None = None) -> np.ndarray:
    """LOO system: prox-derivative equation and residual-variance equation."""
    tau, lam = _unpack(p, ("tau1", "lam1"))
    _require_positive(tau1=tau, lam1=lam)
    loss, rule = spec.loss, spec.rule(order)
    kinks = losses.prox_kinks(loss, lam)
    e_pd = expect_noise_sum(lambda s: losses.prox_deriv(loss, s, lam),
                            spec.noise, tau, rule, kinks=kinks)
    e_sq = expect_noise_sum(lambda s: (s - losses.prox(loss, s, lam)) ** 2,
                            spec.noise, tau, rule, kinks=kinks)
    k = spec.kappa
    return np.array([e_pd - (1.0 - k), e_sq - k * tau * tau])


def residual_m_amp(p, spec: ProblemSpec, order: int | None = None) -> np.ndarray:
    """AMP system, written on the Moreau envelope derivatives."""
    tau, lam = _unpack(p, ("tau2", "lam2"))
    _require_positive(tau2=tau, lam2=lam)
    loss, rule = spec.loss, spec.rule(order)
    kinks = losses.prox_kinks(loss, lam)
    e_dx2 = expect_noise_sum(lambda s: losses.moreau_bundle(loss, s, lam).dm_dx ** 2,
                             spec.noise, tau, rule, kinks=kinks)
    e_dxx = expect_noise_sum(lambda s: losses.moreau_bundle(loss, s, lam).d2m_dx2,
                             spec.noise, tau, rule, kinks=kinks)
    k = spec.kappa
    return np.array([lam * lam * e_dx2 / k - tau * tau, lam * e_dxx - k])


def residual_m_cgmt(p, spec: ProblemSpec, order: int | None = None) -> np.ndarray:
    """CGMT saddle-point conditions with envelope scale alpha/mu.

    The Z-weighted expectation in the stationarity condition for tau is
    evaluated by quadrature on its own (no Stein rewrite), so the Stein
    identity remains an independent cross-check of this system against the
    AMP one.
    """
    tau, alpha, mu = _unpack(p, ("tau3", "alpha", "mu"))
    _require_positive(tau3=tau, alpha=alpha, mu=mu)
    loss, rule = spec.loss, spec.rule(order)
    b = alpha / mu
    kinks = losses.prox_kinks(loss, b)
    e_dt = expect_noise_sum(lambda s: losses.moreau_bundle(loss, s, b).dm_dt,
                            spec.noise, tau, rule, kinks=kinks)
    e_z_dx = expect_noise_zweighted(lambda s: losses.moreau_bundle(loss, s, b).dm_dx,
                                    spec.noise, tau, rule, kinks=kinks)
    rk = np.sqrt(spec.kappa)
    return np.array([
        0.5 * alpha - tau * rk - (alpha / mu ** 2) * e_dt,
        -mu * rk + e_z_dx,
        0.5 * mu + e_dt / mu,
    ])


# ---------------------------------------------------------------------------
# Lasso systems


@dataclass(frozen=True)
class SignalMoments:
    """Prior-averaged soft-threshold moments for S = theta*B + gamma*Z."""

    eta: float          # E[eta(S; thresh)]
    eta_sq: float       # E[eta(S; thresh)^2]
    beta_eta: float     # E[B eta(S; thresh)]
    eta_deriv: float    # E[eta'(S; thresh)]
    shift_sq: float     # E[(eta(S; thresh) - B)^2]


def lasso_signal_moments(prior: DistributionSpec, theta: float, gamma: float,
                         thresh: float) -> SignalMoments:
    """Exact moments of the thresholded signal over every prior component."""
    e1t = e2t = ebt = ept = 0.0
    m2 = prior.second_moment()
    for wt, m, s in prior.mixture():
        if wt == 0.0:
            continue
        mean_s = theta * m
        var = (theta * s) ** 2 + gamma * gamma
        if var == 0.0:
            val, der = losses.soft_threshold(mean_s, thresh)
            e1, e2, es, ep = val, val * val, mean_s * val, der
        else:
            e1, e2, es, ep = soft_threshold_moments(mean_s, np.sqrt(var), thresh)
        cov_bs = theta * s * s
        if var > 0.0 and cov_bs != 0.0:
            ebe = m * e1 + (cov_bs / var) * (es - mean_s * e1)
        else:
            ebe = m * e1
        e1t += wt * e1
        e2t += wt * e2
        ebt += wt * ebe
        ept += wt * ep
    return SignalMoments(e1t, e2t, ebt, ept, e2t - 2.0 * ebt + m2)


def residual_lasso_amp(p, spec: ProblemSpec, order: int | None = None) -> np.ndarray:
    """AMP system for the l1 problem; gamma1 = 0 is admitted when lambda_star = 0."""
    tau, gam = _unpack(p, ("tau1", "gamma1"))
    _require_positive(tau1=tau)
    if gam < 0:
        raise ValueError(f"gamma1 must be nonnegative, got {gam}")
    thresh = spec.lambda_star + gam
    mom = lasso_signal_moments(spec.prior, 1.0, tau, thresh)
    k, s2 = spec.kappa, spec.sigma_star ** 2
    return np.array([
        s2 + k * mom.shift_sq - tau * tau,
        k * thresh * mom.eta_deriv - gam,
    ])


def residual_lasso_cgmt(p, spec: ProblemSpec, order: int | None = None) -> np.ndarray:
    """Six-equation CGMT system; the regularizer prox is the soft threshold."""
    alpha, sigma, tau2, theta, lam, gamma2 = _unpack(
        p, ("alpha", "sigma", "tau2", "theta", "lam", "gamma2"))
    _require_positive(sigma=sigma, tau2=tau2, gamma2=gamma2)
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    k = spec.kappa
    s2 = spec.sigma_star ** 2
    R = k * spec.prior.second_moment()   # kappa * E[B^2]
    mom = lasso_signal_moments(spec.prior, theta, gamma2, spec.lambda_star)
    st = sigma * tau2
    lp1 = lam + 1.0
    return np.array([
        -alpha / st + theta - 1.0 + (alpha + lam) / lp1,
        -0.5 / tau2 + R * alpha ** 2 / (2.0 * sigma ** 2 * tau2)
        - 0.5 * tau2 * k * mom.eta_sq + sigma / lp1,
        gamma2 ** 2 - R - s2 + 2.0 * ((alpha + lam) * R + lam * s2) / lp1
        - ((alpha + lam) ** 2 * R + sigma ** 2 + lam ** 2 * s2) / lp1 ** 2,
        R * alpha - st * k * mom.beta_eta,
        st * k * mom.eta_deriv - lam,
        sigma / (2.0 * tau2 ** 2) + R * alpha ** 2 / (2.0 * st * tau2)
        - 0.5 * sigma * k * mom.eta_sq,
    ])


# ---------------------------------------------------------------------------
# Logistic systems


def logistic_loo_covariance(spec: ProblemSpec, alpha1: float, sigma: float) -> np.ndarray:
    """Covariance of the (true logit, negative fitted logit) Gaussian pair."""
    r2 = spec.r_star ** 2
    return np.array([
        [r2, -sigma * r2],
        [-sigma * r2, sigma ** 2 * r2 + alpha1 ** 2 * spec.kappa],
    ])


def residual_logistic_loo(p, spec: ProblemSpec, order: int | None = None) -> np.ndarray:
    alpha1, sigma, lam = _unpack(p, ("alpha1", "sigma", "lam1"))
    _require_positive(alpha1=alpha1, lam1=lam)
    if spec.r_star <= 0:
        raise ConfigError("the logistic LOO system requires r_star > 0")
    rho = LossSpec("logistic_rho")
    rule = spec.rule(order)
    q1, q2, wgt = bivariate_nodes(logistic_loo_covariance(spec, alpha1, sigma), rule)
    rho_p_q1 = expit(q1)
    pr = losses.prox(rho, q2, lam)
    rp = expit(pr)
    rpp = rp * (1.0 - rp)
    k = spec.kappa
    e_sq = float(np.sum(wgt * 2.0 * rho_p_q1 * (lam * rp) ** 2))
    e_cross = float(np.sum(wgt * rho_p_q1 * q1 * lam * rp))
    e_deriv = float(np.sum(wgt * 2.0 * rho_p_q1 / (1.0 + lam * rpp)))
    return np.array([e_sq / k ** 2 - alpha1 ** 2, e_cross, e_deriv - (1.0 - k)])


def residual_logistic_cgmt(p, spec: ProblemSpec, order: int | None = None) -> np.ndarray:
    alpha2, mu, lam = _unpack(p, ("alpha2", "mu", "lam2"))
    _require_positive(alpha2=alpha2, lam2=lam)
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    ell = LossSpec("logistic_ell")
    rule = spec.rule(order)
    Z, V, wgt = zv_nodes(spec.r_star, rule)
    pr = losses.prox(ell, alpha2 * Z + mu * V, lam)
    s = expit(pr)
    ellp = s - 1.0
    ellpp = s * (1.0 - s)
    k = spec.kappa
    return np.array([
        float(np.sum(wgt * V * ellp)),
        lam ** 2 * float(np.sum(wgt * ellp ** 2)) - alpha2 ** 2 * k,
        lam * float(np.sum(wgt * ellpp / (1.0 + lam * ellpp))) - k,
    ])


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
    the test suite checks against.
    """
    p = sol.params
    if sol.system == "m_loo":
        v = p["tau1"] ** 2
        return v, v
    if sol.system == "m_amp":
        v = p["tau2"] ** 2
        return v, v
    if sol.system == "m_cgmt":
        v = p["tau3"] ** 2
        return v, v
    if sol.system == "lasso_amp":
        return p["tau1"] ** 2, p["tau1"] ** 2 - spec.sigma_star ** 2
    if sol.system == "lasso_cgmt":
        reduction = p["sigma"] ** 2 + spec.kappa * (p["alpha"] - 1.0) ** 2 * spec.r_star ** 2
        return p["lam"] / p["theta"], reduction
    prior_mean = spec.prior.mean()
    m2 = spec.prior.second_moment()
    if sol.system == "logistic_loo":
        inflation, noise_scale = p["sigma"], p["alpha1"]
    elif sol.system == "logistic_cgmt":
        if spec.r_star <= 0:
            raise ConfigError("logistic MSE extraction requires r_star > 0")
        inflation = p["mu"] / spec.r_star
        noise_scale = p["alpha2"] / np.sqrt(spec.kappa)
    else:
        raise ConfigError(f"unknown system {sol.system!r}")
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
