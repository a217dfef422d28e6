"""Residual functions for the seven state-equation systems.

Each system is a small set of nonlinear scalar equations whose root
characterizes the asymptotic behavior of one estimator:

    m_loo, m_amp, m_cgmt            M-estimation
    lasso_amp, lasso_cgmt           l1-regularized least squares
    logistic_loo, logistic_cgmt     logistic maximum likelihood

Residuals are written as f(p) = 0 and evaluated with deterministic
quadrature, so a given (params, spec) pair always produces bitwise-identical
values.  The lasso systems use closed-form Gaussian moments of the soft
threshold instead of quadrature; their expectations carry no integration
error at all.

Every residual takes a stack of points, ``p`` of shape ``(m, n_params)`` with
m >= 1 (an empty stack raises ConfigError), and returns ``(m, n_eq)``; a 1-D
``p`` (or a dict of named values) returns one 1-D residual.  Each row is
computed as a call of its own would compute it.
The M-estimation systems push the quadrature nodes of all rows through the
loss in one pass, and the lasso moments are elementwise.  The logistic
systems condition on the one Gaussian combination their prox sees: each row
integrates it in the prox output (``prox_rho_nodes``, no prox solve at the
nodes) with a Gauss-Hermite sum over the other direction at every outer
node, so the rows also stack, at a cost of rows x outer nodes x inner nodes.

A system's parameter names and domain are declared once, in its ``SYSTEMS``
entry: ``_unpack`` checks each column against its ``positive`` (> 0 and
finite) and ``nonnegative`` (not < 0) sets, and the solver clamps iterates
into them at ``POSITIVITY_FLOOR``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import losses
from .errors import ConfigError, StateError

# expect_noise_zweighted, bivariate_nodes and zv_nodes are not called here
# (m_cgmt asks expect_noise_sum for its Z-weighted integral, and the logistic
# systems integrate in the prox output); the benchmark tracer
# (perfbench/tracer.py) wraps them under this module's name, so the imports
# stay.
from .expectations import (
    DEFAULT_QUAD_ORDER,
    DistributionSpec,
    QuadratureRule,
    bivariate_nodes,  # noqa: F401
    expect_noise_sum,
    expect_noise_zweighted,  # noqa: F401
    gauss_hermite,
    gaussian,
    point_mass,
    prox_rho_nodes,
    soft_threshold_moments,
    zv_nodes,  # noqa: F401
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
        # Kinked integrands need no higher order: expect_noise_sum splits
        # them into Gauss-Legendre panels at the kinks.
        return self.quad_order if self.quad_order is not None else DEFAULT_QUAD_ORDER

    def rule(self) -> QuadratureRule:
        return gauss_hermite(self.default_quad_order())

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


def _unpack(p, system: str):
    """Parameter columns of a stack, each checked against the domain of
    ``SYSTEMS[system]``, and whether ``p`` was a single point."""
    sdef = SYSTEMS[system]
    names = sdef.params
    if isinstance(p, dict):
        missing = [n for n in names if n not in p]
        if missing:
            raise ConfigError(f"missing parameters {missing}")
        p = [p[n] for n in names]
    arr = np.asarray(p, dtype=float)
    single = arr.ndim < 2
    if single:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != len(names) or not arr.shape[0]:
        raise ConfigError(f"{system} expects m >= 1 points of {len(names)} parameters "
                          f"{names}, got shape {arr.shape}")
    cols = list(arr.T)
    for name, col in zip(names, cols):
        if name in sdef.positive:
            if not (col.min() > 0 and col.max() < np.inf):  # a NaN fails the first test
                bad = col[~((col > 0) & (col < np.inf))][0]
                raise ValueError(f"{name} must be positive, got {bad}")
        elif name in sdef.nonnegative and (col < 0).any():
            raise ValueError(f"{name} must be nonnegative, got {col[col < 0][0]}")
    return cols, single


def _rows(equations, single):
    out = np.array(equations).T
    return out[0] if single else out


# ---------------------------------------------------------------------------
# M-estimation systems


def residual_m_loo(p, spec: ProblemSpec) -> np.ndarray:
    """LOO system: prox-derivative equation and residual-variance equation."""
    (tau, lam), single = _unpack(p, "m_loo")
    loss = spec.loss
    e_pd, e_sq = expect_noise_sum(
        lambda s: np.array([losses.prox_deriv(loss, s, lam),
                            (s - losses.prox(loss, s, lam)) ** 2]),
        spec.noise, tau, spec.rule(), kinks=losses.prox_kinks(loss, lam))
    k = spec.kappa
    return _rows([e_pd - (1.0 - k), e_sq - k * tau * tau], single)


def residual_m_amp(p, spec: ProblemSpec) -> np.ndarray:
    """AMP system, written on the Moreau envelope derivatives."""
    (tau, lam), single = _unpack(p, "m_amp")
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
    (tau, alpha, mu), single = _unpack(p, "m_cgmt")
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
    (tau, gam), single = _unpack(p, "lasso_amp")
    thresh = spec.lambda_star + gam
    mom = lasso_signal_moments(spec.prior, 1.0, tau, thresh)
    k, s2 = spec.kappa, spec.sigma_star ** 2
    return _rows([
        s2 + k * mom.shift_sq - tau * tau,
        k * thresh * mom.eta_deriv - gam,
    ], single)


def residual_lasso_cgmt(p, spec: ProblemSpec) -> np.ndarray:
    """Six-equation CGMT system; the regularizer prox is the soft threshold."""
    (alpha, sigma, tau2, theta, lam, gamma2), single = _unpack(p, "lasso_cgmt")
    if (theta > 1.0).any():  # the one bound SYSTEMS does not declare
        raise ValueError(f"theta must lie in (0, 1], got {theta[theta > 1.0][0]}")
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
    """Covariance of the (true logit, negative fitted logit) Gaussian pair.

    ``residual_logistic_loo`` conditions on its second entry, the prox
    argument; the tests integrate the pair on a tensor grid as an oracle.
    """
    r2 = spec.r_star ** 2
    return np.array([
        [r2, -sigma * r2],
        [-sigma * r2, sigma ** 2 * r2 + alpha1 ** 2 * spec.kappa],
    ])


def residual_logistic_loo(p, spec: ProblemSpec) -> np.ndarray:
    """LOO system, conditioned on the prox argument Q2 ~ N(0, s^2).

    Given Q2, Q1 = c*Q2 + sqrt(v)*U (``logistic_loo_covariance``), so the
    sums of sigmoid(Q1) and Q1*sigmoid(Q1) are smooth inner Gauss-Hermite
    sums, and Q2 is integrated in its prox output (``prox_rho_nodes``).
    """
    if spec.r_star <= 0:
        raise ConfigError("the logistic LOO system requires r_star > 0")
    (alpha1, sigma, lam), single = _unpack(p, "logistic_loo")
    k, r2 = spec.kappa, spec.r_star ** 2
    s2 = sigma ** 2 * r2 + alpha1 ** 2 * k
    c, v = -sigma * r2 / s2, r2 * alpha1 ** 2 * k / s2
    rule = spec.rule()
    q2, rp, w = prox_rho_nodes(np.sqrt(s2), lam, rule.order)
    # (rows, outer nodes, inner nodes) grids, at most two alive at once
    q1 = c[:, None, None] * q2[..., None] + np.sqrt(v)[:, None, None] * rule.nodes
    s1 = expit(q1)
    e_s1 = np.vecdot(s1, rule.weights)           # E[sigmoid(Q1) | Q2]
    s1 *= q1
    e_q1s1 = np.vecdot(s1, rule.weights)         # E[Q1 sigmoid(Q1) | Q2]
    lam_c = lam[:, None]
    lrp = lam_c * rp
    rpp = rp * (1.0 - rp)
    e_sq = np.vecdot(2.0 * e_s1 * lrp ** 2, w)
    e_cross = np.vecdot(e_q1s1 * lrp, w)
    e_deriv = np.vecdot(2.0 * e_s1 / (1.0 + lam_c * rpp), w)
    return _rows([e_sq / k ** 2 - alpha1 ** 2, e_cross, e_deriv - (1.0 - k)], single)


def residual_logistic_cgmt(p, spec: ProblemSpec) -> np.ndarray:
    """CGMT system, conditioned on the prox argument X = alpha2*Z + mu*V.

    With s = hypot(alpha2, mu), X = s*U1 and V = (mu*U1 + alpha2*U2)/s for a
    standard Gaussian pair, so the label tilt 2*sigmoid(r*V) becomes an
    inner Gauss-Hermite sum over U2.  prox_ell(X) = -prox_rho(Y) with
    Y = -X, where ell' = -sigmoid(P) and ell'' = sigmoid'(P), and Y is
    integrated in its prox output P (``prox_rho_nodes``).
    """
    (alpha2, mu, lam), single = _unpack(p, "logistic_cgmt")
    k = spec.kappa
    s = np.hypot(alpha2, mu)
    rule = spec.rule()
    y, sp, w = prox_rho_nodes(s, lam, rule.order)
    # (rows, outer nodes, inner nodes) grids, at most two alive at once
    vv = (-mu / s ** 2)[:, None, None] * y[..., None] + (alpha2 / s)[:, None, None] * rule.nodes
    tilt = spec.r_star * vv
    expit(tilt, out=tilt)
    e_t = 2.0 * np.vecdot(tilt, rule.weights)    # E[2 sigmoid(r V) | Y]
    tilt *= vv
    e_vt = 2.0 * np.vecdot(tilt, rule.weights)   # E[V 2 sigmoid(r V) | Y]
    spp = sp * (1.0 - sp)
    return _rows([
        -np.vecdot(e_vt * sp, w),
        lam ** 2 * np.vecdot(e_t * sp ** 2, w) - alpha2 ** 2 * k,
        lam * np.vecdot(e_t * spp / (1.0 + lam[:, None] * spp), w) - k,
    ], single)


# ---------------------------------------------------------------------------
# Registry and MSE extraction


@dataclass(frozen=True)
class SystemDef:
    name: str
    model: str
    params: tuple[str, ...]
    residual: object
    # parameters that must be > 0 and finite; solves clamp them at POSITIVITY_FLOOR
    positive: tuple[str, ...]
    # parameters that must not be < 0; solves clamp them at 0
    nonnegative: tuple[str, ...] = ()


POSITIVITY_FLOOR = 1e-8

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
