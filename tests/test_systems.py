"""Residual systems: closed-form roots, cross-identities, MSE extraction."""

import numpy as np
import pytest

from hdse.errors import ConfigError, StateError
from hdse.expectations import (
    bernoulli_gaussian,
    expect_noise_sum,
    expect_noise_zweighted,
    gaussian,
    point_mass,
)
from hdse.losses import LossSpec, moreau_bundle, prox_kinks
from hdse.systems import (
    ProblemSpec,
    SeSolution,
    lasso_signal_moments,
    logistic_loo_covariance,
    mse_candidates,
    mse_from_solution,
    residual_lasso_amp,
    residual_lasso_cgmt,
    residual_logistic_cgmt,
    residual_logistic_loo,
    residual_m_amp,
    residual_m_cgmt,
    residual_m_loo,
)

QUAD = LossSpec("quadratic")
HUBER = LossSpec("huber", delta=1.345)


def m_spec(kappa, sigma=1.0, loss=QUAD):
    return ProblemSpec("m_estimator", kappa=kappa, loss=loss, noise=gaussian(0.0, sigma))


# ---------------------------------------------------------------------------
# ProblemSpec construction


def test_spec_rejects_kappa_at_least_one_for_m_and_logistic():
    with pytest.raises(ConfigError):
        m_spec(1.0)
    with pytest.raises(ConfigError):
        ProblemSpec("logistic", kappa=1.2, r_star=1.0)
    ProblemSpec("lasso", kappa=1.5, prior=point_mass(0.0), sigma_star=1.0)  # allowed


def test_spec_resolves_and_checks_consistency():
    spec = m_spec(0.5)
    assert spec.sigma_star == 1.0
    with pytest.raises(ConfigError):
        ProblemSpec("m_estimator", kappa=0.5, loss=QUAD,
                    noise=gaussian(0.0, 1.0), sigma_star=2.0)
    with pytest.raises(ConfigError):
        ProblemSpec("logistic", kappa=0.1, prior=gaussian(0.0, 1.0), r_star=3.0)
    spec = ProblemSpec("logistic", kappa=0.1, r_star=2.0)
    assert spec.prior.second_moment() == pytest.approx(4.0)


def test_quad_order_defaults():
    assert m_spec(0.5).default_quad_order() == 61
    assert m_spec(0.5, loss=LossSpec("absolute")).default_quad_order() == 121
    lasso = ProblemSpec("lasso", kappa=0.5, prior=point_mass(0.0), sigma_star=1.0)
    assert lasso.default_quad_order() == 121
    assert m_spec(0.5, loss=QUAD).rule(31).order == 31


# ---------------------------------------------------------------------------
# M-estimation systems, quadratic closed form: lam = k/(1-k), tau^2 = k s^2/(1-k)


def test_m_loo_quadratic_roots():
    r = residual_m_loo({"tau1": 1.0, "lam1": 1.0}, m_spec(0.5))
    assert np.max(np.abs(r)) < 1e-9
    r = residual_m_loo({"tau1": np.sqrt(3.0 / 7.0), "lam1": 3.0 / 7.0}, m_spec(0.3))
    assert np.max(np.abs(r)) < 1e-9
    r = residual_m_loo({"tau1": 2.0, "lam1": 1.0}, m_spec(0.5))
    assert np.max(np.abs(r)) > 1e-3


def test_m_amp_quadratic_root_and_preconditions():
    r = residual_m_amp({"tau2": 1.0, "lam2": 1.0}, m_spec(0.5))
    assert np.max(np.abs(r)) < 1e-9
    with pytest.raises(ValueError):
        residual_m_amp({"tau2": 0.0, "lam2": 1.0}, m_spec(0.5))


def test_m_amp_huber_at_loo_root():
    from hdse.solving import solve_system

    spec = m_spec(0.3, loss=HUBER)
    sol = solve_system("m_loo", spec)
    r = residual_m_amp({"tau2": sol.params["tau1"], "lam2": sol.params["lam1"]}, spec)
    assert np.max(np.abs(r)) < 1e-6


def test_m_cgmt_quadratic_pinned_point():
    spec = m_spec(0.5)
    # with the envelope scale fixed at 1, mu is pinned by the Z-weighted equation
    tau, b = 1.0, 1.0
    e_z = expect_noise_zweighted(lambda s: moreau_bundle(QUAD, s, b).dm_dx,
                                 spec.noise, tau, spec.rule())
    mu = np.sqrt(spec.kappa) * e_z / spec.kappa
    r = residual_m_cgmt({"tau3": tau, "alpha": b * mu, "mu": mu}, spec)
    assert np.max(np.abs(r)) < 1e-8
    generic = residual_m_cgmt({"tau3": 1.0, "alpha": 1.0, "mu": 1.0}, spec)
    assert abs(generic[1]) > 1e-3


def test_m_cgmt_huber_mapped_point():
    from hdse.solving import solve_system
    from hdse.transforms import map_parameters

    spec = m_spec(0.3, loss=HUBER)
    sol = solve_system("m_loo", spec)
    mapped = map_parameters(sol, "m_cgmt", spec)
    r = residual_m_cgmt(mapped, spec)
    assert np.max(np.abs(r)) < 1e-6


def test_stein_interchange_cross_check():
    # E[Z g(W + tau Z)] = tau E[g'(W + tau Z)] links the two m-system routes
    for loss in (QUAD, HUBER, LossSpec("logistic_rho")):
        spec = m_spec(0.4, loss=loss)
        tau, lam = 0.9, 0.7
        kinks = prox_kinks(loss, lam)
        lhs = expect_noise_zweighted(lambda s: moreau_bundle(loss, s, lam).dm_dx,
                                     spec.noise, tau, spec.rule(), kinks=kinks)
        rhs = tau * expect_noise_sum(lambda s: moreau_bundle(loss, s, lam).d2m_dx2,
                                     spec.noise, tau, spec.rule(), kinks=kinks)
        assert lhs == pytest.approx(rhs, abs=1e-8)


# ---------------------------------------------------------------------------
# Lasso systems


def lasso_spec(kappa, lam=0.1, sigma=1.0, prior=None):
    prior = prior if prior is not None else bernoulli_gaussian(0.1, np.sqrt(10.0))
    return ProblemSpec("lasso", kappa=kappa, prior=prior,
                       noise=gaussian(0.0, sigma), lambda_star=lam)


def test_lasso_amp_zero_penalty_reductions():
    spec = lasso_spec(0.36, lam=0.0, sigma=0.8)
    r = residual_lasso_amp({"tau1": 1.0, "gamma1": 0.0}, spec)
    assert np.max(np.abs(r)) < 1e-9
    spec2 = lasso_spec(0.5, lam=0.0, sigma=1.0)
    r = residual_lasso_amp({"tau1": np.sqrt(2.0), "gamma1": 0.0}, spec2)
    assert np.max(np.abs(r)) < 1e-9


def test_lasso_amp_zero_prior_matches_pure_noise_system():
    # a point-mass-at-zero prior collapses the system to the beta = 0 case
    spec = lasso_spec(0.4, lam=0.3, prior=point_mass(0.0))
    p = {"tau1": 1.4, "gamma1": 0.25}
    r = residual_lasso_amp(p, spec)
    th = spec.lambda_star + p["gamma1"]
    mom = lasso_signal_moments(point_mass(0.0), 1.0, p["tau1"], th)
    expected = np.array([
        1.0 + 0.4 * mom.eta_sq - p["tau1"] ** 2,
        0.4 * th * mom.eta_deriv - p["gamma1"],
    ])
    assert np.allclose(r, expected, atol=1e-14)


def test_lasso_cgmt_identities_at_mapped_root():
    from hdse.solving import solve_system
    from hdse.transforms import map_parameters

    spec = lasso_spec(0.5)
    sol = solve_system("lasso_amp", spec)
    mapped = map_parameters(sol, "lasso_cgmt", spec)
    r = residual_lasso_cgmt(mapped, spec)
    assert np.max(np.abs(r)) < 1e-6
    assert mapped["sigma"] * mapped["tau2"] - (mapped["lam"] + 1.0) == pytest.approx(0.0, abs=1e-8)
    assert mapped["theta"] - 1.0 / (mapped["lam"] + 1.0) == pytest.approx(0.0, abs=1e-8)


def test_lasso_cgmt_preconditions():
    spec = lasso_spec(0.5)
    with pytest.raises(ValueError):
        residual_lasso_cgmt({"alpha": 1.0, "sigma": -1.0, "tau2": 1.0, "theta": 0.5,
                             "lam": 0.5, "gamma2": 0.5}, spec)
    with pytest.raises(ValueError):
        residual_lasso_cgmt({"alpha": 1.0, "sigma": 1.0, "tau2": 1.0, "theta": 1.5,
                             "lam": 0.5, "gamma2": 0.5}, spec)


# ---------------------------------------------------------------------------
# Logistic systems


def test_logistic_loo_covariance_arithmetic():
    spec = ProblemSpec("logistic", kappa=0.2, r_star=1.5)
    cov = logistic_loo_covariance(spec, alpha1=2.0, sigma=0.7)
    r2 = 1.5**2
    assert cov[0, 0] == pytest.approx(r2)
    assert cov[0, 1] == pytest.approx(-0.7 * r2)
    assert cov[1, 1] == pytest.approx(0.7**2 * r2 + 4.0 * 0.2)


def test_logistic_loo_small_kappa_limit():
    # as kappa -> 0 and lam -> 0 the third equation reduces to E[2 rho'(Q1)] = 1
    spec = ProblemSpec("logistic", kappa=1e-6, r_star=1.0)
    r = residual_logistic_loo({"alpha1": 1.0, "sigma": 1.0, "lam1": 1e-8}, spec)
    assert abs(r[2]) < 1e-5


def test_logistic_cgmt_zero_signal_independence():
    # r* = 0 makes V a plain Gaussian independent of the argument when mu = 0
    spec = ProblemSpec("logistic", kappa=0.2, prior=point_mass(0.0), r_star=0.0)
    r = residual_logistic_cgmt({"alpha2": 0.8, "mu": 0.0, "lam2": 0.5}, spec)
    assert r[0] == pytest.approx(0.0, abs=1e-14)


def test_logistic_cgmt_second_equation_sign():
    # ell' is strictly negative, so lam^2 E[(ell')^2] > 0 for any parameters
    spec = ProblemSpec("logistic", kappa=0.2, r_star=1.0)
    for p in ({"alpha2": 0.5, "mu": 0.1, "lam2": 0.4},
              {"alpha2": 2.0, "mu": 1.5, "lam2": 2.0}):
        r = residual_logistic_cgmt(p, spec)
        assert r[1] + p["alpha2"] ** 2 * spec.kappa > 0.0


def test_logistic_residuals_reuse_the_prox_sigmoid(monkeypatch):
    # the prox hands back sigmoid(prox), so neither residual evaluates a
    # sigmoid on the prox grid; logistic_loo keeps its one on the q1 grid
    import hdse.systems

    calls = []
    real = hdse.systems.expit
    monkeypatch.setattr(hdse.systems, "expit", lambda z: calls.append(np.shape(z)) or real(z))
    spec = ProblemSpec("logistic", kappa=0.2, r_star=1.0)
    n = spec.rule().order
    residual_logistic_loo(np.array([2.0, 1.1, 0.4]), spec)
    assert calls == [(n, n)]
    calls.clear()
    residual_logistic_cgmt(np.array([1.0, 1.1, 0.4]), spec)
    assert calls == []


def test_logistic_loo_requires_positive_r_star():
    spec = ProblemSpec("logistic", kappa=0.2, prior=point_mass(0.0), r_star=0.0)
    with pytest.raises(ConfigError):
        residual_logistic_loo({"alpha1": 1.0, "sigma": 1.0, "lam1": 0.5}, spec)


# ---------------------------------------------------------------------------
# MSE extraction


def test_mse_m_loo_matches_ols_oracle():
    # OLS oracle: (1/n) E||b - b*||^2 = sigma^2 d/(n - d - 1) -> k s^2/(1 - k)
    spec = m_spec(0.5)
    sol = SeSolution("m_loo", {"tau1": 1.0, "lam1": 1.0}, 1e-12, 1)
    assert mse_from_solution(sol, spec) == pytest.approx(1.0)
    k = 0.3
    oracle = k * 1.0 / (1.0 - k)
    sol = SeSolution("m_loo", {"tau1": np.sqrt(oracle), "lam1": k / (1 - k)}, 1e-12, 1)
    assert mse_from_solution(sol, m_spec(k)) == pytest.approx(oracle)


def test_mse_lasso_amp_subtracts_noise_floor():
    spec = lasso_spec(0.5, lam=0.0, prior=point_mass(0.0))
    sol = SeSolution("lasso_amp", {"tau1": np.sqrt(2.0), "gamma1": 0.0}, 1e-12, 1)
    assert mse_from_solution(sol, spec) == pytest.approx(1.0)
    nominal, reduction = mse_candidates(sol, spec)
    assert nominal == pytest.approx(2.0)
    assert reduction == pytest.approx(1.0)


def test_mse_lasso_cgmt_equals_amp_value_at_mapped_root():
    from hdse.solving import solve_system
    from hdse.transforms import map_parameters

    spec = lasso_spec(0.5)
    sol = solve_system("lasso_amp", spec)
    mapped = map_parameters(sol, "lasso_cgmt", spec)
    cg = SeSolution("lasso_cgmt", mapped, 1e-9, 1)
    amp_mse = mse_from_solution(sol, spec)
    cg_mse = mse_from_solution(cg, spec)
    assert cg_mse == pytest.approx(amp_mse, rel=1e-6)
    # and the identity gamma2^2/theta^2 - sigma*^2 gives the same number
    alt = mapped["gamma2"] ** 2 / mapped["theta"] ** 2 - spec.sigma_star ** 2
    assert alt == pytest.approx(cg_mse, rel=1e-6)


def test_mse_logistic_centered_prior_drops_mean_term():
    spec = ProblemSpec("logistic", kappa=0.1, r_star=1.0)
    sol = SeSolution("logistic_loo", {"alpha1": 2.0, "sigma": 1.3, "lam1": 0.5}, 1e-12, 1)
    assert mse_from_solution(sol, spec) == pytest.approx(4.0)


def test_mse_requires_convergence():
    spec = m_spec(0.5)
    sol = SeSolution("m_loo", {"tau1": 1.0, "lam1": 1.0}, residual_norm=1.0, iterations=5)
    with pytest.raises(StateError):
        mse_from_solution(sol, spec)
