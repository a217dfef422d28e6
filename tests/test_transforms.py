"""Parameter maps between systems and the solve-map-substitute verifier."""

import numpy as np
import pytest

from hdse.errors import ConfigError
from hdse.expectations import bernoulli_gaussian, gaussian, point_mass
from hdse.losses import LossSpec
from hdse.solving import solve_system
from hdse.systems import ProblemSpec, SeSolution, residual_m_amp, mse_from_solution
from hdse.transforms import map_parameters, supported_pairs, verify_equivalence

HUBER = LossSpec("huber", delta=1.345)


def sol_of(system, params):
    return SeSolution(system, params, 1e-12, 1)


def test_map_arithmetic_examples():
    spec = ProblemSpec("m_estimator", kappa=0.5, loss=HUBER, noise=gaussian(0.0, 1.0))
    mapped = map_parameters(sol_of("m_cgmt", {"tau3": 1.0, "alpha": 2.0, "mu": 2.0}),
                            "m_loo", spec)
    assert mapped == {"tau1": 1.0, "lam1": 1.0}

    lasso = ProblemSpec("lasso", kappa=0.5, prior=point_mass(0.0),
                        noise=gaussian(0.0, 1.0), lambda_star=0.2)
    mapped = map_parameters(
        sol_of("lasso_cgmt", {"alpha": 1.0, "sigma": 1.0, "tau2": 1.0, "theta": 0.5,
                              "lam": 1.0, "gamma2": 0.5}), "lasso_amp", lasso)
    assert mapped["tau1"] == pytest.approx(1.0)
    assert mapped["gamma1"] == pytest.approx(0.2)

    logistic = ProblemSpec("logistic", kappa=0.25, r_star=2.0)
    mapped = map_parameters(
        sol_of("logistic_cgmt", {"alpha2": 1.0, "mu": 2.0, "lam2": 0.5}),
        "logistic_loo", logistic)
    assert mapped == {"alpha1": 2.0, "sigma": 1.0, "lam1": 0.5}


def test_unsupported_pair_is_usage_error():
    spec = ProblemSpec("m_estimator", kappa=0.5, loss=HUBER, noise=gaussian(0.0, 1.0))
    with pytest.raises(ConfigError):
        map_parameters(sol_of("m_loo", {"tau1": 1.0, "lam1": 1.0}), "lasso_amp", spec)
    with pytest.raises(ConfigError):
        map_parameters(sol_of("m_loo", {"tau1": 1.0, "lam1": 1.0}), "m_loo", spec)
    # every ordered pair of distinct systems within a family
    assert supported_pairs() == [
        ("lasso_amp", "lasso_cgmt"), ("lasso_cgmt", "lasso_amp"),
        ("logistic_cgmt", "logistic_loo"), ("logistic_loo", "logistic_cgmt"),
        ("m_amp", "m_cgmt"), ("m_amp", "m_loo"), ("m_cgmt", "m_amp"),
        ("m_cgmt", "m_loo"), ("m_loo", "m_amp"), ("m_loo", "m_cgmt"),
    ]


def test_round_trips_are_identity():
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=HUBER, noise=gaussian(0.0, 1.0))
    for source, target in (("m_loo", "m_amp"), ("m_amp", "m_cgmt")):
        base = solve_system(source, spec)
        forward = map_parameters(base, target, spec)
        back = map_parameters(sol_of(target, forward), source, spec)
        for key, value in base.params.items():
            assert back[key] == pytest.approx(value, abs=1e-12)

    lasso = ProblemSpec("lasso", kappa=0.5, prior=bernoulli_gaussian(0.1, np.sqrt(10)),
                        noise=gaussian(0.0, 1.0), lambda_star=0.1)
    amp = solve_system("lasso_amp", lasso)
    cg = map_parameters(amp, "lasso_cgmt", lasso)
    back = map_parameters(sol_of("lasso_cgmt", cg), "lasso_amp", lasso)
    assert back["tau1"] == pytest.approx(amp.params["tau1"], abs=1e-12)
    assert back["gamma1"] == pytest.approx(amp.params["gamma1"], abs=1e-12)

    logistic = ProblemSpec("logistic", kappa=0.1, r_star=1.0)
    cgmt = solve_system("logistic_cgmt", logistic)
    loo = map_parameters(cgmt, "logistic_loo", logistic)
    back = map_parameters(sol_of("logistic_loo", loo), "logistic_cgmt", logistic)
    for key, value in cgmt.params.items():
        assert back[key] == pytest.approx(value, abs=1e-12)


def test_logistic_loo_root_maps_onto_cgmt():
    from hdse.systems import residual_logistic_cgmt

    spec = ProblemSpec("logistic", kappa=0.25, r_star=2.0)
    loo = solve_system("logistic_loo", spec)
    mapped = map_parameters(loo, "logistic_cgmt", spec)
    assert mapped["alpha2"] == pytest.approx(np.sqrt(0.25) * loo.params["alpha1"])
    assert mapped["mu"] == pytest.approx(2.0 * loo.params["sigma"])
    r = residual_logistic_cgmt(mapped, spec)
    assert np.max(np.abs(r)) < 1e-6


def test_identity_map_m_amp_at_m_loo_root():
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=HUBER, noise=gaussian(0.0, 1.0))
    sol = solve_system("m_loo", spec)
    r = residual_m_amp({"tau2": sol.params["tau1"], "lam2": sol.params["lam1"]}, spec)
    assert np.max(np.abs(r)) < 1e-6


def test_verify_equivalence_reports():
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=HUBER, noise=gaussian(0.0, 1.0))
    report = verify_equivalence("m_loo", "m_cgmt", spec)
    assert report.passed
    assert report.target_residual_norm < 1e-6
    direct = solve_system("m_loo", spec)
    assert report.source_residual_norm == direct.residual_norm
    assert report.source_iterations == direct.iterations
    assert report.tolerance == pytest.approx(1e-7)
    assert set(report.mapped_params) == {"tau3", "alpha", "mu"}
    for source, target in (("m_amp", "m_cgmt"), ("m_cgmt", "m_amp")):
        assert verify_equivalence(source, target, spec).passed

    lasso = ProblemSpec("lasso", kappa=0.5, prior=bernoulli_gaussian(0.1, np.sqrt(10)),
                        noise=gaussian(0.0, 1.0), lambda_star=0.1)
    report = verify_equivalence("lasso_amp", "lasso_cgmt", lasso)
    assert report.passed

    logistic = ProblemSpec("logistic", kappa=0.1, r_star=1.0)
    report = verify_equivalence("logistic_cgmt", "logistic_loo", logistic)
    assert report.passed


def test_predicted_mse_invariant_across_mapped_roots():
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=HUBER, noise=gaussian(0.0, 1.0))
    loo = solve_system("m_loo", spec)
    for source in (loo, solve_system("m_amp", spec)):
        cg_params = map_parameters(source, "m_cgmt", spec)
        cg = SeSolution("m_cgmt", cg_params, 1e-9, 1)
        assert mse_from_solution(cg, spec) == pytest.approx(mse_from_solution(loo, spec),
                                                            rel=1e-6)

    logistic = ProblemSpec("logistic", kappa=0.1, r_star=1.0)
    cgmt = solve_system("logistic_cgmt", logistic)
    loo_params = map_parameters(cgmt, "logistic_loo", logistic)
    loo_sol = SeSolution("logistic_loo", loo_params, 1e-9, 1)
    assert mse_from_solution(loo_sol, logistic) == pytest.approx(
        mse_from_solution(cgmt, logistic), rel=1e-6)


@pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8])
def test_lasso_map_at_zero_penalty(kappa):
    # at lambda* = 0 the lasso is least squares: theta = 1 - kappa,
    # lam = kappa/(1 - kappa) and alpha = 1 (no shrinkage)
    lasso = ProblemSpec("lasso", kappa=kappa, prior=bernoulli_gaussian(0.1, np.sqrt(10)),
                        noise=gaussian(0.0, 1.0), lambda_star=0.0)
    sol = solve_system("lasso_cgmt", lasso)
    assert sol.converged
    assert sol.params["theta"] == pytest.approx(1.0 - kappa, abs=1e-12)
    assert sol.params["lam"] == pytest.approx(kappa / (1.0 - kappa), abs=1e-12)
    assert sol.params["alpha"] == pytest.approx(1.0, abs=1e-12)
    assert verify_equivalence("lasso_amp", "lasso_cgmt", lasso).passed
    assert verify_equivalence("lasso_cgmt", "lasso_amp", lasso).passed
