"""Data generation and finite-sample estimators."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import daxpy

from hdse import estimators, losses
from hdse.errors import ConfigError, MleNonExistence, NonConvergence
from hdse.estimators import (
    Dataset,
    _downdated_hessian,
    _max_margin_point,
    amp_lasso,
    empirical_mse,
    fit_lasso_cd,
    fit_logistic_mle,
    fit_m_estimator,
    gen_linear_data,
    gen_logistic_data,
    kkt_residual_lasso,
    logistic_overlap,
    make_rng,
)
from hdse.expectations import bernoulli_gaussian, gaussian, point_mass
from hdse.losses import LossSpec, soft_threshold
from hdse.solving import kappa_critical
from hdse.systems import ProblemSpec
from oracles import lasso_on_support

QUAD = LossSpec("quadratic")
HUBER = LossSpec("huber", delta=1.345)
LOGISTIC_RHO = LossSpec("logistic_rho")


def linear_spec(kappa=0.5, sigma=1.0, loss=QUAD, prior=None, lam=0.0):
    return ProblemSpec("m_estimator" if lam == 0.0 else "lasso", kappa=kappa,
                       loss=loss if lam == 0.0 else None,
                       prior=prior if prior is not None else point_mass(0.0),
                       noise=gaussian(0.0, sigma), lambda_star=lam)


# ---------------------------------------------------------------------------
# Generation


def test_linear_data_shapes_and_silence():
    spec = linear_spec()
    data = gen_linear_data(spec, 1000, seed=0)
    assert data.design.shape == (1000, 500)
    spec0 = ProblemSpec("m_estimator", kappa=0.5, loss=QUAD, prior=point_mass(0.0),
                        noise=point_mass(0.0))
    data0 = gen_linear_data(spec0, 200, seed=0)
    assert np.all(data0.response == 0.0)


def test_design_moments():
    spec = linear_spec()
    data = gen_linear_data(spec, 1500, seed=1)
    n, d = data.design.shape
    assert abs(data.design.mean()) < 5.0 / np.sqrt(n * d)
    assert abs(data.design.var() * n - 1.0) < 5.0 / np.sqrt(n * d)


def test_prior_energy_lln():
    prior = bernoulli_gaussian(0.1, np.sqrt(10.0))
    spec = ProblemSpec("lasso", kappa=0.5, prior=prior, noise=gaussian(0.0, 1.0),
                       lambda_star=0.1)
    data = gen_linear_data(spec, 4000, seed=2)
    energy = np.sum(data.truth**2) / data.n
    target = 0.5 * prior.second_moment()
    sd = np.sqrt(2000) * np.sqrt(prior.second_moment()) / 4000 * 3  # rough 3-sigma
    assert abs(energy - target) < 3 * sd


def test_determinism_and_stream_independence():
    spec = linear_spec()
    a = gen_linear_data(spec, 300, seed=5)
    b = gen_linear_data(spec, 300, seed=5)
    assert np.array_equal(a.design, b.design)
    c = gen_linear_data(spec, 300, seed=5, replicate=1)
    assert not np.array_equal(a.design, c.design)
    assert np.array_equal(make_rng(1, 2).random(4), make_rng(1, 2).random(4))


def test_logistic_labels():
    spec = ProblemSpec("logistic", kappa=0.25, prior=point_mass(0.0), r_star=0.0)
    data = gen_logistic_data(spec, 2000, seed=3)
    assert set(np.unique(data.response)) == {-1.0, 1.0}
    assert abs(np.mean(data.response)) < 0.05  # fair signs at zero signal
    strong = ProblemSpec("logistic", kappa=0.25, prior=point_mass(50.0))
    sdata = gen_logistic_data(strong, 2000, seed=3)
    agreement = np.mean(np.sign(sdata.design @ sdata.truth) == sdata.response)
    assert agreement > 0.95


# ---------------------------------------------------------------------------
# M-estimation


def test_ols_gradient_certificate():
    data = gen_linear_data(linear_spec(), 600, seed=7)
    beta = fit_m_estimator(data)
    grad = data.design.T @ (data.design @ beta - data.response)
    assert np.max(np.abs(grad)) < 1e-10


def test_huber_matches_ols_when_quadratic_branch_active():
    spec = ProblemSpec("m_estimator", kappa=0.2, loss=LossSpec("huber", delta=50.0),
                       prior=point_mass(0.0), noise=gaussian(0.0, 0.1))
    data = gen_linear_data(spec, 500, seed=8)
    beta_h = fit_m_estimator(data)
    beta_ols, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
    assert np.max(np.abs(beta_h - beta_ols)) < 1e-8


def test_cholesky_start_matches_lstsq():
    spec = linear_spec(kappa=0.9)
    data = gen_linear_data(spec, 400, seed=17)
    beta_ols, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
    assert np.max(np.abs(fit_m_estimator(data) - beta_ols)) < 1e-10


def test_quadratic_fit_certificate_rejects_unreachable_gradient():
    # at this scale rounding alone leaves X'(y - X beta) far above the 1e-8 tolerance
    data = gen_linear_data(linear_spec(), 200, seed=7)
    scaled = Dataset(1e6 * data.design, 1e6 * data.response, data.truth, data.spec, 0)
    with pytest.raises(NonConvergence):
        fit_m_estimator(scaled)


def test_huber_gradient_certificate():
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=HUBER, noise=gaussian(0.0, 1.0))
    data = gen_linear_data(spec, 1000, seed=18)
    beta = fit_m_estimator(data)
    resid = data.response - data.design @ beta
    grad = data.design.T @ np.clip(resid, -HUBER.delta, HUBER.delta)
    assert np.max(np.abs(grad)) < 1e-8


def newton_m_fit(X, y, loss, tol=1e-8, max_iter=100):
    """Newton with the Hessian rebuilt from all rows and LU-solved: the
    reference for the downdated, Cholesky-solved fit."""
    beta = cho_solve(cho_factor(X.T @ X, overwrite_a=True, check_finite=False), X.T @ y,
                     check_finite=False)

    def objective(b):
        return float(np.sum(losses.eval_loss(loss, y - X @ b)))

    obj = objective(beta)
    for _ in range(max_iter):
        r = y - X @ beta
        grad = -X.T @ losses.loss_deriv(loss, r)
        if float(np.max(np.abs(grad))) < tol:
            return beta
        xw = X * np.sqrt(losses.loss_curvature(loss, r))[:, None]
        hess = xw.T @ xw
        hess[np.diag_indices_from(hess)] += 1e-6
        direction = np.linalg.solve(hess, -grad)
        step = 1.0
        while step > 1e-8:
            cand = beta + step * direction
            cand_obj = objective(cand)
            if cand_obj <= obj:
                beta, obj = cand, cand_obj
                break
            step *= 0.5
        else:
            break
    raise AssertionError("reference Newton did not converge")


# at kappa = 0.9 the OLS residuals have sd ~0.3 sigma, so sigma = 3 puts rows
# past the huber knee; logistic_rho has curvature below 1 on every row
NEWTON_CASES = [(HUBER, 0.3, 1.0), (HUBER, 0.9, 3.0), (QUAD, 0.5, 1.0),
                (LOGISTIC_RHO, 0.2, 1.0)]


@pytest.mark.parametrize("loss,kappa,sigma", NEWTON_CASES)
def test_downdated_newton_matches_full_hessian_newton(loss, kappa, sigma):
    spec = ProblemSpec("m_estimator", kappa=kappa, loss=loss, noise=gaussian(0.0, sigma))
    data = gen_linear_data(spec, 400, seed=21)
    reference = newton_m_fit(data.design, data.response, loss)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert np.max(np.abs(fit_m_estimator(data) - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("loss", [QUAD, HUBER, LOGISTIC_RHO])
def test_downdated_hessian_equals_weighted_gram(loss):
    data = gen_linear_data(linear_spec(kappa=0.3), 400, seed=22)
    X = data.design
    # residuals of scale 2 put huber rows on both sides of the knee
    w = losses.loss_curvature(loss, 2.0 * make_rng(23).normal(size=data.n))
    hess = _downdated_hessian(X.T @ X, X, w, 1e-6)
    expected = X.T @ (w[:, None] * X) + 1e-6 * np.eye(data.d)
    # cho_factor reads the upper triangle only
    gap = np.max(np.abs(np.triu(hess) - np.triu(expected)))
    assert gap <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("loss", [HUBER, QUAD])
def test_m_fit_makes_no_design_sized_temporary(loss):
    spec = ProblemSpec("m_estimator", kappa=0.1, loss=loss, noise=gaussian(0.0, 1.0))
    data = gen_linear_data(spec, 4000, seed=24)
    fit_m_estimator(data)  # lazy imports allocate outside the traced call
    tracemalloc.start()
    try:
        fit_m_estimator(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x d scratch (such as -X.T, or X scaled by the curvature) is X.nbytes
    assert peak < 0.8 * data.design.nbytes


def test_absolute_loss_fit_rejected():
    spec = ProblemSpec("m_estimator", kappa=0.2, loss=LossSpec("absolute"),
                       prior=point_mass(0.0), noise=gaussian(0.0, 1.0))
    data = gen_linear_data(spec, 100, seed=9)
    with pytest.raises(ConfigError):
        fit_m_estimator(data)


# ---------------------------------------------------------------------------
# Lasso


def lasso_data(n=400, kappa=0.4, lam=0.1, seed=10):
    prior = bernoulli_gaussian(0.1, np.sqrt(10.0))
    spec = ProblemSpec("lasso", kappa=kappa, prior=prior, noise=gaussian(0.0, 1.0),
                       lambda_star=lam)
    return gen_linear_data(spec, n, seed=seed)


def column_cd(X, y, lam, tol=1e-10):
    """Residual-form cyclic CD: the reference for the covariance-update fit."""
    col_sq = np.einsum("ij,ij->j", X, X)
    beta = np.zeros(X.shape[1])
    resid = y.copy()
    for _ in range(20000):
        max_change = 0.0
        for j in range(X.shape[1]):
            rho = X[:, j] @ resid + col_sq[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != beta[j]:
                resid -= (new - beta[j]) * X[:, j]
                max_change = max(max_change, abs(new - beta[j]))
                beta[j] = new
        if max_change < tol:
            return beta
    raise AssertionError("reference coordinate descent did not converge")


@pytest.mark.parametrize("kappa", [0.4, 1.5])
@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
def test_gram_cd_matches_column_cd(kappa, lam):
    # the fit ends on the exact minimizer of column CD's support and signs;
    # at kappa=1.5, lam=0 the support has d > n coordinates, the minimizer
    # is not unique and the finish never runs, so column CD stays the reference
    data = lasso_data(n=200, kappa=kappa, lam=lam)
    reference = column_cd(data.design, data.response, lam)
    if data.d <= data.n or lam > 0.0:
        reference = lasso_on_support(data.design, data.response, lam, reference)
    # 1e-12 on the coefficient scale: at kappa=1.5, lam=0 the interpolating
    # coefficients reach ~6 and the two summation orders differ by ~2e-12
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert np.max(np.abs(fit_lasso_cd(data, lam) - reference)) < 1e-12 * scale


def numpy_scalar_sweep(gram, corr, beta, lam):
    """The covariance-update sweep indexing numpy scalars and rows per
    coordinate: the reference for the bitwise equality of the lean sweep.
    Moves ``beta`` in place; returns the new corr and the largest move."""
    max_change = 0.0
    for j, cj in enumerate(gram.diagonal().tolist()):
        if cj == 0.0:
            continue
        old = beta[j]
        rho = corr[j] + cj * old
        new = math.copysign(max(abs(rho) - lam, 0.0), rho) / cj
        if new != old:
            delta = new - old
            corr = daxpy(gram[j], corr, a=-delta)
            beta[j] = new
            max_change = max(max_change, abs(delta))
    return corr, max_change


def numpy_scalar_cd(data, lam, tol=1e-10):
    """Plain covariance-update CD to ``tol``, with no active-set finish."""
    gram = data.design.T @ data.design
    corr = data.design.T @ data.response
    beta = [0.0] * data.d
    for _ in range(20000):
        corr, max_change = numpy_scalar_sweep(gram, corr, beta, lam)
        if max_change < tol:
            return np.array(beta)
    raise AssertionError("reference coordinate descent did not converge")


@pytest.mark.parametrize("kappa", [0.5, 1.5])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_lean_cd_sweep_is_bitwise_equal(kappa, lam):
    data = lasso_data(n=200, kappa=kappa, lam=lam)
    gram = data.design.T @ data.design
    coords = [(j, cj, gram[j]) for j, cj in enumerate(gram.diagonal().tolist()) if cj != 0.0]
    lean, lean_corr = [0.0] * data.d, data.design.T @ data.response
    ref, ref_corr = [0.0] * data.d, lean_corr.copy()
    for _ in range(50):
        change = estimators._cd_sweep(coords, lean, lean_corr, lam)
        ref_corr, ref_change = numpy_scalar_sweep(gram, ref_corr, ref, lam)
        assert change == ref_change and lean == ref
        assert np.array_equal(lean_corr, ref_corr)


def test_singular_active_block_keeps_sweeping(monkeypatch):
    # a Gram block that fails to factor leaves plain CD, which stops at CD_TOL
    data = lasso_data(n=200, kappa=0.5, lam=0.1)

    def singular(*args):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(estimators, "_active_set_solution", singular)
    assert np.array_equal(fit_lasso_cd(data, 0.1), numpy_scalar_cd(data, 0.1))


def test_cd_finish_is_exact():
    # plain CD stops at a move of 1e-10 with a KKT residual ~5e-11
    data = lasso_data(n=400, kappa=0.5, lam=0.1)
    assert kkt_residual_lasso(data, fit_lasso_cd(data, 0.1), 0.1) <= 1e-12


def test_cd_finish_converges_beyond_kappa_one():
    # plain CD meets its 20000-sweep cap here; the finish is tried many times
    # and restarts CD from each rejected candidate
    data = lasso_data(n=400, kappa=1.5, lam=0.01, seed=1)
    beta = fit_lasso_cd(data, 0.01)
    assert kkt_residual_lasso(data, beta, 0.01) <= 1e-12


def test_cd_zero_penalty_is_ols():
    data = lasso_data(lam=0.0)
    beta = fit_lasso_cd(data, 0.0)
    beta_ols, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
    assert np.max(np.abs(beta - beta_ols)) < 1e-7


def test_cd_degenerate_cases():
    data = lasso_data()
    zero = Dataset(data.design, np.zeros(data.n), data.truth, data.spec, 0)
    assert np.all(fit_lasso_cd(zero, 0.1) == 0.0)
    lam_max = np.max(np.abs(data.design.T @ data.response))
    beta = fit_lasso_cd(data, lam_max * 1.0001)
    assert np.all(beta == 0.0)
    assert kkt_residual_lasso(data, beta, lam_max * 1.0001) == 0.0


def test_kkt_examples():
    data = lasso_data(lam=0.0)
    beta_ols, *_ = np.linalg.lstsq(data.design, data.response, rcond=None)
    assert kkt_residual_lasso(data, beta_ols, 0.0) < 1e-10
    beta = fit_lasso_cd(data, 0.1)
    base = kkt_residual_lasso(data, beta, 0.1)
    j = int(np.argmax(np.abs(beta)))
    bumped = beta.copy()
    bumped[j] += 1e-3
    assert kkt_residual_lasso(data, bumped, 0.1) > base


def test_amp_agrees_with_cd_and_kkt():
    data = lasso_data(n=800, seed=12)
    state, trajectory = amp_lasso(data, 0.1)
    assert state.converged and not state.diverged
    beta_cd = fit_lasso_cd(data, 0.1)
    assert np.max(np.abs(state.beta - beta_cd)) < 1e-6
    assert kkt_residual_lasso(data, state.beta, 0.1) < 1e-5
    # gamma never dips below zero after the first iteration
    gammas = [g for it, g, _ in trajectory if it >= 1]
    assert min(gammas) >= 0.0
    # fixed-point relation gamma = k c lam / (1 - k c) with c = mean eta'
    pseudo = state.beta + data.design.T @ state.residual
    _, deriv = soft_threshold(pseudo, 0.1 + state.gamma)
    c = float(np.mean(deriv))
    k = data.d / data.n
    assert state.gamma == pytest.approx(k * c * 0.1 / (1.0 - k * c), abs=1e-9)


def test_amp_full_shrinkage_converges_immediately():
    data = lasso_data()
    lam_max = float(np.max(np.abs(data.design.T @ data.response)))
    state, trajectory = amp_lasso(data, lam_max * 1.01)
    assert state.converged
    assert state.iter <= 3
    assert np.all(state.beta == 0.0)


def test_amp_requires_positive_penalty():
    with pytest.raises(ConfigError):
        amp_lasso(lasso_data(), 0.0)


# ---------------------------------------------------------------------------
# Logistic


def test_logistic_mle_small_signal():
    spec = ProblemSpec("logistic", kappa=0.05, prior=point_mass(0.0), r_star=0.0)
    data = gen_logistic_data(spec, 3000, seed=13)
    beta = fit_logistic_mle(data)
    # null-signal MLE coordinates are O(1), far below the separation scale
    assert np.linalg.norm(beta) < 100.0
    from scipy.special import expit
    margins = data.response * (data.design @ beta)
    grad = data.design.T @ (data.response * (expit(margins) - 1.0)) / data.n
    assert np.max(np.abs(grad)) < 1e-8


def test_logistic_separation_toy():
    # crafted separable instance with design entries on the 1/sqrt(n) scale
    spec = ProblemSpec("logistic", kappa=0.5, prior=point_mass(1.0))
    X = np.array([[0.02, 0.0], [0.04, 0.0], [-0.02, 0.0], [-0.04, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    data = Dataset(X, y, np.array([1.0, 0.0]), spec, 0)
    with pytest.raises(MleNonExistence):
        fit_logistic_mle(data)


# kappa = 0.53 with x'beta* ~ N(0, 0.53) lies past kappa_c.  These sets are
# separable, yet Newton can reach a gradient below 1e-8 on them, with every
# margin >= 10.7 and a mean loss of 2e-6 to 4e-6: only the margins tell
SEPARABLE = ProblemSpec("logistic", kappa=0.53, r_star=1.0, prior=gaussian(0.0, 1.0))


def separates(data, beta):
    return bool(np.all(data.response * (data.design @ beta) > 0))


@pytest.mark.parametrize("seed", range(6))
def test_separable_sets_raise(seed):
    with pytest.raises(MleNonExistence, match="Newton iterate"):
        fit_logistic_mle(gen_logistic_data(SEPARABLE, 500, seed))


def test_stalled_fit_takes_the_lp_certificate(monkeypatch):
    # Newton certifies this set only after iteration 2; capped at 2, the
    # verdict comes from the max-margin LP point
    data = gen_logistic_data(SEPARABLE, 500, seed=1)
    with pytest.raises(MleNonExistence, match="Newton iterate"):
        fit_logistic_mle(data)
    monkeypatch.setattr(estimators, "LOGISTIC_MAX_ITER", 2)
    with pytest.raises(MleNonExistence, match="max-margin LP"):
        fit_logistic_mle(data)
    # a set below kappa_c that two Newton steps do not solve
    below = ProblemSpec("logistic", kappa=0.35, r_star=1.0, prior=gaussian(0.0, 1.0))
    with pytest.raises(NonConvergence, match="stalled"):
        fit_logistic_mle(gen_logistic_data(below, 500, seed=0))


def test_separability_brackets_kappa_critical():
    # Monte-Carlo check of the phase transition at signal strength 1
    # (x'beta* ~ N(0, 1)): no set separable at 0.8 kappa_c, all at 1.2 kappa_c
    kc = kappa_critical(1.0)
    for frac, expected in ((0.8, 0), (1.2, 8)):
        kappa = frac * kc
        spec = ProblemSpec("logistic", kappa=kappa, prior=gaussian(0.0, 1.0 / math.sqrt(kappa)))
        separable = 0
        for seed in range(8):
            data = gen_logistic_data(spec, 500, seed)
            try:
                fit_logistic_mle(data)
                fit_separable = False
            except MleNonExistence:
                fit_separable = True
            assert fit_separable == separates(data, _max_margin_point(data.design,
                                                                      data.response))
            separable += fit_separable
        assert separable == expected, (frac, separable)


def test_logistic_overlap_decomposition():
    spec = ProblemSpec("logistic", kappa=0.1, prior=gaussian(0.0, 1.0), r_star=1.0)
    data = gen_logistic_data(spec, 500, seed=14)
    rng = make_rng(99)
    ortho = rng.normal(0.0, 1.0, data.d)
    ortho -= data.truth * (ortho @ data.truth) / (data.truth @ data.truth)
    beta = 1.7 * data.truth + ortho
    inflation, scale = logistic_overlap(beta, data)
    assert inflation == pytest.approx(1.7, abs=1e-12)
    assert scale == pytest.approx(np.linalg.norm(ortho) / np.sqrt(data.d), abs=1e-12)


# ---------------------------------------------------------------------------
# Summaries


def test_empirical_mse():
    data = gen_linear_data(linear_spec(prior=point_mass(2.0)), 400, seed=15)
    assert empirical_mse(data.truth, data) == 0.0
    assert empirical_mse(np.zeros(data.d), data) == pytest.approx(
        np.sum(data.truth**2) / data.n)
    with pytest.raises(ConfigError):
        empirical_mse(np.zeros(3), data)


def test_ols_mse_near_trace_oracle():
    # OLS oracle: E (1/n)||b - b*||^2 = sigma^2 d/(n - d - 1)
    spec = linear_spec(kappa=0.5)
    n = 800
    mses = []
    for rep in range(10):
        data = gen_linear_data(spec, n, seed=16, replicate=rep)
        mses.append(empirical_mse(fit_m_estimator(data), data))
    oracle = 1.0 * (n // 2) / (n - n // 2 - 1)
    assert np.mean(mses) == pytest.approx(oracle, rel=0.1)


def test_monte_carlo_gap_shrinks_with_n():
    """Empirical means approach the SE prediction as n grows.

    Strict monotonicity of three 20-seed means is a coin flip (the standard
    error of each mean is the size of the finite-n bias), so the check is
    noise aware: every gap sits inside the 5% band and the largest n is no
    worse than the smallest beyond combined Monte-Carlo noise.
    """
    from hdse.solving import solve_system

    spec = ProblemSpec("m_estimator", kappa=0.3, loss=HUBER, noise=gaussian(0.0, 1.0))
    predicted = solve_system("m_loo", spec).params["tau1"] ** 2
    gaps, ses = [], []
    for n in (500, 1500, 3000):
        mses = []
        for rep in range(20):
            data = gen_linear_data(spec, n, 20260809, rep)
            mses.append(empirical_mse(fit_m_estimator(data), data))
        gaps.append(abs(np.mean(mses) - predicted))
        ses.append(np.std(mses, ddof=1) / np.sqrt(len(mses)))
    assert all(gap < 0.05 * predicted for gap in gaps)
    assert gaps[-1] <= gaps[0] + 3.0 * np.hypot(ses[0], ses[-1])
