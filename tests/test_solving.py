"""Newton solver, finite-difference Jacobian, fallback, and diagnostics."""

import dataclasses
import math
import time

import numpy as np
import pytest

from hdse.errors import (
    ConfigError,
    LikelyNonExistence,
    NonConvergence,
    NumericError,
    SingularJacobian,
)
from hdse.expectations import bernoulli_gaussian, gaussian, point_mass, two_point
from hdse.losses import LossSpec
from hdse.solving import (
    SolverOptions,
    _clamp_for,
    _root_curve_bracket,
    auto_init,
    evaluate_jacobian_fd,
    kappa_critical,
    newton_solve,
    require_existence,
    solve_system,
)
from hdse.systems import POSITIVITY_FLOOR, SYSTEMS, ProblemSpec
from hdse.transforms import verify_equivalence

# kappa_c(r*) of the logistic model to 1e-5.
KAPPA_CRITICAL = {0.5: 0.48161, 1.0: 0.43894, 2.0: 0.34493}
LOGISTIC_SYSTEMS = ("logistic_loo", "logistic_cgmt")


def test_options_validation():
    with pytest.raises(ConfigError):
        SolverOptions(tol=2.0)
    with pytest.raises(TypeError):   # the step is the fixed FD_STEP
        SolverOptions(fd_step=0.0)
    with pytest.raises(ConfigError):
        SolverOptions(max_iter=0)


def test_jacobian_examples():
    # residuals take a stack of points, one per row, so they index columns
    J = evaluate_jacobian_fd(lambda x: np.stack([x[..., 0] ** 2, x[..., 1]], axis=-1),
                             np.array([2.0, 3.0]), 1e-6)
    assert np.allclose(J, [[4.0, 0.0], [0.0, 1.0]], atol=1e-5)
    J = evaluate_jacobian_fd(lambda x: np.stack([x[..., 0] + x[..., 1], x[..., 0] - x[..., 1]],
                                                axis=-1),
                             np.array([0.3, -0.7]), 1e-6)
    assert np.allclose(J, [[1.0, 1.0], [1.0, -1.0]], atol=1e-9)
    # a linear residual gives a Jacobian independent of the step size
    J1 = evaluate_jacobian_fd(lambda x: 3.0 * x[..., :1], np.array([1.0]), 1e-4)
    J2 = evaluate_jacobian_fd(lambda x: 3.0 * x[..., :1], np.array([1.0]), 1e-8)
    assert np.allclose(J1, J2, atol=1e-6)


def test_scalar_newton_hook():
    x, info = newton_solve(lambda v: v[..., :1] ** 2 - 4.0, np.array([3.0]))
    assert x[0] == pytest.approx(2.0, abs=1e-8)
    assert info["residual_norm"] <= 1e-9


def test_solve_m_loo_auto_quadratic():
    spec = ProblemSpec("m_estimator", kappa=0.5, loss=LossSpec("quadratic"),
                       noise=gaussian(0.0, 1.0))
    sol = solve_system("m_loo", spec)
    assert sol.params["tau1"] == pytest.approx(1.0, abs=1e-8)
    assert sol.params["lam1"] == pytest.approx(1.0, abs=1e-8)
    assert sol.converged


def test_solve_lasso_amp_zero_penalty():
    spec = ProblemSpec("lasso", kappa=0.36, sigma_star=0.8, prior=point_mass(0.0),
                       noise=gaussian(0.0, 0.8), lambda_star=0.0)
    sol = solve_system("lasso_amp", spec)
    assert sol.params["tau1"] == pytest.approx(1.0, abs=1e-8)
    assert sol.params["gamma1"] == pytest.approx(0.0, abs=1e-8)


def test_deterministic_repeat():
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=LossSpec("huber", delta=1.345),
                       noise=gaussian(0.0, 1.0))
    a = solve_system("m_loo", spec)
    b = solve_system("m_loo", spec)
    assert a.params == b.params
    assert a.residual_norm == b.residual_norm


def test_positive_roots_and_diagnostics():
    spec = ProblemSpec("logistic", kappa=0.1, r_star=1.0)
    sol = solve_system("logistic_loo", spec)
    assert all(v > 0 for v in sol.params.values())
    assert sol.jac_cond is not None and np.isfinite(sol.jac_cond)
    assert sol.iterations >= 1


def test_auto_init_unknown_system():
    spec = ProblemSpec("m_estimator", kappa=0.5, loss=LossSpec("quadratic"),
                       noise=gaussian(0.0, 1.0))
    with pytest.raises(ConfigError):
        solve_system("m_loo", spec, x0="bogus")
    with pytest.raises(ConfigError):
        solve_system("nosuch", spec)
    with pytest.raises(ConfigError):
        solve_system("lasso_amp", spec)  # model mismatch


def test_logistic_start_is_the_first_best_finite_candidate(monkeypatch):
    # the start scans sigma over 0.25, 0.5, ..., 2 in one stacked call: rows
    # with sigma < 1 are non-finite and skipped, and of the tie between 1.25
    # and 1.5 the first in grid order wins
    spec = ProblemSpec("logistic", kappa=0.2, r_star=1.0)

    def residual(p, spec):
        sigma = np.atleast_2d(p)[:, 1:2]
        return np.where(sigma < 1.0, np.nan, np.abs(sigma - 1.375)) * np.ones(3)

    sdef = SYSTEMS["logistic_loo"]
    monkeypatch.setitem(SYSTEMS, "logistic_loo", dataclasses.replace(sdef, residual=residual))
    assert auto_init("logistic_loo", spec)[1] == 1.25
    monkeypatch.setitem(SYSTEMS, "logistic_loo", dataclasses.replace(
        sdef, residual=lambda p, spec: np.full((len(np.atleast_2d(p)), 3), np.inf)))
    with pytest.raises(NumericError, match="no feasible initialization"):
        auto_init("logistic_loo", spec)


def test_root_curve_restart_solves_absolute_loss_near_one():
    # Newton from auto_init stalls here; the solve must go through the restart
    # on the root curve of the first m_loo equation.
    spec = ProblemSpec("m_estimator", kappa=0.95, loss=LossSpec("absolute"),
                       noise=gaussian(0.0, 1.0))
    opts = SolverOptions()
    for system in ("m_loo", "m_amp", "m_cgmt"):
        sdef = SYSTEMS[system]

        def residual(x):
            return sdef.residual(np.maximum(x, POSITIVITY_FLOOR), spec)

        with pytest.raises((NonConvergence, NumericError)):
            newton_solve(residual, auto_init(system, spec, opts), opts,
                         clamp=lambda v: np.maximum(v, POSITIVITY_FLOOR))
        sol = solve_system(system, spec, opts=opts)
        assert sol.converged
        assert np.max(np.abs(sdef.residual(sol.vector(), spec))) <= opts.tol
        assert sol.vector()[0] == pytest.approx(4.96554, abs=1e-5)
        assert sol.iterations <= 10     # a kappa walk took 61-82 here


@pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9, 0.99])
def test_root_curve_of_the_quadratic_loss_is_auto_inits_lambda(kappa):
    # E[prox'] = 1/(1 + lambda) for the quadratic loss, so the root curve is
    # lambda = kappa/(1 - kappa) at every tau, auto_init's lambda
    spec = ProblemSpec("m_estimator", kappa=kappa, loss=LossSpec("quadratic"),
                       noise=gaussian(0.0, 1.0))
    lo, hi = _root_curve_bracket(spec, auto_init("m_loo", spec)[0])
    assert lo <= kappa / (1.0 - kappa) <= hi <= lo * (1.0 + 1e-3)


@pytest.mark.parametrize("kappa", [0.3, 0.75, 0.95, 0.99])
@pytest.mark.parametrize("loss", [LossSpec("absolute"), LossSpec("huber", 1.345)])
def test_root_curve_bracket_holds_a_sign_change(loss, kappa):
    spec = ProblemSpec("m_estimator", kappa=kappa, loss=loss, noise=two_point(1.0, 0.5))
    tau = auto_init("m_loo", spec)[0]
    lo, hi = _root_curve_bracket(spec, tau)
    first_row = SYSTEMS["m_loo"].residual(np.array([[tau, lo], [tau, hi]]), spec)[:, 0]
    assert first_row[0] > 0.0 >= first_row[1] and hi <= lo * (1.0 + 1e-3)


@pytest.mark.parametrize("noise", [gaussian(0.0, 1.0), two_point(1.0, 0.5)])
@pytest.mark.parametrize("loss", [LossSpec("quadratic"), LossSpec("huber", 1.345),
                                  LossSpec("absolute")])
def test_m_systems_solve_on_the_whole_kappa_range(loss, noise):
    # the restart is the only fallback of the M solves; every kappa < 1 must solve
    failed = []
    for kappa in [round(0.05 * i, 2) for i in range(1, 20)] + [0.99]:
        spec = ProblemSpec("m_estimator", kappa=kappa, loss=loss, noise=noise)
        for system in ("m_loo", "m_amp", "m_cgmt"):
            try:
                solve_system(system, spec)
            except (NonConvergence, NumericError):
                failed.append((system, kappa))
    assert failed == []


def test_failed_restart_names_both_starts():
    spec = ProblemSpec("m_estimator", kappa=0.95, loss=LossSpec("absolute"),
                       noise=gaussian(0.0, 1.0))
    with pytest.raises(NonConvergence, match="automatic start .* root-curve start") as exc:
        solve_system("m_loo", spec, opts=SolverOptions(max_iter=1))
    assert isinstance(exc.value.__cause__, NonConvergence)   # the automatic start's error
    assert exc.value.iterations == 1 + exc.value.__cause__.iterations


@pytest.mark.parametrize("lambda_star", [0.0, 0.01])
@pytest.mark.parametrize("kappa", [1.1, 1.35, 2.5])
def test_lasso_amp_beyond_kappa_one(lambda_star, kappa):
    spec = ProblemSpec("lasso", kappa=kappa, lambda_star=lambda_star,
                       prior=bernoulli_gaussian(0.1, math.sqrt(10.0)),
                       noise=gaussian(0.0, 1.0))
    sol = solve_system("lasso_amp", spec)
    assert sol.converged
    # gamma1 = 0 solves the second row trivially at lambda_star = 0; the root must not
    assert sol.params["gamma1"] > 0.1


def test_lasso_amp_basis_pursuit_root():
    spec = ProblemSpec("lasso", kappa=1.6, lambda_star=0.0,
                       prior=bernoulli_gaussian(0.1, math.sqrt(10.0)),
                       noise=gaussian(0.0, 1.0))
    sol = solve_system("lasso_amp", spec)
    assert sol.params["tau1"] == pytest.approx(1.8790, abs=1e-4)
    assert sol.params["gamma1"] == pytest.approx(0.9681, abs=1e-4)


def test_explicit_start_failure_raises_without_walk():
    spec = ProblemSpec("m_estimator", kappa=0.95, loss=LossSpec("absolute"),
                       noise=gaussian(0.0, 1.0))
    start = auto_init("m_loo", spec)
    with pytest.raises((NonConvergence, NumericError)):
        solve_system("m_loo", spec, x0=start)
    assert solve_system("m_loo", spec, x0="auto").converged


LASSO_CGMT_GRID_KAPPAS = [round(1.05 + 0.25 * i, 2) for i in range(32)]   # 1.05 .. 8.80


@pytest.mark.parametrize("lambda_star", [0.001, 0.003, 0.005, 0.01])
def test_lasso_cgmt_solves_beyond_kappa_one_at_small_penalty(lambda_star):
    # The mapped lasso_amp start is a root whose parameters span seven decades
    # (theta ~ 3e-4, lam ~ 3e3 at kappa = 5); only the equilibrated Jacobian
    # passes the singularity test there.  The lasso_amp -> lasso_cgmt
    # direction is left out: at kappa in [5.55, 6.55] and [8.3, 8.55] its
    # fifth residual misses the 1e-7 tolerance at parent and change alike
    # (the FOUND line on it in CHANGES.md).
    failed = []
    for kappa in LASSO_CGMT_GRID_KAPPAS:
        spec = ProblemSpec("lasso", kappa=kappa, lambda_star=lambda_star,
                           prior=bernoulli_gaussian(0.1, math.sqrt(10.0)),
                           noise=gaussian(0.0, 1.0))
        sol = solve_system("lasso_cgmt", spec)
        if not sol.converged or not verify_equivalence("lasso_cgmt", "lasso_amp", spec).passed:
            failed.append(kappa)
    assert failed == []


def test_clamp_keeps_lasso_cgmt_trials_in_the_domain():
    # from this start the full Newton step takes theta to 1.11; every point
    # the residual sees, trials and difference points alike, keeps theta <= 1
    spec = ProblemSpec("lasso", kappa=0.5, lambda_star=0.1,
                       prior=bernoulli_gaussian(0.1, math.sqrt(10.0)), noise=gaussian(0.0, 1.0))
    sdef = SYSTEMS["lasso_cgmt"]
    clamp = _clamp_for(sdef)
    root = solve_system("lasso_cgmt", spec).vector()
    start = root.copy()
    start[3] = 0.8
    jac = evaluate_jacobian_fd(lambda v: sdef.residual(clamp(v), spec), start, 1e-6)
    assert start[3] + np.linalg.solve(jac, -sdef.residual(start, spec))[3] > 1.0
    thetas = []

    def residual(v):
        points = clamp(v)
        thetas.extend(np.atleast_2d(points)[:, 3])
        return sdef.residual(points, spec)

    x, _ = newton_solve(residual, start, SolverOptions(), clamp=clamp)
    assert max(thetas) == 1.0    # the overshooting trial is clamped onto the bound
    assert np.allclose(x, root, rtol=1e-6)


def test_singularity_test_ignores_row_and_column_scale():
    # condition 1e16 unscaled, 1 equilibrated; Newton's direction is the same
    def scaled(v):
        return np.stack([1e-8 * (v[..., 0] - 2.0), 1e8 * v[..., 1]], axis=-1)

    x, info = newton_solve(scaled, np.array([3.0, 1.0]))
    assert info["residual_norm"] <= 1e-9 and info["jac_cond"] == pytest.approx(1.0)
    assert x[0] == pytest.approx(2.0, abs=1e-6)
    # a zero row or a zero column stays singular
    for residual in (lambda v: np.stack([v[..., 0] - 2.0, 0.0 * v[..., 1] + 1.0], axis=-1),
                     lambda v: np.stack([v[..., 0] - 2.0, v[..., 0] + 1.0], axis=-1)):
        with pytest.raises(SingularJacobian, match="condition inf at iteration 1"):
            newton_solve(residual, np.array([3.0, 1.0]))


@pytest.mark.parametrize("system,kappa", [("lasso_amp", 1.0), ("lasso_cgmt", 1.0),
                                          ("lasso_cgmt", 1.6)])
def test_zero_penalty_lasso_nonexistence(system, kappa):
    # tau1 diverges at kappa = 1; past it lasso_cgmt would need theta -> 0
    spec = ProblemSpec("lasso", kappa=kappa, lambda_star=0.0,
                       prior=bernoulli_gaussian(0.1, math.sqrt(10.0)),
                       noise=gaussian(0.0, 1.0))
    with pytest.raises(LikelyNonExistence) as exc:
        solve_system(system, spec)
    assert exc.value.iterations is None    # raised before any iteration
    # verify_equivalence checks the target before mapping, in both directions
    other = "lasso_cgmt" if system == "lasso_amp" else "lasso_amp"
    for source, target in ((system, other), (other, system)):
        with pytest.raises(LikelyNonExistence):
            verify_equivalence(source, target, spec)


@pytest.mark.parametrize("kappa", [0.5, 0.52])
@pytest.mark.parametrize("kind", ["logistic_rho", "logistic_ell"])
@pytest.mark.parametrize("system", ["m_loo", "m_amp", "m_cgmt"])
def test_monotone_m_loss_nonexistence(system, kind, kappa):
    # a monotone loss has no finite M-estimate once kappa > 1/2 (Wendel); at
    # quadrature order 61 m_loo and m_amp still find spurious roots here
    spec = ProblemSpec("m_estimator", kappa=kappa, loss=LossSpec(kind))
    with pytest.raises(LikelyNonExistence, match="monotone") as exc:
        solve_system(system, spec)
    assert exc.value.iterations is None    # raised before any iteration
    require_existence(system, spec.with_kappa(0.45))


@pytest.mark.parametrize("r_star", sorted(KAPPA_CRITICAL))
def test_kappa_critical_values(r_star):
    rule = ProblemSpec("logistic", kappa=0.1, r_star=r_star).rule()
    assert kappa_critical(r_star, rule) == pytest.approx(KAPPA_CRITICAL[r_star], abs=1e-4)


def _hinge_minimum(r_star, order):
    # min_t E[(Z - tV)_+^2] with the Z-integral in closed form given V,
    # V on an order-point Hermite rule carrying the tilt 2*sigmoid(r v)
    from scipy.optimize import minimize_scalar
    from scipy.special import expit, roots_hermitenorm
    from scipy.stats import norm

    v, w = roots_hermitenorm(order)
    w = w / w.sum() * 2.0 * expit(r_star * v)
    return minimize_scalar(
        lambda t: w @ ((1.0 + (t * v) ** 2) * norm.sf(t * v) - t * v * norm.pdf(t * v)),
        bounds=(0.0, 50.0), method="bounded", options={"xatol": 1e-10}).fun


@pytest.mark.parametrize("r_star", sorted(KAPPA_CRITICAL))
def test_kappa_critical_against_a_high_order_rule(r_star):
    # a 61x61 tensor grid with the hinge on it gave 0.3449073 at r* = 2
    rule = ProblemSpec("logistic", kappa=0.1, r_star=r_star).rule()
    assert abs(kappa_critical(r_star, rule) - _hinge_minimum(r_star, 401)) <= 1e-9


def test_kappa_critical_minimizes_once_per_radius_and_rule(monkeypatch):
    # verify_equivalence asks for kappa_c once for the target and once in the
    # solve; the minimization runs only the first time
    import scipy.optimize

    calls = []
    real = scipy.optimize.minimize_scalar
    monkeypatch.setattr(scipy.optimize, "minimize_scalar",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    rule = ProblemSpec("logistic", kappa=0.1, r_star=1.0).rule()
    first = kappa_critical(0.77, rule)
    assert kappa_critical(0.77, rule) == first and len(calls) == 1


def test_kappa_critical_tends_to_cover_bound():
    rule = ProblemSpec("logistic", kappa=0.1, r_star=1.0).rule()
    gaps = [0.5 - kappa_critical(r, rule) for r in (0.1, 0.01, 1e-3)]
    assert all(g > 0 for g in gaps[:-1])
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(gaps[-1]) < 1e-6


@pytest.mark.parametrize("system", LOGISTIC_SYSTEMS)
@pytest.mark.parametrize("r_star", sorted(KAPPA_CRITICAL))
def test_logistic_solves_below_boundary(system, r_star):
    spec = ProblemSpec("logistic", kappa=0.97 * KAPPA_CRITICAL[r_star], r_star=r_star)
    assert solve_system(system, spec).converged


@pytest.mark.parametrize("system", LOGISTIC_SYSTEMS)
@pytest.mark.parametrize("r_star", sorted(KAPPA_CRITICAL))
def test_logistic_solves_at_0_99_kappa_c(system, r_star):
    # with the residuals' quadrature error of a 61x61 grid both systems
    # stalled here at r* = 2, at residuals 1.4e-1 and 2.2e-2
    spec = ProblemSpec("logistic", kappa=0.99 * KAPPA_CRITICAL[r_star], r_star=r_star)
    assert solve_system(system, spec).converged


@pytest.mark.parametrize("system", LOGISTIC_SYSTEMS)
@pytest.mark.parametrize("r_star", sorted(KAPPA_CRITICAL))
def test_logistic_nonexistence_above_boundary(system, r_star):
    spec = ProblemSpec("logistic", kappa=1.03 * KAPPA_CRITICAL[r_star], r_star=r_star)
    t0 = time.perf_counter()
    with pytest.raises(LikelyNonExistence, match="kappa_c="):
        solve_system(system, spec)
    assert time.perf_counter() - t0 < 1.0


def test_logistic_nonexistence_diagnosis():
    spec = ProblemSpec("logistic", kappa=0.9, r_star=5.0)
    with pytest.raises(LikelyNonExistence):
        solve_system("logistic_loo", spec)


def test_nonconvergence_attaches_best_iterate():
    # an unsolvable scalar residual: x^2 + 1 = 0 has no real root
    with pytest.raises(NonConvergence) as err:
        newton_solve(lambda v: v[..., :1] ** 2 + 1.0, np.array([2.0]),
                     SolverOptions(max_iter=50))
    assert err.value.best is not None
    assert err.value.residual_norm >= 1.0


def test_accepted_steps_never_increase_residual():
    # the solve is deterministic, so a budget of k iterations stops at the
    # k-th accepted iterate; record the residual norm there for k = 1, 2, ...
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=LossSpec("huber", delta=1.345),
                       noise=gaussian(0.0, 1.0))
    from hdse.systems import residual_m_loo

    def residual(x):
        r = residual_m_loo(np.maximum(x, 1e-8), spec)
        return r

    x0 = auto_init("m_loo", spec, SolverOptions()) * 4.0
    norms = []
    converged = False
    for max_iter in range(1, SolverOptions().max_iter + 1):
        try:
            _, info = newton_solve(residual, x0, SolverOptions(max_iter=max_iter),
                                   clamp=lambda v: np.maximum(v, 1e-8))
        except NonConvergence as exc:
            norms.append(exc.residual_norm)
        else:
            norms.append(info["residual_norm"])
            converged = True
            break
    assert converged
    assert len(norms) >= 2
    assert all(b < a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
