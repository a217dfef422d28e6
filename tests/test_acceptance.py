"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one `criterion N PASS/FAIL` line (run with `pytest -s` to
see them on success).  Tolerances and runtime budgets are pinned here, not
configurable.
"""

import dataclasses
import time

import numpy as np
import pytest

from hdse.estimators import (
    amp_lasso,
    empirical_mse,
    fit_lasso_cd,
    fit_logistic_mle,
    fit_m_estimator,
    gen_linear_data,
    gen_logistic_data,
    kkt_residual_lasso,
    logistic_overlap,
)
from hdse.expectations import bernoulli_gaussian, gaussian
from hdse.losses import (
    LossSpec,
    eval_loss,
    loss_deriv,
    moreau_bundle,
    prox,
    soft_threshold,
)
from hdse.solving import solve_system
from hdse.systems import ProblemSpec, SYSTEMS, mse_from_solution
from hdse.transforms import map_parameters, verify_equivalence

SEED = 20260809

HUBER = LossSpec("huber", delta=1.345)
BG_PRIOR = bernoulli_gaussian(0.1, np.sqrt(10.0))


@pytest.fixture
def report(capsys):
    # bypass capture so the per-criterion line lands in every pytest run
    def _report(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _report


def m_spec(kappa: float, loss: LossSpec) -> ProblemSpec:
    return ProblemSpec("m_estimator", kappa=kappa, loss=loss, noise=gaussian(0.0, 1.0))


def lasso_spec(kappa: float, lam: float) -> ProblemSpec:
    return ProblemSpec("lasso", kappa=kappa, prior=BG_PRIOR, noise=gaussian(0.0, 1.0),
                       lambda_star=lam)


# ---------------------------------------------------------------------------
# 1. Quadratic closed form: tau^2 = lam = kappa/(1-kappa) at sigma* = 1


def test_criterion_1_closed_form_reduction(report):
    t0 = time.perf_counter()
    worst = 0.0
    for kappa in (0.1, 0.3, 0.5, 0.7):
        target = kappa / (1.0 - kappa)
        spec = m_spec(kappa, LossSpec("quadratic"))
        loo = solve_system("m_loo", spec)
        worst = max(worst, abs(loo.params["tau1"] ** 2 - target),
                    abs(loo.params["lam1"] - target))
        amp = solve_system("m_amp", spec)
        worst = max(worst, abs(amp.params["tau2"] ** 2 - target),
                    abs(amp.params["lam2"] - target))
        cg = solve_system("m_cgmt", spec)
        worst = max(worst, abs(cg.params["tau3"] ** 2 - target),
                    abs(cg.params["alpha"] / cg.params["mu"] - target))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-8 and elapsed < 1.0,
           f"closed-form gap {worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 1 s)")


# ---------------------------------------------------------------------------
# 2. M-estimation equivalences for the huber loss


def test_criterion_2_m_equivalence(report):
    t0 = time.perf_counter()
    worst = 0.0
    for kappa in (0.1, 0.3, 0.5, 0.7):
        spec = m_spec(kappa, HUBER)
        for target in ("m_amp", "m_cgmt"):
            rep = verify_equivalence("m_loo", target, spec)
            worst = max(worst, rep.target_residual_norm)
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-6 and elapsed < 10.0,
           f"mapped residual {worst:.2e} (tol 1e-6), {elapsed:.2f}s (< 10 s)")


# ---------------------------------------------------------------------------
# 3. Lasso equivalence with full six-variable recovery


def test_criterion_3_lasso_equivalence(report):
    t0 = time.perf_counter()
    worst_res, worst_ident, worst_mse = 0.0, 0.0, 0.0
    for lam in (0.05, 0.1, 0.5):
        for kappa in (0.25, 0.5, 1.0, 1.5):
            spec = lasso_spec(kappa, lam)
            amp = solve_system("lasso_amp", spec)
            mapped = map_parameters(amp, "lasso_cgmt", spec)
            res = SYSTEMS["lasso_cgmt"].residual(mapped, spec)
            worst_res = max(worst_res, float(np.max(np.abs(res))))
            worst_ident = max(
                worst_ident,
                abs(mapped["sigma"] * mapped["tau2"] - (mapped["lam"] + 1.0)),
                abs(mapped["theta"] - 1.0 / (mapped["lam"] + 1.0)))
            amp_mse = mse_from_solution(amp, spec)
            cg_mse = mapped["sigma"] ** 2 + kappa * (mapped["alpha"] - 1.0) ** 2 \
                * spec.r_star ** 2
            worst_mse = max(worst_mse, abs(cg_mse - amp_mse) / abs(amp_mse))
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-6 and worst_ident < 1e-8 and worst_mse < 1e-6 and elapsed < 30.0
    report(3, ok, f"six-eq residual {worst_res:.2e} (tol 1e-6), identities "
                  f"{worst_ident:.2e} (tol 1e-8), mse gap {worst_mse:.2e} (tol 1e-6), "
                  f"{elapsed:.2f}s (< 30 s)")


# ---------------------------------------------------------------------------
# 4. Logistic equivalence


def test_criterion_4_logistic_equivalence(report):
    t0 = time.perf_counter()
    worst = 0.0
    for kappa in (0.05, 0.1, 0.15):
        for r_star in (0.5, 1.0):
            spec = ProblemSpec("logistic", kappa=kappa, r_star=r_star)
            cg = solve_system("logistic_cgmt", spec)
            mapped = map_parameters(cg, "logistic_loo", spec)
            assert mapped["alpha1"] == pytest.approx(
                cg.params["alpha2"] / np.sqrt(kappa))
            assert mapped["sigma"] == pytest.approx(cg.params["mu"] / r_star)
            res = SYSTEMS["logistic_loo"].residual(mapped, spec)
            worst = max(worst, float(np.max(np.abs(res))))
    elapsed = time.perf_counter() - t0
    report(4, worst < 1e-6 and elapsed < 60.0,
           f"mapped residual {worst:.2e} (tol 1e-6), {elapsed:.2f}s (< 60 s)")


# ---------------------------------------------------------------------------
# 5. AMP fixed point solves the l1 optimality conditions at finite n


def test_criterion_5_amp_equals_kkt(report):
    t0 = time.perf_counter()
    spec = lasso_spec(0.4, 0.1)
    worst_gap, worst_kkt = 0.0, 0.0
    for rep in range(5):
        data = gen_linear_data(spec, 800, SEED, rep)
        assert data.d == 320
        state, _ = amp_lasso(data, 0.1)
        assert state.converged and not state.diverged
        beta_cd = fit_lasso_cd(data, 0.1)
        worst_gap = max(worst_gap, float(np.max(np.abs(state.beta - beta_cd))))
        worst_kkt = max(worst_kkt, kkt_residual_lasso(data, state.beta, 0.1))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-6 and worst_kkt < 1e-5 and elapsed < 30.0
    report(5, ok, f"amp-cd gap {worst_gap:.2e} (tol 1e-6), amp kkt {worst_kkt:.2e} "
                  f"(tol 1e-5), {elapsed:.2f}s (< 30 s)")


# ---------------------------------------------------------------------------
# 6. Monte-Carlo M-estimation matches tau^2


def test_criterion_6_monte_carlo_m_estimation(report):
    t0 = time.perf_counter()
    spec = m_spec(0.3, HUBER)
    predicted = solve_system("m_loo", spec).params["tau1"] ** 2
    mses = []
    for rep in range(20):
        data = gen_linear_data(spec, 3000, SEED, rep)
        mses.append(empirical_mse(fit_m_estimator(data), data))
    rel = abs(np.mean(mses) - predicted) / predicted
    elapsed = time.perf_counter() - t0
    report(6, rel < 0.05 and elapsed < 300.0,
           f"huber mse {np.mean(mses):.4f} vs tau^2 {predicted:.4f}, rel {rel:.3f} "
           f"(tol 0.05), {elapsed:.0f}s (< 300 s)")


# ---------------------------------------------------------------------------
# 7. Monte-Carlo lasso pins the extraction tau1^2 - sigma*^2


def test_criterion_7_monte_carlo_lasso(report):
    t0 = time.perf_counter()
    spec = lasso_spec(0.5, 0.1)
    tau_sq = solve_system("lasso_amp", spec).params["tau1"] ** 2
    accepted = tau_sq - 1.0      # sigma* = 1
    rejected = tau_sq
    mses = []
    for rep in range(20):
        data = gen_linear_data(spec, 2000, SEED, rep)
        mses.append(empirical_mse(fit_lasso_cd(data, 0.1), data))
    mean = float(np.mean(mses))
    rel_accepted = abs(mean - accepted) / accepted
    rel_rejected = abs(mean - rejected) / rejected
    elapsed = time.perf_counter() - t0
    ok = rel_accepted < 0.07 and rel_rejected > 0.07 and elapsed < 300.0
    report(7, ok, f"lasso mse {mean:.4f}: accepted extraction rel {rel_accepted:.3f} "
                  f"(tol 0.07), rejected extraction rel {rel_rejected:.3f} (must "
                  f"exceed 0.07), {elapsed:.0f}s (< 300 s)")


# ---------------------------------------------------------------------------
# 8. Monte-Carlo logistic: inflation and orthogonal noise scale


def test_criterion_8_monte_carlo_logistic(report):
    t0 = time.perf_counter()
    spec = ProblemSpec("logistic", kappa=0.1, prior=gaussian(0.0, 1.0), r_star=1.0)
    # variance-1/n designs make the effective signal strength sqrt(kappa)*r*
    r_eff = float(np.sqrt(spec.kappa) * spec.r_star)
    sol = solve_system("logistic_loo",
                       ProblemSpec("logistic", kappa=spec.kappa, r_star=r_eff))
    pred_inflation = sol.params["sigma"]
    pred_noise = sol.params["alpha1"]
    inflations, noises = [], []
    for rep in range(20):
        data = gen_logistic_data(spec, 4000, SEED, rep)
        inflation, noise_scale = logistic_overlap(fit_logistic_mle(data), data)
        inflations.append(inflation)
        noises.append(noise_scale)
    rel_inf = abs(np.mean(inflations) - pred_inflation) / pred_inflation
    rel_noise = abs(np.mean(noises) - pred_noise) / pred_noise
    elapsed = time.perf_counter() - t0
    ok = rel_inf < 0.05 and rel_noise < 0.10 and elapsed < 600.0
    report(8, ok, f"inflation {np.mean(inflations):.4f} vs {pred_inflation:.4f} "
                  f"rel {rel_inf:.3f} (tol 0.05); noise {np.mean(noises):.4f} vs "
                  f"{pred_noise:.4f} rel {rel_noise:.3f} (tol 0.10), "
                  f"{elapsed:.0f}s (< 600 s)")


# ---------------------------------------------------------------------------
# 9. Scalar identity suite


def test_criterion_9_scalar_identities(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    losses = [LossSpec("quadratic"), LossSpec("absolute"), HUBER,
              LossSpec("logistic_rho"), LossSpec("logistic_ell")]
    n_cases = 10_000
    worst_opt = worst_dt = worst_fd = worst_scale = worst_refl = 0.0
    for loss in losses:
        x = rng.uniform(-50.0, 50.0, n_cases)
        t = float(rng.uniform(0.05, 100.0))
        p = prox(loss, x, t)
        if loss.kind == "absolute":
            active = p != 0.0
            if np.any(active):
                worst_opt = max(worst_opt, float(np.max(np.abs(
                    t * np.sign(p[active]) + p[active] - x[active]))))
            assert np.all(np.abs(x[~active]) <= t + 1e-12)
        else:
            worst_opt = max(worst_opt, float(np.max(np.abs(
                t * loss_deriv(loss, p) + p - x))))
        b = moreau_bundle(loss, x, t)
        worst_dt = max(worst_dt, float(np.max(np.abs(b.dm_dt + 0.5 * b.dm_dx**2))))
        assert np.all(b.m <= eval_loss(loss, x) + 1e-12)
        if loss.smooth:
            h = 1e-5
            fd = (moreau_bundle(loss, x, t).m - moreau_bundle(loss, x - 2 * h, t).m) \
                / (2 * h)
            mid = moreau_bundle(loss, x - h, t)
            worst_fd = max(worst_fd, float(np.max(np.abs(mid.dm_dx - fd))))
    # soft-threshold scaling, exact
    xs = rng.uniform(-30.0, 30.0, n_cases)
    ts = rng.uniform(0.0, 10.0, n_cases)
    cs = rng.uniform(1e-3, 1e3, n_cases)
    v, d = soft_threshold(xs, ts)
    vc, dc = soft_threshold(cs * xs, cs * ts)
    worst_scale = float(np.max(np.abs(vc - cs * v) / np.maximum(np.abs(cs * v), 1.0)))
    assert np.array_equal(d, dc)
    # logistic reflection
    z = rng.uniform(-40.0, 40.0, n_cases)
    for lam in (0.3, 1.0, 9.0):
        left = prox(LossSpec("logistic_ell"), z, lam)
        right = -prox(LossSpec("logistic_rho"), -z, lam)
        worst_refl = max(worst_refl, float(np.max(np.abs(left - right))))
    elapsed = time.perf_counter() - t0
    ok = (worst_opt < 1e-10 and worst_dt < 1e-10 and worst_fd < 1e-6
          and worst_scale < 1e-12 and worst_refl < 1e-12 and elapsed < 5.0)
    report(9, ok, f"prox opt {worst_opt:.1e} (1e-10), dM/dt {worst_dt:.1e} (1e-10), "
                  f"fd {worst_fd:.1e} (1e-6), scaling {worst_scale:.1e} (1e-12), "
                  f"reflection {worst_refl:.1e} (1e-12), {elapsed:.2f}s (< 5 s)")


# ---------------------------------------------------------------------------
# 10. Quadrature order stability at the acceptance grid points


def test_criterion_10_quadrature_stability(report):
    t0 = time.perf_counter()
    cases = []
    for kappa in (0.1, 0.3, 0.5, 0.7):
        for loss in (LossSpec("quadratic"), HUBER):
            spec = m_spec(kappa, loss)
            sol = solve_system("m_loo", spec)
            cases.append(("m_loo", sol.vector(), spec))
            cases.append(("m_amp", np.array([sol.params["tau1"], sol.params["lam1"]]),
                          spec))
            mapped = map_parameters(sol, "m_cgmt", spec)
            cases.append(("m_cgmt", np.array([mapped["tau3"], mapped["alpha"],
                                              mapped["mu"]]), spec))
    for lam in (0.05, 0.1, 0.5):
        for kappa in (0.25, 0.5, 1.0, 1.5):
            spec = lasso_spec(kappa, lam)
            amp = solve_system("lasso_amp", spec)
            cases.append(("lasso_amp", amp.vector(), spec))
            mapped = map_parameters(amp, "lasso_cgmt", spec)
            cases.append(("lasso_cgmt",
                          np.array([mapped[n] for n in SYSTEMS["lasso_cgmt"].params]),
                          spec))
    for kappa in (0.05, 0.1, 0.15):
        for r_star in (0.5, 1.0):
            spec = ProblemSpec("logistic", kappa=kappa, r_star=r_star)
            cg = solve_system("logistic_cgmt", spec)
            cases.append(("logistic_cgmt", cg.vector(), spec))
            mapped = map_parameters(cg, "logistic_loo", spec)
            cases.append(("logistic_loo",
                          np.array([mapped[n] for n in SYSTEMS["logistic_loo"].params]),
                          spec))
    worst = 0.0
    for system, vec, spec in cases:
        base_order = spec.default_quad_order()
        r1 = SYSTEMS[system].residual(vec, dataclasses.replace(spec, quad_order=base_order))
        r2 = SYSTEMS[system].residual(vec, dataclasses.replace(spec, quad_order=2 * base_order))
        worst = max(worst, float(np.max(np.abs(r1 - r2))))
    elapsed = time.perf_counter() - t0
    report(10, worst < 1e-9 and elapsed < 30.0,
           f"max change under order doubling {worst:.2e} (tol 1e-9) across "
           f"{len(cases)} systems, {elapsed:.2f}s (< 30 s)")
