"""Residual systems: closed-form roots, cross-identities, domains, the MSE reading."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import expit

from hdse import losses, solving, systems
from hdse.errors import ConfigError
from hdse.expectations import (
    bernoulli_gaussian,
    bivariate_nodes,
    expect_noise_sum,
    expect_noise_zweighted,
    gauss_hermite,
    gaussian,
    point_mass,
    prox_rho_nodes,
    two_point,
    zv_nodes,
)
from hdse.losses import LossSpec, moreau_bundle, prox_kinks
from hdse.systems import (
    SYSTEMS,
    ProblemSpec,
    SeSolution,
    lasso_signal_moments,
    mse_from_solution,
    residual_lasso_amp,
    residual_lasso_cgmt,
    residual_logistic_cgmt,
    residual_logistic_loo,
    residual_m_amp,
    residual_m_cgmt,
    residual_m_loo,
)
from hdse.transforms import map_params
from oracles import logistic_loo_covariance, m_residual_adaptive

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


def test_logistic_spec_takes_only_the_rho_loss():
    # no logistic residual, map or fit reads spec.loss
    assert ProblemSpec("logistic", kappa=0.1, r_star=1.0).loss == LossSpec("logistic_rho")
    for kind in ("logistic_ell", "quadratic"):
        with pytest.raises(ConfigError):
            ProblemSpec("logistic", kappa=0.1, r_star=1.0, loss=LossSpec(kind))


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
    # kinked losses need no higher order: their integrals are split at the kinks
    for loss in (QUAD, HUBER, LossSpec("absolute")):
        assert m_spec(0.5, loss=loss).default_quad_order() == 61
    lasso = ProblemSpec("lasso", kappa=0.5, prior=point_mass(0.0), sigma_star=1.0)
    assert lasso.default_quad_order() == 61
    assert ProblemSpec("logistic", kappa=0.2, r_star=1.0).default_quad_order() == 61
    assert dataclasses.replace(m_spec(0.5, loss=QUAD), quad_order=31).rule().order == 31


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
                                 spec.noise, tau, spec.default_quad_order())
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


@pytest.mark.parametrize("noise", [gaussian(0.0, 1.0), two_point(1.0, 0.5)],
                         ids=lambda n: n.kind)
@pytest.mark.parametrize("system", ["m_loo", "m_amp", "m_cgmt"])
def test_absolute_loss_needs_no_higher_order(system, noise):
    # the kinks are panel edges, so the default order is as good as four
    # times it at the solved roots, up to the edge of the kappa range
    from hdse.solving import solve_system

    for kappa in (0.1, 0.5, 0.9, 0.95):
        spec = ProblemSpec("m_estimator", kappa=kappa, loss=LossSpec("absolute"), noise=noise)
        sol = solve_system(system, spec)
        root = np.array([sol.params[n] for n in SYSTEMS[system].params])
        base = SYSTEMS[system].residual(root, spec)
        fine = SYSTEMS[system].residual(root, dataclasses.replace(spec, quad_order=244))
        assert np.max(np.abs(base - fine)) <= 1e-11, (kappa, base, fine)


def test_stein_interchange_cross_check():
    # E[Z g(W + tau Z)] = tau E[g'(W + tau Z)] links the two m-system routes
    for loss in (QUAD, HUBER, LossSpec("logistic_rho")):
        spec = m_spec(0.4, loss=loss)
        tau, lam = 0.9, 0.7
        kinks = prox_kinks(loss, lam)
        lhs = expect_noise_zweighted(lambda s: moreau_bundle(loss, s, lam).dm_dx,
                                     spec.noise, tau, spec.default_quad_order(), kinks=kinks)
        rhs = tau * expect_noise_sum(lambda s: moreau_bundle(loss, s, lam).d2m_dx2,
                                     spec.noise, tau, spec.default_quad_order(), kinks=kinks)
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


def test_logistic_residuals_run_no_prox_solve(monkeypatch):
    # both residuals integrate in the prox output, so no prox is solved at the
    # nodes: the one solve is of the (rows, 8) stack of panel edges; and the
    # sigmoid on the (rows, outer nodes, inner nodes) grid comes from one
    # numpy exp pass, so no module calls expit on an array of that rank
    import scipy.special

    import hdse.expectations
    import hdse.losses
    import hdse.systems

    solves = []
    real_solve = hdse.losses.rho_prox

    def counted_solve(y, t):
        solves.append(np.shape(y))
        return real_solve(y, t)

    # the prox maps look the solver up in losses, prox_rho_nodes in expectations
    monkeypatch.setattr(hdse.losses, "rho_prox", counted_solve)
    monkeypatch.setattr(hdse.expectations, "rho_prox", counted_solve)
    calls = []
    real = scipy.special.expit
    for module in (scipy.special, hdse.expectations, hdse.losses, hdse.systems):
        if hasattr(module, "expit"):
            monkeypatch.setattr(module, "expit",
                                lambda z, **kw: calls.append(np.shape(z)) or real(z, **kw))
    spec = ProblemSpec("logistic", kappa=0.2, r_star=1.0)
    for residual, point in ((residual_logistic_loo, [2.0, 1.1, 0.4]),
                            (residual_logistic_cgmt, [1.0, 1.1, 0.4])):
        calls.clear()
        solves.clear()
        residual(np.array([point, point]), spec)
        assert solves == [(2, 8)]
        assert calls and all(len(shape) < 3 for shape in calls), calls


def _conditioned_reference(system, p, spec):
    """The conditioned logistic residuals with scipy's expit on the grid and
    one vecdot per inner sum, written out independently of ``systems``."""
    p = np.atleast_2d(p)
    rule = spec.rule()
    u, wu = rule.nodes, rule.weights
    k = spec.kappa
    if system == "logistic_loo":
        alpha1, sigma, lam = p.T
        r2 = spec.r_star ** 2
        s2 = sigma ** 2 * r2 + alpha1 ** 2 * k
        c, v = -sigma * r2 / s2, r2 * alpha1 ** 2 * k / s2
        q2, rp, w = prox_rho_nodes(np.sqrt(s2), lam, rule.order)
        q1 = c[:, None, None] * q2[..., None] + np.sqrt(v)[:, None, None] * u
        e_s1 = np.vecdot(expit(q1), wu)
        e_q1s1 = np.vecdot(q1 * expit(q1), wu)
        lrp = lam[:, None] * rp
        return np.array([np.vecdot(2.0 * e_s1 * lrp ** 2, w) / k ** 2 - alpha1 ** 2,
                         np.vecdot(e_q1s1 * lrp, w),
                         np.vecdot(2.0 * e_s1 / (1.0 + lam[:, None] * (rp * (1.0 - rp))), w)
                         - (1.0 - k)]).T
    alpha2, mu, lam = p.T
    s = np.hypot(alpha2, mu)
    y, sp, w = prox_rho_nodes(s, lam, rule.order)
    vv = (-mu / s ** 2)[:, None, None] * y[..., None] + (alpha2 / s)[:, None, None] * u
    tilt = expit(spec.r_star * vv)
    e_t = 2.0 * np.vecdot(tilt, wu)
    e_vt = 2.0 * np.vecdot(tilt * vv, wu)
    spp = sp * (1.0 - sp)
    return np.array([-np.vecdot(e_vt * sp, w),
                     lam ** 2 * np.vecdot(e_t * sp ** 2, w) - alpha2 ** 2 * k,
                     lam * np.vecdot(e_t * spp / (1.0 + lam[:, None] * spp), w) - k]).T


@pytest.mark.parametrize("r_star", [10.0, 150.0])
@pytest.mark.parametrize("fraction", [0.05, 0.99])
def test_logistic_residuals_finite_at_extreme_signal(r_star, fraction):
    # at r* = 150 the inner sigmoid argument reaches |x| ~ 2800 on these
    # points, far past the 709 where exp(-x) overflows; the residuals must
    # stay finite, warning-free, and equal to the expit form on log-uniform
    # points spanning [1e-3, 1e3]^3
    spec = ProblemSpec("logistic", r_star=r_star,
                       kappa=fraction * solving.kappa_critical(r_star))
    points = 10.0 ** np.random.default_rng(16).uniform(-3.0, 3.0, size=(24, 3))
    for system in ("logistic_loo", "logistic_cgmt"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = SYSTEMS[system].residual(points, spec)
        ref = _conditioned_reference(system, points, spec)
        assert np.isfinite(got).all(), system
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0)), system


def tensor_logistic_residual(system, point, spec, order):
    """The logistic residuals on an order x order Gauss-Hermite tensor grid,
    with the prox solved at every node: the formulas before conditioning."""
    rule = gauss_hermite(order)
    k = spec.kappa
    if system == "logistic_loo":
        alpha1, sigma, lam = point
        q1, q2, wgt = bivariate_nodes(logistic_loo_covariance(spec, alpha1, sigma), rule)
        s1 = expit(q1)
        rho = LossSpec("logistic_rho")
        pr = losses.prox(rho, q2, lam)
        rp, rpp = losses.loss_deriv(rho, pr), losses.loss_curvature(rho, pr)
        return np.array([np.sum(wgt * 2.0 * s1 * (lam * rp) ** 2) / k ** 2 - alpha1 ** 2,
                         np.sum(wgt * s1 * q1 * lam * rp),
                         np.sum(wgt * 2.0 * s1 / (1.0 + lam * rpp)) - (1.0 - k)])
    alpha2, mu, lam = point
    Z, V, wgt = zv_nodes(spec.r_star, rule)
    ell = LossSpec("logistic_ell")
    pe = losses.prox(ell, alpha2 * Z + mu * V, lam)
    ellp, ellpp = losses.loss_deriv(ell, pe), losses.loss_curvature(ell, pe)
    return np.array([np.sum(wgt * V * ellp),
                     lam ** 2 * np.sum(wgt * ellp ** 2) - alpha2 ** 2 * k,
                     lam * np.sum(wgt * ellpp / (1.0 + lam * ellpp)) - k])


KAPPA_CRITICAL = {0.5: 0.4816125, 1.0: 0.4389391, 2.0: 0.3449301}
# (r*, fraction of kappa_c, logistic_loo root, logistic_cgmt root), 6 digits
LOGISTIC_ROOTS = [
    (0.5, 0.5, (3.26654, 1.37136, 1.877), (1.60296, 0.685678, 1.877)),
    (0.5, 0.9, (8.33686, 2.82142, 10.9271), (5.48874, 1.41071, 10.9271)),
    (0.5, 0.97, (16.2757, 5.03973, 25.7561), (11.1244, 2.51986, 25.7561)),
    (1.0, 0.5, (3.44493, 1.36093, 1.91912), (1.61387, 1.36093, 1.91912)),
    (1.0, 0.9, (8.73255, 2.79622, 11.0642), (5.48863, 2.79622, 11.0642)),
    (1.0, 0.97, (17.0659, 5.00662, 26.1071), (11.1357, 5.00662, 26.1071)),
    (2.0, 0.5, (3.9453, 1.34414, 2.00627), (1.63844, 2.68829, 2.00627)),
    (2.0, 0.9, (9.8762, 2.75159, 11.3795), (5.50271, 5.50318, 11.3795)),
    (2.0, 0.97, (19.3501, 4.95123, 26.9392), (11.1927, 9.90247, 26.9392)),
]


@pytest.mark.parametrize("r_star,fraction,loo_root,cgmt_root", LOGISTIC_ROOTS,
                         ids=[f"r{r:g}-{f:g}kc" for r, f, _, _ in LOGISTIC_ROOTS])
def test_logistic_residuals_match_the_tensor_formula(r_star, fraction, loo_root, cgmt_root):
    # near kappa_c the prox has soft corners that a 61x61 grid misses (it was
    # off by 1e-2 at r* = 2, 0.97 kappa_c); at order 961 the tensor formula
    # agrees with a 3001-node rule to ~6e-12
    spec = ProblemSpec("logistic", kappa=fraction * KAPPA_CRITICAL[r_star], r_star=r_star)
    for system, root in (("logistic_loo", loo_root), ("logistic_cgmt", cgmt_root)):
        got = SYSTEMS[system].residual(np.array(root), spec)
        oracle = tensor_logistic_residual(system, root, spec, 961)
        assert np.max(np.abs(got - oracle)) <= 1e-10, (system, got, oracle)


@pytest.mark.parametrize("kappa", [0.2, 0.4, 0.48])
@pytest.mark.parametrize("noise", [gaussian(0.0, 1.0), two_point(1.0, 0.5)],
                         ids=["gaussian", "pm1"])
@pytest.mark.parametrize("kind", ["logistic_rho", "logistic_ell"])
def test_logistic_m_residuals_match_adaptive_quadrature(kind, noise, kappa):
    # the logistic prox bends ever more sharply as tau grows towards
    # kappa = 1/2; a rule that misses the bend (61 Gauss-Hermite nodes) is
    # off by up to 2e-2 at kappa = 0.48
    spec = ProblemSpec("m_estimator", kappa=kappa, loss=LossSpec(kind), noise=noise)
    root = solving.solve_system("m_loo", spec).params
    for scale in (1.0, 1.05):
        point = {name: scale * value for name, value in root.items()}
        for system in ("m_loo", "m_amp", "m_cgmt"):
            mapped = point if system == "m_loo" else map_params(point, "m_loo", system, spec)
            vec = np.array([mapped[name] for name in SYSTEMS[system].params])
            got = SYSTEMS[system].residual(vec, spec)
            oracle = m_residual_adaptive(system, vec, spec)
            assert np.max(np.abs(got - oracle)) <= 1e-10, (system, scale, got, oracle)


def test_names_the_benchmark_tracer_wraps_resolve():
    # perfbench/tracer.py wraps these by name although neither module calls
    # them; removing an import breaks the traced benchmark run
    for owner, name in ((systems, "bivariate_nodes"), (systems, "zv_nodes"),
                        (systems, "expect_noise_zweighted"), (solving, "expect_noise_sum")):
        assert callable(getattr(owner, name))


def test_logistic_loo_requires_positive_r_star():
    spec = ProblemSpec("logistic", kappa=0.2, prior=point_mass(0.0), r_star=0.0)
    with pytest.raises(ConfigError):
        residual_logistic_loo({"alpha1": 1.0, "sigma": 1.0, "lam1": 0.5}, spec)


# ---------------------------------------------------------------------------
# Declared domains: each residual checks the sets its SYSTEMS entry declares


# one spec and one point inside the declared domain, per system
DOMAIN_CASES = {
    "m_loo": (m_spec(0.35, loss=HUBER), [1.2, 0.6]),
    "m_amp": (m_spec(0.35, loss=HUBER), [1.2, 0.6]),
    "m_cgmt": (m_spec(0.35, loss=HUBER), [1.2, 0.5, 0.9]),
    "lasso_amp": (lasso_spec(0.6), [0.9, 0.2]),
    "lasso_cgmt": (lasso_spec(0.6), [0.3, 0.8, 1.1, 0.7, 0.4, 0.6]),
    "logistic_loo": (ProblemSpec("logistic", kappa=0.2, r_star=1.0), [2.0, 1.1, 0.4]),
    "logistic_cgmt": (ProblemSpec("logistic", kappa=0.2, r_star=1.0), [1.0, 1.1, 0.4]),
}


def _domain_violations():
    for name, sdef in SYSTEMS.items():
        for param in sdef.positive:
            for value in (0.0, -1.0, np.nan, np.inf):
                yield name, param, value, "positive"
        for param in sdef.nonnegative:
            yield name, param, -1.0, "nonnegative"
        for param in sdef.at_most_one:
            yield name, param, 2.0, "at most one"


@pytest.mark.parametrize("name,param,value,kind", list(_domain_violations()))
def test_residual_rejects_points_outside_the_declared_domain(name, param, value, kind):
    spec, point = DOMAIN_CASES[name]
    sdef = SYSTEMS[name]
    assert np.isfinite(sdef.residual(np.array([point, point]), spec)).all()
    bad = list(point)
    bad[sdef.params.index(param)] = value
    match = f"^{param} must be {kind}, got"
    with pytest.raises(ValueError, match=match):
        sdef.residual(np.array(bad), spec)
    with pytest.raises(ValueError, match=match):
        sdef.residual(np.array([point, bad]), spec)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_residual_rejects_an_empty_stack(name):
    spec, point = DOMAIN_CASES[name]
    with pytest.raises(ConfigError, match=f"^{name} expects m >= 1 points"):
        SYSTEMS[name].residual(np.empty((0, len(point))), spec)


# ---------------------------------------------------------------------------
# The MSE reading


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


def test_mse_logistic_keeps_the_inflation_bias_of_a_centered_prior():
    # kappa*((sigma - 1)^2 E[B^2] + alpha1^2): a centered prior still has E[B^2] = r*^2
    spec = ProblemSpec("logistic", kappa=0.1, r_star=1.0)
    sol = SeSolution("logistic_loo", {"alpha1": 2.0, "sigma": 1.3, "lam1": 0.5}, 1e-12, 1)
    assert mse_from_solution(sol, spec) == pytest.approx(0.1 * (0.3 ** 2 + 2.0 ** 2), rel=1e-14)


def test_mse_logistic_reading_is_the_fit_own_decomposition():
    # beta_hat = inflation*beta* + (orthogonal part of norm sqrt(d)*noise_scale),
    # so ||beta_hat - beta*||^2/n is the logistic_loo reading at the fit's own
    # (inflation, noise scale), kappa = d/n and E[B^2] = ||beta*||^2/d
    from hdse.estimators import (empirical_mse, fit_logistic_mle, gen_logistic_data,
                                 logistic_overlap)

    data = gen_logistic_data(ProblemSpec("logistic", kappa=0.1, r_star=1.0), 2000, seed=0)
    beta = fit_logistic_mle(data)
    inflation, noise_scale = logistic_overlap(beta, data)
    m2 = float(np.dot(data.truth, data.truth)) / data.d
    spec = ProblemSpec("logistic", kappa=data.d / data.n, r_star=float(np.sqrt(m2)))
    sol = SeSolution("logistic_loo", {"alpha1": noise_scale, "sigma": inflation, "lam1": 1.0},
                     0.0, 0)
    assert mse_from_solution(sol, spec) == pytest.approx(empirical_mse(beta, data), rel=1e-12)


def test_mse_logistic_cgmt_reads_its_own_coordinates_at_zero_signal():
    # the loo coordinate sigma = mu/r* is undefined at r* = 0; the cgmt
    # reading kappa*(mu - r*)^2 + alpha2^2 is not
    spec = ProblemSpec("logistic", kappa=0.2, prior=point_mass(0.0), r_star=0.0)
    sol = SeSolution("logistic_cgmt", {"alpha2": 0.7, "mu": 0.1, "lam2": 0.5}, 0.0, 0)
    assert mse_from_solution(sol, spec) == pytest.approx(0.2 * 0.1 ** 2 + 0.7 ** 2, rel=1e-14)
