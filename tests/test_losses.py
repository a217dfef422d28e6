"""Loss catalog: values, prox maps, envelope derivatives, identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import expit

import hdse.losses
from hdse.errors import NumericError
from hdse.expectations import bivariate_nodes, zv_nodes
from hdse.losses import (
    LossSpec,
    eval_loss,
    loss_curvature,
    loss_deriv,
    moreau_bundle,
    prox,
    prox_deriv,
    prox_kinks,
    soft_threshold,
)
from hdse.systems import ProblemSpec
from oracles import logistic_loo_covariance

ALL_LOSSES = [
    LossSpec("quadratic"),
    LossSpec("absolute"),
    LossSpec("huber", delta=1.345),
    LossSpec("logistic_rho"),
    LossSpec("logistic_ell"),
]

SMOOTH_LOSSES = [l for l in ALL_LOSSES if l.smooth]


def test_catalog_values():
    assert eval_loss(LossSpec("quadratic"), 2.0) == 2.0
    assert eval_loss(LossSpec("logistic_rho"), 0.0) == pytest.approx(np.log(2.0), abs=1e-15)
    assert eval_loss(LossSpec("absolute"), -3.0) == 3.0


def test_logistic_values_stable_far_out():
    rho = LossSpec("logistic_rho")
    assert eval_loss(rho, 700.0) == pytest.approx(700.0)
    assert eval_loss(rho, -700.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(eval_loss(LossSpec("logistic_ell"), -700.0))


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("nope")
    with pytest.raises(ValueError):
        LossSpec("huber")
    with pytest.raises(ValueError):
        LossSpec("quadratic", delta=1.0)
    with pytest.raises(ValueError):
        eval_loss(LossSpec("quadratic"), np.nan)


def test_prox_closed_forms():
    assert prox(LossSpec("quadratic"), 2.0, 1.0) == 1.0
    assert prox(LossSpec("absolute"), 3.0, 1.0) == 2.0
    assert prox(LossSpec("absolute"), -0.5, 1.0) == 0.0


def test_prox_logistic_against_bisection_oracle():
    # independent oracle: bisect p + t*sigmoid(p) - x = 0 to 1e-13
    oracle = brentq(lambda p: p + expit(p), -1.0, 0.0, xtol=1e-13)
    value = prox(LossSpec("logistic_rho"), 0.0, 1.0)
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(-0.4010581, abs=1e-6)


# Two se_logistic points, (r*, kappa = fraction * kappa_c(r*)), with their roots
# to three digits: (alpha1, sigma) of logistic_loo, (alpha2, mu) of logistic_cgmt.
SE_LOGISTIC_POINTS = [(1.0, 0.4 * 0.43894, (3.08, 1.26), (1.29, 1.26)),
                      (2.0, 0.7 * 0.34493, (5.32, 1.68), (2.61, 3.35))]


def _se_logistic_grids():
    for r_star, kappa, (alpha1, sigma), (alpha2, mu) in SE_LOGISTIC_POINTS:
        spec = ProblemSpec("logistic", kappa=kappa, r_star=r_star)
        rule = spec.rule()
        _, q2, _ = bivariate_nodes(logistic_loo_covariance(spec, alpha1, sigma), rule)
        Z, V, _ = zv_nodes(r_star, rule)
        yield q2
        yield alpha2 * Z + mu * V


@pytest.mark.parametrize("kind", ["logistic_rho", "logistic_ell"])
def test_prox_logistic_inner_iterations_bounded(kind, monkeypatch):
    # one sigmoid evaluation per Newton step; an entry that has converged
    # must keep its iterate while the others take further steps
    calls = []
    real = hdse.losses.expit
    monkeypatch.setattr(hdse.losses, "expit", lambda z: calls.append(1) or real(z))
    loss = LossSpec(kind)
    for x in _se_logistic_grids():
        for t in (1e-3, 0.1, 1.0, 10.0, 30.0):
            calls.clear()
            p = prox(loss, x, t)
            assert len(calls) <= 12, (t, len(calls))
            assert np.max(np.abs(t * loss_deriv(loss, p) + p - x)) < 1e-12


@pytest.mark.parametrize("kind", ["logistic_rho", "logistic_ell"])
@pytest.mark.parametrize("t", [1.0, 1e3, 1e5])
def test_prox_logistic_against_brentq_oracle(kind, t):
    # the oracle solves the optimality condition in its non-cancelling form,
    # p - t*sigmoid(-p) = x for ell, on the bracket the loss derivative bounds
    x = np.array([-60.0, -20.0, -5.0, -1.0, 0.0, 0.3, 1.0, 5.0, 20.0, 60.0])
    if kind == "logistic_rho":
        oracle = [brentq(lambda p, v: p + t * expit(p) - v, v - t, v, args=(v,),
                         xtol=1e-300, rtol=1e-15, maxiter=500) for v in x]
    else:
        oracle = [brentq(lambda p, v: p - t * expit(-p) - v, v, v + t, args=(v,),
                         xtol=1e-300, rtol=1e-15, maxiter=500) for v in x]
    p = prox(LossSpec(kind), x, t)
    assert np.all(np.abs(p - oracle) <= 1e-14 * (1.0 + np.abs(x)))


def test_prox_logistic_large_scale_converges():
    # at large t the root lies ~log(t) from the Newton start, 16-29 steps for
    # t = 1e6-1e12; the solve must reach it, not the cap
    x = np.random.default_rng(17).normal(0.0, 20.0, 4000)
    for t in (1e6, 1e8, 1e12):
        p = prox(LossSpec("logistic_rho"), x, t)
        assert np.max(np.abs(p + t * expit(p) - x) / (1.0 + np.abs(p))) < 1e-14
        p = prox(LossSpec("logistic_ell"), x, t)
        assert np.max(np.abs(p - t * expit(-p) - x) / (1.0 + np.abs(p))) < 1e-14


def test_prox_logistic_stops_at_the_rounded_root():
    # near x = t the root sits where t*sigmoid'(p) is small, so the rounding
    # of p + t*sigmoid(p) moves the Newton step by more than its tolerance:
    # the iterate steps back and forth around the rounded root and must stop
    # there, within a few ulps of x, not run into the cap
    t = np.logspace(4, 13, 19)
    for d in (-40.0, -20.0, 20.0, 40.0):
        x = t + d
        p = prox(LossSpec("logistic_rho"), x, t)
        assert np.all(np.abs(p + t * expit(p) - x) <= 4.0 * np.spacing(x))
        p = prox(LossSpec("logistic_ell"), -x, t)
        assert np.all(np.abs(p - t * expit(-p) + x) <= 4.0 * np.spacing(x))


def test_prox_logistic_cap_raises(monkeypatch):
    # t = 1e12 takes ~29 Newton steps; two are not enough
    monkeypatch.setattr(hdse.losses, "PROX_MAX_ITER", 2)
    with pytest.raises(NumericError):
        prox(LossSpec("logistic_rho"), np.linspace(-5.0, 5.0, 11), 1e12)


def test_prox_rejects_bad_scale():
    with pytest.raises(ValueError):
        prox(LossSpec("quadratic"), 1.0, 0.0)
    with pytest.raises(ValueError):
        prox(LossSpec("quadratic"), 1.0, -2.0)


def test_moreau_bundle_quadratic_closed_form():
    b = moreau_bundle(LossSpec("quadratic"), 2.0, 1.0)
    assert b.m == pytest.approx(1.0, abs=1e-14)          # v^2 / (2 (t+1))
    assert b.dm_dt == pytest.approx(-0.5, abs=1e-14)     # -x^2 / (2 (t+1)^2)
    assert b.prox == pytest.approx(1.0, abs=1e-14)


def test_moreau_bundle_absolute_dm_dx():
    b = moreau_bundle(LossSpec("absolute"), 3.0, 1.0)
    assert b.dm_dx == pytest.approx(1.0, abs=1e-14)      # (x - prox)/t with prox = 2
    assert b.d2m_dx2 == 0.0
    inside = moreau_bundle(LossSpec("absolute"), 0.25, 1.0)
    assert inside.d2m_dx2 == pytest.approx(1.0, abs=1e-14)
    tie = moreau_bundle(LossSpec("absolute"), 1.0, 1.0)
    assert tie.d2m_dx2 == 0.0


def test_soft_threshold_examples():
    assert soft_threshold(3.0, 1.0) == (2.0, 1.0)
    assert soft_threshold(-0.5, 1.0) == (0.0, 0.0)
    assert soft_threshold(0.0, 0.0) == (0.0, 0.0)   # sign(0) = 0 convention


def _rng_cases(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50.0, 50.0, n)
    t = rng.uniform(1e-6, 100.0, n)
    return x, t


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.kind)
def test_prox_optimality_randomized(loss):
    x, ts = _rng_cases(10_000, seed=hash(loss.kind) % 2**31)
    for t in np.quantile(ts, [0.01, 0.25, 0.5, 0.75, 0.99]):
        p = prox(loss, x, t)
        if loss.kind == "absolute":
            active = p != 0.0
            if np.any(active):
                resid = t * np.sign(p[active]) + p[active] - x[active]
                assert np.max(np.abs(resid)) < 1e-10
            assert np.all(np.abs(x[~active]) <= t + 1e-12)
        else:
            resid = t * loss_deriv(loss, p) + p - x
            assert np.max(np.abs(resid)) < 1e-10


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.kind)
def test_envelope_below_loss_and_curvature_range(loss):
    x, _ = _rng_cases(10_000, seed=1)
    for t in (0.1, 1.0, 10.0):
        b = moreau_bundle(loss, x, t)
        assert np.all(b.m <= eval_loss(loss, x) + 1e-12)
        assert np.all(b.d2m_dx2 >= 0.0)
        assert np.all(b.d2m_dx2 <= 1.0 / t + 1e-12)


@pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda l: l.kind)
def test_envelope_gradient_matches_finite_difference(loss):
    rng = np.random.default_rng(7)
    x = rng.uniform(-20.0, 20.0, 2000)
    h = 1e-5
    for t in (0.3, 1.0, 5.0):
        b = moreau_bundle(loss, x, t)
        fd = (moreau_bundle(loss, x + h, t).m - moreau_bundle(loss, x - h, t).m) / (2 * h)
        assert np.max(np.abs(b.dm_dx - fd)) < 1e-6


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.kind)
def test_envelope_t_derivative_identity_and_fd(loss):
    x, _ = _rng_cases(5000, seed=3)
    t = 1.7
    b = moreau_bundle(loss, x, t)
    assert np.max(np.abs(b.dm_dt + 0.5 * b.dm_dx**2)) < 1e-10
    h = 1e-6
    fd = (moreau_bundle(loss, x, t + h).m - moreau_bundle(loss, x, t - h).m) / (2 * h)
    assert np.max(np.abs(b.dm_dt - fd)) < 1e-5


def test_prox_deriv_matches_finite_difference():
    rng = np.random.default_rng(11)
    x = rng.uniform(-10.0, 10.0, 500)
    h = 1e-6
    for loss in SMOOTH_LOSSES:
        for t in (0.5, 2.0):
            pd = prox_deriv(loss, x, t)
            fd = (prox(loss, x + h, t) - prox(loss, x - h, t)) / (2 * h)
            assert np.max(np.abs(pd - fd)) < 1e-6


@given(
    x=st.floats(-1e6, 1e6, allow_nan=False),
    t=st.floats(0.0, 1e3, allow_nan=False),
    c=st.floats(1e-6, 1e6, allow_nan=False),
)
@example(x=5e-324, t=0.0, c=0.5)
@example(x=1.0, t=0.99999, c=3.0)
@settings(max_examples=300, deadline=None)
def test_soft_threshold_scaling(x, t, c):
    v, d = soft_threshold(x, t)
    vc, dc = soft_threshold(c * x, c * t)
    # Forward error, u = eps/2 per rounding: vc rounds c*x, c*t and their
    # difference, c*v rounds |x| - t and then the product, so
    # |vc - c*v| <= u*c*|x| + u*c*t + u*|vc| + 2u*c*||x| - t| <= 4u*c*(|x| + t),
    # up to O(u^2), plus half the smallest subnormal per rounding in gradual
    # underflow.  A relative bound cannot hold: at the second example
    # c*|x| - c*t cancels to 3e-5, and the rounding of c*t alone is 1.5e-11 of it.
    tiny = np.finfo(float).smallest_subnormal
    bound = 2.0 * np.finfo(float).eps * c * (abs(x) + t) + 2.5 * tiny
    assert abs(vc - c * v) <= 2.0 * bound   # twice the bound, for the O(u^2) terms
    # The indicator |x| > t is scale-invariant only in exact arithmetic: c*x can
    # underflow to 0 (the first example above) or round across c*t.
    if (abs(c * x) > c * t) == (abs(x) > t):
        assert dc == d


def test_logistic_reflection_identity():
    rng = np.random.default_rng(5)
    z = rng.uniform(-40.0, 40.0, 10_000)
    for lam in (0.2, 1.0, 7.5):
        left = prox(LossSpec("logistic_ell"), z, lam)
        right = -prox(LossSpec("logistic_rho"), -z, lam)
        assert np.max(np.abs(left - right)) < 1e-12


def test_ell_is_reflected_rho():
    rng = np.random.default_rng(9)
    t = rng.uniform(-30.0, 30.0, 1000)
    assert np.allclose(eval_loss(LossSpec("logistic_ell"), t),
                       eval_loss(LossSpec("logistic_rho"), -t), rtol=0, atol=1e-12)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.kind)
def test_midpoint_convexity_and_nonnegativity(loss):
    rng = np.random.default_rng(13)
    a = rng.uniform(-30.0, 30.0, 10_000)
    b = rng.uniform(-30.0, 30.0, 10_000)
    mid = eval_loss(loss, 0.5 * (a + b))
    assert np.all(mid <= 0.5 * (eval_loss(loss, a) + eval_loss(loss, b)) + 1e-12)
    assert np.all(eval_loss(loss, a) >= 0.0)


def test_prox_kinks_locations():
    assert prox_kinks(LossSpec("quadratic"), 1.0) == ()
    assert prox_kinks(LossSpec("absolute"), 2.0) == (-2.0, 2.0)
    edge = 1.345 * 2.0
    assert prox_kinks(LossSpec("huber", delta=1.345), 1.0) == (-edge, edge)


@pytest.mark.parametrize("kind,sign", [("logistic_rho", 1.0), ("logistic_ell", -1.0)])
@pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 10.0, 1e3])
def test_logistic_cuts_are_the_images_of_the_sigmoid_bends(kind, sign, t):
    loss = LossSpec(kind)
    cuts = prox_kinks(loss, t)
    assert len(cuts) == len(hdse.losses.SIGMOID_BENDS)
    for y, bend in zip(cuts, hdse.losses.SIGMOID_BENDS):
        assert abs(prox(loss, y, t) - sign * bend) <= 1e-12, (y, bend)


def test_curvature_values():
    assert loss_curvature(LossSpec("quadratic"), 3.0) == 1.0
    assert loss_curvature(LossSpec("absolute"), 3.0) == 0.0
    h = LossSpec("huber", delta=1.0)
    assert loss_curvature(h, 0.5) == 1.0
    assert loss_curvature(h, 2.0) == 0.0
