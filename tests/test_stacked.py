"""Stacked evaluation: a residual on an (m, n_params) stack equals m single calls.

Newton sends each point it evaluates to the residual in one call together
with its 2n finite-difference points, so every layer under it (losses,
expectations, systems, the solver clamp) must give each row exactly what a
call of its own would give.
"""

import numpy as np
import pytest

from hdse import losses, solving
from hdse.errors import ConfigError
from hdse.expectations import (
    bernoulli_gaussian,
    expect_noise_sum,
    expect_noise_zweighted,
    gaussian,
    point_mass,
    two_point,
)
from hdse.losses import LossSpec
from hdse.solving import evaluate_jacobian_fd, newton_solve
from hdse.systems import POSITIVITY_FLOOR as FLOOR
from hdse.systems import SYSTEMS, ProblemSpec

M_LOSSES = (LossSpec("quadratic"), LossSpec("huber", delta=1.345), LossSpec("absolute"))
M_NOISES = (gaussian(0.0, 1.0), two_point(1.0, 0.5), point_mass(0.3))
LASSO_PRIORS = (bernoulli_gaussian(0.1, np.sqrt(10.0)), two_point(1.0, 0.5), gaussian(0.0, 1.0))


def _catalog():
    """(system, spec, stack): every system over the loss x noise catalog.

    Each m stack has a row with its kinks inside the +-12 sd panel window, a
    row with them outside it (lam = 20), and rows with a
    coordinate below the positivity floor, which the solver clamp lifts.
    """
    cases = []
    for loss in M_LOSSES:
        for noise in M_NOISES:
            spec = ProblemSpec("m_estimator", kappa=0.35, loss=loss, noise=noise)
            rows = [[1.2, 0.6], [0.5, 20.0], [-1.0, 0.6], [1.2, 0.0], [0.05, 2.0]]
            cases.append(("m_loo", spec, rows))
            cases.append(("m_amp", spec, rows))
            cases.append(("m_cgmt", spec, [[1.2, 0.5, 0.9], [0.5, 20.0, 1.0], [-1.0, 0.5, 0.9],
                                           [1.2, 0.0, 0.9], [0.05, 2.0, 1.0]]))
    for prior in LASSO_PRIORS:
        for lam in (0.0, 0.3):
            spec = ProblemSpec("lasso", kappa=0.6, prior=prior, sigma_star=0.5,
                               lambda_star=lam)
            cases.append(("lasso_amp", spec, [[0.9, 0.2], [-1.0, 0.1], [0.9, -0.5]]))
            cases.append(("lasso_cgmt", spec, [[0.3, 0.8, 1.1, 0.7, 0.4, 0.6],
                                               [0.3, -1.0, 1.1, 0.7, -0.2, 0.6],
                                               [0.3, 0.8, 1.1, -0.1, 0.4, -1.0]]))
    for r_star in (0.5, 1.0, 2.0):
        spec = ProblemSpec("logistic", kappa=0.2, r_star=r_star)
        cases.append(("logistic_loo", spec, [[2.0, 1.1, 0.4], [1.5, 0.3, 2.0],
                                             [-1.0, 1.1, 0.4], [2.0, 1.1, -1.0]]))
        cases.append(("logistic_cgmt", spec, [[1.0, 1.1, 0.4], [0.6, 2.0, 1.5],
                                              [1.0, -1.0, 0.4], [-1.0, 1.1, 0.4]]))
    # near the existence boundary (0.97 kappa_c at r* = 2), rows at and off the roots
    spec = ProblemSpec("logistic", kappa=0.97 * 0.3449301, r_star=2.0)
    cases.append(("logistic_loo", spec, [[19.35, 4.951, 26.94], [10.0, 3.0, 12.0],
                                         [-1.0, 4.951, 26.94], [19.35, 4.951, -1.0]]))
    cases.append(("logistic_cgmt", spec, [[11.19, 9.902, 26.94], [5.0, 0.5, 12.0],
                                          [11.19, -1.0, 26.94], [-1.0, 9.902, 26.94]]))
    # no signal and mu = 0: no tilt, and the prox argument has sd alpha2
    spec = ProblemSpec("logistic", kappa=0.2, prior=point_mass(0.0), r_star=0.0)
    cases.append(("logistic_cgmt", spec, [[0.8, 0.0, 0.5], [1.5, 0.0, 3.0],
                                          [0.8, -1.0, 0.5], [-1.0, 0.0, 0.5]]))
    return cases


CATALOG = _catalog()


def _ids():
    labels = {"m_estimator": lambda s: f"{s.loss.kind}-{s.noise.kind}",
              "lasso": lambda s: f"{s.prior.kind}-lam{s.lambda_star:g}",
              "logistic": lambda s: f"r{s.r_star:g}" + ("" if s.kappa == 0.2
                                                         else f"-kappa{s.kappa:.3g}")}
    return [f"{name}-{labels[spec.model](spec)}" for name, spec, _ in CATALOG]


@pytest.mark.parametrize("name,spec,rows", CATALOG, ids=_ids())
def test_stacked_rows_equal_single_calls(name, spec, rows):
    sdef = SYSTEMS[name]
    clamp = solving._clamp_for(sdef)
    stack = clamp(np.array(rows, dtype=float))
    assert (stack == FLOOR).any() or (stack == 0.0).any()
    out = sdef.residual(stack, spec)
    assert out.shape == (len(rows), len(sdef.params))
    for i, row in enumerate(rows):
        single_point = clamp(np.array(row, dtype=float))
        assert np.array_equal(single_point, stack[i])
        single = sdef.residual(single_point, spec)
        assert single.shape == (len(sdef.params),)
        assert np.array_equal(out[i], single), (i, out[i], single)


def test_m_stack_straddles_the_panel_branch():
    # the catalog's m rows put the kinks inside the window for one row and
    # outside it for another; both rows get the same panel layout
    loss = LossSpec("absolute")
    spec = ProblemSpec("m_estimator", kappa=0.35, loss=loss, noise=gaussian(0.0, 1.0))
    seen = []

    def g(s, lam):
        seen.append(s.shape)
        return np.stack([losses.prox_deriv(loss, s, lam), losses.moreau_bundle(loss, s, lam).m])

    tau, lam = np.array([1.2, 0.5]), np.array([0.6, 20.0])
    order = spec.default_quad_order()
    stacked = expect_noise_sum(lambda s: g(s, lam), spec.noise, tau, order,
                               kinks=losses.prox_kinks(loss, lam))
    # one call on (rows, components, panels, nodes)
    assert len(seen) == 1 and seen[0][:3] == (2, 1, 3)
    for i in range(2):
        single = expect_noise_sum(lambda s, t=lam[i]: g(s, t), spec.noise, tau[i],
                                  order, kinks=losses.prox_kinks(loss, lam[i]))
        assert np.array_equal(stacked[:, i], single)
    # the out-of-window row integrates a smooth function: one uncut panel agrees
    plain = expect_noise_sum(lambda s: g(s, lam[1]), spec.noise, tau[1], order)
    assert np.max(np.abs(stacked[:, 1] - plain)) <= 1e-13


@pytest.mark.parametrize("noise", [gaussian(0.0, 1.0), two_point(1.0, 0.3), point_mass(0.0)])
def test_noise_expectations_take_rows_and_stacked_integrands(noise):
    order = 61
    loss = LossSpec("huber", delta=1.0)
    tau = np.array([0.4, 1.5, 0.02, 3.0])
    lam = np.array([0.3, 1.0, 0.5, 40.0])
    kinks = losses.prox_kinks(loss, lam)

    def pair(s):
        b = losses.moreau_bundle(loss, s, lam)
        return np.stack([b.dm_dt, b.dm_dx])

    plain, zw = expect_noise_sum(pair, noise, tau, order, kinks=kinks, zweighted=(False, True))
    for i in range(len(tau)):
        k = losses.prox_kinks(loss, lam[i])
        assert plain[i] == expect_noise_sum(
            lambda s: losses.moreau_bundle(loss, s, lam[i]).dm_dt, noise, tau[i], order, kinks=k)
        assert zw[i] == expect_noise_zweighted(
            lambda s: losses.moreau_bundle(loss, s, lam[i]).dm_dx, noise, tau[i], order,
            kinks=k)


def test_point_rows_mix_with_panel_rows():
    # tau = 0 on an atom noise is no Gaussian integral; a row with it is
    # rejected, whatever the other rows
    noise = two_point(1.0, 0.5)
    tau, kinks = np.array([0.0, 0.7]), (np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ConfigError, match="tau must be positive"):
        expect_noise_sum(np.abs, noise, tau, 61, kinks=kinks)


@pytest.mark.parametrize("loss", M_LOSSES + (LossSpec("logistic_rho"), LossSpec("logistic_ell")),
                         ids=lambda loss: loss.kind)
def test_losses_take_a_per_row_scale(loss):
    x = np.random.default_rng(3).normal(0.0, 4.0, (5, 3, 40))
    t = np.array([1e-3, 0.4, 1.0, 7.0, 1e4])
    p = losses.prox(loss, x, t)
    pd = losses.prox_deriv(loss, x, t)
    mb = losses.moreau_bundle(loss, x, t)
    for i in range(len(t)):
        assert np.array_equal(p[i], losses.prox(loss, x[i], t[i]))
        assert np.array_equal(pd[i], losses.prox_deriv(loss, x[i], t[i]))
        one = losses.moreau_bundle(loss, x[i], t[i])
        for field in ("m", "dm_dx", "d2m_dx2", "dm_dt", "prox"):
            assert np.array_equal(getattr(mb, field)[i], getattr(one, field))
    kinks = losses.prox_kinks(loss, t)
    for i in range(len(t)):
        assert tuple(k[i] for k in kinks) == losses.prox_kinks(loss, t[i])
    with pytest.raises(ValueError):
        losses.prox(loss, x, t[:2])


def _jacobian_by_columns(residual, x, fd_step):
    # the per-column central difference the stacked Jacobian replaces
    cols = []
    for i in range(x.size):
        h = fd_step * max(abs(x[i]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((residual(xp) - residual(xm)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("name,spec,rows", CATALOG, ids=_ids())
def test_stacked_jacobian_matches_per_column_oracle(name, spec, rows):
    sdef = SYSTEMS[name]
    clamp = solving._clamp_for(sdef)
    calls = []

    def residual(v):
        calls.append(np.shape(v))
        return sdef.residual(clamp(np.asarray(v, dtype=float)), spec)

    x = clamp(np.array(rows[0], dtype=float))
    n = x.size
    jac = evaluate_jacobian_fd(residual, x, 1e-6)
    assert calls == [(2 * n, n)]
    oracle = _jacobian_by_columns(residual, x, 1e-6)
    np.testing.assert_allclose(jac, oracle, rtol=1e-12, atol=0.0)


def test_newton_makes_one_stacked_call_per_point():
    # every point Newton evaluates, the start and each line-search trial,
    # comes with its 2n difference points: 1 + trials calls of (2n + 1, n)
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=LossSpec("huber", delta=1.345),
                       noise=gaussian(0.0, 1.0))
    sdef = SYSTEMS["m_cgmt"]
    clamp = solving._clamp_for(sdef)
    shapes, clamped = [], []

    def residual(p):
        shapes.append(np.shape(p))
        return sdef.residual(clamp(p), spec)

    def counted_clamp(x):
        # newton_solve clamps the start and each trial, once each
        clamped.append(1)
        return clamp(x)

    x, info = newton_solve(residual, np.array([0.2, 3.0, 0.2]), clamp=counted_clamp)
    trials = len(clamped) - 1
    assert info["residual_norm"] <= 1e-9 and info["iterations"] >= 2
    assert trials > info["iterations"]   # some trials were halved
    assert shapes == [(7, 3)] * (1 + trials)


def test_newton_rejects_a_residual_that_fails_a_difference_point():
    def residual(v):
        out = v[..., :1] ** 2 - 4.0
        return np.where(v[..., :1] > 3.0, np.nan, out)

    with pytest.raises(solving.NumericError, match="coordinate 0"):
        newton_solve(residual, np.array([3.0 - 1e-7]))
