"""Stacked evaluation: a residual on an (m, n_params) stack equals m single calls.

The finite-difference Jacobian sends all 2n difference points to the residual
in one call, so every layer under it (losses, expectations, systems, the
solver clamp) must give each row exactly what a call of its own would give.
"""

import dataclasses

import numpy as np
import pytest

from hdse import losses, solving
from hdse.expectations import (
    bernoulli_gaussian,
    expect_noise_sum,
    expect_noise_zweighted,
    gauss_hermite,
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

    Each m stack has a panel row (kink inside the +-12 sd window), a
    Gauss-Hermite row (lam = 20 puts the kinks outside it), and rows with a
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
    # the catalog's m rows must put the kinks inside the window for one row
    # and outside it for another, in one stack
    loss = LossSpec("absolute")
    spec = ProblemSpec("m_estimator", kappa=0.35, loss=loss, noise=gaussian(0.0, 1.0))
    seen = []

    def g(s):
        seen.append(s.shape)
        return losses.prox_deriv(loss, s, lam)

    tau, lam = np.array([1.2, 0.5]), np.array([0.6, 20.0])
    stacked = expect_noise_sum(g, spec.noise, tau, spec.rule(),
                               kinks=losses.prox_kinks(loss, lam))
    # one call on (rows, components, panels, nodes): panels for row 0 only
    assert len(seen) == 1 and seen[0][:3] == (2, 1, 3)
    for i in range(2):
        single = expect_noise_sum(lambda s, t=lam[i]: losses.prox_deriv(loss, s, t), spec.noise,
                                  tau[i], spec.rule(), kinks=losses.prox_kinks(loss, lam[i]))
        assert stacked[i] == single
    # alone, the second row is a plain Gauss-Hermite row
    seen.clear()
    lam = lam[1:]
    expect_noise_sum(g, spec.noise, tau[1:], spec.rule(), kinks=losses.prox_kinks(loss, lam))
    assert seen[0] == (1, 1, spec.rule().order)


@pytest.mark.parametrize("noise", [gaussian(0.0, 1.0), two_point(1.0, 0.3), point_mass(0.0)])
def test_noise_expectations_take_rows_and_stacked_integrands(noise):
    rule = gauss_hermite(61)
    loss = LossSpec("huber", delta=1.0)
    tau = np.array([0.4, 1.5, 0.02, 3.0])
    lam = np.array([0.3, 1.0, 0.5, 40.0])
    kinks = losses.prox_kinks(loss, lam)

    def pair(s):
        b = losses.moreau_bundle(loss, s, lam)
        return np.stack([b.dm_dt, b.dm_dx])

    plain, zw = expect_noise_sum(pair, noise, tau, rule, kinks=kinks, zweighted=(False, True))
    for i in range(len(tau)):
        k = losses.prox_kinks(loss, lam[i])
        assert plain[i] == expect_noise_sum(
            lambda s: losses.moreau_bundle(loss, s, lam[i]).dm_dt, noise, tau[i], rule, kinks=k)
        assert zw[i] == expect_noise_zweighted(
            lambda s: losses.moreau_bundle(loss, s, lam[i]).dm_dx, noise, tau[i], rule,
            kinks=k)


def test_point_rows_mix_with_panel_rows():
    # tau = 0 on an atom noise is a point evaluation, next to a panel row
    rule = gauss_hermite(61)
    noise = two_point(1.0, 0.5)
    tau, kinks = np.array([0.0, 0.7]), (np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    got = expect_noise_sum(np.abs, noise, tau, rule, kinks=kinks)
    assert got[0] == 1.0
    assert got[1] == expect_noise_sum(np.abs, noise, 0.7, rule, kinks=(-0.5, 0.5))


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


def test_newton_makes_one_stacked_call_per_iteration(monkeypatch):
    spec = ProblemSpec("m_estimator", kappa=0.3, loss=LossSpec("huber", delta=1.345),
                       noise=gaussian(0.0, 1.0))
    sdef = SYSTEMS["m_cgmt"]
    shapes = []

    def counted(p, at_spec):
        shapes.append(np.shape(p))
        return sdef.residual(p, at_spec)

    monkeypatch.setitem(SYSTEMS, "m_cgmt", dataclasses.replace(sdef, residual=counted))
    jacobians = []
    real = solving.evaluate_jacobian_fd
    monkeypatch.setattr(solving, "evaluate_jacobian_fd",
                        lambda *a: jacobians.append(1) or real(*a))
    sol = solving.solve_system("m_cgmt", spec, x0=[1.5, 0.6, 1.0])
    stacked = [s for s in shapes if len(s) == 2]
    assert sol.converged and sol.iterations >= 2
    # per iteration: one stacked call for the Jacobian, then line-search trials
    assert len(stacked) == len(jacobians) == sol.iterations
    assert all(s == (6, 3) for s in stacked)
    assert len(shapes) - len(stacked) >= 1 + sol.iterations


def test_newton_rejects_a_residual_that_fails_a_difference_point():
    def residual(v):
        out = v[..., :1] ** 2 - 4.0
        return np.where(v[..., :1] > 3.0, np.nan, out)

    with pytest.raises(solving.NumericError, match="coordinate 0"):
        newton_solve(residual, np.array([3.0 - 1e-7]))
