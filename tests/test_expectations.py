"""Distributions, quadrature rules, and the Gaussian expectation operators."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from hdse.errors import ConfigError, NumericError
from hdse.expectations import (
    bernoulli_gaussian,
    bivariate_nodes,
    expect_noise_sum,
    expect_noise_zweighted,
    gauss_hermite,
    gaussian,
    point_mass,
    prox_rho_nodes,
    soft_threshold_moments,
    two_point,
    zv_nodes,
)
from hdse.losses import LossSpec, loss_deriv, prox
from hdse.systems import lasso_signal_moments


# ---------------------------------------------------------------------------
# DistributionSpec


def test_second_moment_closed_forms():
    assert point_mass(3.0).second_moment() == 9.0
    assert gaussian(1.0, 2.0).second_moment() == 5.0
    assert two_point(2.0, 0.3).second_moment() == 4.0
    assert bernoulli_gaussian(0.1, 3.0).second_moment() == pytest.approx(0.9)


def test_sampling_mean_matches_analytic():
    rng = np.random.default_rng(42)
    n = 1_000_000
    for dist in (gaussian(0.5, 2.0), two_point(1.0, 0.7), bernoulli_gaussian(0.2, 1.5)):
        draws = dist.sample(rng, n)
        sd = np.sqrt(dist.variance())
        assert abs(np.mean(draws) - dist.mean()) < 5.0 * sd / 1e3
    assert np.all(point_mass(2.0).sample(rng, 100) == 2.0)


def test_distribution_validation():
    with pytest.raises(ConfigError):
        two_point(1.0, 1.5)
    with pytest.raises(ConfigError):
        gaussian(0.0, -1.0)
    with pytest.raises(ConfigError):
        bernoulli_gaussian(-0.1, 1.0)


# ---------------------------------------------------------------------------
# Quadrature rules


@pytest.mark.parametrize("order", [3, 21, 61, 121])
def test_hermite_rule_polynomial_exactness(order):
    rule = gauss_hermite(order)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.dot(rule.weights, rule.nodes) == pytest.approx(0.0, abs=1e-12)
    assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(rule.weights, rule.nodes**4) == pytest.approx(3.0, abs=1e-11)


def test_rules_are_cached():
    assert gauss_hermite(61) is gauss_hermite(61)


# ---------------------------------------------------------------------------
# Noise-pair expectations


RULE = gauss_hermite(61)


def test_noise_pair_examples():
    sq = lambda s: s**2
    assert expect_noise_sum(sq, two_point(1.0, 0.5), 0.0, RULE) == pytest.approx(1.0, abs=1e-12)
    val = expect_noise_sum(lambda s: s**4, point_mass(0.0), 1.0, RULE)
    assert val == pytest.approx(3.0, abs=1e-10)
    assert expect_noise_sum(sq, gaussian(0.0, 1.0), 1.0, RULE) == pytest.approx(2.0, abs=1e-10)


def test_noise_sum_folding_matches_pair():
    # E[cos(W + tau Z)] = cos(mean) * exp(-(sd^2 + tau^2)/2), exactly; the
    # fold into one quadrature over the sum must reproduce it
    mean, sd, tau = 0.2, 1.1, 0.8
    exact = np.cos(mean) * np.exp(-0.5 * (sd**2 + tau**2))
    folded = expect_noise_sum(np.cos, gaussian(mean, sd), tau, RULE)
    assert folded == pytest.approx(exact, abs=1e-12)


def test_noise_must_not_be_bernoulli_gaussian():
    with pytest.raises(ConfigError):
        expect_noise_sum(lambda s: s, bernoulli_gaussian(0.1, 1.0), 1.0, RULE)


def test_zweighted_matches_direct_tensor():
    # E[Z cos(W + tau Z)] = -tau * E[sin W] * exp(-tau^2/2) by the Gaussian
    # identity; E[sin W] is 0 for the centered Gaussian and -0.2 sin 1 for
    # the two-point law
    tau = 0.7
    for noise, e_sin_w in ((gaussian(0.0, 1.3), 0.0), (two_point(1.0, 0.4), -0.2 * np.sin(1.0))):
        exact = -tau * e_sin_w * np.exp(-0.5 * tau**2)
        reduced = expect_noise_zweighted(np.cos, noise, tau, RULE)
        assert reduced == pytest.approx(exact, abs=1e-12)


def test_kinked_integrand_uses_panels():
    # E[clip(S, -a, a)^2] for S ~ N(0, s^2): adaptive reference vs panel value
    a, s = 2.69, 1.2
    g = lambda x: np.clip(x, -a, a) ** 2
    ref = quad(lambda x: g(x) * np.exp(-0.5 * (x / s) ** 2) / (np.sqrt(2 * np.pi) * s),
               -15, 15, points=[-a, a], limit=200, epsabs=1e-14)[0]
    val = expect_noise_sum(g, point_mass(0.0), s, RULE, kinks=(-a, a))
    assert val == pytest.approx(ref, abs=1e-12)
    # doubling the order moves the panel value by far less than 1e-9
    val2 = expect_noise_sum(g, point_mass(0.0), s, gauss_hermite(122), kinks=(-a, a))
    assert abs(val - val2) < 1e-12


# ---------------------------------------------------------------------------
# Signal expectations (closed form over the prior mixture)


def test_signal_examples():
    # at threshold 0 the soft threshold is the identity, so the moments are
    # those of S = theta*B + gamma*Z itself
    mom = lasso_signal_moments(point_mass(0.0), 1.0, 1.0, 0.0)
    assert mom.eta_sq == pytest.approx(1.0, abs=1e-12)
    mom = lasso_signal_moments(two_point(2.0, 0.5), 1.0, 1.0, 0.0)
    assert mom.eta == pytest.approx(0.0, abs=1e-13)
    mom = lasso_signal_moments(bernoulli_gaussian(0.1, 3.0), 1.0, 0.0, 0.0)
    assert mom.eta_sq == pytest.approx(0.9, abs=1e-12)


def test_signal_weighted_matches_monte_carlo_free_identity():
    # E[B * (theta B + gamma Z)] = theta E[B^2]
    prior = bernoulli_gaussian(0.3, 2.0)
    theta, gamma = 0.6, 0.9
    val = lasso_signal_moments(prior, theta, gamma, 0.0).beta_eta
    assert val == pytest.approx(theta * prior.second_moment(), abs=1e-12)


# ---------------------------------------------------------------------------
# Bivariate expectations


def bivariate_mean(f, cov):
    q1, q2, wgt = bivariate_nodes(cov, RULE)
    return float(np.sum(wgt * f(q1, q2)))


def test_bivariate_examples():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert bivariate_mean(lambda a, b: a * b, cov) == pytest.approx(0.5, abs=1e-10)
    cov2 = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert bivariate_mean(lambda a, b: a * a, cov2) == pytest.approx(2.0, abs=1e-10)
    eye = np.eye(2)
    assert bivariate_mean(lambda a, b: a * b, eye) == pytest.approx(0.0, abs=1e-12)


def test_bivariate_permutation_invariance():
    cov = np.array([[1.5, -0.4], [-0.4, 0.8]])
    f = lambda a, b: np.exp(-0.1 * a) * np.tanh(b)
    swapped = cov[::-1, ::-1]
    v1 = bivariate_mean(f, cov)
    v2 = bivariate_mean(lambda a, b: f(b, a), swapped)
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_bivariate_rejects_indefinite():
    with pytest.raises(NumericError):
        bivariate_nodes(np.array([[1.0, 2.0], [2.0, 1.0]]), RULE)


def test_bivariate_accepts_semidefinite_with_jitter():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    val = bivariate_mean(lambda a, b: (a - b) ** 2, cov)
    assert val == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Tilted label-variable expectations


def zv_mean(f, r_star):
    Z, V, wgt = zv_nodes(r_star, RULE)
    return float(np.sum(wgt * f(Z, V)))


def test_zv_normalization_exact():
    assert zv_mean(lambda z, v: np.ones_like(z), 1.7) == pytest.approx(1.0, abs=1e-14)


def test_zv_reduces_to_gaussian_at_zero_tilt():
    assert zv_mean(lambda z, v: v * v, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_zv_mean_of_v_against_adaptive_oracle():
    # oracle: integral of v * phi(v) * 2 sigmoid(2 v) by adaptive quadrature
    oracle = quad(lambda v: v * np.exp(-0.5 * v * v) / np.sqrt(2 * np.pi)
                  * 2.0 * expit(2.0 * v), -12, 12, epsabs=1e-13)[0]
    val = zv_mean(lambda z, v: v, 2.0)
    assert val == pytest.approx(oracle, abs=1e-8)
    assert val == pytest.approx(0.6057055, abs=1e-6)


def test_zv_function_of_z_only_matches_plain_gaussian():
    f = lambda z: np.cos(z)
    plain = float(np.dot(RULE.weights, f(RULE.nodes)))
    val = zv_mean(lambda z, v: f(z), 1.3)
    assert abs(val - plain) < 1e-12


# ---------------------------------------------------------------------------
# Closed-form soft-threshold moments


@pytest.mark.parametrize("mean,sd,thresh", [
    (0.0, 1.0, 0.5),
    (1.3, 0.7, 0.2),
    (-2.0, 2.5, 1.0),
    (0.4, 1.0, 0.0),
    (5.0, 0.3, 4.0),
])
def test_soft_threshold_moments_against_quadrature(mean, sd, thresh):
    from hdse.losses import soft_threshold

    rule = gauss_hermite(61)
    kinks = (-thresh, thresh)
    # E[g(mean + sd Z)] is the noise expectation with the noise a point mass at mean
    w = point_mass(mean)
    e1_q = expect_noise_sum(lambda s: soft_threshold(s, thresh)[0], w, sd, rule, kinks)
    e2_q = expect_noise_sum(lambda s: soft_threshold(s, thresh)[0] ** 2, w, sd, rule, kinks)
    es_q = expect_noise_sum(lambda s: s * soft_threshold(s, thresh)[0], w, sd, rule, kinks)
    ep_q = expect_noise_sum(lambda s: soft_threshold(s, thresh)[1], w, sd, rule, kinks)
    e1, e2, es, ep = soft_threshold_moments(mean, sd, thresh)
    assert e1 == pytest.approx(e1_q, abs=1e-11)
    assert e2 == pytest.approx(e2_q, abs=1e-11)
    assert es == pytest.approx(es_q, abs=1e-11)
    assert ep == pytest.approx(ep_q, abs=1e-11)


def test_soft_threshold_moments_zero_threshold():
    e1, e2, es, ep = soft_threshold_moments(0.7, 1.2, 0.0)
    assert e1 == pytest.approx(0.7, abs=1e-14)
    assert e2 == pytest.approx(0.7**2 + 1.2**2, abs=1e-13)
    assert ep == pytest.approx(1.0, abs=1e-14)
    assert es == pytest.approx(e2, abs=1e-13)


# ---------------------------------------------------------------------------
# Expectations over the logistic prox output


@pytest.mark.parametrize("sd,t", [(1.0, 0.5), (3.0, 4.0), (15.0, 27.0), (28.0, 56.0),
                                  (0.5, 200.0), (1.0, 1e4), (2.0, 1e-8), (5.0, 1e8),
                                  (0.5, 1e12)])
def test_prox_rho_nodes_against_adaptive_quadrature(sd, t):
    # t >> sd puts the whole window of Y inside the sigmoid's bend, and at
    # t = 1e8, 1e12 its edges take 20-30 Newton steps; the oracle solves the
    # prox at every point scipy's adaptive rule asks for
    y, sig, w = (a[0] for a in prox_rho_nodes(np.array([sd]), np.array([t]), 61))
    p_nodes = y - t * sig
    rho = LossSpec("logistic_rho")
    breaks = [b for b in (0.0, 0.5 * t, t) if b < 12.0 * sd]

    def oracle(h):
        def f(v):
            p = prox(rho, v, t)
            s = loss_deriv(rho, p)
            return np.exp(-0.5 * (v / sd) ** 2) / (np.sqrt(2.0 * np.pi) * sd) * h(p, s, v)

        return quad(f, -12.0 * sd, 12.0 * sd, points=breaks, limit=400,
                    epsabs=1e-13, epsrel=1e-12)[0]

    for got, h in ((w.sum(), lambda p, s, v: 1.0),
                   (w @ y ** 2, lambda p, s, v: v * v),
                   (w @ sig, lambda p, s, v: s),
                   (w @ (p_nodes * y), lambda p, s, v: p * v),
                   (w @ (sig * (1.0 - sig)), lambda p, s, v: s * (1.0 - s))):
        want = oracle(h)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (got, want)


def test_prox_rho_nodes_rows_are_independent():
    sd, t = np.array([1.0, 15.0, 0.5]), np.array([0.5, 27.0, 200.0])
    stacked = prox_rho_nodes(sd, t, 61)
    for i in range(3):
        for a, b in zip(stacked, prox_rho_nodes(sd[i:i + 1], t[i:i + 1], 61)):
            assert np.array_equal(a[i], b[0])
