"""Scalar distributions and deterministic Gaussian expectations.

All state-equation integrals reduce to one of four shapes:

  * E[f(W, Z)] over an independent noise/Gaussian pair,
  * E[f(theta*B + gamma*Z)] over an independent prior/Gaussian pair,
  * E[f(Q1, Q2)] over a correlated Gaussian pair,
  * E[f(Z, V)] where V carries the label-tilted density 2*phi(v)*sigmoid(r*v).

Gaussian directions use Gauss-Hermite quadrature in the probabilists'
normalization (weights sum to 1).  Discrete laws are enumerated exactly.
Integrands with derivative kinks (huber and absolute prox maps, soft
thresholds) are integrated with Gauss-Legendre panels split at the kinks,
because Gauss-Hermite loses most of its accuracy across a kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr, roots_hermitenorm, roots_legendre

from .errors import ConfigError, NumericError

DISTRIBUTION_KINDS = ("point_mass", "gaussian", "two_point", "bernoulli_gaussian")

DEFAULT_QUAD_ORDER = 61
# Kinked integrands get a doubled rule wherever quadrature is still involved.
KINKED_QUAD_ORDER = 121

# Integration window for the panel scheme, in standard deviations. The
# integrands grow at most polynomially, so the truncated tail is far below
# double precision.
PANEL_HALFWIDTH = 12.0

_CHOLESKY_JITTER = 1e-12


@dataclass(frozen=True)
class DistributionSpec:
    """Scalar law used for signal priors and noise.

    ``params`` is interpreted by ``kind``:
      point_mass(c), gaussian(mean, sd), two_point(a, p) for +-a with P(+a)=p,
      bernoulli_gaussian(eps, sd) for N(0, sd^2) with probability eps, else 0.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")

    def mixture(self) -> list[tuple[float, float, float]]:
        """Represent the law as Gaussian/atom components (weight, mean, sd)."""
        if self.kind == "point_mass":
            (c,) = self.params
            return [(1.0, c, 0.0)]
        if self.kind == "gaussian":
            mean, sd = self.params
            return [(1.0, mean, sd)]
        if self.kind == "two_point":
            a, p = self.params
            return [(p, a, 0.0), (1.0 - p, -a, 0.0)]
        eps, sd = self.params
        return [(1.0 - eps, 0.0, 0.0), (eps, 0.0, sd)]

    def mean(self) -> float:
        return sum(w * m for w, m, _ in self.mixture())

    def second_moment(self) -> float:
        return sum(w * (m * m + s * s) for w, m, s in self.mixture())

    def variance(self) -> float:
        mu = self.mean()
        return self.second_moment() - mu * mu

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point_mass":
            return np.full(size, self.params[0])
        if self.kind == "gaussian":
            mean, sd = self.params
            return rng.normal(mean, sd, size)
        if self.kind == "two_point":
            a, p = self.params
            return np.where(rng.random(size) < p, a, -a)
        eps, sd = self.params
        active = rng.random(size) < eps
        return np.where(active, rng.normal(0.0, sd, size), 0.0)


def point_mass(c: float) -> DistributionSpec:
    return DistributionSpec("point_mass", (float(c),))


def gaussian(mean: float, sd: float) -> DistributionSpec:
    if sd < 0:
        raise ConfigError("gaussian sd must be nonnegative")
    return DistributionSpec("gaussian", (float(mean), float(sd)))


def two_point(a: float, p: float) -> DistributionSpec:
    if not 0.0 <= p <= 1.0:
        raise ConfigError("two_point probability must lie in [0, 1]")
    return DistributionSpec("two_point", (float(a), float(p)))


def bernoulli_gaussian(eps: float, sd: float) -> DistributionSpec:
    if not 0.0 <= eps <= 1.0:
        raise ConfigError("bernoulli_gaussian sparsity must lie in [0, 1]")
    if sd < 0:
        raise ConfigError("bernoulli_gaussian sd must be nonnegative")
    return DistributionSpec("bernoulli_gaussian", (float(eps), float(sd)))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes and weights, probabilists' normalization (sum w = 1)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


_HERMITE_CACHE: dict[int, QuadratureRule] = {}
_LEGENDRE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_hermite(order: int) -> QuadratureRule:
    if order < 1:
        raise ConfigError("quadrature order must be positive")
    rule = _HERMITE_CACHE.get(order)
    if rule is None:
        nodes, weights = roots_hermitenorm(order)
        weights = weights / weights.sum()
        rule = QuadratureRule(order, nodes, weights)
        _HERMITE_CACHE[order] = rule
    return rule


def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    pair = _LEGENDRE_CACHE.get(order)
    if pair is None:
        pair = roots_legendre(max(order, 16))
        _LEGENDRE_CACHE[order] = pair
    return pair


def expect_gauss_1d(g, mean: float, sd: float, rule: QuadratureRule, kinks=()) -> float:
    """E[g(X)] for X ~ N(mean, sd^2).

    With ``kinks`` (abscissae where g is not smooth) inside the integration
    window, the Gaussian weight is folded into the integrand and each smooth
    segment is handled by a Gauss-Legendre panel of the same order.
    """
    if sd == 0.0:
        return float(np.asarray(g(np.asarray([mean])))[0])
    lo = mean - PANEL_HALFWIDTH * sd
    hi = mean + PANEL_HALFWIDTH * sd
    cuts = sorted(k for k in kinks if lo < k < hi)
    if not cuts:
        vals = g(mean + sd * rule.nodes)
        return float(np.dot(rule.weights, vals))
    u, w = _legendre(rule.order)
    edges = [lo, *cuts, hi]
    total = 0.0
    inv = 1.0 / (np.sqrt(2.0 * np.pi) * sd)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * u
        dens = inv * np.exp(-0.5 * ((x - mean) / sd) ** 2)
        total += half * float(np.dot(w, np.asarray(g(x)) * dens))
    return total


def _noise_components(noise: DistributionSpec):
    if noise.kind == "bernoulli_gaussian":
        raise ConfigError("noise law must be point_mass, two_point, or gaussian")
    return noise.mixture()


def expect_noise_gaussian(f, noise: DistributionSpec, tau: float, rule: QuadratureRule,
                          sum_only: bool = False, kinks=()) -> float:
    """E[f(W, Z)] with W ~ noise independent of Z ~ N(0, 1).

    ``sum_only=True`` asserts that f depends on its arguments only through
    W + tau*Z; Gaussian noise then folds into a single 1-d quadrature over the
    sum (f is evaluated as f(s, 0)).  Discrete noise is enumerated exactly.
    """
    if tau < 0:
        raise ConfigError("tau must be nonnegative")
    total = 0.0
    for wt, m, s in _noise_components(noise):
        if wt == 0.0:
            continue
        if s == 0.0:
            total += wt * expect_gauss_1d(lambda z: f(m, z), 0.0, 1.0, rule)
        elif sum_only:
            scale = np.hypot(s, tau)
            total += wt * expect_gauss_1d(lambda x: f(x, 0.0), m, scale, rule, kinks=kinks)
        else:
            wnod = m + s * rule.nodes
            W, Z = np.meshgrid(wnod, rule.nodes, indexing="ij")
            wgt = np.outer(rule.weights, rule.weights)
            total += wt * float(np.sum(wgt * f(W, Z)))
    return total


def expect_noise_sum(g, noise: DistributionSpec, tau: float, rule: QuadratureRule,
                     kinks=()) -> float:
    """E[g(W + tau*Z)], W ~ noise independent of Z ~ N(0, 1), kink aware."""
    if tau < 0:
        raise ConfigError("tau must be nonnegative")
    total = 0.0
    for wt, m, s in _noise_components(noise):
        if wt == 0.0:
            continue
        scale = np.hypot(s, tau)
        total += wt * expect_gauss_1d(g, m, scale, rule, kinks=kinks)
    return total


def expect_noise_zweighted(g, noise: DistributionSpec, tau: float, rule: QuadratureRule,
                           kinks=()) -> float:
    """E[Z * g(W + tau*Z)], W ~ noise independent of Z ~ N(0, 1).

    Per mixture component the pair (Z, S = W + tau*Z) is jointly Gaussian, so
    E[Z g(S)] = Cov(Z, S)/Var(S) * E[(S - E S) g(S)].  This keeps the left
    side of the Stein identity free of any derivative of g while still
    reducing the integral to one kink-aware dimension.
    """
    if tau <= 0:
        raise ConfigError("z-weighted expectation requires tau > 0")
    total = 0.0
    for wt, m, s in _noise_components(noise):
        if wt == 0.0:
            continue
        var = s * s + tau * tau
        val = expect_gauss_1d(lambda x: (x - m) * np.asarray(g(x)), m, np.sqrt(var),
                              rule, kinks=kinks)
        total += wt * (tau / var) * val
    return total


def expect_signal_gaussian(f, prior: DistributionSpec, theta: float, gamma: float,
                           rule: QuadratureRule, kinks=()) -> float:
    """E[f(theta*B + gamma*Z)], B ~ prior independent of Z ~ N(0, 1).

    Every supported prior is a finite mixture of atoms and Gaussians, so the
    combination theta*B + gamma*Z folds into one Gaussian per component.
    """
    if gamma < 0:
        raise ConfigError("gamma must be nonnegative")
    total = 0.0
    for wt, m, s in prior.mixture():
        if wt == 0.0:
            continue
        scale = np.hypot(theta * s, gamma)
        total += wt * expect_gauss_1d(f, theta * m, scale, rule, kinks=kinks)
    return total


def expect_signal_weighted(h, prior: DistributionSpec, theta: float, gamma: float,
                           rule: QuadratureRule, kinks=()) -> float:
    """E[B * h(S)] with S = theta*B + gamma*Z.

    Uses E[B | S] per mixture component (B and S are jointly Gaussian within
    a component), reducing to the same 1-d kink-aware quadrature as the plain
    signal expectation.
    """
    if gamma < 0:
        raise ConfigError("gamma must be nonnegative")
    total = 0.0
    for wt, m, s in prior.mixture():
        if wt == 0.0:
            continue
        mean_s = theta * m
        var = (theta * s) ** 2 + gamma * gamma
        if var == 0.0:
            total += wt * m * float(np.asarray(h(np.asarray([mean_s])))[0])
            continue
        scale = np.sqrt(var)
        e_h = expect_gauss_1d(h, mean_s, scale, rule, kinks=kinks)
        cov = theta * s * s
        if cov != 0.0:
            centered = expect_gauss_1d(lambda x: (x - mean_s) * np.asarray(h(x)),
                                       mean_s, scale, rule, kinks=kinks)
            total += wt * (m * e_h + (cov / var) * centered)
        else:
            total += wt * m * e_h
    return total


def _cholesky_psd(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ConfigError("covariance must be 2x2")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(cov + _CHOLESKY_JITTER * np.eye(2))
        except np.linalg.LinAlgError as exc:
            raise NumericError("covariance is not positive semi-definite") from exc


def bivariate_nodes(cov, rule: QuadratureRule):
    """Tensor nodes (Q1, Q2) and weights for a centered Gaussian pair."""
    L = _cholesky_psd(cov)
    U1, U2 = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    q1 = L[0, 0] * U1
    q2 = L[1, 0] * U1 + L[1, 1] * U2
    wgt = np.outer(rule.weights, rule.weights)
    return q1, q2, wgt


def expect_bivariate_gaussian(f, cov, rule: QuadratureRule) -> float:
    """E[f(Q1, Q2)] for (Q1, Q2) centered Gaussian with the given covariance."""
    q1, q2, wgt = bivariate_nodes(cov, rule)
    return float(np.sum(wgt * f(q1, q2)))


def zv_nodes(r_star: float, rule: QuadratureRule):
    """Tensor nodes (Z, V) and weights, V tilted by 2*sigmoid(r_star * v).

    The tilt 2*phi(v)*sigmoid(r*v) is the density of G*Y when Y = +-1 with
    P(+1 | G) = sigmoid(r*G); it integrates to 1 exactly on a symmetric rule.
    """
    if r_star < 0:
        raise ConfigError("r_star must be nonnegative")
    tilt = 2.0 * expit(r_star * rule.nodes)
    Z, V = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    wgt = np.outer(rule.weights, rule.weights * tilt)
    return Z, V, wgt


def expect_zv(f, r_star: float, rule: QuadratureRule) -> float:
    """E[f(Z, V)] with Z ~ N(0,1) independent of the tilted label variable V."""
    Z, V, wgt = zv_nodes(r_star, rule)
    return float(np.sum(wgt * f(Z, V)))


def soft_threshold_moments(mean: float, sd: float, thresh: float):
    """Closed-form Gaussian moments of the soft threshold eta(S; thresh).

    For S ~ N(mean, sd^2) returns ``(e1, e2, es, ep)``:

        e1 = E[eta(S)]        e2 = E[eta(S)^2]
        es = E[S eta(S)]      ep = E[eta'(S)] = P(|S| > thresh)

    These are piecewise Gaussian integrals with analytic boundaries, so they
    carry no quadrature error at all; the state-equation systems for the
    l1-regularized problem are built on them.
    """
    if thresh < 0:
        raise ConfigError("threshold must be nonnegative")
    if sd <= 0:
        raise ConfigError("soft threshold moments require sd > 0")
    a = (thresh - mean) / sd     # standardized upper kink
    b = (-thresh - mean) / sd    # standardized lower kink
    phi_a, phi_b = _phi(a), _phi(b)
    sf_a = ndtr(-a)              # P(X > a)
    cdf_b = ndtr(b)              # P(X < b)

    cu = mean - thresh
    cl = mean + thresh
    # upper branch: (cu + sd X) on X > a
    up0 = sf_a
    up1 = phi_a                       # E[X 1{X>a}]
    up2 = a * phi_a + sf_a            # E[X^2 1{X>a}]
    # lower branch: (cl + sd X) on X < b
    lo0 = cdf_b
    lo1 = -phi_b                      # E[X 1{X<b}]
    lo2 = cdf_b - b * phi_b           # E[X^2 1{X<b}]

    e1 = cu * up0 + sd * up1 + cl * lo0 + sd * lo1
    e2 = (cu * cu * up0 + 2.0 * cu * sd * up1 + sd * sd * up2
          + cl * cl * lo0 + 2.0 * cl * sd * lo1 + sd * sd * lo2)
    # S*eta = (eta + thresh)*eta above, (eta - thresh)*eta below
    e_eta_up = cu * up0 + sd * up1
    e_eta2_up = cu * cu * up0 + 2.0 * cu * sd * up1 + sd * sd * up2
    e_eta_lo = cl * lo0 + sd * lo1
    e_eta2_lo = cl * cl * lo0 + 2.0 * cl * sd * lo1 + sd * sd * lo2
    es = (e_eta2_up + thresh * e_eta_up) + (e_eta2_lo - thresh * e_eta_lo)
    ep = up0 + lo0
    return e1, e2, es, ep


def _phi(x: float) -> float:
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
