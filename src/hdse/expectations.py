"""Scalar distributions and deterministic Gaussian expectations.

All state-equation integrals reduce to one of three shapes:

  * E[g(W + tau*Z)] and E[Z g(W + tau*Z)] over an independent noise/Gaussian
    pair (``expect_noise_sum``, ``expect_noise_zweighted``),
  * E[f(theta*B + gamma*Z)] over an independent prior/Gaussian pair, in
    closed form for the soft threshold (``soft_threshold_moments``, summed
    over the prior in ``systems.lasso_signal_moments``),
  * E[h(prox_rho(Y; t), Y)] over a Gaussian Y, integrated in the prox output
    so that no prox is solved at the nodes (``prox_rho_nodes``); the
    logistic systems sum the other Gaussian direction given Y with
    Gauss-Hermite at each node.

``bivariate_nodes`` (a correlated Gaussian pair) and ``zv_nodes`` (Z with
the label-tilted V of density 2*phi(v)*sigmoid(r*v)) give tensor grids on
which the tests integrate the logistic systems as an oracle.

Gaussian directions use Gauss-Hermite quadrature in the probabilists'
normalization (weights sum to 1).  Discrete laws are enumerated exactly.
Integrands with derivative kinks (huber and absolute prox maps) are
integrated with Gauss-Legendre panels of the same order, split at the kinks,
because Gauss-Hermite loses most of its accuracy across a kink; the choice
is made per integrand, so every row of a kinked call gets panels.  The prox
output axis gets panels at the bends of the sigmoid for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr, roots_hermitenorm, roots_legendre

from .errors import ConfigError, NumericError
from .losses import rho_prox

DISTRIBUTION_KINDS = ("point_mass", "gaussian", "two_point", "bernoulli_gaussian")

DEFAULT_QUAD_ORDER = 61

# Integration window for the panel scheme, in standard deviations. The
# integrands grow at most polynomially, so the truncated tail is far below
# double precision.
PANEL_HALFWIDTH = 12.0

_CHOLESKY_JITTER = 1e-12

# Panel edges of ``prox_rho_nodes``: prox outputs where sigmoid(p) bends
# (+-16 keep the panels narrow where t*sigmoid'(p) still decays like e^-|p|),
# and the multiples of sd whose preimages in p are edges (the outer two bound
# the window), solved to their roots by ``losses.rho_prox``.
_SIGMOID_BENDS = np.array([-16.0, -8.0, -3.0, 0.0, 3.0, 8.0, 16.0])
_PREIMAGE_SDS = np.array([-PANEL_HALFWIDTH, -7.0, -4.0, -2.0, 2.0, 4.0, 7.0, PANEL_HALFWIDTH])


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


def _gauss_nodes(mean, sd, rule: QuadratureRule, kinks):
    """Nodes and weights of E[g(X)], X ~ N(mean, sd^2), per row of mean/sd.

    Returns ``(x, w, dens, half)``: E[g(X)] is the sum over panels j of
    ``half[..., j] * sum_k w * g(x) * dens`` over the last axis.  A smooth
    integrand (no kinks) gets the Gauss-Hermite rule, and ``dens`` and
    ``half`` are None.  A kinked one gets Gauss-Legendre panels on every
    row, split at the kinks clipped into the +-PANEL_HALFWIDTH sd window, so
    a kink outside the window leaves a zero-width panel.  A row with sd = 0
    is a point evaluation at its mean.
    """
    mean, sd = np.asarray(mean, dtype=float), np.asarray(sd, dtype=float)
    point = sd == 0.0
    if not kinks:
        x = mean[..., None] + sd[..., None] * rule.nodes
        w = rule.weights
        if point.any():
            w = np.where(point[..., None], _unit(w.size), w)
        return x, w, None, None
    lo = mean - PANEL_HALFWIDTH * sd
    hi = mean + PANEL_HALFWIDTH * sd
    ks = np.empty(lo.shape + (len(kinks),))
    for j, k in enumerate(kinks):
        ks[..., j] = k
    cuts = np.sort(np.clip(ks, lo[..., None], hi[..., None]), axis=-1)
    edges = np.concatenate([lo[..., None], cuts, hi[..., None]], axis=-1)
    a, b = edges[..., :-1], edges[..., 1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    u, w = _legendre(rule.order)
    x = mid[..., None] + half[..., None] * u
    s_dens = np.where(point, 1.0, sd)
    inv = 1.0 / (np.sqrt(2.0 * np.pi) * s_dens)
    dens = inv[..., None, None] * np.exp(
        -0.5 * ((x - mean[..., None, None]) / s_dens[..., None, None]) ** 2)
    if point.any():
        # a point row has zero-width panels at its mean: weight 1 on the
        # first node of panel 0, nothing after it
        first = np.arange(half.shape[-1]) == 0
        p3 = point[..., None, None]
        w = np.where(p3, np.where(first[:, None], _unit(u.size), 0.0), w)
        dens = np.where(p3, 1.0, dens)
        half = np.where(point[..., None], first, half)
    return x, w, dens, half


def _unit(size: int) -> np.ndarray:
    e = np.zeros(size)
    e[0] = 1.0
    return e


def _gauss_sum(vals: np.ndarray, w, dens, half) -> np.ndarray:
    """Contract g values on ``_gauss_nodes`` output to one value per row.

    Each panel is one dot product over its nodes, and panels are added in
    order, so a row's value does not depend on the other rows.
    """
    if dens is None:
        return np.vecdot(vals, w)
    panel = np.vecdot(vals * dens, w)
    total = 0.0
    for j in range(half.shape[-1]):
        total = total + half[..., j] * panel[..., j]
    return total


def _scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def _noise_components(noise: DistributionSpec):
    if noise.kind == "bernoulli_gaussian":
        raise ConfigError("noise law must be point_mass, two_point, or gaussian")
    return [c for c in noise.mixture() if c[0] != 0.0]


def expect_noise_sum(g, noise: DistributionSpec, tau, rule: QuadratureRule, kinks=(),
                     zweighted=False):
    """E[g(W + tau*Z)], W ~ noise independent of Z ~ N(0, 1), kink aware.

    ``tau`` and each kink are scalars or one value per row.  ``g`` is called
    once, on nodes whose leading axis is the row axis (the losses take a
    per-row prox scale on that axis), and may return several values stacked
    on leading axes.  ``zweighted`` (one flag, or one per stacked value)
    selects E[Z * g(W + tau*Z)] instead, as in ``expect_noise_zweighted``;
    both kinds share the nodes.  Returns a float for a scalar ``tau`` and a
    single value, else an array shaped ``(*stacked, *tau.shape)``.
    """
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
        raise ConfigError("tau must be nonnegative")
    wts, means, sds = np.array(_noise_components(noise)).T
    tcol = tau[..., None]
    x, w, dens, half = _gauss_nodes(means, np.hypot(sds, tcol), rule,
                                    tuple(np.asarray(k, dtype=float)[..., None] for k in kinks))
    vals = np.asarray(g(x))
    single = vals.ndim == x.ndim
    if single:
        vals = vals[None]
    zflags = [zweighted] * len(vals) if np.ndim(zweighted) == 0 else list(zweighted)
    if any(zflags):
        if not (tau > 0).all():
            raise ConfigError("z-weighted expectation requires tau > 0")
        # Per component the pair (Z, S = W + tau*Z) is jointly Gaussian, so
        # E[Z g(S)] = Cov(Z, S)/Var(S) * E[(S - E S) g(S)].
        centred = x - means.reshape((-1,) + (1,) * (x.ndim - tau.ndim - 1))
        vals = np.array([centred * v if z else v for v, z in zip(vals, zflags)])
        zfactor = tcol / (sds * sds + tcol * tcol)
    comp = _gauss_sum(vals, w, dens, half)
    totals = [0.0] * len(vals)
    for c, wt in enumerate(wts):
        for i, z in enumerate(zflags):
            totals[i] = totals[i] + (wt * zfactor[..., c] if z else wt) * comp[i, ..., c]
    return _scalar_or_array(totals[0] if single else np.array(totals))


def expect_noise_zweighted(g, noise: DistributionSpec, tau, rule: QuadratureRule,
                           kinks=()):
    """E[Z * g(W + tau*Z)], W ~ noise independent of Z ~ N(0, 1).

    Per mixture component the pair (Z, S = W + tau*Z) is jointly Gaussian, so
    E[Z g(S)] = Cov(Z, S)/Var(S) * E[(S - E S) g(S)].  This keeps the left
    side of the Stein identity free of any derivative of g while still
    reducing the integral to one kink-aware dimension.
    """
    return expect_noise_sum(g, noise, tau, rule, kinks=kinks, zweighted=True)


def prox_rho_nodes(sd, t, order: int):
    """Nodes in the prox output for E[h(P, Y)], P = prox_rho(Y; t), Y ~ N(0, sd^2).

    P solves P + t*sigmoid(P) = Y, so p -> y = p + t*sigmoid(p) is increasing
    with dy/dp = 1 + t*sigmoid'(p), and

        E[h(P, Y)] = int h(p, y(p)) phi_sd(y(p)) (1 + t*sigmoid'(p)) dp

    needs no prox at the nodes.  ``sd`` and ``t`` hold one value per row.
    The p-axis runs over the preimage of the +-PANEL_HALFWIDTH sd window of
    Y and is cut into Gauss-Legendre panels of max(16, order // 4) nodes at
    the preimages of y = +-2, 4, 7 sd and at the bends of the sigmoid; the 8
    preimages per row are the only prox solves, one ``rho_prox`` call.  Bends
    outside the window leave zero-width panels, so every row has the same
    node count.  Returns ``(y, sig, w)`` at the nodes p, each of shape
    (m, nodes), with sig = sigmoid(p): E[h(P, Y)] = sum w * h(p, y) over the
    last axis, and h reads p through sig.
    """
    sd = np.asarray(sd, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)[:, None]
    m = sd.shape[0]
    ends = rho_prox(sd * _PREIMAGE_SDS, t)
    lo, hi = ends[:, :1], ends[:, -1:]
    bends = np.broadcast_to(_SIGMOID_BENDS, (m, _SIGMOID_BENDS.size))
    cuts = np.clip(np.concatenate([ends[:, 1:-1], bends], axis=1), lo, hi)
    edges = np.concatenate([lo, np.sort(cuts, axis=1), hi], axis=1)
    u, wl = _legendre(order // 4)
    mid, half = 0.5 * (edges[:, 1:] + edges[:, :-1]), 0.5 * (edges[:, 1:] - edges[:, :-1])
    p = (mid[..., None] + half[..., None] * u).reshape(m, -1)
    sig = expit(p)
    y = p + t * sig
    jac = 1.0 + t * (sig * (1.0 - sig))
    w = (half[..., None] * wl).reshape(m, -1) * _phi(y / sd) / sd * jac
    return y, sig, w


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


def soft_threshold_moments(mean, sd, thresh):
    """Closed-form Gaussian moments of the soft threshold eta(S; thresh).

    For S ~ N(mean, sd^2) returns ``(e1, e2, es, ep)``, elementwise over
    broadcastable array arguments:

        e1 = E[eta(S)]        e2 = E[eta(S)^2]
        es = E[S eta(S)]      ep = E[eta'(S)] = P(|S| > thresh)

    These are piecewise Gaussian integrals with analytic boundaries, so they
    carry no quadrature error at all; the state-equation systems for the
    l1-regularized problem are built on them.
    """
    if (np.asarray(thresh) < 0).any():
        raise ConfigError("threshold must be nonnegative")
    if (np.asarray(sd) <= 0).any():
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

    # Each product is formed once and the sums keep their left-to-right
    # order, e.g. e1 = ((cu up0 + sd up1) + cl lo0) + sd lo1.
    sd2 = sd * sd
    u0, u1 = cu * up0, sd * up1
    l0, l1 = cl * lo0, sd * lo1
    e_eta_up = u0 + u1                                             # E[eta 1{X>a}]
    e_eta2_up = cu * cu * up0 + 2.0 * cu * sd * up1 + sd2 * up2   # E[eta^2 1{X>a}]
    q0, q1, q2 = cl * cl * lo0, 2.0 * cl * sd * lo1, sd2 * lo2
    e_eta_lo = l0 + l1                                             # E[eta 1{X<b}]
    e_eta2_lo = q0 + q1 + q2                                       # E[eta^2 1{X<b}]
    e1 = e_eta_up + l0 + l1
    e2 = e_eta2_up + q0 + q1 + q2
    # S*eta = (eta + thresh)*eta above, (eta - thresh)*eta below
    es = (e_eta2_up + thresh * e_eta_up) + (e_eta2_lo - thresh * e_eta_lo)
    ep = up0 + lo0
    return e1, e2, es, ep


def _phi(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
