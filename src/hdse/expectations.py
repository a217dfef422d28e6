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

Discrete laws are enumerated exactly.  Every M-system integrand is summed on
Gauss-Legendre panels cut where the prox kinks (huber, absolute) or bends
(the logistic losses; ``losses.prox_kinks``): Gauss-Hermite loses most of
its accuracy across a kink and misses a bend that narrows as the prox scale
grows.  The prox output axis is cut at the sigmoid's bends for the same
reason, and so is the label-tilted V of the logistic existence boundary
(``tilt_nodes``); ``_panels`` builds all three rules.  Gauss-Hermite
(probabilists' normalization, weights sum to 1) serves the logistic inner
sums.  Every Gaussian spread must be positive, as the systems declare their
scales: no zero-spread point evaluation is special-cased.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit, ndtr, roots_hermitenorm, roots_legendre

from .errors import ConfigError, NumericError
from .losses import SIGMOID_BENDS, rho_prox

DISTRIBUTION_KINDS = ("point_mass", "gaussian", "two_point", "bernoulli_gaussian")

DEFAULT_QUAD_ORDER = 61

# Integration window for the panel scheme, in standard deviations. The
# integrands grow at most polynomially, so the truncated tail is far below
# double precision.
PANEL_HALFWIDTH = 12.0

_CHOLESKY_JITTER = 1e-12

# Panel edges of ``prox_rho_nodes`` besides ``losses.SIGMOID_BENDS``: the
# multiples of sd whose preimages in p are edges (the outer two bound the
# window), solved to their roots by ``losses.rho_prox``.
_PREIMAGE_SDS = np.array([-PANEL_HALFWIDTH, -7.0, -4.0, -2.0, 2.0, 4.0, 7.0, PANEL_HALFWIDTH])
_TILT_SDS = np.array([-7.0, -4.0, -2.0, 0.0, 2.0, 4.0, 7.0])  # edges of ``tilt_nodes`` in v
_TILT_BENDS = SIGMOID_BENDS[SIGMOID_BENDS != 0.0]  # and in r*v


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


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    if order < 1:
        raise ConfigError("quadrature order must be positive")
    nodes, weights = roots_hermitenorm(order)
    return QuadratureRule(order, nodes, weights / weights.sum())


_legendre = lru_cache(maxsize=None)(roots_legendre)


def _panels(lo, cuts, hi, order: int):
    """Gauss-Legendre panels on [lo, hi] cut at ``cuts`` clipped into it: nodes
    (..., panels, max(order, 16)), half-widths and weights on [-1, 1]."""
    lo, hi = (np.asarray(e, dtype=float)[..., None] for e in (lo, hi))
    edges = np.concatenate([lo, np.sort(np.clip(cuts, lo, hi), axis=-1), hi], axis=-1)
    a, b = edges[..., :-1], edges[..., 1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    u, w = _legendre(max(order, 16))
    return mid[..., None] + half[..., None] * u, half, w


def expect_noise_sum(g, noise: DistributionSpec, tau, order: int, kinks=(),
                     zweighted=False):
    """E[g(W + tau*Z)], W ~ noise independent of Z ~ N(0, 1), on ``_panels`` of
    max(order, 16) nodes per component, over +-PANEL_HALFWIDTH sd of
    W + tau*Z and cut at ``kinks`` (none gives one panel).

    ``tau`` and each kink are scalars or one value per row.  ``g`` is called
    once, on nodes whose leading axis is the row axis (the losses take a
    per-row prox scale on that axis), and may return several values stacked
    on leading axes.  ``zweighted`` (one flag, or one per stacked value)
    selects E[Z * g(W + tau*Z)] instead, as in ``expect_noise_zweighted``;
    both kinds share the nodes.  Every ``tau`` must be positive.  Each panel
    is one dot product over its nodes and panels are added in order, so a
    row's value does not depend on the other rows.  Returns a float for a
    scalar ``tau`` and a single value, else an array shaped
    ``(*stacked, *tau.shape)``.
    """
    tau = np.asarray(tau, dtype=float)
    if not (tau > 0).all():
        raise ConfigError("tau must be positive")
    if noise.kind == "bernoulli_gaussian":
        raise ConfigError("noise law must be point_mass, two_point, or gaussian")
    wts, means, sds = np.array([c for c in noise.mixture() if c[0] != 0.0]).T
    tcol = tau[..., None]
    sd = np.hypot(sds, tcol)
    lo = means - PANEL_HALFWIDTH * sd
    ks = np.empty(lo.shape + (len(kinks),))
    for j, k in enumerate(kinks):
        ks[..., j] = np.asarray(k, dtype=float)[..., None]
    x, half, w = _panels(lo, ks, means + PANEL_HALFWIDTH * sd, order)
    centred = x - means[..., None, None]
    dens = (1.0 / (np.sqrt(2.0 * np.pi) * sd))[..., None, None] * np.exp(
        -0.5 * (centred / sd[..., None, None]) ** 2)
    vals = np.asarray(g(x))
    single = vals.ndim == x.ndim
    if single:
        vals = vals[None]
    zflags = [zweighted] * len(vals) if np.ndim(zweighted) == 0 else list(zweighted)
    if any(zflags):
        # Per component the pair (Z, S = W + tau*Z) is jointly Gaussian, so
        # E[Z g(S)] = Cov(Z, S)/Var(S) * E[(S - E S) g(S)].
        vals = np.array([centred * v if z else v for v, z in zip(vals, zflags)])
        zfactor = tcol / (sds * sds + tcol * tcol)
    panel = np.vecdot(vals * dens, w)
    comp = 0.0
    for j in range(half.shape[-1]):
        comp = comp + half[..., j] * panel[..., j]
    totals = [0.0] * len(vals)
    for c, wt in enumerate(wts):
        for i, z in enumerate(zflags):
            totals[i] = totals[i] + (wt * zfactor[..., c] if z else wt) * comp[i, ..., c]
    out = totals[0] if single else np.array(totals)
    return float(out) if np.ndim(out) == 0 else out


def expect_noise_zweighted(g, noise: DistributionSpec, tau, order: int, kinks=()):
    """E[Z * g(W + tau*Z)], W ~ noise independent of Z ~ N(0, 1), by the
    Gaussian regression in ``expect_noise_sum``: no derivative of g is taken."""
    return expect_noise_sum(g, noise, tau, order, kinks=kinks, zweighted=True)


def prox_rho_nodes(sd, t, order: int):
    """Nodes in the prox output for E[h(P, Y)], P = prox_rho(Y; t), Y ~ N(0, sd^2).

    P solves P + t*sigmoid(P) = Y, so p -> y = p + t*sigmoid(p) is increasing
    with dy/dp = 1 + t*sigmoid'(p), and

        E[h(P, Y)] = int h(p, y(p)) phi_sd(y(p)) (1 + t*sigmoid'(p)) dp

    needs no prox at the nodes.  ``sd`` and ``t`` hold one value per row.
    The p-axis runs over the preimage of the +-PANEL_HALFWIDTH sd window of
    Y and is cut into ``_panels`` of max(16, order // 4) nodes at the
    preimages of y = +-2, 4, 7 sd and at the bends of the sigmoid; the 8
    preimages per row are the only prox solves, one ``rho_prox`` call.
    Returns ``(y, sig, w)`` at the nodes p, each of shape (m, nodes), with
    sig = sigmoid(p): E[h(P, Y)] = sum w * h(p, y) over the last axis, and
    h reads p through sig.
    """
    sd = np.asarray(sd, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)[:, None]
    m = sd.shape[0]
    ends = rho_prox(sd * _PREIMAGE_SDS, t)
    bends = np.broadcast_to(SIGMOID_BENDS, (m, SIGMOID_BENDS.size))
    p, half, wl = _panels(ends[:, 0], np.concatenate([ends[:, 1:-1], bends], axis=1),
                          ends[:, -1], order // 4)
    p = p.reshape(m, -1)
    sig = expit(p)
    y = p + t * sig
    jac = 1.0 + t * (sig * (1.0 - sig))
    w = (half[..., None] * wl).reshape(m, -1) * _phi(y / sd) / sd * jac
    return y, sig, w


def tilt_nodes(r_star: float):
    """Nodes v and weights w, E[f(V)] = sum w * f(v), for V of the label-tilted
    density 2*phi(v)*sigmoid(r_star*v): 16-node panels over +-PANEL_HALFWIDTH,
    cut at 0, +-2, 4, 7 and at the tilt's bends v = +-{3, 8, 16}/r_star."""
    with np.errstate(divide="ignore"):  # at r_star = 0 the bends clip to the window's edges
        cuts = np.concatenate([_TILT_SDS, _TILT_BENDS / r_star])
    v, half, wl = _panels(-PANEL_HALFWIDTH, cuts, PANEL_HALFWIDTH, 16)
    w = half[:, None] * wl * 2.0 * _phi(v) * expit(r_star * v)
    return v.ravel(), w.ravel()


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
