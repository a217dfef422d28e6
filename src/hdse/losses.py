"""Convex scalar loss catalog: values, derivatives, proximal maps, Moreau envelopes.

The catalog covers the losses used by the state-equation systems:

    quadratic      x^2 / 2
    absolute       |x|
    huber          x^2/2 for |x| <= delta, delta*(|x| - delta/2) beyond
    logistic_rho   log(1 + e^x)
    logistic_ell   log(1 + e^-x)

Every operation is a pure function, vectorized over ``x`` so quadrature
grids can be pushed through in a single call.  Scalars in, scalars out.  The
prox scale ``t`` is a scalar or one value per row of ``x`` (its leading
axis), so a stack of parameter points shares one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericError

LOSS_KINDS = ("quadratic", "absolute", "huber", "logistic_rho", "logistic_ell")

# Iteration cap of ``rho_prox``.  Newton from the monotone side takes about
# log(t) + 5 steps: at most 7 on grids of quadrature-scale arguments (sd up
# to ~10) for t <= 30, and 29 at t = 1e12.  Exhausting the cap raises
# NumericError instead of returning an unconverged prox.  The logistic state
# equations integrate in the prox output and solve only its panel edges; the
# M systems with a logistic loss solve the prox at every panel node, on
# panels cut at the images of ``SIGMOID_BENDS`` (``prox_kinks``).
PROX_MAX_ITER = 100

# Prox outputs p where sigmoid(p) bends.  The outer +-16 keep panels narrow
# where t*sigmoid'(p) still decays like e^-|p|, so a large prox scale t does
# not stretch one panel over the whole bend.
SIGMOID_BENDS = np.array([-16.0, -8.0, -3.0, 0.0, 3.0, 8.0, 16.0])


@dataclass(frozen=True)
class LossSpec:
    """A member of the loss catalog. ``delta`` is the Huber knee (huber only)."""

    kind: str
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        if self.kind == "huber":
            if self.delta is None or not np.isfinite(self.delta) or self.delta <= 0:
                raise ValueError("huber loss requires delta > 0")
        elif self.delta is not None:
            raise ValueError(f"delta is only meaningful for huber, not {self.kind!r}")

    @property
    def smooth(self) -> bool:
        """True when the loss is twice differentiable everywhere."""
        return self.kind in ("quadratic", "logistic_rho", "logistic_ell")


@dataclass(frozen=True, eq=False)
class MoreauBundle:
    """Envelope value and every derivative the state equations consume.

    Fields may be scalars or arrays, matching the input ``x``.
    """

    m: np.ndarray | float
    dm_dx: np.ndarray | float
    d2m_dx2: np.ndarray | float
    dm_dt: np.ndarray | float
    prox: np.ndarray | float


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite input")
    return arr, arr.ndim == 0


def _ret(value, scalar):
    return float(value) if scalar else value


def _check_t(t):
    """A positive finite scale: a float, or a 1-D array with one value per row."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = float(t)
        if not np.isfinite(t) or t <= 0:
            raise ValueError(f"prox scale t must be positive and finite, got {t}")
        return t
    t = t.ravel()
    if not (t.min() > 0 and t.max() < np.inf):  # a NaN fails the first test
        bad = t[~((t > 0) & (t < np.inf))][0]
        raise ValueError(f"prox scale t must be positive and finite, got {bad}")
    return t


def _per_row(t, arr):
    """Broadcast a per-row scale against the rows (leading axis) of ``arr``."""
    if isinstance(t, float):
        return t
    if arr.ndim == 0 or arr.shape[0] != t.size:
        raise ValueError(f"{t.size} prox scales for an input of shape {arr.shape}")
    return t.reshape((-1,) + (1,) * (arr.ndim - 1))


def eval_loss(loss: LossSpec, x):
    """Loss value, numerically stable through the Gaussian quadrature tails."""
    arr, scalar = _prepare(x)
    if loss.kind == "quadratic":
        out = 0.5 * arr * arr
    elif loss.kind == "absolute":
        out = np.abs(arr)
    elif loss.kind == "huber":
        d = loss.delta
        out = np.where(np.abs(arr) <= d, 0.5 * arr * arr, d * (np.abs(arr) - 0.5 * d))
    elif loss.kind == "logistic_rho":
        # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|})
        out = np.logaddexp(0.0, arr)
    else:
        out = np.logaddexp(0.0, -arr)
    return _ret(out, scalar)


def loss_deriv(loss: LossSpec, x):
    """First derivative (the sign subgradient selection for the absolute loss)."""
    arr, scalar = _prepare(x)
    if loss.kind == "quadratic":
        out = arr.copy()
    elif loss.kind == "absolute":
        out = np.sign(arr)
    elif loss.kind == "huber":
        out = np.clip(arr, -loss.delta, loss.delta)
    elif loss.kind == "logistic_rho":
        out = expit(arr)
    else:
        out = expit(arr) - 1.0
    return _ret(out, scalar)


def loss_curvature(loss: LossSpec, x):
    """Second derivative; the quadratic branch indicator for huber, 0 for absolute."""
    arr, scalar = _prepare(x)
    if loss.kind == "quadratic":
        out = np.ones_like(arr)
    elif loss.kind == "absolute":
        out = np.zeros_like(arr)
    elif loss.kind == "huber":
        out = (np.abs(arr) <= loss.delta).astype(float)
    else:
        s = expit(arr)
        out = s * (1.0 - s)
    return _ret(out, scalar)


def _prox_logistic(loss: LossSpec, x: np.ndarray, t):
    # ell is solved through the reflection prox_ell(x) = -prox_rho(-x), so the
    # Newton steps only evaluate sigmoid(p), never the cancelling
    # sigmoid(p) - 1, whose absolute error times t would swamp the step test
    # of large-t ell solves.
    if loss.kind == "logistic_ell":
        return -rho_prox(-x, t)
    return rho_prox(x, t)


def rho_prox(y, t):
    """p with p + t*sigmoid(p) = y, elementwise, by Newton from its monotone side.

    The map is concave for p > 0 and convex below, and its root is positive
    iff y > t/2, so Newton from max(y - t, 0) or min(y, 0) converges
    monotonically without a safeguard.  Each entry takes its step and stops
    once the step toward the root falls to 1e-13*(1 + |p|), so its iterate
    never depends on the other entries; a step back is rounding noise at
    the root (at large t, y's rounding alone), so it stops the entry too.
    ``t`` broadcasts against ``y``.  Running out of ``PROX_MAX_ITER`` steps
    raises NumericError.
    """
    left = y > 0.5 * t
    p = np.where(left, np.maximum(y - t, 0.0), np.minimum(y, 0.0))
    ahead = np.where(left, -1.0, 1.0)  # the sign of every exact step
    moving = np.ones(p.shape, dtype=bool)
    for _ in range(PROX_MAX_ITER):
        s = expit(p)
        step = (p + t * s - y) / (1.0 + t * (s * (1.0 - s)))
        p = np.where(moving, p - step, p)
        moving &= ahead * step > 1e-13 * (1.0 + np.abs(p))
        if not moving.any():
            return p
    raise NumericError(
        f"logistic prox at t up to {np.max(t):g} not converged after {PROX_MAX_ITER} "
        f"Newton steps")


def prox(loss: LossSpec, x, t):
    """Proximal map: the minimizer of loss(z) + (x - z)^2 / (2 t)."""
    t = _check_t(t)
    arr, scalar = _prepare(x)
    t = _per_row(t, arr)
    if loss.kind in ("logistic_rho", "logistic_ell"):
        out = _prox_logistic(loss, arr, t)
    elif loss.kind == "quadratic":
        out = arr / (1.0 + t)
    elif loss.kind == "absolute":
        out = np.sign(arr) * np.maximum(np.abs(arr) - t, 0.0)
    elif loss.kind == "huber":
        d = loss.delta
        out = np.where(np.abs(arr) <= d * (1.0 + t), arr / (1.0 + t), arr - t * d * np.sign(arr))
    return _ret(out, scalar)


def prox_deriv(loss: LossSpec, x, t):
    """d prox / d x, computed from the per-loss curvature."""
    t = _check_t(t)
    arr, scalar = _prepare(x)
    t = _per_row(t, arr)
    if loss.kind == "quadratic":
        out = np.empty_like(arr)
        out[...] = 1.0 / (1.0 + t)
    elif loss.kind == "absolute":
        out = (np.abs(arr) > t).astype(float)
    elif loss.kind == "huber":
        out = np.where(np.abs(arr) <= loss.delta * (1.0 + t), 1.0 / (1.0 + t), 1.0)
    else:
        p = _prox_logistic(loss, arr, t)
        out = 1.0 / (1.0 + t * loss_curvature(loss, p))
    return _ret(out, scalar)


def moreau_bundle(loss: LossSpec, x, t) -> MoreauBundle:
    """Envelope value with its x, xx and t derivatives at (x, t).

    dm_dx is (x - prox)/t exactly as computed, dm_dt is -dm_dx^2/2 (the
    envelope theorem applied to the quadratic coupling), and d2m_dx2 uses the
    curvature of the loss at the prox.  The absolute loss gets the
    distributional second derivative: 1/t strictly inside the threshold,
    0 outside and at the tie |x| = t.
    """
    t = _check_t(t)
    arr, scalar = _prepare(x)
    p = prox(loss, arr, t)
    t = _per_row(t, arr)
    dm_dx = (arr - p) / t
    m = eval_loss(loss, p) + 0.5 * (arr - p) ** 2 / t
    if loss.kind == "absolute":
        d2m = np.where(np.abs(arr) < t, 1.0 / t, 0.0)
    elif loss.kind == "huber":
        d2m = np.where(np.abs(arr) <= loss.delta * (1.0 + t), 1.0 / (1.0 + t), 0.0)
    else:
        c = loss_curvature(loss, p)
        d2m = c / (1.0 + t * c)
    dm_dt = -0.5 * dm_dx * dm_dx
    if scalar:
        return MoreauBundle(float(m), float(dm_dx), float(d2m), float(dm_dt), float(p))
    return MoreauBundle(m, dm_dx, d2m, dm_dt, p)


def soft_threshold(x, t):
    """Soft threshold value and derivative, with sign(0) = 0 and deriv 0 on ties.

    Returns ``(value, deriv)`` where deriv is the indicator of |x| > t.
    ``t`` may be a scalar or an array broadcastable against ``x``.
    """
    arr, scalar = _prepare(x)
    tarr = np.asarray(t, dtype=float)
    if np.any(tarr < 0):
        raise ValueError("soft threshold requires t >= 0")
    value = np.sign(arr) * np.maximum(np.abs(arr) - tarr, 0.0)
    deriv = (np.abs(arr) > tarr).astype(float)
    if scalar and tarr.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def prox_kinks(loss: LossSpec, t) -> tuple:
    """Abscissae x where x -> prox(x; t) kinks or bends (empty for the quadratic).

    Huber and absolute prox maps have derivative jumps.  The logistic prox is
    smooth but bends sharply at large t, so its cuts are the images
    x = p + t*sigmoid(p) of the ``SIGMOID_BENDS`` p, in closed form (negated for
    ``logistic_ell``, by its reflection).  One value per row for a per-row ``t``.
    """
    t = _check_t(t)
    if loss.kind == "absolute":
        return (-t, t)
    if loss.kind == "huber":
        edge = loss.delta * (1.0 + t)
        return (-edge, edge)
    if loss.kind in ("logistic_rho", "logistic_ell"):
        sign = 1.0 if loss.kind == "logistic_rho" else -1.0
        return tuple(sign * (p + t * expit(p)) for p in SIGMOID_BENDS)
    return ()
