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

# Iteration cap of the inner solve for the logistic proximal maps.  The scalar
# equation is strictly monotone, so the bracket never fails; on grids of
# quadrature-scale arguments (sd up to ~10) the safeguarded Newton takes at
# most 10 iterations for t <= 30 and 50 at t = 1e12.  Exhausting the cap
# raises NumericError instead of returning an unconverged prox.  The logistic
# state equations integrate in the prox output and do not call it; the M
# systems with a logistic loss do.
PROX_MAX_ITER = 100


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
    # inner loop only evaluates sigmoid(p), never the cancelling
    # sigmoid(p) - 1, whose absolute error times t keeps large-t ell solves
    # from reaching tol.
    if loss.kind == "logistic_ell":
        return -_prox_rho(-x, t)
    return _prox_rho(x, t)


def _prox_rho(x: np.ndarray, t):
    # Solve p + t*sigmoid(p) = x for p. sigmoid is bounded in (0,1), which
    # gives the width-t bracket [x - t, x].  Newton steps are accepted only
    # when they stay inside the bracket and at least halve the previous step,
    # otherwise the bracket is bisected; this rules out the oscillation
    # Newton is prone to at large t.  Entries already within tol
    # skip that safeguard and take the plain (tiny) Newton step: their
    # candidate sits on a bracket end and their previous step is ~0, so the
    # safeguard would bisect them away from the root every iteration.
    if np.ndim(t) > 0:
        # A per-row t solves row by row: a row's iterate must not depend on
        # how long the other rows take, and one row's grid stays in cache.
        return np.array([_prox_rho(xi, float(ti)) for xi, ti in zip(x, np.ravel(t))])
    lo, hi = x - t, x.copy()
    p = np.clip(x - t * expit(x), lo, hi)
    step_prev = np.full_like(x, 2.0 * t)
    tol = 1e-14 * (1.0 + np.abs(x))
    for _ in range(PROX_MAX_ITER):
        s = expit(p)
        f = p + t * s - x
        df = 1.0 + t * s * (1.0 - s)
        # Within tol, or within one float spacing of the root by the Newton
        # estimate: at large t the rounding of p + t*s alone can exceed tol.
        done = np.abs(f) <= np.maximum(tol, df * np.abs(np.spacing(p)))
        if done.all():
            return p
        pos = f > 0
        hi = np.where(pos, p, hi)
        lo = np.where(pos, lo, p)
        newton = p - f / df
        bisect = ~done & ((np.abs(2.0 * f) > np.abs(step_prev * df))
                          | (newton <= lo) | (newton >= hi))
        cand = np.where(bisect, 0.5 * (lo + hi), newton)
        step_prev = np.abs(cand - p)
        p = cand
    worst = float(np.max(np.abs(f) / tol))
    raise NumericError(
        f"logistic prox at t={t:g} not within tol after {PROX_MAX_ITER} iterations "
        f"(worst |f|/tol = {worst:.3g})")


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
    """Abscissae where x -> prox(x; t) has a derivative jump (empty if smooth).

    One value per row for a per-row ``t``.
    """
    t = _check_t(t)
    if loss.kind == "absolute":
        return (-t, t)
    if loss.kind == "huber":
        edge = loss.delta * (1.0 + t)
        return (-edge, edge)
    return ()
