"""Root finding for the state-equation systems.

The workhorse is a damped Newton iteration on a central finite-difference
Jacobian with positivity clamping; accepted steps never increase the residual
max-norm.  A residual maps a stack of points, shape ``(m, n)``, to a stack of
residuals, shape ``(m, n_eq)`` (see ``systems``), so one residual call
evaluates all 2n difference points of a Jacobian.  Every system shares one
fallback: when Newton from the automatic start fails, the solve walks kappa
up from near zero in steps of ``KAPPA_STEP`` and warm-starts Newton at each
step from the previous root.
Where no finite root exists the solve raises ``LikelyNonExistence`` up
front (``require_existence``): for the logistic systems at or above the closed-form boundary
``kappa_critical``, and for the lasso at lambda_star = 0 with kappa = 1
(with kappa >= 1 for ``lasso_cgmt``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from .errors import (
    ConfigError,
    LikelyNonExistence,
    NonConvergence,
    NumericError,
    SingularJacobian,
)
# expect_noise_sum is not called here; the benchmark tracer
# (perfbench/tracer.py) wraps it under this module's name, so the import
# stays.
from .expectations import QuadratureRule, expect_noise_sum  # noqa: F401
from .systems import POSITIVITY_FLOOR, ProblemSpec, SeSolution, SystemDef, system_for
from .transforms import CANONICAL, map_params

DAMPING_FLOOR = 1.0 / 64.0
# Continuation step in kappa; warm starts this close converge in a few
# Newton iterations on every system.
KAPPA_STEP = 0.05
_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class SolverOptions:
    """Newton solver knobs; defaults follow the acceptance tolerances."""

    tol: float = 1e-9
    max_iter: int = 200
    fd_step: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")
        if self.fd_step <= 0:
            raise ConfigError("fd_step must be positive")


def evaluate_jacobian_fd(residual, x, fd_step: float) -> np.ndarray:
    """Central-difference Jacobian, step scaled per coordinate.

    ``residual`` receives the 2n points x +- h_i e_i as one (2n, n) stack and
    must return one residual row per point.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = fd_step * np.maximum(np.abs(x), 1.0)
    idx = np.arange(n)
    points = np.empty((2 * n, n))
    points[:] = x
    points[idx, idx] += h
    points[n + idx, idx] -= h
    r = np.asarray(residual(points), dtype=float)
    if not np.isfinite(r).all():
        bad = ~np.isfinite(r).reshape(2, n, -1).all(axis=(0, 2))
        raise NumericError(
            f"non-finite residual while differencing coordinate {int(np.argmax(bad))}")
    return ((r[:n] - r[n:]) / (2.0 * h)[:, None]).T


def newton_solve(residual, x0, opts: SolverOptions | None = None, clamp=None):
    """Damped Newton with monotone residual max-norm.

    ``clamp`` maps a candidate iterate back into the feasible region.  Each
    line search tries the full step first, halving it down to
    ``DAMPING_FLOOR``.  Returns ``(x, info)`` with iteration count, final
    residual norm, and a condition estimate of the last Jacobian.
    """
    opts = opts or SolverOptions()
    x = np.asarray(x0, dtype=float).copy()
    if clamp is not None:
        x = clamp(x)
    r = np.asarray(residual(x), dtype=float)
    if not np.isfinite(r).all():
        raise NumericError("residual not finite at the initial point")
    norm = float(np.max(np.abs(r)))
    jac_cond = None
    for it in range(1, opts.max_iter + 1):
        if norm <= opts.tol:
            return x, {"iterations": it - 1, "residual_norm": norm, "jac_cond": jac_cond}
        jac = evaluate_jacobian_fd(residual, x, opts.fd_step)
        jac_cond = float(np.linalg.cond(jac))
        if not np.isfinite(jac_cond) or jac_cond > 1e14:
            raise SingularJacobian(
                f"Jacobian condition {jac_cond:.3g} at iteration {it}")
        try:
            direction = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc

        step = 1.0
        accepted = False
        while step >= DAMPING_FLOOR:
            cand = x + step * direction
            if clamp is not None:
                cand = clamp(cand)
            rc = np.asarray(residual(cand), dtype=float)
            nc = float(np.max(np.abs(rc))) if np.isfinite(rc).all() else np.inf
            if nc < norm:
                x, r, norm = cand, rc, nc
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise NonConvergence(
                f"stalled at residual {norm:.3e} (damping floor reached)",
                best=x, residual_norm=norm, iterations=it)
    if norm <= opts.tol:
        return x, {"iterations": opts.max_iter, "residual_norm": norm, "jac_cond": jac_cond}
    raise NonConvergence(
        f"no convergence in {opts.max_iter} iterations, residual {norm:.3e}",
        best=x, residual_norm=norm, iterations=opts.max_iter)


# ---------------------------------------------------------------------------
# Auto-initialization


def _grid_search_logistic(sdef: SystemDef, spec: ProblemSpec):
    # alpha1 starts at 1 + kappa; sigma is scanned coarsely on logistic_loo
    # coordinates, each candidate mapped to the system being solved.
    lam0 = spec.kappa / (1.0 - spec.kappa)
    grid = np.arange(1, 9) * 0.25
    best, best_norm = None, np.inf
    for g in grid:
        cand = {"alpha1": 1.0 + spec.kappa, "sigma": g, "lam1": lam0}
        if sdef.name != "logistic_loo":
            cand = map_params(cand, "logistic_loo", sdef.name, spec)
        vec = np.array([cand[n] for n in sdef.params])
        try:
            norm = float(np.max(np.abs(sdef.residual(vec, spec))))
        except (ValueError, NumericError):
            continue
        if norm < best_norm:
            best, best_norm = vec, norm
    if best is None:
        raise NumericError(f"no feasible initialization found for {sdef.name}")
    return best


def auto_init(system: str, spec: ProblemSpec, opts: SolverOptions | None = None) -> np.ndarray:
    """Start for the family's canonical system, mapped to ``system``.

    The quadratic closed form anchors the m systems; ``lasso_cgmt`` starts
    from a solved ``lasso_amp`` root.
    """
    opts = opts or SolverOptions()
    sdef = system_for(system)
    k = spec.kappa
    if sdef.model == "logistic":
        return _grid_search_logistic(sdef, spec)
    if sdef.model == "m_estimator":
        tau0 = spec.sigma_star * np.sqrt(max(k, 0.1) / (1.0 - k))
        start = {"tau1": max(tau0, POSITIVITY_FLOOR), "lam1": k / (1.0 - k)}
    elif system == "lasso_cgmt":
        start = solve_system("lasso_amp", spec, opts=opts).params
    else:
        tau0 = max(spec.sigma_star / np.sqrt(max(1.0 - k, 0.1)), POSITIVITY_FLOOR)

        def row(g):
            return sdef.residual([tau0, g], spec)[1]

        # Past kappa = 1 the root keeps gamma1 away from 0, where the second
        # row vanishes trivially at lambda_star = 0; start at its gamma-root.
        lo, hi = POSITIVITY_FLOOR, tau0
        gamma0 = spec.lambda_star
        if k >= 1.0 and row(lo) > 0.0:
            from scipy.optimize import brentq  # deferred like minimize_scalar

            while row(hi) > 0.0:
                hi *= 2.0
            gamma0 = brentq(row, lo, hi)
        start = {"tau1": tau0, "gamma1": gamma0}
    if system != CANONICAL[sdef.model]:
        start = map_params(start, CANONICAL[sdef.model], system, spec)
    return np.array([start[n] for n in sdef.params])


def _clamp_for(sdef: SystemDef):
    # a lower bound per column, so a stack of points is clamped row by row
    lower = np.array([POSITIVITY_FLOOR if n in sdef.positive else 0.0 if n in sdef.nonnegative
                      else -np.inf for n in sdef.params])

    def clamp(x):
        return np.maximum(x, lower)

    return clamp


def kappa_critical(r_star: float, rule: QuadratureRule) -> float:
    """Logistic existence boundary kappa_c(r) = min_t E[(Z - t V)_+^2].

    The maximum-likelihood estimate exists asymptotically iff kappa is below
    it (Candes & Sur, Ann. Statist. 2020); V is the label-tilted variable,
    with density 2*phi(v)*sigmoid(r*v).  Given V the Z-integral is closed
    form, E[(Z - a)_+^2] = (1 + a^2) Phi(-a) - a phi(a) with a = t V, so
    only V is integrated, on ``rule`` with the tilt in its weights.
    """
    from scipy.optimize import minimize_scalar  # deferred: costs ~0.25 s of CLI import

    v = rule.nodes
    wgt = rule.weights * 2.0 * expit(r_star * v)

    def hinge(t):
        a = t * v
        return float(np.dot(wgt, (1.0 + a * a) * ndtr(-a) - a * np.exp(-0.5 * a * a) / _SQRT_2PI))

    return float(minimize_scalar(hinge).fun)


def require_existence(system: str, spec: ProblemSpec) -> None:
    """Raise LikelyNonExistence where ``system`` has no finite root at ``spec``.

    That is a logistic kappa at or above ``kappa_critical``, and the lasso at
    lambda_star = 0 with kappa = 1 (or kappa >= 1 for lasso_cgmt).  A spec of
    another family is a ConfigError.
    """
    model = system_for(system).model
    if model != spec.model:
        raise ConfigError(f"system {system} expects model {model}, spec has {spec.model}")
    if model == "logistic":
        kc = kappa_critical(spec.r_star, spec.rule())
        if spec.kappa >= kc:
            raise LikelyNonExistence(
                f"kappa={spec.kappa:g} is at or above the existence boundary "
                f"kappa_c={kc:.5f} for r_star={spec.r_star:g}; {system} has no finite root "
                "(maximum-likelihood phase transition)")
    elif spec.lambda_star == 0 and (spec.kappa == 1 or system == "lasso_cgmt" and spec.kappa > 1):
        # only the lasso reaches kappa >= 1.  tau1 -> infinity at kappa = 1 (the
        # least-squares risk); past it the basis-pursuit root maps to theta -> 0
        raise LikelyNonExistence(
            f"{system} has no finite root at lambda_star=0, kappa={spec.kappa:g}")


def _kappa_walk(system: str, spec: ProblemSpec, opts: SolverOptions, newton_from):
    """Continuation: Newton at each kappa of a path from near 0 to spec.kappa,
    warm-started from the root at the previous kappa."""
    n = int(np.ceil(spec.kappa / KAPPA_STEP))
    path = np.linspace(spec.kappa / n, spec.kappa, n)
    x = auto_init(system, spec.with_kappa(float(path[0])), opts)
    iterations = 0
    for kappa in path:
        x, info = newton_from(x, spec.with_kappa(float(kappa)))
        iterations += info["iterations"]
    return x, {**info, "iterations": iterations}


def solve_system(system: str, spec: ProblemSpec, x0="auto",
                 opts: SolverOptions | None = None) -> SeSolution:
    """Solve one state-equation system to the requested residual max-norm.

    With ``x0="auto"`` Newton starts from ``auto_init``; if that fails, the
    solve falls back to a kappa walk (see the module docstring) and raises
    what the walk raises.  An explicit ``x0`` gets Newton alone.  Raises
    NonConvergence with the best iterate attached when Newton stalls or runs
    out of iterations, SingularJacobian (a NumericError) when the Jacobian
    degenerates, and LikelyNonExistence before any iteration where no finite
    root exists (``require_existence``).
    """
    opts = opts or SolverOptions()
    require_existence(system, spec)
    sdef = system_for(system)
    clamp = _clamp_for(sdef)

    def newton_from(start, at_spec):
        def residual(x):
            # evaluate on the clamped point so finite differencing at the
            # positivity floor cannot step outside the domain
            return sdef.residual(clamp(np.asarray(x, dtype=float)), at_spec)

        return newton_solve(residual, start, opts, clamp=clamp)

    if isinstance(x0, str):
        if x0 != "auto":
            raise ConfigError(f"unknown initialization {x0!r}")
        try:
            x, info = newton_from(auto_init(system, spec, opts), spec)
        except (NonConvergence, NumericError):
            x, info = _kappa_walk(system, spec, opts, newton_from)
    else:
        if isinstance(x0, dict):
            start = np.array([float(x0[n]) for n in sdef.params])
        else:
            start = np.asarray(x0, dtype=float)
            if start.size != len(sdef.params):
                raise ConfigError(f"x0 must have {len(sdef.params)} entries {sdef.params}")
        x, info = newton_from(start, spec)

    return SeSolution(system=system, params=dict(zip(sdef.params, map(float, x))),
                      residual_norm=info["residual_norm"], iterations=info["iterations"],
                      tol=opts.tol, jac_cond=info["jac_cond"])
