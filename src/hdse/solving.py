"""Root finding for the state-equation systems.

The workhorse is a damped Newton iteration on a central finite-difference
Jacobian with positivity clamping; accepted steps never increase the residual
max-norm.  A residual maps a stack of points, shape ``(m, n)``, to a stack of
residuals, shape ``(m, n_eq)`` (see ``systems``), so Newton evaluates every
point, the start and each line-search trial, in one call on the (2n + 1, n)
stack [x; x + h_i e_i; x - h_i e_i]: the first row decides acceptance, and an
accepted trial's other 2n rows are the next Jacobian's difference points.
The singularity test takes the equilibrated condition number
(``_equilibrated_cond``).  When Newton from the automatic start fails on an M
system, it restarts once from the start's tau with lambda on the root curve of
the first ``m_loo`` equation, E[prox'_lambda(W + tau Z)] = 1 - kappa, which
stacked scans bracket: the left side decreases in lambda, since prox' is
1/(1 + lambda rho'') or, for the absolute loss, 1{|s| > lambda}.  Other
systems have no fallback.  Where no finite root exists, ``require_existence``
raises ``LikelyNonExistence`` up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.special import expit, ndtr

from .errors import ConfigError, LikelyNonExistence, NonConvergence, NumericError, SingularJacobian
# expect_noise_sum is not called here; the benchmark tracer (perfbench/tracer.py)
# wraps it under this module's name, so the import stays.
from .expectations import QuadratureRule, expect_noise_sum  # noqa: F401
from .systems import POSITIVITY_FLOOR, ProblemSpec, SeSolution, SystemDef, system_for
from .transforms import CANONICAL, map_params

DAMPING_FLOOR = 1.0 / 64.0
# Relative finite-difference step: h_i = FD_STEP * max(|x_i|, 1).
FD_STEP = 1e-6
_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class SolverOptions:
    """Newton solver knobs; defaults follow the acceptance tolerances."""

    tol: float = 1e-9
    max_iter: int = 200
    fd_step: ClassVar[float] = FD_STEP  # read-only, not an argument

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")


def _fd_stack(x: np.ndarray, fd_step: float):
    """The (2n + 1, n) stack [x; x + h_i e_i; x - h_i e_i] and the steps
    h_i = fd_step * max(|x_i|, 1)."""
    n = x.size
    h = fd_step * np.maximum(np.abs(x), 1.0)
    idx = np.arange(n)
    points = np.empty((2 * n + 1, n))
    points[:] = x
    points[1 + idx, idx] += h
    points[1 + n + idx, idx] -= h
    return points, h


def _fd_jacobian(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central differences from the 2n difference rows of ``_fd_stack``."""
    n = h.size
    if not np.isfinite(rows).all():
        bad = ~np.isfinite(rows).reshape(2, n, -1).all(axis=(0, 2))
        raise NumericError(
            f"non-finite residual while differencing coordinate {int(np.argmax(bad))}")
    return ((rows[:n] - rows[n:]) / (2.0 * h)[:, None]).T


def evaluate_jacobian_fd(residual, x, fd_step: float) -> np.ndarray:
    """Central-difference Jacobian, step scaled per coordinate; ``residual``
    maps the (2n, n) stack of points x +- h_i e_i to one row per point."""
    points, h = _fd_stack(np.asarray(x, dtype=float), fd_step)
    return _fd_jacobian(np.asarray(residual(points[1:]), dtype=float), h)


def _equilibrated_cond(jac: np.ndarray) -> float:
    """Condition number of D_r J D_c, each row and then each column scaled to
    max |entry| 1; a zero row or column is singular (inf).

    Newton's direction J^-1 r does not change under this scaling, so the
    singularity test should not either (van der Sluis, Numer. Math. 1969).
    """
    rows = np.max(np.abs(jac), axis=1)
    if not (rows > 0.0).all():
        return np.inf
    scaled = jac / rows[:, None]
    cols = np.max(np.abs(scaled), axis=0)
    if not (cols > 0.0).all():
        return np.inf
    return float(np.linalg.cond(scaled / cols))


def newton_solve(residual, x0, opts: SolverOptions | None = None, clamp=None):
    """Damped Newton with monotone residual max-norm.

    ``clamp`` maps a candidate iterate back into the feasible region.  Each
    line search tries the full step first, halving it down to
    ``DAMPING_FLOOR``; each point is one stacked call (module docstring).
    Returns ``(x, info)`` with iteration count, final residual norm, and the
    equilibrated condition number of the last Jacobian.
    """
    opts = opts or SolverOptions()

    def evaluate(point):
        points, h = _fd_stack(point, FD_STEP)
        rows = np.asarray(residual(points), dtype=float)
        return rows[0], rows[1:], h

    x = np.asarray(x0, dtype=float).copy()
    if clamp is not None:
        x = clamp(x)
    r, diff_rows, h = evaluate(x)
    if not np.isfinite(r).all():
        raise NumericError("residual not finite at the initial point")
    norm = float(np.max(np.abs(r)))
    jac_cond = None
    for it in range(1, opts.max_iter + 1):
        if norm <= opts.tol:
            return x, {"iterations": it - 1, "residual_norm": norm, "jac_cond": jac_cond}
        jac = _fd_jacobian(diff_rows, h)
        jac_cond = _equilibrated_cond(jac)
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
            rc, cand_rows, cand_h = evaluate(cand)
            nc = float(np.max(np.abs(rc))) if np.isfinite(rc).all() else np.inf
            if nc < norm:
                x, r, norm, diff_rows, h = cand, rc, nc, cand_rows, cand_h
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
    # coordinates, each candidate mapped to the system being solved, and all
    # candidates are evaluated as one stack.  No candidate can leave the
    # SYSTEMS domain: alpha1 = 1 + kappa, sigma in [0.25, 2] and
    # lam1 = kappa/(1 - kappa) are positive and finite for 0 < kappa < 1, and so
    # are their logistic_cgmt images sqrt(kappa)*alpha1, r_star*sigma, lam1.
    lam0 = spec.kappa / (1.0 - spec.kappa)
    cands = [{"alpha1": 1.0 + spec.kappa, "sigma": g, "lam1": lam0}
             for g in np.arange(1, 9) * 0.25]
    if sdef.name != "logistic_loo":
        cands = [map_params(c, "logistic_loo", sdef.name, spec) for c in cands]
    stack = np.array([[c[n] for n in sdef.params] for c in cands])
    norms = np.max(np.abs(sdef.residual(stack, spec)), axis=1)
    finite = np.isfinite(norms)
    if not finite.any():
        raise NumericError(f"no feasible initialization found for {sdef.name}")
    # argmin keeps the first of equal norms, as a scan in grid order did
    return stack[np.argmin(np.where(finite, norms, np.inf))]


def auto_init(system: str, spec: ProblemSpec, opts: SolverOptions | None = None) -> np.ndarray:
    """Start for the family's canonical system, mapped to ``system``: the
    quadratic closed form for the M systems, a solved ``lasso_amp`` root for
    ``lasso_cgmt``."""
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
    # bounds per column, so a stack of points is clamped row by row
    lower = np.array([POSITIVITY_FLOOR if n in sdef.positive else 0.0 if n in sdef.nonnegative
                      else -np.inf for n in sdef.params])
    upper = np.array([1.0 if n in sdef.at_most_one else np.inf for n in sdef.params])

    def clamp(x):
        return np.minimum(np.maximum(x, lower), upper)

    return clamp


@lru_cache(maxsize=16)
def kappa_critical(r_star: float, rule: QuadratureRule) -> float:
    """Logistic existence boundary kappa_c(r) = min_t E[(Z - t V)_+^2].

    The maximum-likelihood estimate exists asymptotically iff kappa is below
    it (Candes & Sur, Ann. Statist. 2020); V is the label-tilted variable,
    with density 2*phi(v)*sigmoid(r*v).  Given V the Z-integral is closed
    form, E[(Z - a)_+^2] = (1 + a^2) Phi(-a) - a phi(a) with a = t V, so
    only V is integrated, on ``rule`` with the tilt in its weights.  Values
    are memoized per (r_star, rule); a rule is keyed by identity, and
    ``gauss_hermite`` returns one rule object per order.
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

    That is a logistic kappa at or above ``kappa_critical``, an M-estimator
    with a monotone (logistic) loss at kappa >= 1/2, and the lasso at
    lambda_star = 0 with kappa = 1 (or kappa >= 1 for lasso_cgmt).  A spec of
    another family is a ConfigError.
    """
    model = system_for(system).model
    if model != spec.model:
        raise ConfigError(f"system {system} expects model {model}, spec has {spec.model}")
    if model == "m_estimator":
        # a monotone loss runs off along any v != 0 with Xv >= 0 (<= 0 for
        # logistic_ell); a Gaussian design has one with probability -> 1 iff
        # kappa > 1/2 (Wendel, Math. Scand. 1962)
        if spec.loss.kind in ("logistic_rho", "logistic_ell") and spec.kappa >= 0.5:
            raise LikelyNonExistence(f"{system} has no finite root for the monotone loss "
                                     f"{spec.loss.kind} at kappa={spec.kappa:g} >= 1/2")
    elif model == "logistic":
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


def _root_curve_bracket(spec: ProblemSpec, tau: float):
    """Bracket [lo, hi] of the one lambda with E[prox'_lambda(W + tau Z)] = 1 - kappa,
    from stacked ``m_loo`` scans of 41 geometric points on [1e-4, 1e6] and then
    on each first sign change down to 1e-3 relative width; None if none."""
    lo, hi = 1e-4, 1e6
    while hi > lo * (1.0 + 1e-3):
        lam = np.geomspace(lo, hi, 41)
        row = system_for("m_loo").residual(np.column_stack([np.full(41, tau), lam]), spec)[:, 0]
        change = np.flatnonzero((row[:-1] > 0.0) & (row[1:] <= 0.0))
        if change.size == 0:
            return None
        lo, hi = lam[change[0]], lam[change[0] + 1]
    return lo, hi


def _restart_on_root_curve(system: str, spec: ProblemSpec, newton_from, first):
    """Newton from auto_init's tau with lambda on the root curve, mapped to ``system``."""
    tau0 = float(auto_init("m_loo", spec)[0])
    bracket = _root_curve_bracket(spec, tau0)
    if bracket is None:
        raise first
    start = {"tau1": tau0, "lam1": float(np.sqrt(bracket[0] * bracket[1]))}
    if system != "m_loo":
        start = map_params(start, "m_loo", system, spec)
    try:
        return newton_from(np.array([start[n] for n in system_for(system).params]))
    except (NonConvergence, NumericError) as second:
        second.args = (f"Newton failed from the automatic start ({first}) and from the "
                       f"root-curve start {start} ({second})",)
        if isinstance(second, NonConvergence):
            second.iterations += getattr(first, "iterations", None) or 0
        raise second from first


def solve_system(system: str, spec: ProblemSpec, x0="auto",
                 opts: SolverOptions | None = None) -> SeSolution:
    """Solve one state-equation system to the requested residual max-norm.

    With ``x0="auto"`` Newton starts from ``auto_init``; an M system that fails
    there restarts once on the root curve (module docstring) and reports the
    restart's iterations.  If that fails too, its error names both starts,
    counts both runs' iterations and is chained from the first error, which is
    raised as is where no scan brackets the curve.  An explicit ``x0`` gets
    Newton alone.  Raises NonConvergence (best iterate attached) when Newton
    stalls or runs out of iterations, SingularJacobian (a NumericError) when
    the Jacobian degenerates, and LikelyNonExistence up front where no finite
    root exists (``require_existence``).
    """
    opts = opts or SolverOptions()
    require_existence(system, spec)
    sdef = system_for(system)
    clamp = _clamp_for(sdef)

    def newton_from(start):
        # the residual sees clamped points, so differencing stays in the domain
        return newton_solve(lambda x: sdef.residual(clamp(np.asarray(x, dtype=float)), spec),
                            start, opts, clamp=clamp)

    if isinstance(x0, str):
        if x0 != "auto":
            raise ConfigError(f"unknown initialization {x0!r}")
        try:
            x, info = newton_from(auto_init(system, spec, opts))
        except (NonConvergence, NumericError) as first:
            if sdef.model != "m_estimator":
                raise
            x, info = _restart_on_root_curve(system, spec, newton_from, first)
    else:
        if isinstance(x0, dict):
            start = np.array([float(x0[n]) for n in sdef.params])
        else:
            start = np.asarray(x0, dtype=float)
            if start.size != len(sdef.params):
                raise ConfigError(f"x0 must have {len(sdef.params)} entries {sdef.params}")
        x, info = newton_from(start)

    return SeSolution(system=system, params=dict(zip(sdef.params, map(float, x))),
                      residual_norm=info["residual_norm"], iterations=info["iterations"],
                      tol=opts.tol, jac_cond=info["jac_cond"])
