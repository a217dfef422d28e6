"""Newton evaluates each point together with its difference points, and its
iterates equal those of the Newton that evaluates them in separate calls.

``_newton_by_separate_calls`` is the reference: the centre point, every
line-search trial and every Jacobian get a residual call of their own, and
the singularity test takes the condition of the unscaled Jacobian.  Stacked
rows equal single calls (``test_stacked.py``), so ``newton_solve`` must
visit the same points, accept the same trials and stop at the same iterate,
bit for bit, wherever that unscaled test does not stop the reference.
"""

import numpy as np
import pytest

from hdse import solving
from hdse.errors import NonConvergence, NumericError, SingularJacobian
from hdse.solving import DAMPING_FLOOR, SolverOptions, evaluate_jacobian_fd, newton_solve
from hdse.systems import SYSTEMS

from test_stacked import CATALOG, _ids


def _newton_by_separate_calls(residual, x0, opts, clamp):
    """Damped Newton with one residual call per point and one per Jacobian."""
    x = clamp(np.asarray(x0, dtype=float).copy())
    r = np.asarray(residual(x), dtype=float)
    if not np.isfinite(r).all():
        raise NumericError("residual not finite at the initial point")
    norm = float(np.max(np.abs(r)))
    for it in range(1, opts.max_iter + 1):
        if norm <= opts.tol:
            return x, {"iterations": it - 1, "residual_norm": norm}
        jac = evaluate_jacobian_fd(residual, x, opts.fd_step)
        jac_cond = float(np.linalg.cond(jac))
        if not np.isfinite(jac_cond) or jac_cond > 1e14:
            raise SingularJacobian(f"Jacobian condition {jac_cond:.3g} at iteration {it}")
        direction = np.linalg.solve(jac, -r)
        step = 1.0
        accepted = False
        while step >= DAMPING_FLOOR:
            cand = clamp(x + step * direction)
            rc = np.asarray(residual(cand), dtype=float)
            nc = float(np.max(np.abs(rc))) if np.isfinite(rc).all() else np.inf
            if nc < norm:
                x, r, norm = cand, rc, nc
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise NonConvergence(f"stalled at residual {norm:.3e} (damping floor reached)",
                                 best=x, residual_norm=norm, iterations=it)
    if norm <= opts.tol:
        return x, {"iterations": opts.max_iter, "residual_norm": norm}
    raise NonConvergence(f"no convergence in {opts.max_iter} iterations, residual {norm:.3e}",
                         best=x, residual_norm=norm, iterations=opts.max_iter)


def _run(newton, residual, x0, opts, clamp):
    """The centre points a Newton evaluates, in order, and how it ended."""
    centres = []

    def recorded(v):
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            centres.append(v.copy())
        elif v.shape[0] % 2:        # a (2n + 1, n) stack leads with its centre
            centres.append(v[0].copy())
        return residual(v)

    try:
        x, info = newton(recorded, x0, opts, clamp=clamp)
        outcome = ("root", x.tolist(), info["iterations"], info["residual_norm"])
    except (NonConvergence, NumericError) as exc:
        best = getattr(exc, "best", None)
        outcome = (type(exc).__name__, str(exc), None if best is None else best.tolist(),
                   getattr(exc, "iterations", None))
    return [c.tolist() for c in centres], outcome


def _assert_same_iterates(residual, x0, opts=SolverOptions(), clamp=lambda v: v):
    stacked = _run(newton_solve, residual, x0, opts, clamp)
    separate = _run(_newton_by_separate_calls, residual, x0, opts, clamp)
    if separate[1][0] == "SingularJacobian":
        # newton_solve tests the equilibrated Jacobian, which can go on where
        # the unscaled test stops; up to that point the two visit the same points
        assert stacked[0][:len(separate[0])] == separate[0]
    else:
        assert stacked[1] == separate[1]
        assert stacked[0] == separate[0]
    return stacked


@pytest.mark.parametrize("name,spec,rows", CATALOG, ids=_ids())
def test_iterates_equal_the_separate_call_newton(name, spec, rows):
    sdef = SYSTEMS[name]
    clamp = solving._clamp_for(sdef)

    def residual(v):
        return sdef.residual(clamp(np.asarray(v, dtype=float)), spec)

    # the first row is inside the domain, the last has a coordinate the clamp lifts
    for start in (rows[0], rows[-1]):
        _assert_same_iterates(residual, np.array(start, dtype=float), SolverOptions(max_iter=30),
                              clamp)


def _quadratic(nan_band):
    """r = (x0 - 1, x1^2 - 4), not finite where x1 lies inside ``nan_band``."""
    lo, hi = nan_band

    def residual(v):
        v = np.asarray(v, dtype=float)
        r = np.stack([v[..., 0] - 1.0, v[..., 1] ** 2 - 4.0], axis=-1)
        inside = (v[..., 1] > lo) & (v[..., 1] < hi)
        return np.where(inside[..., None], np.nan, r)

    return residual


def test_a_non_finite_centre_fails_at_the_initial_point():
    with pytest.raises(NumericError, match="at the initial point"):
        newton_solve(_quadratic((2.5, 3.5)), np.array([1.0, 3.0]))


def test_a_non_finite_difference_row_fails_only_where_its_jacobian_is_used():
    # the full step from x1 = 3 lands at 13/6, whose upper difference point,
    # 2.17e-6 above it, lies inside the band while the point itself does not
    residual = _quadratic((13.0 / 6.0 + 1e-7, 2.5))
    centres, outcome = _assert_same_iterates(residual, np.array([1.0, 3.0]))
    assert outcome[0] == "NumericError"
    assert outcome[1] == "non-finite residual while differencing coordinate 1"
    assert len(centres) == 2 and np.isfinite(residual(np.array(centres[1]))).all()


def test_a_trial_that_meets_tol_returns_despite_its_difference_rows():
    # linear in x1 near its root at 2: the first step lands there, and the
    # band takes in its upper difference point
    def residual(v):
        v = np.asarray(v, dtype=float)
        r = np.stack([v[..., 0] - 1.0, 3.0 * (v[..., 1] - 2.0)], axis=-1)
        inside = (v[..., 1] > 2.0 + 1e-7) & (v[..., 1] < 2.5)
        return np.where(inside[..., None], np.nan, r)

    centres, outcome = _assert_same_iterates(residual, np.array([1.0, 3.0]))
    assert outcome[0] == "root" and outcome[2] == 1
    assert outcome[1][1] == pytest.approx(2.0, abs=1e-9)
    assert not np.isfinite(residual(np.array([1.0, 2.0 + 2e-6]))).any()   # x1 + h_1


def test_a_non_finite_trial_is_never_accepted():
    # the full step from x1 = 3 lands at 13/6, inside the band; the half step
    # at 31/12 is accepted instead
    residual = _quadratic((2.1, 2.2))
    centres, outcome = _assert_same_iterates(residual, np.array([1.0, 3.0]))
    assert outcome[0] == "root"
    assert centres[1][1] == pytest.approx(13.0 / 6.0, abs=1e-9)
    assert centres[2][1] == pytest.approx(31.0 / 12.0, abs=1e-9)
    assert all(not 2.1 < c[1] < 2.2 for c in centres[2:])
