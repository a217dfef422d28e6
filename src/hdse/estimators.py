"""Synthetic data and finite-sample estimators used to validate SE predictions.

Design entries are N(0, 1/n) for every model, so columns have unit norm in
expectation and sqrt(n) * X is a standard Gaussian matrix.  All randomness
flows through a counter-based generator keyed by (seed, replicate), which
makes replicates independent streams and results order-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ConfigError, MleNonExistence, NonConvergence
from .systems import ProblemSpec

DESIGN_VARIANCE = "1/n"

# Stopping rules of the fits: the gradient (and lasso KKT) max-norm, the
# largest coordinate move that ends a CD sweep or an AMP run, and the caps.
GRADIENT_TOL = 1e-8
CD_TOL = 1e-10
AMP_TOL = 1e-9
M_MAX_ITER = 100
LOGISTIC_MAX_ITER = 200
CD_MAX_SWEEPS = 20000
AMP_MAX_ITER = 3000

def make_rng(seed: int, replicate: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replicate))))


@dataclass
class Dataset:
    """One synthetic instance: design, response, and the generating truth."""

    design: np.ndarray
    response: np.ndarray
    truth: np.ndarray
    spec: ProblemSpec
    seed: int

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]


@dataclass
class AmpState:
    """Iterate of the AMP recursion for the l1 problem."""

    beta: np.ndarray
    residual: np.ndarray
    gamma: float
    iter: int
    converged: bool = False
    diverged: bool = False


def _dimensions(spec: ProblemSpec, n: int) -> int:
    if n < 1:
        raise ConfigError("n must be at least 1")
    d = int(round(spec.kappa * n))
    if d < 1:
        raise ConfigError(f"kappa*n rounds to {d}; need at least one feature")
    return d


def gen_linear_data(spec: ProblemSpec, n: int, seed: int, replicate: int = 0) -> Dataset:
    """y = X beta* + eps with X entries N(0, 1/n), beta* ~ prior, eps ~ noise."""
    d = _dimensions(spec, n)
    rng = make_rng(seed, replicate)
    design = rng.normal(0.0, 1.0 / np.sqrt(n), (n, d))
    truth = spec.prior.sample(rng, d)
    eps = spec.noise.sample(rng, n)
    return Dataset(design, design @ truth + eps, truth, spec, seed)


def gen_logistic_data(spec: ProblemSpec, n: int, seed: int, replicate: int = 0) -> Dataset:
    """Labels +-1 with P(y = 1 | x) = sigmoid(x' beta*)."""
    from scipy.special import expit

    d = _dimensions(spec, n)
    rng = make_rng(seed, replicate)
    design = rng.normal(0.0, 1.0 / np.sqrt(n), (n, d))
    truth = spec.prior.sample(rng, d)
    probs = expit(design @ truth)
    response = np.where(rng.random(n) < probs, 1.0, -1.0)
    return Dataset(design, response, truth, spec, seed)


# ---------------------------------------------------------------------------
# Fits


def fit_m_estimator(data: Dataset) -> np.ndarray:
    """Minimize sum_i loss(y_i - x_i' beta) by damped Newton from the OLS point.

    The OLS start is a Cholesky solve of the normal equations, which needs a
    positive-definite X'X (kappa < 1); a singular one raises LinAlgError.
    Every loss, the quadratic included, must pass the final gradient
    certificate.  The Hessian uses the loss curvature with a 1e-6 identity
    floor so the piecewise-quadratic huber stays well posed across its knee.
    It is the start's Gram matrix X'X downdated by the rows D whose curvature
    is below 1 (for huber, the rows past the knee; none for the quadratic)
    and is solved by Cholesky, so a step costs O(|D| d^2 + d^3/3) and its
    only design-sized scratch is the |D| x d block of those rows.  The
    absolute loss has no curvature anywhere and its optimum does not satisfy
    a gradient certificate, so it is not fittable here.
    """
    from scipy.linalg import cho_factor, cho_solve

    loss = data.spec.loss
    if loss.kind == "absolute":
        raise ConfigError("absolute-loss fitting is not supported (no gradient certificate)")
    X, y = data.design, data.response
    gram = X.T @ X
    # cho_factor factors a copy, so gram stays X'X for the Newton Hessians
    beta = cho_solve(cho_factor(gram, check_finite=False), X.T @ y, check_finite=False)

    def objective(b):
        return float(np.sum(losses.eval_loss(loss, y - X @ b)))

    obj = objective(beta)
    for _ in range(M_MAX_ITER):
        r = y - X @ beta
        grad = -(X.T @ losses.loss_deriv(loss, r))
        if float(np.max(np.abs(grad))) < GRADIENT_TOL:
            return beta
        hess = _downdated_hessian(gram, X, losses.loss_curvature(loss, r), 1e-6)
        direction = cho_solve(cho_factor(hess, overwrite_a=True, check_finite=False), -grad,
                              check_finite=False)
        step = 1.0
        while step > 1e-8:
            cand = beta + step * direction
            cand_obj = objective(cand)
            if cand_obj <= obj:
                beta, obj = cand, cand_obj
                break
            step *= 0.5
        else:
            break
    r = y - X @ beta
    grad_norm = float(np.max(np.abs(X.T @ losses.loss_deriv(loss, r))))
    if grad_norm >= GRADIENT_TOL:
        raise NonConvergence(f"m-estimator gradient stalled at {grad_norm:.3e}",
                             best=beta, residual_norm=grad_norm, iterations=M_MAX_ITER)
    return beta


def _downdated_hessian(gram: np.ndarray, X: np.ndarray, w: np.ndarray,
                       floor: float) -> np.ndarray:
    """Upper triangle of X' diag(w) X + floor * I for w in [0, 1], given gram = X'X.

    X' diag(w) X = X'X - X_D' diag(1 - w_D) X_D over D = {i : w_i < 1}, so
    only the rows in D are read.  The result is a Fortran-order copy of gram
    downdated in place by syrk, which writes the upper triangle only; the
    strict lower triangle keeps gram's values, and cho_factor(lower=False)
    never reads it.
    """
    from scipy.linalg.blas import dsyrk

    hess = np.array(gram, order="F")
    below = w < 1.0
    if below.any():
        xd = X[below]
        xd *= np.sqrt(1.0 - w[below])[:, None]
        # xd.T is Fortran-contiguous, so syrk reads it without a copy
        dsyrk(-1.0, xd.T, beta=1.0, c=hess, overwrite_c=1)
    hess[np.diag_indices_from(hess)] += floor
    return hess


def fit_lasso_cd(data: Dataset, lambda_star: float) -> np.ndarray:
    """Cyclic coordinate descent for 0.5||y - X beta||^2 + lambda*||beta||_1,
    finished on its active set.

    Covariance-update form (Friedman, Hastie & Tibshirani 2010): the sweep
    (``_cd_sweep``) keeps corr = X'(y - X beta) and, when coordinate j moves
    by delta, updates it with -delta times row j of the Gram matrix G = X'X,
    so a step touches d numbers instead of n.  Until the first finish the
    iterates are those of the residual form up to rounding.  The Gram matrix
    holds d*d floats: at most the size of X when kappa <= 1 and kappa times
    it when kappa > 1.

    Once the sign pattern s of beta has survived two whole sweeps and its
    support A has |A| <= n, the lasso on that pattern is a linear system
    (the active-set step of Osborne, Presnell & Turlach 2000):
    G_AA b_A = (X'y)_A - lambda* s_A, solved by Cholesky.  The candidate b
    is returned if its signs are s, every inactive j has
    |(X'y - G b)_j| <= lambda* and the KKT certificate holds.  Otherwise CD
    restarts from b, or, if a sign flipped, from the point of the segment
    beta -> b where the first active coordinate reaches zero; on that
    segment the objective is the convex quadratic of pattern s, so it does
    not rise.  A Gram block that is not positive definite leaves CD
    sweeping.  CD that meets CD_TOL first returns its own iterate.
    """
    if lambda_star < 0:
        raise ConfigError("lambda_star must be nonnegative")
    X, y = data.design, data.response
    gram = X.T @ X
    xty = X.T @ y
    corr = xty.copy()
    # (j, X_j'X_j, gram row j) per nonzero column; row j is column j of the
    # symmetric gram, but contiguous
    coords = [(j, cj, gram[j]) for j, cj in enumerate(gram.diagonal().tolist()) if cj != 0.0]
    beta = [0.0] * data.d
    signs, settled = np.zeros(data.d), 0
    for _ in range(CD_MAX_SWEEPS):
        max_change = _cd_sweep(coords, beta, corr, lambda_star)
        if max_change < CD_TOL:
            break
        start = np.array(beta)
        prev, signs = signs, np.sign(start)
        settled = settled + 1 if np.array_equal(prev, signs) else 0
        # try once the pattern has survived two whole sweeps: after one, more
        # tries are rejected (52 against 34 factorizations over 20 fits of the
        # kappa = 0.5, n = 2000 benchmark replicate), and each costs ~10 sweeps
        if settled < 2 or np.count_nonzero(signs) > data.n:
            continue
        settled = 0
        try:
            cand = _active_set_solution(gram, xty, signs, lambda_star)
        except np.linalg.LinAlgError:
            continue
        active = signs != 0.0
        flipped = np.flatnonzero(active & (np.sign(cand) != signs))
        if flipped.size:
            # stop where the first active coordinate reaches zero
            frac = start[flipped] / (start[flipped] - cand[flipped])
            cand = start + frac.min() * (cand - start)
            cand[flipped[frac == frac.min()]] = 0.0
        corr = xty - gram @ cand
        if (not flipped.size and np.all(np.abs(corr[~active]) <= lambda_star)
                and kkt_residual_lasso(data, cand, lambda_star) < GRADIENT_TOL):
            return cand
        beta, signs = cand.tolist(), np.sign(cand)
    else:
        raise NonConvergence("coordinate descent did not converge", best=np.array(beta),
                             residual_norm=max_change, iterations=CD_MAX_SWEEPS)
    beta = np.array(beta)
    kkt = kkt_residual_lasso(data, beta, lambda_star)
    if kkt >= GRADIENT_TOL:
        raise NonConvergence(f"coordinate descent finished with KKT residual {kkt:.3e}",
                             best=beta, residual_norm=kkt, iterations=CD_MAX_SWEEPS)
    return beta


def _cd_sweep(coords: list, beta: list, corr: np.ndarray, lambda_star: float) -> float:
    """One cyclic sweep over ``coords`` (j, G_jj, G row j); moves ``beta`` and
    ``corr`` in place and returns the largest coordinate move.

    A coordinate step reads corr[j] as a Python float and daxpy updates corr
    in place, so the sweep makes no numpy scalar or row view per coordinate.
    """
    from scipy.linalg.blas import daxpy

    max_change = 0.0
    for j, cj, row in coords:
        old = beta[j]
        rho = corr.item(j) + cj * old
        new = math.copysign(max(abs(rho) - lambda_star, 0.0), rho) / cj
        if new != old:
            delta = new - old
            daxpy(row, corr, a=-delta)  # updates corr in place
            beta[j] = new
            max_change = max(max_change, abs(delta))
    return max_change


def _active_set_solution(gram: np.ndarray, xty: np.ndarray, signs: np.ndarray,
                         lambda_star: float) -> np.ndarray:
    """b with b_A = G_AA^-1 ((X'y)_A - lambda* s_A) on A = {s != 0}, zero off A.

    The fancy-indexed block is a fresh copy; its transpose (the same
    symmetric matrix) is Fortran-ordered, so cho_factor factors it in place.
    Raises LinAlgError if G_AA is not positive definite.
    """
    from scipy.linalg import cho_factor, cho_solve

    active = np.flatnonzero(signs)
    factor = cho_factor(gram[np.ix_(active, active)].T, overwrite_a=True, check_finite=False)
    cand = np.zeros_like(xty)
    cand[active] = cho_solve(factor, xty[active] - lambda_star * signs[active],
                             check_finite=False)
    return cand


def kkt_residual_lasso(data: Dataset, beta: np.ndarray, lambda_star: float) -> float:
    """Max violation of the first-order conditions of the l1 problem."""
    g = data.design.T @ (data.design @ beta - data.response)
    active = beta != 0.0
    viol = np.concatenate([np.abs(lambda_star * np.sign(beta[active]) + g[active]),
                           np.maximum(np.abs(g[~active]) - lambda_star, 0.0)])
    return float(np.max(viol, initial=0.0))

def amp_lasso(data: Dataset, lambda_star: float):
    """AMP recursion with the memory (Onsager) correction on the residual.

    The correction uses the average of the threshold derivative: the update
    reads z = y - X beta + kappa * z_prev * mean(eta'), which is the unique
    scaling whose fixed point satisfies the l1 optimality conditions.
    Divergence is reported on the returned state, not raised.

    Returns ``(state, trajectory)`` where trajectory rows are
    ``(iter, gamma, est_tau)`` and est_tau = ||z|| / sqrt(n).
    """
    if lambda_star <= 0:
        raise ConfigError("amp_lasso requires lambda_star > 0")
    X, y = data.design, data.response
    n = data.n
    kappa = data.d / n
    beta = np.zeros(data.d)
    z = y.copy()
    gamma = 0.0
    trajectory = [(0, gamma, float(np.linalg.norm(z) / np.sqrt(n)))]
    for it in range(1, AMP_MAX_ITER + 1):
        pseudo = beta + X.T @ z
        thresh = lambda_star + gamma
        new_beta, deriv = losses.soft_threshold(pseudo, thresh)
        c = float(np.mean(deriv))
        new_gamma = kappa * thresh * c
        new_z = y - X @ new_beta + kappa * z * c
        change = float(np.max(np.abs(new_beta - beta)))
        beta, z, gamma = new_beta, new_z, new_gamma
        trajectory.append((it, gamma, float(np.linalg.norm(z) / np.sqrt(n))))
        if not np.isfinite(change) or np.linalg.norm(beta) > 1e8:
            return AmpState(beta, z, gamma, it, diverged=True), trajectory
        if change < AMP_TOL:
            return AmpState(beta, z, gamma, it, converged=True), trajectory
    return AmpState(beta, z, gamma, AMP_MAX_ITER), trajectory


def fit_logistic_mle(data: Dataset) -> np.ndarray:
    """Damped Newton on the empirical logistic loss (1/n) sum ell(y_i x_i' beta).

    Raises MleNonExistence on a beta with every margin y_i x_i' beta > 0:
    such a beta separates the data, so no minimizer exists, and at a
    minimizer some margin is <= 0.  Every Newton iterate is checked, from
    margins the step needs anyway.  After a stall or LOGISTIC_MAX_ITER steps
    the max-margin LP point is checked, and NonConvergence is raised if it
    does not separate.
    """
    from scipy.special import expit

    X, y = data.design, data.response
    n = data.n
    beta = np.zeros(data.d)

    def objective(b):
        return float(np.mean(np.logaddexp(0.0, -(y * (X @ b)))))

    obj = objective(beta)
    for it in range(LOGISTIC_MAX_ITER + 1):
        margins = y * (X @ beta)
        if np.all(margins > 0):
            raise MleNonExistence("a Newton iterate has every margin positive; "
                                  "the data are separable")
        s = expit(margins)
        grad = X.T @ (y * (s - 1.0)) / n
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < GRADIENT_TOL:
            return beta
        if it == LOGISTIC_MAX_ITER:
            break
        # X' diag(w) X + 1e-12 I as (sqrt(w) X)'(sqrt(w) X), so BLAS runs syrk
        xw = X * np.sqrt(s * (1.0 - s) / n)[:, None]
        hess = xw.T @ xw
        del xw  # the X-sized scratch
        hess[np.diag_indices_from(hess)] += 1e-12
        direction = np.linalg.solve(hess, -grad)
        step = 1.0
        while step > 1e-10:
            cand = beta + step * direction
            cand_obj = objective(cand)
            if cand_obj <= obj:
                beta, obj = cand, cand_obj
                break
            step *= 0.5
        else:
            break
    if np.all(y * (X @ _max_margin_point(X, y)) > 0):
        raise MleNonExistence("the max-margin LP point has every margin positive; "
                              "the data are separable")
    raise NonConvergence(f"logistic Newton stalled at gradient {grad_norm:.3e}",
                         best=beta, residual_norm=grad_norm, iterations=it)


def _max_margin_point(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """beta of the LP max s s.t. y_i sqrt(n) x_i' beta >= s, |beta_j| <= 1, s <= 1.

    beta = 0, s = 0 is feasible, so the LP has an optimum, and its beta
    separates the data iff they are separable.  The unbounded form
    y_i x_i' beta >= 1 is infeasible on data that are not, which HiGHS
    reports as numerical difficulty.  A failed solve gives beta = 0.
    """
    from scipy.optimize import linprog  # deferred like the other scipy solvers

    n, d = X.shape
    # variables (beta, s): minimize -s subject to s - y_i sqrt(n) x_i' beta <= 0
    a_ub = np.hstack([X * (-np.sqrt(n) * y)[:, None], np.ones((n, 1))])
    res = linprog(np.r_[np.zeros(d), -1.0], A_ub=a_ub, b_ub=np.zeros(n),
                  bounds=[(-1.0, 1.0)] * d + [(None, 1.0)], method="highs")
    return np.zeros(d) if res.x is None else res.x[:d]


# ---------------------------------------------------------------------------
# Empirical summaries


def empirical_mse(beta_hat: np.ndarray, data: Dataset) -> float:
    """(1/n) || beta_hat - beta* ||^2, matching the SE normalization."""
    if beta_hat.shape != data.truth.shape:
        raise ConfigError("dimension mismatch between estimate and truth")
    return float(np.sum((beta_hat - data.truth) ** 2) / data.n)


def logistic_overlap(beta_hat: np.ndarray, data: Dataset) -> tuple[float, float]:
    """(inflation, orthogonal-noise scale) of a logistic fit.

    inflation = <beta_hat, beta*> / ||beta*||^2 and the noise scale is
    ||P_perp beta_hat|| / sqrt(d), the empirical counterparts of the LOO
    system's sigma and alpha1.
    """
    truth_sq = float(np.dot(data.truth, data.truth))
    if truth_sq == 0.0:
        raise ConfigError("overlap is undefined for a zero signal")
    inflation = float(np.dot(beta_hat, data.truth)) / truth_sq
    ortho_sq = float(np.dot(beta_hat, beta_hat)) - inflation ** 2 * truth_sq
    return inflation, float(np.sqrt(max(ortho_sq, 0.0) / data.d))
