"""Test-only helpers kept out of ``src/``, so the oracles stay independent
of the code they check."""

import numpy as np


def logistic_loo_covariance(spec, alpha1: float, sigma: float) -> np.ndarray:
    """Covariance of the (true logit, negative fitted logit) Gaussian pair.

    ``residual_logistic_loo`` conditions on its second entry, the prox
    argument; the tests integrate the pair on a tensor grid as an oracle.
    """
    r2 = spec.r_star ** 2
    return np.array([
        [r2, -sigma * r2],
        [-sigma * r2, sigma ** 2 * r2 + alpha1 ** 2 * spec.kappa],
    ])


def kappa_critical_adaptive(r_star: float) -> float:
    """min_t E[(Z - t V)_+^2], V with density 2*phi(v)*sigmoid(r_star*v), by
    adaptive quadrature over v (the Z-integral in closed form), with
    breakpoints at 0, +-2, 4, 7 and at the tilt's bends +-{3, 8, 16}/r_star."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad
    from scipy.optimize import minimize_scalar
    from scipy.special import expit
    from scipy.stats import norm

    bends = [s * b / r_star for b in (3.0, 8.0, 16.0) for s in (-1.0, 1.0)]
    breaks = sorted({0.0, -2.0, 2.0, -4.0, 4.0, -7.0, 7.0,
                     *(b for b in bends if abs(b) < 12.0)})

    def hinge(t):
        def f(v):
            a = t * v
            return (2.0 * norm.pdf(v) * expit(r_star * v)
                    * ((1.0 + a * a) * norm.sf(a) - a * norm.pdf(a)))

        with warnings.catch_warnings():
            # quad may flag roundoff at large r_star; its value still agrees
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(f, -12.0, 12.0, points=breaks, limit=400,
                        epsabs=0.0, epsrel=1e-13)[0]

    return minimize_scalar(hinge, tol=1e-12).fun


def m_residual_adaptive(system: str, p, spec) -> np.ndarray:
    """Residual of ``m_loo``, ``m_amp`` or ``m_cgmt`` at one point ``p`` by
    adaptive quadrature: ``quad`` per noise component over +-16 sd of
    S = W + tau*Z, with breakpoints at the prox kinks and bends.  The
    Z-weighted term uses the per-component Gaussian regression
    E[Z g(S)] = tau/Var(S) * E[(S - E S) g(S)]."""
    from scipy.integrate import quad
    from scipy.stats import norm

    from hdse import losses

    loss, k = spec.loss, spec.kappa

    def expect(g, tau, scale, zweighted=False):
        cuts = [float(c) for c in losses.prox_kinks(loss, scale)]
        total = 0.0
        for wt, mean, sd in spec.noise.mixture():
            if wt == 0.0:
                continue
            var = sd * sd + tau * tau
            s = np.sqrt(var)
            lo, hi = mean - 16.0 * s, mean + 16.0 * s

            def f(x):
                return g(x) * (x - mean if zweighted else 1.0) * norm.pdf(x, mean, s)

            val = quad(f, lo, hi, points=[c for c in cuts if lo < c < hi], limit=400,
                       epsabs=0.0, epsrel=1e-13)[0]
            total += wt * (tau / var if zweighted else 1.0) * val
        return total

    if system == "m_loo":
        tau, lam = p
        e_pd = expect(lambda s: losses.prox_deriv(loss, s, lam), tau, lam)
        e_sq = expect(lambda s: (s - losses.prox(loss, s, lam)) ** 2, tau, lam)
        return np.array([e_pd - (1.0 - k), e_sq - k * tau * tau])
    if system == "m_amp":
        tau, lam = p
        e_dx2 = expect(lambda s: losses.moreau_bundle(loss, s, lam).dm_dx ** 2, tau, lam)
        e_dxx = expect(lambda s: losses.moreau_bundle(loss, s, lam).d2m_dx2, tau, lam)
        return np.array([lam * lam * e_dx2 / k - tau * tau, lam * e_dxx - k])
    tau, alpha, mu = p
    b = alpha / mu
    e_dt = expect(lambda s: losses.moreau_bundle(loss, s, b).dm_dt, tau, b)
    e_z_dx = expect(lambda s: losses.moreau_bundle(loss, s, b).dm_dx, tau, b, zweighted=True)
    rk = np.sqrt(k)
    return np.array([0.5 * alpha - tau * rk - (alpha / mu ** 2) * e_dt,
                     -mu * rk + e_z_dx,
                     0.5 * mu + e_dt / mu])


def lasso_on_support(X, y, lam: float, beta) -> np.ndarray:
    """The l1 minimizer with the support A and signs s of ``beta``: the normal
    equations X_A'X_A b_A = X_A'y - lam s_A solved by ``numpy.linalg.solve``.

    Asserts that its own KKT residual is at most 1e-12, so a support or sign
    pattern that is not the minimizer's fails here, not in the caller.
    """
    active = np.flatnonzero(beta)
    xa = X[:, active]
    exact = np.zeros(X.shape[1])
    exact[active] = np.linalg.solve(xa.T @ xa, xa.T @ y - lam * np.sign(beta[active]))
    g = X.T @ (X @ exact - y)
    on = exact != 0.0
    kkt = max(np.max(np.abs(g[on] + lam * np.sign(exact[on])), initial=0.0),
              np.max(np.abs(g[~on]) - lam, initial=0.0))
    assert kkt <= 1e-12, f"oracle KKT residual {kkt:.3e}"
    return exact
