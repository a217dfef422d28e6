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
