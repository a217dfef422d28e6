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
