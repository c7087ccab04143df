"""Frequentist evaluation of posterior means from a single posterior run.

Sensitivity of a posterior mean to observation weights is given by
posterior covariances (first order) and third cumulants (second order)
with the per-observation log-likelihoods.  Summing products of those
sensitivities over observations yields estimators of the frequentist
covariance of the posterior means under IID resampling:

* plain      sum_i Cov[A, l_i] Cov[B, l_i]
* centered   same with the observation-mean covariance removed
             (the form that stays consistent under strong priors)
* prior_adjusted   covariances taken against l_i + (1/n) log prior
* projected  the same sums in the principal coordinates: S V, for the
             p x n sensitivity grid S and W's leading eigenvectors V

plus the model-assessment penalties that are traces of the same
objects, a quadratic form giving the posterior shift under a
perturbation, and a diagnostic for when the centering matters.
"""

from __future__ import annotations

import numpy as np

from .core import (
    LogLikMatrix,
    LogPriorVector,
    StatMatrix,
    _as_array,
    _check_draws,
    _frozen,
    posterior_cov_grid,
    third_cumulant_grid,
)
from .errors import InvalidInput
from .kernels import WMatrix, centered
from .spectral import SpectralBasis, _vectors

_ESTIMATORS = ("plain", "centered", "prior_adjusted", "projected")


def sensitivity_first(stats: StatMatrix, loglik: LogLikMatrix) -> np.ndarray:
    """First-order weight sensitivities: the read-only p x n posterior
    covariance grid (A - mean A)^T C / M, whose entry [j, i] is the
    derivative of statistic j's posterior mean in observation i's weight
    at unit weights, and which every estimator reads from log-likelihoods."""
    _check_draws(stats, loglik)
    ac = stats.values - stats.values.mean(axis=0)
    return _frozen(ac.T @ centered(loglik).values / loglik.n_draws)


def sensitivity_second(stats: StatMatrix, funcs) -> np.ndarray:
    """Second-order weight sensitivities: the read-only p x a x a tensor of
    third cumulants, exactly symmetric in its last two axes.

    ``funcs`` is an (M, a) matrix of draw values; pass log-likelihood
    columns for raw sensitivities or their principal coordinates C V for
    the reduced tensor.
    """
    tensor = third_cumulant_grid(stats, funcs)
    return _frozen((tensor + tensor.transpose(0, 2, 1)) / 2.0)


def _prior_cov(stats: StatMatrix, loglik: LogLikMatrix, logprior: LogPriorVector):
    """Cov[A_j, log prior] for each statistic j, the log prior's draw count
    checked against the log-likelihoods'."""
    _check_draws(logprior, loglik, "log-prior values")
    return posterior_cov_grid(stats.values, logprior.values[:, None])[:, 0]


def freq_cov(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    estimator: str = "plain",
    logprior: LogPriorVector | None = None,
    basis: SpectralBasis | None = None,
) -> np.ndarray:
    """Frequentist covariance of the posterior means, one of four forms:
    the read-only p x p estimate.

    All four are Gram sums of per-observation (or per-direction)
    sensitivity vectors and therefore symmetric PSD by construction.
    "projected" takes the sensitivity grid S along ``basis``: S V.
    """
    if estimator not in _ESTIMATORS:
        raise InvalidInput(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
    _check_draws(stats, loglik)

    if estimator == "projected":
        if basis is None:
            raise InvalidInput("projected estimator requires a basis")
        v = _vectors(basis, loglik.n_obs)
        grid = sensitivity_first(stats, loglik) @ v
    elif estimator == "prior_adjusted":
        if logprior is None:
            raise InvalidInput("prior_adjusted estimator requires a log-prior")
        # covariances with l_i + (1/n) log prior, by linearity
        prior = _prior_cov(stats, loglik, logprior)[:, None]
        grid = sensitivity_first(stats, loglik) + prior / loglik.n_obs
    else:
        grid = sensitivity_first(stats, loglik)
        if estimator == "centered":
            grid = grid - grid.mean(axis=1, keepdims=True)

    # the Gram product of one contiguous array is exactly symmetric
    return _frozen(grid @ grid.T)


def penalties(
    loglik: LogLikMatrix,
    logprior: LogPriorVector | None = None,
    info: tuple | None = None,
) -> dict:
    """Effective-parameter penalties from the same covariance objects, by
    name, in the order waic, tic, pcic.

    The variance penalty ``waic_penalty`` (trace of W) is always there;
    the information-matrix penalty ``tic_penalty`` = tr(I J^{-1}) only
    with score information, ``build_info_matrices``'s (I_hat, J_hat,
    sandwich), and the prior-corrected ``pcic_penalty`` only with the log
    prior at the draws.
    """
    c = centered(loglik)
    waic = c.trace
    report = {"waic_penalty": waic}
    if info is not None:
        i_hat, j_hat, _ = info
        report["tic_penalty"] = float(np.trace(np.linalg.solve(j_hat, i_hat)))
    if logprior is not None:
        _check_draws(logprior, c, "log-prior values")
        prior_c = logprior.values - logprior.values.mean()
        # cov of each column with itself plus (1/n) log prior, summed over i
        report["pcic_penalty"] = waic + float(np.sum(prior_c @ c.values)) / (c.n_draws * c.n_obs)
    return report


def kl_quadratic(w_matrix: WMatrix, eta) -> float:
    """Quadratic approximation of the posterior shift under a perturbation.

    Half the quadratic form of the perturbation vector in W; this
    approximates the KL divergence from the unperturbed posterior to the
    one with observation weights 1 + eta.
    """
    eta = _as_array(eta, "perturbation", (w_matrix.n,))
    return 0.5 * float(eta @ w_matrix.values @ eta)


def centering_diagnostic(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    logprior: LogPriorVector | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """How far each statistic is from the zero-sum sensitivity relation.

    Returns two read-only p-vectors ``(values, scale)``: ``values[j]`` is
    Cov[A_j, sum_i l_i], with the log prior added to the sum when given
    (the prior-adjusted relation is centered at the MAP rather than the
    MLE), and ``scale[j]`` is sum_i |Cov[A_j, l_i]|, the natural
    comparison magnitude.  Values small against ``scale`` mean the plain
    and centered covariance estimators agree.
    """
    grid = sensitivity_first(stats, loglik)
    scale = np.sum(np.abs(grid), axis=1)
    total = grid.sum(axis=1)
    if logprior is not None:
        total += _prior_cov(stats, loglik, logprior)
    return _frozen(total), _frozen(scale)
