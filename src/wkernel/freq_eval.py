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

from dataclasses import dataclass

import numpy as np

from .core import (
    LogLikMatrix,
    LogPriorVector,
    StatMatrix,
    _check_draws,
    _freeze,
    _frozen,
    posterior_cov_grid,
    third_cumulant_grid,
)
from .errors import InvalidInput
from .kernels import InfoMatrices, WMatrix, centered
from .spectral import SpectralBasis, _as_eta, _vectors

_ESTIMATORS = ("plain", "centered", "prior_adjusted", "projected")


@dataclass(frozen=True)
class FreqCovEstimate:
    """p x p frequentist covariance estimate for the posterior means."""

    values: np.ndarray
    estimator: str
    rank_used: int | str = "full"

    def __post_init__(self):
        _freeze(self, "values")
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise InvalidInput("covariance estimate must be square")
        if self.estimator not in _ESTIMATORS:
            raise InvalidInput(f"unknown estimator {self.estimator!r}")


@dataclass(frozen=True)
class PenaltyReport:
    """Effective-parameter penalties; fields are None when inputs were absent."""

    waic_penalty: float
    tic_penalty: float | None = None
    pcic_penalty: float | None = None


@dataclass(frozen=True)
class CenteringDiagnostic:
    """Covariance of each statistic with the total log-likelihood.

    ``values[j]`` is Cov[A_j, sum_i l_i (+ log prior when supplied)]: the
    quantity whose smallness justifies skipping the centering.  ``scale``
    is sum_i |Cov[A_j, l_i]|, the natural comparison magnitude.
    """

    values: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        _freeze(self, "values", "scale")


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
) -> FreqCovEstimate:
    """Frequentist covariance of the posterior means, one of four forms.

    All four are Gram sums of per-observation (or per-direction)
    sensitivity vectors and therefore symmetric PSD by construction.
    "projected" takes the sensitivity grid S along ``basis``: S V.
    """
    if estimator not in _ESTIMATORS:
        raise InvalidInput(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
    _check_draws(stats, loglik)

    rank_used = "full"
    if estimator == "projected":
        if basis is None:
            raise InvalidInput("projected estimator requires a basis")
        v = _vectors(basis, loglik.n_obs)
        grid = sensitivity_first(stats, loglik) @ v
        rank_used = basis.rank_retained
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
    return FreqCovEstimate(
        values=_frozen(grid @ grid.T), estimator=estimator, rank_used=rank_used
    )


def penalties(
    loglik: LogLikMatrix,
    logprior: LogPriorVector | None = None,
    info: InfoMatrices | None = None,
) -> PenaltyReport:
    """Effective-parameter penalties from the same covariance objects.

    The variance penalty (trace of W) is always available; the
    information-matrix penalty tr(I J^{-1}) needs score information and
    the prior-corrected penalty needs the log prior at the draws.
    Missing inputs leave the corresponding field as None.
    """
    c = centered(loglik)
    waic = c.trace

    tic = None
    if info is not None:
        tic = float(np.trace(np.linalg.solve(info.J_hat, info.I_hat)))

    pcic = None
    if logprior is not None:
        _check_draws(logprior, c, "log-prior values")
        prior_c = logprior.values - logprior.values.mean()
        # cov of each column with itself plus (1/n) log prior, summed over i
        pcic = waic + float(np.sum(prior_c @ c.values)) / (c.n_draws * c.n_obs)

    return PenaltyReport(waic_penalty=waic, tic_penalty=tic, pcic_penalty=pcic)


def kl_quadratic(w_matrix: WMatrix, eta) -> float:
    """Quadratic approximation of the posterior shift under a perturbation.

    Half the quadratic form of the perturbation vector in W; this
    approximates the KL divergence from the unperturbed posterior to the
    one with observation weights 1 + eta.
    """
    eta = _as_eta(eta, w_matrix.n)
    return 0.5 * float(eta @ w_matrix.values @ eta)


def centering_diagnostic(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    logprior: LogPriorVector | None = None,
) -> CenteringDiagnostic:
    """How far each statistic is from the zero-sum sensitivity relation.

    Reports Cov[A_j, sum_i l_i], with the log prior added to the sum
    when given (the prior-adjusted relation is centered at the MAP
    rather than the MLE).  Values small against ``scale`` mean the plain
    and centered covariance estimators agree.
    """
    grid = sensitivity_first(stats, loglik)
    scale = np.sum(np.abs(grid), axis=1)
    total = grid.sum(axis=1)
    if logprior is not None:
        total += _prior_cov(stats, loglik, logprior)
    return CenteringDiagnostic(values=_frozen(total), scale=_frozen(scale))
