"""Frequentist evaluation of Bayesian estimators from posterior draws.

Given per-observation log-likelihoods evaluated at posterior draws, this
package builds the posterior covariance matrix of those log-likelihoods
and its principal space, and uses them for sensitivity analysis,
frequentist covariance estimation, approximate bootstraps, and
information-matrix comparisons.

Import the submodules themselves (``from wkernel import spectral``).  The
package loads none of them, so ``import wkernel.cli`` loads no numpy and
the command-line driver can pin the numerical thread pools first.
"""

__version__ = "0.1.0"
