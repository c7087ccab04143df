"""Self-contained toy models powering demos, oracles, and acceptance tests.

Each model generates data, produces posterior draws (exact conjugate
sampling where available, adaptive random-walk Metropolis otherwise),
fills the per-observation log-likelihood matrix, and, for conjugate
models, exposes the exact reweighted posterior mean used as an oracle
for the sensitivity and bootstrap machinery.

Models:

* normal mean, known variance, flat prior (conjugate)
* binomial with a Beta prior, data optionally overdispersed
  (beta-binomial); supports sample-size-scaled prior strength
  (conjugate)
* Weibull lifespans, improper flat priors, sampled on log parameters
* polynomial regression with normal or Student-t noise models
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LogLikMatrix,
    LogPriorVector,
    StatMatrix,
    _check_seed,
    _frozen,
    _require_finite,
    _stream,
)
from .errors import ConvergenceWarning, InvalidInput, NumericalFailure
from .kernels import ScoreMatrix


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def weibull_logpdf(x, gamma, lam):
    """Log density of the Weibull distribution with shape gamma, scale lam.

    gamma and lam may be arrays that broadcast against x: (M, 1) draws
    against n observations give the M x n log-likelihood matrix.  All
    scalar input gives a float.
    """
    gamma, lam, x = (np.asarray(a, dtype=float) for a in (gamma, lam, x))
    # written so that nan fails them; an inf shape or scale is a proposal's
    # overflow, whose density is the limit
    if not (np.all(gamma > 0) and np.all(lam > 0)):
        raise InvalidInput("Weibull shape and scale must be positive")
    if not np.all(x >= 0):
        raise InvalidInput("Weibull support is x >= 0")
    # the result and ratio = x / lam are the only arrays of the broadcast
    # shape: log(gamma / lam) + (gamma - 1) log(ratio) - ratio^gamma, in place
    out = np.empty(np.broadcast(x, gamma, lam).shape)
    ratio = np.divide(x, lam, out=np.empty_like(out))
    # overflow to inf (and hence logpdf -inf) is the correct limit for
    # far-tail shape proposals; keep it quiet.  At gamma = 1 the power
    # term is 0 even at x = 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.log(ratio, out=out)
        out *= gamma - 1.0
        np.copyto(out, 0.0, where=gamma == 1.0)
        out += np.log(gamma / lam)
        ratio **= gamma
        out -= ratio
    return out if out.ndim else float(out)


def betabinom_logpmf(x, N: int, q0: float, rho: float):
    """Log pmf of the beta-binomial with mean q0 and overdispersion rho.

    Parameterized so that E[X]/N = q0; the underlying Beta mixing
    parameters are a = q0 (1 - rho)/rho and b = (1 - q0)(1 - rho)/rho.
    """
    if not 0 < rho < 1:
        raise InvalidInput("rho must be in (0, 1)")
    if not 0 < q0 < 1:
        raise InvalidInput("q0 must be in (0, 1)")
    if N < 1:
        raise InvalidInput("N must be a positive integer")
    x = np.asarray(x)
    if np.any(x < 0) or np.any(x > N) or not np.issubdtype(x.dtype, np.integer):
        raise InvalidInput(f"x must be an integer in [0, {N}]")
    from scipy.special import betaln, gammaln

    a = q0 * (1.0 - rho) / rho
    b = (1.0 - q0) * (1.0 - rho) / rho
    comb = gammaln(N + 1) - gammaln(x + 1) - gammaln(N - x + 1)
    out = comb + betaln(x + a, N - x + b) - betaln(a, b)
    return out if out.ndim else float(out)


def _binom_loglik(x, N, q):
    """Binomial log-likelihood matrix: draws of q (M,) by data x (n,)."""
    from scipy.special import gammaln

    q = np.asarray(q, dtype=float).reshape(-1, 1)
    x = np.asarray(x, dtype=float).reshape(1, -1)
    comb = gammaln(N + 1) - gammaln(x + 1) - gammaln(N - x + 1)
    return comb + x * np.log(q) + (N - x) * np.log1p(-q)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def _check_field(ok: bool, name: str, value, rule: str) -> None:
    """Refuse a configuration field that breaks its rule, naming the field
    and its value."""
    if not ok:
        raise InvalidInput(f"{name} must be {rule}, got {value}")


def _check_positive(config, *names) -> None:
    """Refuse each named field of ``config`` that is not positive and finite."""
    for name in names:
        value = getattr(config, name)
        _check_field(0 < value < np.inf, name, value, "positive and finite")


@dataclass(frozen=True)
class McmcConfig:
    """Adaptive random-walk Metropolis settings.

    Diagonal proposal whose per-coordinate scales track the running
    posterior spread; a single global step multiplier is adapted by
    Robbins-Monro towards the target acceptance rate during burn-in
    only, then frozen.
    """

    chains: int = 4
    iters: int = 4000
    burn_in: int = 1000
    step_size: float = 0.5
    target_acceptance: float = 0.3

    def __post_init__(self):
        _check_field(self.chains >= 1, "chains", self.chains, "at least 1")
        _check_field(self.iters >= 2, "iters", self.iters, "at least 2")
        in_run = 0 <= self.burn_in < self.iters
        _check_field(in_run, "burn_in", self.burn_in, f"in [0, iters = {self.iters})")
        _check_positive(self, "step_size")
        if not 0 < self.target_acceptance < 1:
            raise InvalidInput("target_acceptance must be in (0, 1)")


@dataclass(frozen=True)
class NormalMeanConfig:
    """Normal location model with known variance and flat prior."""

    n: int = 200
    mu: float = 0.0
    sigma: float = 1.0
    m_draws: int = 20000
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        _check_field(self.n >= 2, "n", self.n, "at least 2")
        _check_field(self.m_draws >= 2, "m_draws", self.m_draws, "at least 2")
        _check_field(np.isfinite(self.mu), "mu", self.mu, "finite")
        _check_positive(self, "sigma")


@dataclass(frozen=True)
class BetaBinomialConfig:
    """Binomial likelihood with a Beta prior; data may be overdispersed.

    rho = 0 draws the data from the plain binomial; rho in (0, 1) from
    the beta-binomial with mean q0.  prior_weight > 0 switches to the
    sample-size-scaled prior: log prior = n * prior_weight * log
    Beta(alpha, beta) density on top of a uniform base, still conjugate.
    """

    N: int = 5
    n: int = 20
    q0: float = 0.25
    rho: float = 0.65
    alpha: float = 1.0
    beta: float = 1.0
    prior_weight: float = 0.0
    m_draws: int = 5000
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if not 0 < self.q0 < 1:
            raise InvalidInput("q0 must be in (0, 1)")
        if not 0 <= self.rho < 1:
            raise InvalidInput("rho must be in [0, 1)")
        _check_field(self.N >= 1, "N", self.N, "at least 1")
        _check_field(self.n >= 1, "n", self.n, "at least 1")
        _check_field(self.m_draws >= 2, "m_draws", self.m_draws, "at least 2")
        _check_positive(self, "alpha", "beta")
        weight = self.prior_weight
        _check_field(0 <= weight < np.inf, "prior_weight", weight, "in [0, inf)")


@dataclass(frozen=True)
class WeibullConfig:
    """Weibull lifespans with improper flat priors on shape and scale.

    Synthetic data; defaults mirror a classical lifespan analysis in
    sample size (n = 59) and scale.
    """

    gamma: float = 2.0
    lam: float = 50.0
    n: int = 59
    mcmc: McmcConfig = field(default_factory=lambda: McmcConfig(iters=4500, burn_in=1500))
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        _check_positive(self, "gamma", "lam")
        _check_field(self.n >= 3, "n", self.n, "at least 3")


REGRESSION_LIKELIHOODS = ("normal_known_sigma", "normal_est_sigma", "student_t")


@dataclass(frozen=True)
class RegressionConfig:
    """Cubic polynomial regression on equally spaced covariates in [-1, 1].

    The true curve is sin(pi z); observation noise is t-distributed with
    4 degrees of freedom scaled by sigma_true, which makes outliers for
    the normal likelihoods.  ``sigma_lik`` is used when the likelihood
    treats the noise scale as known.
    """

    n: int = 30
    sigma_true: float = 0.3
    likelihood: str = "normal_known_sigma"
    sigma_lik: float = 0.1
    student_df: float = 5.0
    degree: int = 3
    mcmc: McmcConfig = field(
        default_factory=lambda: McmcConfig(chains=4, iters=14000, burn_in=2000)
    )
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.likelihood not in REGRESSION_LIKELIHOODS:
            raise InvalidInput(
                f"likelihood must be one of {REGRESSION_LIKELIHOODS}"
            )
        if self.n < self.degree + 2:
            raise InvalidInput("need n >= degree + 2 observations")
        _check_positive(self, "sigma_true", "sigma_lik", "student_df")


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBundle:
    """Everything one model run produces, ready for the evaluation pipeline."""

    model: str
    data: np.ndarray
    draws: np.ndarray
    loglik: LogLikMatrix
    logprior: LogPriorVector
    theta_hat: np.ndarray
    param_names: tuple
    scores: ScoreMatrix | None = None
    exact_weighted_mean: object = None
    loglik_fn: object = None
    acceptance_rate: float | None = None
    covariates: np.ndarray | None = None

    @property
    def n_obs(self) -> int:
        return self.loglik.n_obs

    @property
    def n_draws(self) -> int:
        return self.loglik.n_draws

    def default_stats(self) -> StatMatrix:
        """The model parameters themselves as target statistics."""
        return StatMatrix(values=self.draws, names=self.param_names)

    def loglik_gap(self) -> float:
        """Max abs difference between stored and recomputed log-likelihoods."""
        if self.loglik_fn is None:
            raise InvalidInput(f"model {self.model!r} cannot recompute log-likelihoods")
        fresh = self.loglik_fn(self.draws, self.data)
        return float(np.max(np.abs(fresh - self.loglik.values)))


# ---------------------------------------------------------------------------
# adaptive random-walk Metropolis
# ---------------------------------------------------------------------------


def _adaptive_rwm(logpost, x0, k, mcmc: McmcConfig, seed: int):
    """Adaptive random-walk Metropolis; returns merged draws (chain-major).

    Proposal: x + scale * spread * N(0, I), with ``spread`` a running
    per-coordinate standard-deviation estimate and ``scale`` adapted by
    Robbins-Monro towards the target acceptance during burn-in.  Both
    are frozen after burn-in so the retained chain is a proper
    Metropolis chain.  The chains advance together: ``logpost`` maps a
    (chains x k) array to one log density per chain, and chain c draws
    from its own stream ``_stream(seed, c + 1)`` of the model's seed, so
    each chain is the one it would be if run alone.  Warns (non-fatally)
    when the post-adaptation acceptance rate leaves [0.1, 0.6].
    """
    keep = mcmc.iters - mcmc.burn_in
    rngs = [_stream(seed, chain + 1) for chain in range(mcmc.chains)]
    all_draws = np.empty((mcmc.chains, keep, k))
    x = np.array(x0, dtype=float) + 0.01 * np.array([rng.standard_normal(k) for rng in rngs])
    lp = logpost(x)
    log_scale = np.full(mcmc.chains, np.log(mcmc.step_size))
    mean_est = x.copy()
    var_est = np.ones((mcmc.chains, k))
    accept_counts = 0

    for t in range(mcmc.iters):
        adapting = t < mcmc.burn_in
        # per chain: the proposal's normals, then the accept uniform
        z, u = zip(*((rng.standard_normal(k), rng.random()) for rng in rngs))
        prop = x + np.exp(log_scale)[:, None] * np.sqrt(var_est) * np.array(z)
        lp_prop = logpost(prop)
        log_alpha = lp_prop - lp
        accept = np.log(u) < log_alpha  # a nan ratio rejects
        x = np.where(accept[:, None], prop, x)
        lp = np.where(accept, lp_prop, lp)
        if adapting:
            # fmin counts a nan ratio as alpha = 1
            alpha = np.exp(np.fmin(log_alpha, 0.0))
            log_scale += (alpha - mcmc.target_acceptance) / (t + 1) ** 0.6
            delta = x - mean_est
            mean_est += delta / (t + 2)
            var_est += (delta * (x - mean_est) - var_est) / (t + 2)
            var_est = np.maximum(var_est, 1e-12)
        else:
            accept_counts += int(accept.sum())
            all_draws[:, t - mcmc.burn_in] = x

    rate = accept_counts / (mcmc.chains * keep)
    if not 0.1 <= rate <= 0.6:
        warnings.warn(
            f"post-adaptation acceptance rate {rate:.3f} outside [0.1, 0.6]",
            ConvergenceWarning,
            stacklevel=3,
        )
    return all_draws.reshape(mcmc.chains * keep, k), rate


# ---------------------------------------------------------------------------
# model runners
# ---------------------------------------------------------------------------


def _run_normal_mean(config: NormalMeanConfig) -> ModelBundle:
    rng = _stream(config.seed)
    x = config.mu + config.sigma * rng.standard_normal(config.n)
    xbar = x.mean()
    sig2 = config.sigma**2
    draws = xbar + np.sqrt(sig2 / config.n) * rng.standard_normal(config.m_draws)
    draws = draws.reshape(-1, 1)

    def loglik_fn(draws_, data_):
        theta = np.asarray(draws_, dtype=float).reshape(-1, 1)
        return -0.5 * np.log(2 * np.pi * sig2) - (data_[None, :] - theta) ** 2 / (
            2 * sig2
        )

    loglik = LogLikMatrix(values=_frozen(loglik_fn(draws, x)))
    scores = ScoreMatrix(
        values=((x - xbar) / sig2).reshape(-1, 1), hessian_sum=np.array([[1.0 / sig2]])
    )

    def exact_mean(w: np.ndarray, stat: str = "theta_mean") -> float:
        if stat not in ("theta_mean",):
            raise InvalidInput(f"no exact weighted mean for statistic {stat!r}")
        total = w.sum()
        if total <= 0:
            raise InvalidInput("total weight must be positive")
        return float((w * x).sum() / total)

    return ModelBundle(
        model="normal_mean",
        data=x,
        draws=draws,
        loglik=loglik,
        logprior=LogPriorVector(values=np.zeros(config.m_draws)),
        theta_hat=np.array([xbar]),
        param_names=("theta",),
        scores=scores,
        exact_weighted_mean=exact_mean,
        loglik_fn=loglik_fn,
    )


def _run_beta_binomial(config: BetaBinomialConfig) -> ModelBundle:
    from scipy.special import betaln

    rng = _stream(config.seed)
    n, N = config.n, config.N
    if config.rho > 0:
        a = config.q0 * (1 - config.rho) / config.rho
        b = (1 - config.q0) * (1 - config.rho) / config.rho
        p = rng.beta(a, b, size=n)
        x = rng.binomial(N, p)
    else:
        x = rng.binomial(N, config.q0, size=n)

    lam = config.prior_weight
    if lam > 0:
        # scaled prior on a uniform base: Beta(alpha, beta) density to the
        # power n * lam stays conjugate
        a_prior = 1.0 + n * lam * (config.alpha - 1.0)
        b_prior = 1.0 + n * lam * (config.beta - 1.0)
    else:
        a_prior = config.alpha
        b_prior = config.beta
    if a_prior <= 0 or b_prior <= 0:
        raise InvalidInput("scaled prior is improper: effective Beta parameters <= 0")
    a_post = a_prior + x.sum()
    b_post = b_prior + (N * n - x.sum())
    q = rng.beta(a_post, b_post, size=config.m_draws)

    def loglik_fn(draws_, data_):
        return _binom_loglik(data_, N, np.asarray(draws_).ravel())

    draws = q.reshape(-1, 1)
    loglik = LogLikMatrix(values=_frozen(loglik_fn(draws, x)))

    base = (config.alpha - 1.0) * np.log(q) + (config.beta - 1.0) * np.log1p(-q)
    base = base - betaln(config.alpha, config.beta)
    logprior = LogPriorVector(values=(n * lam * base) if lam > 0 else base)

    # point estimate: MLE for the unscaled case, MAP of the scaled prior else
    if lam > 0:
        q_hat = (x.sum() + n * lam * (config.alpha - 1.0)) / (
            n * N + n * lam * (config.alpha + config.beta - 2.0)
        )
    else:
        q_hat = x.sum() / (n * N)

    scores = None
    if 0.0 < q_hat < 1.0:
        s = x / q_hat - (N - x) / (1 - q_hat)
        hess = np.mean(x / q_hat**2 + (N - x) / (1 - q_hat) ** 2)
        scores = ScoreMatrix(values=s.reshape(-1, 1), hessian_sum=np.array([[hess]]))

    def exact_mean(w: np.ndarray, stat: str = "q_mean") -> float:
        if stat not in ("q_mean",):
            raise InvalidInput(f"no exact weighted mean for statistic {stat!r}")
        num = a_prior + float((w * x).sum())
        den = a_prior + b_prior + float((w * N).sum())
        return num / den

    return ModelBundle(
        model="beta_binomial",
        data=x,
        draws=draws,
        loglik=loglik,
        logprior=logprior,
        theta_hat=np.array([q_hat]),
        param_names=("q",),
        scores=scores,
        exact_weighted_mean=exact_mean,
        loglik_fn=loglik_fn,
    )


def _weibull_mle(x: np.ndarray):
    """Shape/scale MLE via the standard profile fixed-point equation."""
    t = np.log(x)
    t_max = t.max()

    def profile(gamma):
        w = np.exp(gamma * (t - t_max))
        return (t * w).sum() / w.sum() - 1.0 / gamma - t.mean()

    lo, hi = 1e-3, 10.0
    while profile(hi) < 0 and hi < 1e6:
        hi *= 2.0
    if profile(lo) > 0 or profile(hi) < 0:
        raise NumericalFailure(f"Weibull shape MLE is not in [{lo:g}, {hi:g}]")
    # bisection (the profile increases in gamma) to brentq's tolerance
    while hi - lo > 1e-12 + 4 * np.spacing(hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if profile(mid) < 0 else (lo, mid)
    gamma_hat = 0.5 * (lo + hi)
    lam_hat = float(np.exp(t_max) * (np.mean(np.exp(gamma_hat * (t - t_max)))) ** (1.0 / gamma_hat))
    return float(gamma_hat), lam_hat


def _weibull_scores(x, gamma, lam):
    t = np.log(x / lam)
    s = (x / lam) ** gamma
    d_gamma = 1.0 / gamma + t - s * t
    d_lam = (gamma / lam) * (s - 1.0)
    scores = np.column_stack([d_gamma, d_lam])
    h_gg = -1.0 / gamma**2 - s * t**2
    h_gl = (-1.0 + s * (gamma * t + 1.0)) / lam
    h_ll = (gamma / lam**2) * (1.0 - s - gamma * s)
    hess = -np.array(
        [
            [h_gg.mean(), h_gl.mean()],
            [h_gl.mean(), h_ll.mean()],
        ]
    )
    return scores, hess


def _run_weibull(config: WeibullConfig) -> ModelBundle:
    rng = _stream(config.seed)
    x = config.lam * rng.weibull(config.gamma, size=config.n)
    x = np.maximum(x, 1e-12)

    def loglik_fn(draws_, data_):
        draws_ = np.asarray(draws_, dtype=float)
        return weibull_logpdf(data_, draws_[:, :1], draws_[:, 1:])

    def logpost(u):
        # flat improper prior on the original scale: the Jacobian of the
        # log reparameterization is the only prior term
        return loglik_fn(np.exp(u), x).sum(axis=1) + u[:, 0] + u[:, 1]

    gamma_hat, lam_hat = _weibull_mle(x)
    u0 = np.log([gamma_hat, lam_hat])
    u_draws, rate = _adaptive_rwm(logpost, u0, 2, config.mcmc, config.seed)
    draws = np.exp(u_draws)
    loglik = LogLikMatrix(values=_frozen(loglik_fn(draws, x)))
    logprior = LogPriorVector(values=u_draws[:, 0] + u_draws[:, 1])
    s_vals, hess = _weibull_scores(x, gamma_hat, lam_hat)

    return ModelBundle(
        model="weibull",
        data=x,
        draws=draws,
        loglik=loglik,
        logprior=logprior,
        theta_hat=np.array([gamma_hat, lam_hat]),
        param_names=("gamma", "lambda"),
        scores=ScoreMatrix(values=s_vals, hessian_sum=hess),
        loglik_fn=loglik_fn,
        acceptance_rate=rate,
    )


def _design_matrix(z: np.ndarray, degree: int) -> np.ndarray:
    return np.vander(z, degree + 1, increasing=True)


def _student_logpdf(resid, sigma, df):
    from scipy.special import gammaln

    r = resid / sigma
    return (
        gammaln((df + 1) / 2)
        - gammaln(df / 2)
        - 0.5 * np.log(df * np.pi)
        - np.log(sigma)
        - ((df + 1) / 2) * np.log1p(r**2 / df)
    )


def _run_regression(config: RegressionConfig) -> ModelBundle:
    rng = _stream(config.seed)
    n = config.n
    z = np.linspace(-1.0, 1.0, n)
    x = np.sin(np.pi * z) + config.sigma_true * rng.standard_t(4, size=n)
    design = _design_matrix(z, config.degree)
    k_beta = config.degree + 1
    beta_ols, *_ = np.linalg.lstsq(design, x, rcond=None)
    resid = x - design @ beta_ols
    sigma_mle = float(np.sqrt(np.mean(resid**2)))

    estimate_sigma = config.likelihood != "normal_known_sigma"
    k = k_beta + (1 if estimate_sigma else 0)
    names = tuple(f"beta_{j}" for j in range(k_beta)) + (
        ("sigma",) if estimate_sigma else ()
    )

    def loglik_fn(draws_, data_):
        draws_ = np.asarray(draws_, dtype=float)
        resid = data_ - draws_[:, :k_beta] @ design.T
        sigma = draws_[:, k_beta:] if estimate_sigma else config.sigma_lik
        if config.likelihood == "student_t":
            return _student_logpdf(resid, sigma, config.student_df)
        return -0.5 * np.log(2 * np.pi * sigma**2) - resid**2 / (2 * sigma**2)

    def natural_scale(u):
        """Draws and log prior at sampler states u, whose sigma coordinate
        is log sigma: a flat prior on sigma >= 0 gives that Jacobian term."""
        if not estimate_sigma:
            return u, np.zeros(len(u))
        return np.column_stack([u[:, :k_beta], np.exp(u[:, k_beta])]), u[:, k_beta]

    def logpost(u):
        draws_, log_jacobian = natural_scale(u)
        return loglik_fn(draws_, x).sum(axis=1) + log_jacobian

    if estimate_sigma:
        u0 = np.concatenate([beta_ols, [np.log(max(sigma_mle, 1e-3))]])
    else:
        u0 = beta_ols
    u_draws, rate = _adaptive_rwm(logpost, u0, k, config.mcmc, config.seed)
    draws, log_jacobian = natural_scale(u_draws)
    logprior = LogPriorVector(values=log_jacobian)
    loglik = LogLikMatrix(values=_frozen(loglik_fn(draws, x)))

    if config.likelihood == "normal_known_sigma":
        theta_hat = beta_ols
        resid_hat = x - design @ beta_ols
        s_vals = design * (resid_hat / config.sigma_lik**2)[:, None]
        hess = (design.T @ design) / (n * config.sigma_lik**2)
        scores = ScoreMatrix(values=s_vals, hessian_sum=hess)
    elif config.likelihood == "normal_est_sigma":
        theta_hat = np.concatenate([beta_ols, [sigma_mle]])
        r = resid / sigma_mle
        s_beta = design * (resid / sigma_mle**2)[:, None]
        s_logsig = (r**2 - 1.0).reshape(-1, 1)
        s_vals = np.column_stack([s_beta, s_logsig])
        h_bb = (design.T @ design) / sigma_mle**2
        h_bs = 2.0 * (design * (r / sigma_mle)[:, None]).sum(axis=0)
        h_ss = 2.0 * np.sum(r**2)
        hess = np.zeros((k, k))
        hess[:k_beta, :k_beta] = h_bb
        hess[:k_beta, k_beta] = h_bs
        hess[k_beta, :k_beta] = h_bs
        hess[k_beta, k_beta] = h_ss
        scores = ScoreMatrix(values=s_vals, hessian_sum=hess / n)
    else:
        theta_hat = np.concatenate([beta_ols, [sigma_mle]])
        scores = None

    return ModelBundle(
        model="regression",
        data=x,
        draws=draws,
        loglik=loglik,
        logprior=logprior,
        theta_hat=theta_hat,
        param_names=names,
        scores=scores,
        loglik_fn=loglik_fn,
        acceptance_rate=rate,
        covariates=z,
    )


def run_model(config) -> ModelBundle:
    """Generate data, sample the posterior, and assemble the bundle."""
    if isinstance(config, NormalMeanConfig):
        return _run_normal_mean(config)
    if isinstance(config, BetaBinomialConfig):
        return _run_beta_binomial(config)
    if isinstance(config, WeibullConfig):
        return _run_weibull(config)
    if isinstance(config, RegressionConfig):
        return _run_regression(config)
    raise InvalidInput(f"unknown model configuration {type(config).__name__}")


# ---------------------------------------------------------------------------
# oracles and demo statistics
# ---------------------------------------------------------------------------


def exact_weighted_mean(bundle: ModelBundle, w, stat: str) -> float:
    """Exact posterior mean of ``stat`` under the observation weights ``w``,
    a 1-D array of n_obs finite entries (w = 1 is the unperturbed posterior;
    conjugate models only)."""
    if bundle.exact_weighted_mean is None:
        raise InvalidInput(f"model {bundle.model!r} has no exact reweighted posterior")
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InvalidInput(f"weight vector must be 1-D, got {w.ndim}-D")
    _require_finite(w, "weight vector")
    if w.shape[0] != bundle.n_obs:
        raise InvalidInput(
            f"weight vector has {w.shape[0]} entries, model has {bundle.n_obs}"
        )
    return bundle.exact_weighted_mean(w, stat)


def predictive_tail_stat(bundle: ModelBundle, threshold: float) -> np.ndarray:
    """Draw-wise survival probability past a threshold (Weibull bundles).

    Returns exp(-(threshold/lambda)^gamma) per draw, suitable as a
    statistic column for the tail-probability estimator.
    """
    if bundle.model != "weibull":
        raise InvalidInput("predictive tail statistic requires a Weibull bundle")
    if threshold < 0:
        raise InvalidInput("threshold must be nonnegative")
    gamma = bundle.draws[:, 0]
    lam = bundle.draws[:, 1]
    return np.exp(-((threshold / lam) ** gamma))


def curve_stats(bundle: ModelBundle, grid) -> StatMatrix:
    """Posterior draws of the fitted polynomial evaluated on a grid."""
    if bundle.model != "regression":
        raise InvalidInput("curve statistics require a regression bundle")
    grid = np.asarray(grid, dtype=float)
    k_beta = sum(1 for name in bundle.param_names if name.startswith("beta_"))
    design = _design_matrix(grid, k_beta - 1)
    values = bundle.draws[:, :k_beta] @ design.T
    return StatMatrix(
        values=values, names=tuple(f"curve_at_{g:g}" for g in grid)
    )


def merge_shift_experiment(bundle: ModelBundle, from_i: int, into_j: int, grid=None):
    """First-order effect of merging one observation into another.

    Merging means removing observation ``from_i`` while doubling the
    weight of ``into_j``; the predicted change of each statistic is the
    difference of its weight sensitivities.  For regression bundles the
    statistics are the fitted-curve values on ``grid``; otherwise the
    model parameters.
    """
    n = bundle.n_obs
    if not (0 <= from_i < n and 0 <= into_j < n):
        raise InvalidInput(f"indices must be in [0, {n})")
    if bundle.model == "regression":
        if grid is None:
            grid = bundle.covariates
        stats = curve_stats(bundle, grid)
    else:
        stats = bundle.default_stats()
    from .freq_eval import sensitivity_first

    sens = sensitivity_first(stats, bundle.loglik)
    return sens[:, into_j] - sens[:, from_i]
