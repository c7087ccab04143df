"""Toy-model densities, samplers, and conjugate oracles."""

import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betaln, gammaln

from wkernel import cli, models
from wkernel.core import LogPriorVector, _stream
from wkernel.errors import ConvergenceWarning, InvalidInput, NumericalFailure
from wkernel.models import (
    BetaBinomialConfig,
    McmcConfig,
    ModelBundle,
    NormalMeanConfig,
    RegressionConfig,
    WeibullConfig,
    _adaptive_rwm,
    _log_beta,
    _log_binom,
    _weibull_mle,
    betabinom_logpmf,
    curve_stats,
    exact_weighted_mean,
    merge_shift_experiment,
    predictive_tail_stat,
    run_model,
    weibull_logpdf,
)
from wkernel.core import LogLikMatrix


class TestWeibullDensity:
    def test_exponential_special_case(self):
        assert weibull_logpdf(1.0, 1.0, 1.0) == pytest.approx(-1.0)

    def test_hand_value(self):
        # log 4 - 4 at shape 2, scale 1, x = 2
        assert weibull_logpdf(2.0, 2.0, 1.0) == pytest.approx(np.log(4.0) - 4.0)

    def test_normalization_by_quadrature(self):
        for gamma, lam in [(0.8, 1.3), (2.0, 50.0), (3.5, 0.7)]:
            total, _ = quad(
                lambda x: np.exp(weibull_logpdf(x, gamma, lam)), 0, np.inf
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_validation(self):
        with pytest.raises(InvalidInput):
            weibull_logpdf(-1.0, 2.0, 1.0)
        with pytest.raises(InvalidInput):
            weibull_logpdf(1.0, -2.0, 1.0)
        for args in [(np.nan, 2.0, 1.0), (1.0, np.nan, 1.0), (1.0, 2.0, np.nan)]:
            with pytest.raises(InvalidInput):
                weibull_logpdf(*args)

    def test_array_parameters_equal_per_draw_calls(self):
        rng = np.random.default_rng(0)
        x = np.append(rng.weibull(1.7, size=40) * 3.0, 0.0)
        gamma = np.append(rng.uniform(0.3, 4.0, size=24), 1.0).reshape(-1, 1)
        lam = rng.uniform(0.5, 6.0, size=25).reshape(-1, 1)
        matrix = weibull_logpdf(x, gamma, lam)
        assert matrix.shape == (25, 41)
        rows = [weibull_logpdf(x, g, l) for g, l in zip(gamma.ravel(), lam.ravel())]
        np.testing.assert_array_equal(matrix, np.array(rows))

    def test_unit_shape_at_zero_is_minus_log_scale(self):
        lam = np.array([[0.5], [2.0], [37.0]])
        out = weibull_logpdf(0.0, np.ones((3, 1)), lam)
        np.testing.assert_allclose(out, -np.log(lam), rtol=1e-15)
        assert weibull_logpdf(0.0, 1.0, 2.0) == pytest.approx(-np.log(2.0), rel=1e-15)
        assert isinstance(weibull_logpdf(0.0, 1.0, 2.0), float)

    @staticmethod
    def three_temporary_logpdf(x, gamma, lam):
        """Reference: the density as one broadcast expression, with the
        power term, its sum and its difference each a new array."""
        gamma, lam, x = (np.asarray(a, dtype=float) for a in (gamma, lam, x))
        ratio = x / lam
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            power_term = np.where(gamma == 1.0, 0.0, (gamma - 1.0) * np.log(ratio))
            out = np.log(gamma / lam) + power_term - ratio**gamma
        return out if out.ndim else float(out)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        gamma=st.lists(st.floats(0.05, 30.0), min_size=0, max_size=10),
        lam=st.lists(st.floats(1e-3, 1e3), min_size=13, max_size=13),
        x=st.lists(st.floats(0.0, 1e4), min_size=0, max_size=30),
        scalar_gamma=st.sampled_from([0.5, 1.0, 2.0, 3.7, 1500.0]),
    )
    def test_in_place_density_is_the_broadcast_expression(
        self, gamma, lam, x, scalar_gamma
    ):
        # (M, 1) draws with a unit shape and one large enough that
        # ratio**gamma overflows, against data holding 0
        g = np.array([1.0, 1500.0, *gamma]).reshape(-1, 1)
        l = np.array(lam[: len(g)]).reshape(-1, 1)
        xs = np.array([0.0, 1e4, *x])
        out = weibull_logpdf(xs, g, l)
        ref = self.three_temporary_logpdf(xs, g, l)
        assert out.shape == ref.shape == (len(g), len(xs))
        assert out.tobytes() == ref.tobytes()
        assert np.isneginf(out[1, 1]) and np.isfinite(out[0, 0])
        for xi in xs[:3]:
            value = weibull_logpdf(float(xi), scalar_gamma, lam[0])
            assert isinstance(value, float)
            assert value == self.three_temporary_logpdf(float(xi), scalar_gamma, lam[0])

    def test_holds_two_results(self):
        rng = np.random.default_rng(5)
        x = rng.weibull(2.0, size=59) * 50.0
        gamma = rng.uniform(0.5, 4.0, size=(4000, 1))
        lam = rng.uniform(20.0, 80.0, size=(4000, 1))
        tracemalloc.start()
        try:
            out = weibull_logpdf(x, gamma, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * out.nbytes

    def test_non_positive_array_entry_rejected(self):
        for gamma, lam in [
            ([[2.0], [0.0]], 1.0),
            (2.0, [[1.0], [-1.0]]),
            ([[2.0], [np.nan]], 1.0),
            (2.0, [[np.nan], [1.0]]),
        ]:
            with pytest.raises(InvalidInput, match="must be positive"):
                weibull_logpdf(np.ones(3), gamma, lam)


class TestWeibullMle:
    @staticmethod
    def brentq_mle(x):
        """The shape MLE by scipy's brentq on the same profile and bracket."""
        t = np.log(x)
        w_t = lambda g: np.exp(g * (t - t.max()))
        profile = lambda g: (t * w_t(g)).sum() / w_t(g).sum() - 1.0 / g - t.mean()
        hi = 10.0
        while profile(hi) < 0 and hi < 1e6:
            hi *= 2.0
        return brentq(profile, 1e-3, hi, xtol=1e-12)

    def test_matches_brentq(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            gamma = 10 ** rng.uniform(-0.5, 2.5)
            x = rng.uniform(0.1, 100.0) * rng.weibull(gamma, size=rng.integers(3, 200))
            x = np.maximum(x, 1e-12)
            gamma_hat, _ = _weibull_mle(x)
            assert gamma_hat == pytest.approx(self.brentq_mle(x), rel=1e-10)

    def test_large_shape_converges(self):
        x = 50.0 * _stream(2).weibull(1e4, size=59)
        assert _weibull_mle(x)[0] == pytest.approx(self.brentq_mle(x), rel=1e-10)

    def test_root_outside_bracket_is_numerical_failure(self):
        x = 50.0 * _stream(2).weibull(5e6, size=59)
        with pytest.raises(NumericalFailure, match=r"not in \[0.001, 1.31072e\+06\]"):
            _weibull_mle(x)


# A child process in which scipy cannot be imported: it runs the script
# named by its first argument as __main__, with the rest as its arguments.
_WITHOUT_SCIPY = """
import importlib.abc, runpy, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoScipy())
try:
    import scipy.special
except ModuleNotFoundError:
    pass
else:
    sys.exit("scipy was imported past the blocker")
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_no_command_needs_scipy(tmp_path):
    """Each golden case exits 0 without scipy and writes the bytes its
    manifest records, which test_golden checks with scipy importable; the
    cases run every command and every demo model."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    argvs = [entry["argv"] for entry in manifest.values()]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    assert {argv[1] for argv in argvs if argv[0] == "demo"} == set(cli._DEMO)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(here), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, os.path.join(here, "golden", "run_golden.py"),
         str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {case: entry["files"] for case, entry in manifest.items()}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    test_extra = project["optional-dependencies"]["test"]
    assert "scipy" in [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in test_extra]


def _per_chain_rwm(logpost, x0, k, mcmc, seed):
    """Reference: the sampler as it was before the chains moved in lockstep,
    one chain after another with a scalar log density."""
    keep = mcmc.iters - mcmc.burn_in
    all_draws = np.empty((mcmc.chains, keep, k))
    accept_counts = 0
    for chain in range(mcmc.chains):
        rng = _stream(seed, chain + 1)
        x = np.array(x0, dtype=float) + 0.01 * rng.standard_normal(k)
        lp = logpost(x)
        log_scale = np.log(mcmc.step_size)
        mean_est = x.copy()
        var_est = np.ones(k)
        accepted_after = 0
        for t in range(mcmc.iters):
            adapting = t < mcmc.burn_in
            spread = np.sqrt(var_est)
            prop = x + np.exp(log_scale) * spread * rng.standard_normal(k)
            lp_prop = logpost(prop)
            log_alpha = lp_prop - lp
            if np.log(rng.random()) < log_alpha:
                x = prop
                lp = lp_prop
                if not adapting:
                    accepted_after += 1
            if adapting:
                alpha = min(1.0, np.exp(min(log_alpha, 0.0)))
                log_scale += (alpha - mcmc.target_acceptance) / (t + 1) ** 0.6
                delta = x - mean_est
                mean_est += delta / (t + 2)
                var_est += (delta * (x - mean_est) - var_est) / (t + 2)
                var_est = np.maximum(var_est, 1e-12)
            else:
                all_draws[chain, t - mcmc.burn_in] = x
        accept_counts += accepted_after
    return all_draws.reshape(mcmc.chains * keep, k), accept_counts / (mcmc.chains * keep)


def _gaussian_target(u):
    """Correlated Gaussian log density, one value per row."""
    return -0.5 * (u[:, 0] ** 2 + (u[:, 1] - 0.8 * u[:, 0]) ** 2 / 0.1 + u[:, 2] ** 2 / 9.0)


def _holed_target(u):
    """A Gaussian log density that is nan on a slab of the space."""
    return np.where(np.abs(u[:, 1] - 0.5) < 0.3, np.nan, _gaussian_target(u))


class TestLockstepSampler:
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("target", [_gaussian_target, _holed_target])
    def test_equals_per_chain_reference(self, chains, target):
        mcmc = McmcConfig(chains=chains, iters=600, burn_in=200)
        x0 = np.array([0.2, -0.1, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            draws, rate = _adaptive_rwm(target, x0, 3, mcmc, 5)
        ref_draws, ref_rate = _per_chain_rwm(lambda u: target(u[None, :])[0], x0, 3, mcmc, 5)
        np.testing.assert_array_equal(draws, ref_draws)
        assert rate == ref_rate


class TestBetaBinomialDensity:
    def test_small_overdispersion_matches_binomial(self):
        from scipy.stats import binom

        x = np.arange(6)
        bb = np.exp(betabinom_logpmf(x, 5, 0.25, 1e-6))
        bn = binom.pmf(x, 5, 0.25)
        np.testing.assert_allclose(bb, bn, atol=1e-4)

    def test_normalization(self):
        x = np.arange(6)
        total = np.exp(betabinom_logpmf(x, 5, 0.25, 0.65)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_is_nq0(self):
        x = np.arange(6)
        pmf = np.exp(betabinom_logpmf(x, 5, 0.25, 0.65))
        assert (x * pmf).sum() == pytest.approx(5 * 0.25, abs=1e-8)

    def test_domain_validation(self):
        for args, message in [
            ((2, 5, 0.25, 1.5), "rho must be in (0, 1), got 1.5"),
            ((2, 5, 0.25, np.nan), "rho must be in (0, 1), got nan"),
            ((2, 5, 0.0, 0.65), "q0 must be in (0, 1), got 0.0"),
            ((2, 0, 0.25, 0.65), "N must be a positive integer, got 0"),
            ((2, 5.0, 0.25, 0.65), "N must be a positive integer, got 5.0"),
            ((2.0, 5, 0.25, 0.65), "x must be of an integer dtype, got float64"),
            ((6, 5, 0.25, 0.65), "x must be in [0, 5], got [6]"),
            (([7, 2, -1, 7], 5, 0.25, 0.65), "x must be in [0, 5], got [-1  7]"),
        ]:
            with pytest.raises(InvalidInput) as info:
                betabinom_logpmf(*args)
            assert str(info.value) == message


class TestLogGammaHelpers:
    """The stdlib log-gamma helpers against scipy.special, at the arguments
    the models give them.  math.lgamma is good to about one ulp of
    max(|value|, 1): relative far from its roots at 1 and 2, absolute near
    them.  The log binomial coefficient and log-beta add up three
    log-gammas, so their error scales with those terms, not with the
    (possibly much smaller) result.  Each value is held to 8 ulps of the
    sum of its terms' max(|term|, 1)."""

    @staticmethod
    def tolerance(*terms):
        return 8 * np.finfo(float).eps * sum(np.maximum(np.abs(t), 1.0) for t in terms)

    @pytest.mark.parametrize("N", [1, 5, 7, 60, 1000])
    def test_log_gamma_of_counts_and_log_binomial(self, N):
        counts = np.arange(1, N + 2)
        lg = np.array([math.lgamma(k) for k in counts])
        assert np.all(np.abs(lg - gammaln(counts)) <= self.tolerance(gammaln(counts)))
        x = np.arange(N + 1)
        terms = gammaln(N + 1), gammaln(x + 1), gammaln(N - x + 1)
        expected = terms[0] - terms[1] - terms[2]
        assert np.all(np.abs(_log_binom(N, x) - expected) <= self.tolerance(*terms))

    @pytest.mark.parametrize("df", [0.5, 1.0, 4.0, 5.0, 30.0, 1e6])
    def test_log_gamma_of_student_halves(self, df):
        for arg in ((df + 1) / 2, df / 2):
            assert abs(math.lgamma(arg) - gammaln(arg)) <= self.tolerance(gammaln(arg))

    @pytest.mark.parametrize("q0", [0.05, 0.25, 0.5, 0.95])
    def test_log_beta_over_rho(self, q0):
        N = 5
        for rho in np.geomspace(1e-6, 0.99, 40):
            a = q0 * (1.0 - rho) / rho
            b = (1.0 - q0) * (1.0 - rho) / rho
            # the mixing Beta's parameters, and those betabinom_logpmf shifts by a count
            for p, q in [(a, b)] + [(k + a, N - k + b) for k in range(N + 1)]:
                tol = self.tolerance(gammaln(p), gammaln(q), gammaln(p + q))
                assert abs(_log_beta(p, q) - betaln(p, q)) <= tol, (q0, rho, p, q)

    def test_log_beta_of_the_uniform_prior(self):
        assert _log_beta(1.0, 1.0) == betaln(1.0, 1.0) == 0.0

    def test_large_N_costs_lgamma_per_distinct_count(self, monkeypatch):
        """N = 10^9 with n = 20: a table over every count 0..N would make
        10^9 lgamma calls, so the budget stops it at once."""
        calls = 0

        def lgamma(v):
            nonlocal calls
            calls += 1
            assert calls <= 200, "lgamma called once per possible count"
            return math.lgamma(v)

        monkeypatch.setattr(models, "math", types.SimpleNamespace(lgamma=lgamma))
        N = 10**9
        bundle = run_model(BetaBinomialConfig(N=N, n=20, m_draws=10))
        x = bundle.data
        distinct = np.unique(x).size
        # log C(N, k) per distinct k, plus the prior's log-beta
        assert calls == 1 + 2 * distinct + 3
        assert bundle.loglik_gap() == 0.0
        calls = 0
        betabinom_logpmf(x, N, 0.25, 0.65)
        assert calls == (1 + 2 * distinct) + 3 * distinct + 3
        terms = gammaln(N + 1), gammaln(x + 1), gammaln(N - x + 1)
        expected = terms[0] - terms[1] - terms[2]
        assert np.all(np.abs(_log_binom(N, x) - expected) <= self.tolerance(*terms))


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, None])
    @pytest.mark.parametrize(
        "cls",
        [NormalMeanConfig, BetaBinomialConfig, WeibullConfig, RegressionConfig],
    )
    def test_seed_philox_refuses_is_refused_at_construction(self, cls, seed):
        with pytest.raises(InvalidInput, match=r"seed must be an integer in \[0, 2\^128\)"):
            cls(seed=seed)

    def test_largest_seed_runs(self):
        seed = 2**128 - 1
        bundle = run_model(NormalMeanConfig(n=5, m_draws=10, seed=seed))
        assert bundle.n_draws == 10
        mcmc = McmcConfig(chains=1, iters=20, burn_in=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            assert run_model(WeibullConfig(mcmc=mcmc, seed=seed)).n_draws == 10


_CONFIGS = [McmcConfig, NormalMeanConfig, BetaBinomialConfig, WeibullConfig, RegressionConfig]


class TestConfigRanges:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (cls, f.name)
            for cls in _CONFIGS
            for f in dataclasses.fields(cls)
            if type(f.default) is float
        ],
    )
    def test_float_field_must_be_finite(self, cls, name, value):
        with pytest.raises(InvalidInput):
            cls(**{name: value})

    @pytest.mark.parametrize(
        "cls, name, value, message",
        [
            (McmcConfig, "chains", 0, "chains must be at least 1, got 0"),
            (McmcConfig, "iters", 1, "iters must be at least 2, got 1"),
            (McmcConfig, "burn_in", 4000, "burn_in must be in [0, iters = 4000), got 4000"),
            (McmcConfig, "burn_in", -1, "burn_in must be in [0, iters = 4000), got -1"),
            (McmcConfig, "step_size", 0.0, "step_size must be positive and finite, got 0.0"),
            (McmcConfig, "target_acceptance", 1.0, "target_acceptance must be in (0, 1), got 1.0"),
            (NormalMeanConfig, "sigma", np.inf, "sigma must be positive and finite, got inf"),
            (NormalMeanConfig, "n", 1, "n must be at least 2, got 1"),
            (NormalMeanConfig, "m_draws", 1, "m_draws must be at least 2, got 1"),
            (NormalMeanConfig, "mu", np.nan, "mu must be finite, got nan"),
            (BetaBinomialConfig, "q0", 1.5, "q0 must be in (0, 1), got 1.5"),
            (BetaBinomialConfig, "rho", 1.0, "rho must be in [0, 1), got 1.0"),
            (BetaBinomialConfig, "N", 0, "N must be at least 1, got 0"),
            (BetaBinomialConfig, "N", 5.0, "N must be an integer, got 5.0"),
            (BetaBinomialConfig, "n", 0, "n must be at least 1, got 0"),
            (BetaBinomialConfig, "m_draws", 1, "m_draws must be at least 2, got 1"),
            (BetaBinomialConfig, "alpha", 0.0, "alpha must be positive and finite, got 0.0"),
            (BetaBinomialConfig, "beta", np.inf, "beta must be positive and finite, got inf"),
            (BetaBinomialConfig, "prior_weight", -0.5, "prior_weight must be in [0, inf), got -0.5"),
            pytest.param(
                functools.partial(BetaBinomialConfig, prior_weight=1.0, n=20),
                "alpha",
                0.5,
                "alpha must be large enough that the scaled prior's Beta parameter "
                "1 + n * prior_weight * (alpha - 1) > 0, got 0.5, which gives -9",
                id="BetaBinomialConfig-alpha-improper-scaled-prior",
            ),
            (WeibullConfig, "gamma", np.nan, "gamma must be positive and finite, got nan"),
            (WeibullConfig, "lam", -1.0, "lam must be positive and finite, got -1.0"),
            (WeibullConfig, "n", 2, "n must be at least 3, got 2"),
            (RegressionConfig, "sigma_true", 0.0, "sigma_true must be positive and finite, got 0.0"),
            (RegressionConfig, "sigma_lik", np.nan, "sigma_lik must be positive and finite, got nan"),
            (RegressionConfig, "student_df", np.inf, "student_df must be positive and finite, got inf"),
            (
                RegressionConfig,
                "likelihood",
                "cauchy",
                "likelihood must be one of ('normal_known_sigma', 'normal_est_sigma', "
                "'student_t'), got cauchy",
            ),
            (RegressionConfig, "n", 4, "n must be at least degree + 2 = 5, got 4"),
        ],
    )
    def test_refusal_names_the_field_and_its_value(self, cls, name, value, message):
        with pytest.raises(InvalidInput) as info:
            cls(**{name: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_target_acceptance_inside_zero_one(self, value):
        with pytest.raises(InvalidInput, match=r"target_acceptance must be in \(0, 1\)"):
            McmcConfig(target_acceptance=value)


class TestRunModelConjugate:
    def test_betabinom_draw_mean_matches_posterior(self):
        cfg = BetaBinomialConfig(seed=5, m_draws=20000)
        bundle = run_model(cfg)
        x = bundle.data
        a = 1.0 + x.sum()
        b = 1.0 + cfg.n * cfg.N - x.sum()
        exact_mean = a / (a + b)
        exact_sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        mc_se = exact_sd / np.sqrt(cfg.m_draws)
        assert abs(bundle.draws.mean() - exact_mean) < 3 * mc_se

    def test_normal_mean_posterior_variance(self):
        cfg = NormalMeanConfig(n=100, m_draws=100000, seed=6)
        bundle = run_model(cfg)
        assert bundle.draws.var() == pytest.approx(1.0 / 100, rel=0.05)

    def test_scaled_prior_posterior(self):
        cfg = BetaBinomialConfig(
            seed=7, m_draws=20000, rho=0.0, alpha=2.0, beta=1.0, prior_weight=0.1
        )
        bundle = run_model(cfg)
        x = bundle.data
        n_lam = cfg.n * cfg.prior_weight
        a = 1.0 + n_lam * 1.0 + x.sum()
        b = 1.0 + x.size * cfg.N - x.sum()
        assert bundle.draws.mean() == pytest.approx(a / (a + b), abs=0.01)

    def test_loglik_recomputes(self):
        for cfg in (NormalMeanConfig(n=20, m_draws=50, seed=1), BetaBinomialConfig(seed=2, m_draws=50)):
            bundle = run_model(cfg)
            assert bundle.loglik_gap() <= 1e-10

    def test_betabinom_loglik_takes_float_counts(self):
        bundle = run_model(BetaBinomialConfig(seed=2, m_draws=50))
        fresh = bundle.loglik_fn(bundle.draws, bundle.data.astype(float))
        np.testing.assert_array_equal(fresh, bundle.loglik.values)


class TestRunModelMcmc:
    def test_weibull_recovers_shape(self):
        cfg = WeibullConfig(
            gamma=2.0,
            lam=50.0,
            n=200,
            seed=3,
            mcmc=McmcConfig(chains=2, iters=3000, burn_in=1000),
        )
        bundle = run_model(cfg)
        gamma_draws = bundle.draws[:, 0]
        assert abs(gamma_draws.mean() - 2.0) < 3 * gamma_draws.std()

    def test_weibull_deterministic_under_seed(self):
        cfg = WeibullConfig(seed=4, mcmc=McmcConfig(chains=2, iters=500, burn_in=200))
        a = run_model(cfg)
        b = run_model(cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.data, b.data)

    def test_weibull_loglik_recomputes(self, weibull_bundle):
        assert weibull_bundle.loglik_gap() <= 1e-10

    def test_regression_loglik_recomputes(self, regression_bundle):
        assert regression_bundle.loglik_gap() <= 1e-10

    def test_regression_acceptance_rate_reasonable(self, regression_bundle):
        assert 0.1 <= regression_bundle.acceptance_rate <= 0.6

    def test_student_t_regression_runs(self):
        cfg = RegressionConfig(
            likelihood="student_t",
            seed=5,
            mcmc=McmcConfig(chains=2, iters=2000, burn_in=800),
        )
        bundle = run_model(cfg)
        assert bundle.loglik_gap() <= 1e-10
        assert bundle.draws.shape[1] == 5  # four coefficients plus scale

    def test_frozen_bad_step_warns(self):
        cfg = WeibullConfig(
            seed=6,
            mcmc=McmcConfig(chains=1, iters=300, burn_in=1, step_size=200.0),
        )
        with pytest.warns(ConvergenceWarning):
            run_model(cfg)


class TestExactWeightedMean:
    def test_unit_weights_return_posterior_mean(self):
        cfg = BetaBinomialConfig(seed=8, m_draws=100)
        bundle = run_model(cfg)
        x = bundle.data
        a = 1.0 + x.sum()
        b = 1.0 + cfg.n * cfg.N - x.sum()
        w = np.ones(cfg.n)
        assert exact_weighted_mean(bundle, w, "q_mean") == pytest.approx(a / (a + b))

    def test_case_deletion(self):
        cfg = BetaBinomialConfig(seed=9, m_draws=100)
        bundle = run_model(cfg)
        x = bundle.data
        w = np.ones(cfg.n)
        w[3] = 0.0
        got = exact_weighted_mean(bundle, w, "q_mean")
        num = 1.0 + x.sum() - x[3]
        den = 2.0 + (cfg.n - 1) * cfg.N
        assert got == pytest.approx(num / den, rel=1e-12)

    def test_doubling_equals_duplication(self):
        cfg = BetaBinomialConfig(seed=10, m_draws=100)
        bundle = run_model(cfg)
        x = bundle.data
        w = np.ones(cfg.n)
        w[5] = 2.0
        got = exact_weighted_mean(bundle, w, "q_mean")
        a = 1.0 + x.sum() + x[5]
        b = 1.0 + (cfg.n + 1) * cfg.N - (x.sum() + x[5])
        assert got == pytest.approx(a / (a + b), rel=1e-12)

    @pytest.mark.parametrize("case", ["2-D", "nan", "inf", "length"])
    def test_bad_weights_are_refused(self, betabinom_bundle, case):
        n = betabinom_bundle.n_obs
        w, text = {
            "2-D": (np.ones((1, n)), rf"must have shape \({n},\), got \(1, {n}\)"),
            "nan": (np.r_[np.ones(n - 1), np.nan], "contains non-finite entries"),
            "inf": (np.r_[np.ones(n - 1), np.inf], "contains non-finite entries"),
            "length": (np.ones(n + 1), rf"must have shape \({n},\), got \({n + 1},\)"),
        }[case]
        with pytest.raises(InvalidInput, match=f"^weight vector {text}$"):
            exact_weighted_mean(betabinom_bundle, w, "q_mean")

    def test_unsupported_for_mcmc_models(self, weibull_bundle):
        w = np.ones(weibull_bundle.n_obs)
        with pytest.raises(InvalidInput, match="has no exact reweighted posterior"):
            exact_weighted_mean(weibull_bundle, w, "gamma")


class TestPredictiveTail:
    def test_threshold_zero_gives_one(self, weibull_bundle):
        vals = predictive_tail_stat(weibull_bundle, 0.0)
        np.testing.assert_allclose(vals, 1.0)

    def test_closed_form_survival(self):
        draws = np.array([[1.0, 1.0], [1.0, 1.0]])
        ll = LogLikMatrix(np.zeros((2, 2)))
        bundle = ModelBundle(
            model="weibull",
            data=np.array([1.0, 2.0]),
            draws=draws,
            loglik=ll,
            logprior=LogPriorVector(np.zeros(2)),
            theta_hat=np.array([1.0, 1.0]),
            param_names=("gamma", "lambda"),
        )
        vals = predictive_tail_stat(bundle, np.log(2.0))
        np.testing.assert_allclose(vals, 0.5, rtol=1e-12)

    def test_monotone_in_threshold(self, weibull_bundle):
        a = predictive_tail_stat(weibull_bundle, 30.0)
        b = predictive_tail_stat(weibull_bundle, 40.0)
        assert np.all(b <= a)

    def test_requires_weibull(self, betabinom_bundle):
        with pytest.raises(InvalidInput, match="requires a Weibull bundle"):
            predictive_tail_stat(betabinom_bundle, 40.0)


class TestMergeShift:
    def test_same_index_gives_zero(self, regression_bundle):
        grid = np.linspace(-1, 1, 7)
        shift = merge_shift_experiment(regression_bundle, 4, 4, grid)
        np.testing.assert_allclose(shift, 0.0, atol=1e-15)

    def test_antisymmetric(self, regression_bundle):
        grid = np.linspace(-1, 1, 7)
        ab = merge_shift_experiment(regression_bundle, 2, 9, grid)
        ba = merge_shift_experiment(regression_bundle, 9, 2, grid)
        np.testing.assert_allclose(ab, -ba, atol=1e-14)

    def test_normal_mean_matches_exact_reweighting(self):
        cfg = NormalMeanConfig(n=50, m_draws=100000, seed=11)
        bundle = run_model(cfg)
        x = bundle.data
        from_i = int(np.argmin(x))
        into_j = int(np.argmax(x))
        pred = merge_shift_experiment(bundle, from_i, into_j)[0]
        w = np.ones(50)
        w[from_i] = 0.0
        w[into_j] = 2.0
        exact = exact_weighted_mean(bundle, w, "theta_mean") - x.mean()
        assert pred == pytest.approx(exact, rel=0.10)

    def test_curve_stats_match_design(self, regression_bundle):
        grid = np.array([-0.5, 0.0, 0.5])
        stats = curve_stats(regression_bundle, grid)
        beta = regression_bundle.draws[0, :4]
        expect = beta[0] + beta[1] * grid + beta[2] * grid**2 + beta[3] * grid**3
        np.testing.assert_allclose(stats.values[0], expect, rtol=1e-12)

    def test_index_validation(self, regression_bundle):
        with pytest.raises(InvalidInput):
            merge_shift_experiment(regression_bundle, -1, 3)
