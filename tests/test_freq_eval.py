"""Sensitivity derivatives, frequentist covariance estimators, penalties.

The conjugate Beta posterior of the binomial model is the workhorse
oracle here: its reweighted posterior mean has a closed form, so finite
differences of that exact function check the covariance/cumulant
formulas independently of the sampling machinery.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import psi

from wkernel.core import (
    LogLikMatrix,
    LogPriorVector,
    StatMatrix,
    posterior_var,
)
from wkernel.errors import InvalidInput
from wkernel.freq_eval import (
    centering_diagnostic,
    freq_cov,
    kl_quadratic,
    penalties,
    sensitivity_first,
    sensitivity_second,
)
from wkernel.kernels import ScoreMatrix, build_info_matrices, build_w, center_loglik
from wkernel.models import BetaBinomialConfig, exact_weighted_mean, run_model
from wkernel.spectral import SpectralBasis, full_eigen


def leading(basis, a_m):
    """The leading ``a_m`` directions of ``basis``."""
    return SpectralBasis(basis.eigenvalues[:a_m], basis.vectors[:, :a_m])


def normal_mean_case(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    theta = x.mean() + rng.standard_normal(m) / np.sqrt(n)
    ll = -0.5 * np.log(2 * np.pi) - (x[None, :] - theta[:, None]) ** 2 / 2
    return x, StatMatrix(theta.reshape(-1, 1), names=("theta",)), LogLikMatrix(ll)


def betabinom_exact_weighted_mean(bundle):
    """Closed-form reweighted posterior mean of q, as a function of weights."""

    def f(w):
        return exact_weighted_mean(bundle, w, "q_mean")

    return f


class TestSensitivityFirst:
    def test_constant_statistic_gives_zero_row(self):
        rng = np.random.default_rng(1)
        ll = LogLikMatrix(rng.standard_normal((10, 4)))
        stats = StatMatrix(np.full((10, 1), 3.0))
        np.testing.assert_allclose(sensitivity_first(stats, ll), 0.0, atol=1e-15)

    def test_matches_exact_finite_difference(self, betabinom_bundle):
        bundle = betabinom_bundle
        stats = bundle.default_stats()
        grid = sensitivity_first(stats, bundle.loglik)[0]
        f = betabinom_exact_weighted_mean(bundle)
        n = bundle.n_obs
        h = 1e-4
        fd = np.empty(n)
        for i in range(n):
            up = np.ones(n)
            up[i] += h
            dn = np.ones(n)
            dn[i] -= h
            fd[i] = (f(up) - f(dn)) / (2 * h)
        assert np.linalg.norm(grid - fd) / np.linalg.norm(fd) < 0.02

    def test_row_sum_equals_total_covariance(self):
        x, stats, ll = normal_mean_case(100, 20000, seed=5)
        grid = sensitivity_first(stats, ll)[0]
        total = abs(grid.sum())
        scale = np.abs(grid).sum()
        # flat prior: covariance with the total log-likelihood is near zero
        assert total < 0.05 * scale

    def test_draw_count_mismatch(self):
        ll = LogLikMatrix(np.zeros((4, 2)))
        stats = StatMatrix(np.zeros((5, 1)))
        with pytest.raises(InvalidInput):
            sensitivity_first(stats, ll)

    def test_grid_is_read_only(self):
        rng = np.random.default_rng(4)
        ll = LogLikMatrix(rng.standard_normal((10, 4)))
        grid = sensitivity_first(StatMatrix(rng.standard_normal((10, 2))), ll)
        assert grid.shape == (2, 4) and not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0


class TestSensitivitySecond:
    def test_constant_function_zero_slice(self):
        rng = np.random.default_rng(2)
        stats = StatMatrix(rng.standard_normal((12, 2)))
        f = np.column_stack([np.full(12, 2.0), rng.standard_normal(12)])
        tensor = sensitivity_second(stats, f)
        np.testing.assert_allclose(tensor[:, 0, :], 0.0, atol=1e-14)
        np.testing.assert_allclose(tensor[:, :, 0], 0.0, atol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        stats = StatMatrix(rng.standard_normal((15, 2)))
        f = rng.standard_normal((15, 4))
        tensor = sensitivity_second(stats, f)
        assert tensor.shape == (2, 4, 4)
        assert np.array_equal(tensor, tensor.transpose(0, 2, 1))
        assert not tensor.flags.writeable
        with pytest.raises(ValueError):
            tensor[0, 0, 0] = 1.0

    def test_non_finite_functions_are_refused(self):
        stats = StatMatrix(np.arange(4.0))
        with pytest.raises(InvalidInput, match="function matrix contains non-finite"):
            sensitivity_second(stats, np.array([[0.0], [1.0], [np.nan], [2.0]]))

    def test_matches_exact_second_differences(self, betabinom_bundle):
        bundle = betabinom_bundle
        stats = bundle.default_stats()
        tensor = sensitivity_second(stats, bundle.loglik.values)[0]
        f = betabinom_exact_weighted_mean(bundle)
        n = bundle.n_obs
        h = 1e-3
        fd = np.empty((n, n))
        base = f(np.ones(n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    up = np.ones(n)
                    up[i] += h
                    dn = np.ones(n)
                    dn[i] -= h
                    fd[i, i] = (f(up) - 2 * base + f(dn)) / h**2
                else:
                    pp = np.ones(n)
                    pp[[i, j]] += h
                    pm = np.ones(n)
                    pm[i] += h
                    pm[j] -= h
                    mp = np.ones(n)
                    mp[i] -= h
                    mp[j] += h
                    mm = np.ones(n)
                    mm[[i, j]] -= h
                    fd[i, j] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * h**2)
        assert np.linalg.norm(tensor - fd) / np.linalg.norm(fd) < 0.05


class TestFreqCov:
    def test_constant_statistic_zero_matrix(self):
        rng = np.random.default_rng(4)
        ll = LogLikMatrix(rng.standard_normal((20, 5)))
        stats = StatMatrix(np.full((20, 1), 1.0))
        logprior = LogPriorVector(rng.standard_normal(20))
        basis = full_eigen(build_w(ll))
        for est, kw in [
            ("plain", {}),
            ("centered", {}),
            ("prior_adjusted", {"logprior": logprior}),
            ("projected", {"basis": basis}),
        ]:
            out = freq_cov(stats, ll, estimator=est, **kw)
            np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_normal_mean_analytic_value(self):
        x, stats, ll = normal_mean_case(100, 20000, seed=8)
        n = 100
        expect = np.sum((x - x.mean()) ** 2) / n**2
        got = freq_cov(stats, ll)[0, 0]
        assert got == pytest.approx(expect, rel=0.15)

    def test_projected_full_rank_equals_plain(self):
        rng = np.random.default_rng(9)
        ll = LogLikMatrix(rng.standard_normal((30, 6)))
        stats = StatMatrix(rng.standard_normal((30, 2)))
        basis = full_eigen(build_w(ll))
        full = freq_cov(stats, ll, estimator="projected", basis=basis)
        plain = freq_cov(stats, ll)
        np.testing.assert_allclose(full, plain, rtol=1e-10, atol=1e-14)

    def test_projection_error_bounded_by_tail(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = int(rng.integers(10, 40))
            n = int(rng.integers(3, 9))
            ll = LogLikMatrix(rng.standard_normal((m, n)))
            stats = StatMatrix(rng.standard_normal(m))
            basis = full_eigen(build_w(ll))
            var_a = posterior_var(stats.values[:, 0])
            grid = sensitivity_first(stats, ll)[0]
            for a_m in range(1, basis.rank_retained + 1):
                tail = basis.eigenvalues[a_m:].sum()
                delta = np.sqrt(var_a * tail)
                bound = np.sum(delta * (2 * np.abs(grid) + delta)) + 1e-9
                got = freq_cov(stats, ll, "projected", basis=leading(basis, a_m))
                plain = freq_cov(stats, ll)
                assert abs(got[0, 0] - plain[0, 0]) <= bound

    def test_all_estimators_symmetric_psd(self):
        rng = np.random.default_rng(11)
        ll = LogLikMatrix(rng.standard_normal((25, 7)))
        stats = StatMatrix(rng.standard_normal((25, 3)))
        logprior = LogPriorVector(rng.standard_normal(25))
        basis = leading(full_eigen(build_w(ll)), 3)
        for est, kw in [
            ("plain", {}),
            ("centered", {}),
            ("prior_adjusted", {"logprior": logprior}),
            ("projected", {"basis": basis}),
        ]:
            out = freq_cov(stats, ll, estimator=est, **kw)
            np.testing.assert_allclose(out, out.T, atol=1e-14)
            assert np.linalg.eigvalsh(out)[0] >= -1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(3, 30),
        n=st.integers(1, 12),
        p=st.integers(1, 4),
        scale=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_estimator_is_psd(self, m, n, p, scale, seed):
        rng = np.random.default_rng(seed)
        ll = LogLikMatrix(rng.standard_normal((m, n)) * scale)
        stats = StatMatrix(rng.standard_normal((m, p)))
        logprior = LogPriorVector(rng.standard_normal(m) * scale)
        basis = full_eigen(build_w(ll))
        basis = leading(basis, int(rng.integers(1, basis.rank_retained + 1)))
        for est, kw in [
            ("plain", {}),
            ("centered", {}),
            ("prior_adjusted", {"logprior": logprior}),
            ("projected", {"basis": basis}),
        ]:
            evals = np.linalg.eigvalsh(freq_cov(stats, ll, estimator=est, **kw))
            assert evals[0] >= -1e-12 * max(evals[-1], 0.0), est

    def test_centered_invariant_under_column_shift(self):
        # adding a draw-dependent, observation-independent shift changes
        # nothing after centering
        rng = np.random.default_rng(12)
        ll = LogLikMatrix(rng.standard_normal((30, 5)))
        stats = StatMatrix(rng.standard_normal((30, 2)))
        shift = rng.standard_normal(30) * 3.0
        shifted = LogLikMatrix(ll.values + shift[:, None])
        a = freq_cov(stats, ll, estimator="centered")
        b = freq_cov(stats, shifted, estimator="centered")
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_constant_logprior_reduces_to_plain(self):
        rng = np.random.default_rng(13)
        ll = LogLikMatrix(rng.standard_normal((20, 4)))
        stats = StatMatrix(rng.standard_normal((20, 2)))
        logprior = LogPriorVector(np.full(20, -3.7))
        adj = freq_cov(stats, ll, estimator="prior_adjusted", logprior=logprior)
        plain = freq_cov(stats, ll)
        np.testing.assert_allclose(adj, plain, atol=1e-14)

    def test_prior_strength_squared_scaling(self):
        # quadratic decay of the centering correction in the prior strength,
        # in the regime where the prior correction is perturbative
        lams = (0.05, 0.1, 0.2)
        diffs = []
        for lam in lams:
            cfg = BetaBinomialConfig(
                n=200,
                N=5,
                q0=0.25,
                rho=0.0,
                alpha=2.0,
                beta=1.0,
                prior_weight=lam,
                m_draws=50000,
                seed=10,
            )
            bundle = run_model(cfg)
            stats = bundle.default_stats()
            plain = freq_cov(stats, bundle.loglik)[0, 0]
            adj = freq_cov(
                stats,
                bundle.loglik,
                estimator="prior_adjusted",
                logprior=bundle.logprior,
            )[0, 0]
            diffs.append(abs(adj - plain))
        slope = np.polyfit(np.log(lams), np.log(diffs), 1)[0]
        assert 1.6 <= slope <= 2.4

    def test_missing_inputs_rejected(self):
        rng = np.random.default_rng(14)
        ll = LogLikMatrix(rng.standard_normal((10, 3)))
        stats = StatMatrix(rng.standard_normal((10, 1)))
        with pytest.raises(InvalidInput):
            freq_cov(stats, ll, estimator="prior_adjusted")
        with pytest.raises(InvalidInput):
            freq_cov(stats, ll, estimator="projected")

    def test_draw_count_mismatch_names_both_counts(self):
        rng = np.random.default_rng(15)
        ll = LogLikMatrix(rng.standard_normal((10, 3)))
        stats = StatMatrix(rng.standard_normal((10, 1)))
        short = StatMatrix(stats.values[:9])
        with pytest.raises(InvalidInput, match="statistics have 9 draws, log-likelihoods have 10"):
            freq_cov(short, ll)
        lp = LogPriorVector(np.zeros(8))
        with pytest.raises(InvalidInput, match="log-prior values have 8 draws, log-"):
            freq_cov(stats, ll, estimator="prior_adjusted", logprior=lp)

    def test_estimate_is_a_read_only_square_array(self):
        rng = np.random.default_rng(16)
        ll = LogLikMatrix(rng.standard_normal((12, 4)))
        stats = StatMatrix(rng.standard_normal((12, 3)))
        lp = LogPriorVector(rng.standard_normal(12))
        basis = full_eigen(build_w(ll))
        for est, kw in [
            ("plain", {}),
            ("centered", {}),
            ("prior_adjusted", {"logprior": lp}),
            ("projected", {"basis": basis}),
        ]:
            sigma = freq_cov(stats, ll, estimator=est, **kw)
            assert type(sigma) is np.ndarray and sigma.shape == (3, 3)
            assert not sigma.flags.writeable
            with pytest.raises(ValueError):
                sigma[0, 0] = 1.0


class TestPenalties:
    def test_constant_loglik_zero_variance_penalty(self):
        ll = LogLikMatrix(np.full((5, 3), -1.2))
        assert penalties(ll)["waic_penalty"] == 0.0

    def test_variance_penalty_equals_trace_w(self):
        rng = np.random.default_rng(15)
        ll = LogLikMatrix(rng.standard_normal((20, 6)))
        report = penalties(ll)
        assert report["waic_penalty"] == pytest.approx(build_w(ll).trace, rel=1e-12)
        assert list(report) == ["waic_penalty"]

    def test_variance_and_information_penalties_agree(self):
        x, stats, ll = normal_mean_case(500, 20000, seed=16)
        xbar = x.mean()
        scores = ScoreMatrix(
            values=(x - xbar).reshape(-1, 1), hessian_sum=np.array([[1.0]])
        )
        info = build_info_matrices(scores)
        report = penalties(ll, info=info)
        assert list(report) == ["waic_penalty", "tic_penalty"]
        tic = report["tic_penalty"]
        assert abs(report["waic_penalty"] - tic) / tic < 0.15

    def test_penalties_are_the_two_temporary_sums(self):
        # exactly tr W read from C and one product with the centered log prior;
        # reference: centered values and each product as its own M x n array
        rng = np.random.default_rng(18)
        for shape in [(40, 7), (500, 59), (3, 1)]:
            ll = LogLikMatrix(rng.standard_normal(shape) * 3.0 - 1.0)
            lp = LogPriorVector(rng.standard_normal(shape[0]) * 10.0)
            c = center_loglik(np.array(ll.values))
            prior_c = lp.values - lp.values.mean()
            report = penalties(ll, logprior=lp)
            assert report["waic_penalty"] == c.trace
            exact = c.trace + float(np.sum(prior_c @ c.values)) / ll.values.size
            assert report["pcic_penalty"] == exact
            centered = ll.values - ll.values.mean(axis=0)
            waic = float(np.sum(centered * centered)) / ll.n_draws
            pcic = waic + float(np.sum(centered * prior_c[:, None])) / ll.values.size
            assert report["waic_penalty"] == pytest.approx(waic, rel=1e-12)
            assert report["pcic_penalty"] == pytest.approx(pcic, rel=1e-12)

    def test_one_loglik_size_buffer(self):
        rng = np.random.default_rng(19)
        ll = LogLikMatrix(rng.standard_normal((3000, 40)))
        lp = LogPriorVector(rng.standard_normal(3000))
        tracemalloc.start()
        try:
            penalties(ll, logprior=lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * ll.values.nbytes

    def test_keys_are_the_penalties_the_inputs_allow(self):
        rng = np.random.default_rng(20)
        ll = LogLikMatrix(rng.standard_normal((30, 4)))
        lp = LogPriorVector(rng.standard_normal(30))
        scores = ScoreMatrix(values=rng.standard_normal((4, 2)), hessian_sum=np.eye(2))
        info = build_info_matrices(scores)
        assert list(penalties(ll)) == ["waic_penalty"]
        assert list(penalties(ll, info=info)) == ["waic_penalty", "tic_penalty"]
        assert list(penalties(ll, logprior=lp)) == ["waic_penalty", "pcic_penalty"]
        both = penalties(ll, logprior=lp, info=info)
        assert list(both) == ["waic_penalty", "tic_penalty", "pcic_penalty"]
        assert all(type(v) is float for v in both.values())

    def test_flat_prior_correction_equals_variance_penalty(self):
        rng = np.random.default_rng(17)
        ll = LogLikMatrix(rng.standard_normal((15, 4)))
        logprior = LogPriorVector(np.zeros(15))
        report = penalties(ll, logprior=logprior)
        assert report["pcic_penalty"] == pytest.approx(report["waic_penalty"], abs=1e-15)


class TestKLQuadratic:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(18)
        w = build_w(LogLikMatrix(rng.standard_normal((10, 4))))
        assert kl_quadratic(w, np.zeros(4)) == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(19)
        w = build_w(LogLikMatrix(rng.standard_normal((10, 4))))
        eta = rng.standard_normal(4)
        assert kl_quadratic(w, 2 * eta) == pytest.approx(4 * kl_quadratic(w, eta))

    def test_matches_exact_beta_divergence(self):
        # closed-form KL between the original and reweighted Beta posteriors
        cfg = BetaBinomialConfig(seed=21, m_draws=200000, rho=0.65)
        bundle = run_model(cfg)
        w = build_w(bundle.loglik)
        basis = full_eigen(w)
        eta = 0.1 * basis.vectors[:, 0]

        x, n, N = bundle.data, cfg.n, cfg.N
        a1 = 1.0 + x.sum()
        b1 = 1.0 + n * N - x.sum()
        wts = 1.0 + eta
        a2 = 1.0 + float(wts @ x)
        b2 = 1.0 + float(wts @ (N - x))

        def beta_kl(a1, b1, a2, b2):
            from scipy.special import betaln

            return (
                betaln(a2, b2)
                - betaln(a1, b1)
                + (a1 - a2) * psi(a1)
                + (b1 - b2) * psi(b1)
                + (a2 - a1 + b2 - b1) * psi(a1 + b1)
            )

        exact = beta_kl(a1, b1, a2, b2)
        approx = kl_quadratic(w, eta)
        assert approx == pytest.approx(exact, rel=0.10)


class TestCenteringDiagnostic:
    def test_values_and_scale_are_read_only_vectors(self):
        rng = np.random.default_rng(21)
        ll = LogLikMatrix(rng.standard_normal((10, 3)))
        stats = StatMatrix(rng.standard_normal((10, 2)))
        lp = LogPriorVector(rng.standard_normal(10))
        for kw in ({}, {"logprior": lp}):
            values, scale = centering_diagnostic(stats, ll, **kw)
            for arr in (values, scale):
                assert type(arr) is np.ndarray and arr.shape == (2,)
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
            grid = sensitivity_first(stats, ll)
            np.testing.assert_array_equal(scale, np.sum(np.abs(grid), axis=1))

    def test_constant_statistic(self):
        rng = np.random.default_rng(22)
        ll = LogLikMatrix(rng.standard_normal((10, 3)))
        stats = StatMatrix(np.full((10, 1), 2.0))
        values, _ = centering_diagnostic(stats, ll)
        np.testing.assert_allclose(values, 0.0, atol=1e-15)

    def test_ratio_shrinks_with_sample_size(self):
        ratios = {}
        for n in (50, 200):
            per_seed = []
            for seed in range(10):
                x, stats, ll = normal_mean_case(n, 8000, seed=300 + seed)
                values, scale = centering_diagnostic(stats, ll)
                per_seed.append(abs(values[0]) / scale[0])
            ratios[n] = float(np.median(per_seed))
        assert ratios[200] < ratios[50]

    def test_prior_adjustment_centers_strong_prior(self):
        cfg = BetaBinomialConfig(seed=23, rho=0.0, alpha=20.0, beta=1.0, m_draws=50000)
        bundle = run_model(cfg)
        stats = bundle.default_stats()
        raw, _ = centering_diagnostic(stats, bundle.loglik)
        adj, _ = centering_diagnostic(stats, bundle.loglik, logprior=bundle.logprior)
        assert abs(adj[0]) < 0.1 * abs(raw[0])
