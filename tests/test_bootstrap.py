"""Resampling and the approximate-bootstrap estimators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkernel import bootstrap
from wkernel.bootstrap import (
    BootstrapRun,
    ImportanceDiagnostics,
    Resamples,
    boot_first,
    boot_gold,
    boot_importance,
    boot_second,
    draw_resamples,
    replicate_rng,
    summarize_bootstrap,
)
from wkernel.core import LogLikMatrix, StatMatrix, WeightVector
from wkernel.errors import InvalidInput
from wkernel.freq_eval import freq_cov, sensitivity_first
from wkernel.kernels import build_w, center_loglik
from wkernel.spectral import SpectralBasis, full_eigen


def leading(basis, a_m):
    """The leading ``a_m`` directions of ``basis``."""
    return SpectralBasis(basis.eigenvalues[:a_m], basis.vectors[:, :a_m])


def all_ones_resample(n):
    return Resamples(counts=np.ones(n, dtype=int)[None, :])


def all_counts(resamples):
    """The whole (n_b x n) count matrix, stacked from ``blocks()``."""
    return np.vstack([counts for _, counts in resamples.blocks()])


def random_case(seed, m=30, n=6, p=2):
    rng = np.random.default_rng(seed)
    ll = LogLikMatrix(rng.standard_normal((m, n)))
    stats = StatMatrix(rng.standard_normal((m, p)))
    return stats, ll


class TestResamples:
    def test_counts_must_sum_to_n(self):
        with pytest.raises(InvalidInput):
            Resamples(counts=np.array([2, 0, 0, 0, 1])[None, :])
        Resamples(counts=np.array([2, 0, 0, 2, 1])[None, :])  # sums to 5

    def test_counts_are_kept_as_given(self):
        resamples = Resamples(counts=np.array([3, 0, 0])[None, :])
        np.testing.assert_array_equal(all_counts(resamples), [[3, 0, 0]])

    def test_counts_are_read_only(self):
        resamples = Resamples(counts=np.ones((2, 3), dtype=int))
        assert len(resamples) == 2 and resamples.n_obs == 3
        (_, counts), = resamples.blocks()
        with pytest.raises(ValueError):
            counts[0, 0] = 5

    @pytest.mark.parametrize(
        "counts, message",
        [
            (np.ones(4, dtype=int), "2-D"),
            (np.ones((0, 4), dtype=int), "at least one replicate"),
            ([[1, 1, 1], [3, -1, 1]], "resample 1 has a negative count"),
            ([[1, 1, 1], [1, 1, 1], [2, 1, 1]], "resample 2 .* sum to n=3, got 4"),
            ([[1, 1, 1], [1, 1, 0], [2, 1, 1]], "resample 1 .* sum to n=3, got 2"),
        ],
    )
    def test_invalid_counts_name_the_replicate(self, counts, message):
        with pytest.raises(InvalidInput, match=message):
            Resamples(counts=counts)

    def test_caller_array_is_copied_not_frozen(self):
        counts = np.ones((2, 3), dtype=np.int64)
        resamples = Resamples(counts=counts)
        assert counts.flags.writeable
        counts[0, 0] = 5
        assert all_counts(resamples)[0, 0] == 1

    def test_observation_count_must_match(self):
        stats, ll = random_case(31)
        with pytest.raises(InvalidInput, match="5 observations, expected 6"):
            boot_first(stats, ll, draw_resamples(5, 3, seed=0))


class TestDrawResamples:
    def test_single_observation(self):
        for counts in all_counts(draw_resamples(1, 5, seed=0)):
            assert counts.tolist() == [1]

    def test_counts_mean_near_one(self):
        n, n_b = 10, 100000
        resamples = draw_resamples(n, n_b, seed=1)
        totals = np.zeros(n)
        for _, counts in resamples.blocks():
            totals += counts.sum(axis=0)
        np.testing.assert_allclose(totals / n_b, 1.0, atol=0.02)

    def test_seed_reproducibility(self):
        a = draw_resamples(8, 50, seed=42)
        b = draw_resamples(8, 50, seed=42)
        np.testing.assert_array_equal(all_counts(a), all_counts(b))
        c = draw_resamples(8, 50, seed=43)
        assert any(
            not np.array_equal(da, dc) for da, dc in zip(all_counts(a), all_counts(c))
        )

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, None])
    def test_seed_philox_refuses_is_refused_at_call(self, seed):
        with pytest.raises(InvalidInput, match=r"seed must be an integer in \[0, 2\^128\)"):
            draw_resamples(5, 3, seed=seed)

    def test_largest_seed_draws(self):
        counts = all_counts(draw_resamples(5, 3, seed=2**128 - 1))
        np.testing.assert_array_equal(counts.sum(axis=1), 5)

    def test_replicate_streams_independent_of_order(self):
        full = draw_resamples(6, 20, seed=9)
        # drawing fewer replicates reproduces the same leading draws
        head = draw_resamples(6, 5, seed=9)
        np.testing.assert_array_equal(all_counts(head), all_counts(full)[:5])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 300),
        n_b=st.integers(1, 40),
        seed=st.one_of(
            st.sampled_from([0, 1, 2**63 + 5, 2**64 - 1]),
            st.integers(0, 2**64 - 1),
        ),
    )
    def test_rows_are_the_jumped_streams(self, n, n_b, seed):
        # replicate r is Philox(key=seed) jumped r times, bit for bit
        counts = all_counts(draw_resamples(n, n_b, seed))
        assert counts.shape == (n_b, n)
        for r in range(n_b):
            cats = replicate_rng(seed, r).integers(0, n, size=n)
            np.testing.assert_array_equal(counts[r], np.bincount(cats, minlength=n))

    def test_counts_are_drawn_a_block_at_a_time(self):
        # drawing holds nothing, and the blocks never hold the whole matrix
        tracemalloc.start()
        try:
            resamples = draw_resamples(120, 10000, seed=1)
            assert tracemalloc.get_traced_memory()[0] < 2**12
            for _ in resamples.blocks():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * bootstrap._BLOCK * 120 * 8

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 12),
        n_b=st.one_of(
            st.sampled_from([1, bootstrap._BLOCK - 1, bootstrap._BLOCK + 1, 700]),
            st.integers(1, 3 * bootstrap._BLOCK),
        ),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_blocks_are_the_matrix_and_the_jumped_streams(self, n, n_b, seed):
        resamples = draw_resamples(n, n_b, seed)
        blocks = list(resamples.blocks())
        starts = [rows.start for rows, _ in blocks]
        assert starts == list(range(0, n_b, bootstrap._BLOCK))
        for rows, counts in blocks:
            assert counts.shape == (rows.stop - rows.start, n)
            assert not counts.flags.writeable
        joined = np.concatenate([counts for _, counts in blocks])
        np.testing.assert_array_equal(joined, all_counts(resamples))
        for r in range(n_b):
            cats = replicate_rng(seed, r).integers(0, n, size=n)
            np.testing.assert_array_equal(joined[r], np.bincount(cats, minlength=n))

    def test_caller_matrix_blocks_are_its_rows(self):
        counts = np.ones((bootstrap._BLOCK + 3, 2), dtype=np.int64)
        counts[-1] = [2, 0]
        blocks = list(Resamples(counts=counts).blocks())
        assert [rows for rows, _ in blocks] == [
            slice(0, bootstrap._BLOCK),
            slice(bootstrap._BLOCK, bootstrap._BLOCK + 3),
        ]
        np.testing.assert_array_equal(np.concatenate([c for _, c in blocks]), counts)

    def test_size_limit(self, monkeypatch):
        # 2**27 cells bound one block of counts, however many replicates
        # there are in all ...
        n = 2**27 // bootstrap._BLOCK
        assert len(draw_resamples(n, 10**6, seed=0)) == 10**6
        with pytest.raises(
            InvalidInput, match=rf"block of 256 x {n + 1} .* limit of 134217728"
        ):
            draw_resamples(n + 1, 10**6, seed=0)
        with pytest.raises(InvalidInput, match=rf"block of 1 x {2**27 + 1} "):
            draw_resamples(2**27 + 1, 1, seed=0)
        # ... and the n_b x p replicate estimates, refused before any block
        # is drawn
        stats, ll = random_case(1, n=1, p=2)
        monkeypatch.setattr(bootstrap, "MAX_RESAMPLE_CELLS", 40)
        assert boot_first(stats, ll, draw_resamples(1, 20, seed=0)).n_replicates == 20

        def refuse(*args, **kwargs):
            raise AssertionError("resamples drawn before the size check")

        monkeypatch.setattr(Resamples, "_rows", refuse)
        resamples = draw_resamples(1, 21, seed=0)
        for run in (boot_first, boot_second, boot_importance):
            with pytest.raises(
                InvalidInput, match=r"n_b x p = 21 x 2 replicate estimates .* limit of 40"
            ):
                run(stats, ll, resamples)


class TestBootFirst:
    def test_identity_resample_returns_posterior_mean(self):
        stats, ll = random_case(2)
        run = boot_first(stats, ll, all_ones_resample(ll.n_obs))
        np.testing.assert_allclose(
            run.estimates[0], stats.values.mean(axis=0), atol=1e-12
        )

    def test_hand_example(self):
        # sensitivity grid (0.5, -0.5); counts (2, 0) add exactly one unit
        stats = StatMatrix(np.array([[0.0], [2.0]]))
        ll = LogLikMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        grid = sensitivity_first(stats, ll).first_order
        np.testing.assert_allclose(grid, [[0.5, -0.5]])
        run = boot_first(stats, ll, Resamples(counts=np.array([2, 0])[None, :]))
        assert run.estimates[0, 0] == pytest.approx(2.0)

    def test_normal_substitution_recovers_covariance_estimator(self):
        # with standard-normal perturbations the replicate covariance of the
        # first-order estimates is the plain frequentist covariance estimate
        stats, ll = random_case(3, m=50, n=10, p=2)
        grid = sensitivity_first(stats, ll).first_order
        rng = np.random.default_rng(77)
        etas = rng.standard_normal((100000, ll.n_obs))
        reps = etas @ grid.T
        sample_cov = reps.T @ reps / len(reps) - np.outer(
            reps.mean(axis=0), reps.mean(axis=0)
        )
        sigma = freq_cov(stats, ll).values
        np.testing.assert_allclose(sample_cov, sigma, rtol=0.1, atol=1e-4)

    def test_projected_full_rank_matches(self):
        stats, ll = random_case(4)
        basis = full_eigen(build_w(ll))
        resamples = draw_resamples(ll.n_obs, 50, seed=5)
        plain = boot_first(stats, ll, resamples)
        projected = boot_first(stats, ll, resamples, basis=basis)
        np.testing.assert_allclose(
            projected.estimates, plain.estimates, rtol=1e-9, atol=1e-12
        )
        assert projected.rank_used == basis.rank_retained


class TestBootSecond:
    def test_identity_resample_returns_posterior_mean(self):
        stats, ll = random_case(6)
        for mode in ("direct", "efficient"):
            run = boot_second(stats, ll, all_ones_resample(ll.n_obs), mode=mode)
            np.testing.assert_allclose(
                run.estimates[0], stats.values.mean(axis=0), atol=1e-12
            )

    def test_direct_and_efficient_agree(self):
        stats, ll = random_case(7, m=40, n=8, p=3)
        resamples = draw_resamples(ll.n_obs, 100, seed=8)
        direct = boot_second(stats, ll, resamples, mode="direct")
        efficient = boot_second(stats, ll, resamples, mode="efficient")
        np.testing.assert_allclose(
            direct.estimates, efficient.estimates, rtol=1e-9, atol=1e-12
        )

    def test_projected_full_rank_matches_direct(self):
        stats, ll = random_case(9, m=35, n=7)
        basis = full_eigen(build_w(ll))
        resamples = draw_resamples(ll.n_obs, 60, seed=10)
        direct = boot_second(stats, ll, resamples, mode="direct")
        projected = boot_second(stats, ll, resamples, basis=basis)
        np.testing.assert_allclose(
            projected.estimates, direct.estimates, rtol=1e-9, atol=1e-12
        )
        assert projected.method == "second_projected"

    def test_efficient_default_and_direct_size_limit(self, monkeypatch):
        stats, ll = random_case(11)
        resamples = draw_resamples(ll.n_obs, 10, seed=12)
        assert boot_second(stats, ll, resamples).method == "second_efficient"
        with pytest.raises(InvalidInput, match="mode must be"):
            boot_second(stats, ll, resamples, mode="auto")
        # the direct tensor holds p * n^2 = 2 * 6^2 = 72 scalars
        monkeypatch.setattr(bootstrap, "DIRECT_TENSOR_BUDGET", 72)
        direct = boot_second(stats, ll, resamples, mode="direct")
        assert direct.method == "second_direct"
        monkeypatch.setattr(bootstrap, "DIRECT_TENSOR_BUDGET", 71)
        with pytest.raises(InvalidInput, match=r"2 x 6\^2 .* limit of 71"):
            boot_second(stats, ll, resamples, mode="direct")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 10),
        extra=st.integers(2, 30),
        p=st.integers(1, 4),
        n_b=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_direct_efficient_and_full_rank_projected_agree(
        self, n, extra, p, n_b, seed
    ):
        # more draws than observations, so W has full rank n
        stats, ll = random_case(seed, m=n + extra, n=n, p=p)
        resamples = draw_resamples(n, n_b, seed)
        basis = full_eigen(build_w(ll))
        direct = boot_second(stats, ll, resamples, mode="direct").estimates
        scale = np.max(np.abs(direct))
        for other in (
            boot_second(stats, ll, resamples, mode="efficient"),
            boot_second(stats, ll, resamples, basis=basis),
        ):
            np.testing.assert_allclose(
                other.estimates, direct, rtol=1e-9, atol=1e-9 * scale
            )

    def test_projected_rank2_deviation_bounded(self, weibull_bundle):
        # truncating the quadratic term is controlled by the cumulant bound
        bundle = weibull_bundle
        stats = bundle.default_stats()
        ll = bundle.loglik
        basis = full_eigen(build_w(ll))
        resamples = draw_resamples(ll.n_obs, 50, seed=13)
        direct = boot_second(stats, ll, resamples, mode="direct")
        projected = boot_second(stats, ll, resamples, basis=leading(basis, 2))

        tail = np.sqrt(basis.eigenvalues[2:].sum())
        a_vals = stats.values
        sup_a = np.max(np.abs(a_vals - a_vals.mean(axis=0)), axis=0)
        sd_l = np.sqrt(
            np.mean(
                (ll.values - ll.values.mean(axis=0)) ** 2, axis=0
            )
        )
        pair_bound = sd_l[:, None] + sd_l[None, :]
        for r, eta in enumerate(all_counts(resamples) - 1.0):
            eta = np.abs(eta)
            weight = eta @ pair_bound @ eta
            for j in range(stats.n_stats):
                bound = 0.5 * sup_a[j] * weight * tail + 1e-9
                gap = abs(direct.estimates[r, j] - projected.estimates[r, j])
                assert gap <= bound

    def test_draw_permutation_invariance(self):
        stats, ll = random_case(14, m=25)
        resamples = draw_resamples(ll.n_obs, 20, seed=15)
        perm = np.random.default_rng(16).permutation(25)
        stats_p = StatMatrix(stats.values[perm], names=stats.names)
        ll_p = LogLikMatrix(ll.values[perm])
        for mode in ("direct", "efficient"):
            a = boot_second(stats, ll, resamples, mode=mode)
            b = boot_second(stats_p, ll_p, resamples, mode=mode)
            np.testing.assert_allclose(a.estimates, b.estimates, rtol=1e-9)


class TestBootImportance:
    def test_identity_resample_gives_uniform_weights(self):
        stats, ll = random_case(17)
        run, diags = boot_importance(stats, ll, all_ones_resample(ll.n_obs))
        np.testing.assert_allclose(
            run.estimates[0], stats.values.mean(axis=0), atol=1e-12
        )
        assert diags.max_weight[0] == pytest.approx(1.0 / ll.n_draws)
        assert diags.ess[0] == pytest.approx(ll.n_draws)

    def test_two_draw_hand_weights(self):
        # log-weights (0, log 3) normalize to (1/4, 3/4)
        ll = LogLikMatrix(np.array([[0.0, 0.0], [np.log(3.0), 0.0]]))
        stats = StatMatrix(np.array([[0.0], [1.0]]))
        resamples = Resamples(counts=np.array([2, 0])[None, :])
        run, diags = boot_importance(stats, ll, resamples)
        assert run.estimates[0, 0] == pytest.approx(0.75)
        assert diags.max_weight[0] == pytest.approx(0.75)

    def test_weights_properties_random(self):
        stats, ll = random_case(18, m=40, n=8)
        resamples = draw_resamples(ll.n_obs, 30, seed=19)
        run, diags = boot_importance(stats, ll, resamples)
        assert diags.n_degenerate == 0
        assert np.all(diags.max_weight > 0) and np.all(diags.max_weight <= 1)
        assert np.all(diags.ess >= 1) and np.all(diags.ess <= ll.n_draws)

    def test_weights_sum_to_one(self):
        # a constant statistic is reproduced exactly iff the normalized
        # weights sum to one on every replicate
        rng = np.random.default_rng(26)
        ll = LogLikMatrix(rng.standard_normal((50, 6)))
        stats = StatMatrix(np.full((50, 1), 2.5))
        resamples = draw_resamples(6, 40, seed=27)
        run, _ = boot_importance(stats, ll, resamples)
        np.testing.assert_allclose(run.estimates, 2.5, rtol=1e-12)

    def test_draw_permutation_invariance(self):
        stats, ll = random_case(28, m=30)
        resamples = draw_resamples(ll.n_obs, 15, seed=29)
        perm = np.random.default_rng(30).permutation(30)
        stats_p = StatMatrix(stats.values[perm], names=stats.names)
        ll_p = LogLikMatrix(ll.values[perm])
        a, _ = boot_importance(stats, ll, resamples)
        b, _ = boot_importance(stats_p, ll_p, resamples)
        np.testing.assert_allclose(a.estimates, b.estimates, rtol=1e-9)
        af = boot_first(stats, ll, resamples)
        bf = boot_first(stats_p, ll_p, resamples)
        np.testing.assert_allclose(af.estimates, bf.estimates, rtol=1e-9)

    def test_weight_concentration_on_weibull(self, weibull_small_bundle):
        bundle = weibull_small_bundle
        stats = bundle.default_stats()
        resamples = draw_resamples(bundle.n_obs, 200, seed=20)
        _, diags = boot_importance(stats, bundle.loglik, resamples)
        assert np.sum(diags.max_weight > 0.4) >= 1


class TestHandOver:
    def test_estimators_hand_their_arrays_over(self, monkeypatch):
        # the containers adopt what the estimators fill: a copy would be
        # 640 KB of estimates and 340 KB of importance diagnostics here
        stats, ll = random_case(40, m=20, n=5, p=4)
        resamples = draw_resamples(ll.n_obs, 20000, seed=41)
        used = {}
        for cls in (BootstrapRun, ImportanceDiagnostics):

            def measured(self, _post=cls.__post_init__, _name=cls.__name__):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _post(self)
                grown = tracemalloc.get_traced_memory()[1] - before
                used[_name] = max(used.get(_name, 0), grown)

            monkeypatch.setattr(cls, "__post_init__", measured)
        tracemalloc.start()
        try:
            boot_first(stats, ll, resamples)
            boot_second(stats, ll, resamples)
            _, diags = boot_importance(stats, ll, resamples)
        finally:
            tracemalloc.stop()
        assert diags.ess.shape == (20000,)
        assert set(used) == {"BootstrapRun", "ImportanceDiagnostics"}
        assert max(used.values()) < 2**12, used


class TestBootGold:
    def test_constant_callback(self):
        resamples = draw_resamples(4, 6, seed=21)
        run = boot_gold(lambda counts: [1.5, -2.0], resamples)
        np.testing.assert_allclose(run.estimates, np.tile([1.5, -2.0], (6, 1)))

    def test_deterministic_under_fixed_resamples(self):
        resamples = draw_resamples(5, 10, seed=23)
        refit = lambda counts: [float(counts @ np.arange(5.0))]  # noqa: E731
        a = boot_gold(refit, resamples)
        b = boot_gold(refit, resamples)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_failure_carries_replicate_index(self):
        resamples = draw_resamples(3, 5, seed=22)

        def refit(counts):
            if refit.calls == 3:
                raise ValueError("boom")
            refit.calls += 1
            return [0.0]

        refit.calls = 0
        with pytest.raises(RuntimeError, match="replicate 3"):
            boot_gold(refit, resamples)

    def test_rows_come_by_block_without_the_count_matrix(self, monkeypatch):
        # 600 replicates span three blocks; the refit sees each row once, in order
        resamples = draw_resamples(7, 600, seed=26)
        want = all_counts(resamples)
        rows = bootstrap.Resamples._rows

        def one_block(self, start, stop):
            assert stop - start <= bootstrap._BLOCK, "count matrix built"
            return rows(self, start, stop)

        monkeypatch.setattr(bootstrap.Resamples, "_rows", one_block)
        seen = []

        def refit(counts):
            if len(seen) == 300:
                raise ValueError("boom")
            seen.append(counts.copy())
            return [float(counts[0])]

        with pytest.raises(RuntimeError, match="replicate 300"):
            boot_gold(refit, resamples)
        np.testing.assert_array_equal(np.vstack(seen), want[:300])

    def test_conjugate_gold_correlates_with_first_order(self):
        from wkernel.models import BetaBinomialConfig, run_model

        bundle = run_model(BetaBinomialConfig(seed=24, m_draws=20000))
        stats = bundle.default_stats()
        resamples = draw_resamples(bundle.n_obs, 400, seed=25)

        def refit(counts):
            return [bundle.exact_weighted_mean(WeightVector(counts.astype(float)), "q_mean")]

        gold = boot_gold(refit, resamples)
        first = boot_first(stats, bundle.loglik, resamples)
        corr = np.corrcoef(gold.estimates[:, 0], first.estimates[:, 0])[0, 1]
        assert corr > 0.9


class TestProjectedDefinition:
    """The projected estimators are the plain sums in W's principal
    coordinates: S V, h V and C V for the basis vectors V."""

    @pytest.mark.parametrize("centered_input", [False, True])
    def test_sums_in_principal_coordinates_at_every_rank(self, centered_input):
        stats, ll = random_case(51, m=40, n=6, p=3)
        ac = stats.values - stats.values.mean(axis=0)
        c = ll.values - ll.values.mean(axis=0)
        s = ac.T @ c / ll.n_draws
        if centered_input:
            ll = center_loglik(np.array(ll.values))
        full = full_eigen(build_w(ll))
        resamples = draw_resamples(ll.n_obs, 30, seed=52)
        h = all_counts(resamples) - 1.0
        mean = stats.values.mean(axis=0)
        for r in range(1, full.rank_retained + 1):
            basis = leading(full, r)
            sv, hv, cv = s @ basis.vectors, h @ basis.vectors, c @ basis.vectors
            k3 = np.einsum("up,ua,ub->pab", ac, cv, cv) / ll.n_draws
            cov = freq_cov(stats, ll, "projected", basis=basis)
            first = boot_first(stats, ll, resamples, basis=basis)
            second = boot_second(stats, ll, resamples, basis=basis)
            quadratic = 0.5 * np.einsum("ra,pab,rb->rp", hv, k3, hv)
            for got, want in [
                (cov.values, sv @ sv.T),
                (first.estimates, mean + hv @ sv.T),
                (second.estimates, mean + h @ s.T + quadratic),
            ]:
                scale = np.max(np.abs(want))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
            assert cov.rank_used == first.rank_used == second.rank_used == r

    def test_basis_over_other_observation_count_is_refused(self):
        stats, ll = random_case(53, n=6)
        basis = full_eigen(build_w(random_case(53, n=5)[1]))
        resamples = draw_resamples(ll.n_obs, 5, seed=54)
        for run in (
            lambda: freq_cov(stats, ll, "projected", basis=basis),
            lambda: boot_first(stats, ll, resamples, basis=basis),
            lambda: boot_second(stats, ll, resamples, basis=basis),
        ):
            with pytest.raises(
                InvalidInput, match="basis is over 5 observations, log-likelihood has 6"
            ):
                run()


class TestBlockedEstimates:
    """Estimates computed block by block against one block of every replicate."""

    N_B = 2 * 256 + 77

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(41)
        m, n = 2500, 120
        ll = LogLikMatrix(0.3 * rng.standard_normal((m, n)) + rng.standard_normal(n))
        stats = StatMatrix(rng.standard_normal((m, 3)) + ll.values[:, :3])
        return stats, ll, leading(full_eigen(build_w(ll)), 5)

    RUNS = {
        "first": lambda s, l, r, b: boot_first(s, l, r),
        "first_projected": lambda s, l, r, b: boot_first(s, l, r, basis=b),
        "second_efficient": lambda s, l, r, b: boot_second(s, l, r),
        "second_direct": lambda s, l, r, b: boot_second(s, l, r, mode="direct"),
        "second_projected": lambda s, l, r, b: boot_second(s, l, r, basis=b),
        "importance": lambda s, l, r, b: boot_importance(s, l, r)[0],
    }

    @pytest.mark.parametrize("method", sorted(RUNS))
    def test_blocks_match_one_block(self, case, monkeypatch, method):
        stats, ll, basis = case
        assert self.N_B % bootstrap._BLOCK and self.N_B > 2 * bootstrap._BLOCK
        resamples = draw_resamples(ll.n_obs, self.N_B, seed=42)
        blocked = self.RUNS[method](stats, ll, resamples, basis).estimates
        monkeypatch.setattr(bootstrap, "_BLOCK", self.N_B)
        assert len(list(resamples.blocks())) == 1
        whole = self.RUNS[method](stats, ll, resamples, basis).estimates
        assert np.all(np.isfinite(whole))
        scale = np.abs(whole).max()
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-13 * scale)

    def test_importance_diagnostics_match_one_block(self, case, monkeypatch):
        stats, ll, _ = case
        resamples = draw_resamples(ll.n_obs, self.N_B, seed=43)
        _, blocked = boot_importance(stats, ll, resamples)
        monkeypatch.setattr(bootstrap, "_BLOCK", self.N_B)
        _, whole = boot_importance(stats, ll, resamples)
        np.testing.assert_array_equal(blocked.degenerate, whole.degenerate)
        np.testing.assert_allclose(blocked.ess, whole.ess, rtol=1e-13)
        np.testing.assert_allclose(blocked.max_weight, whole.max_weight, rtol=1e-13)


class TestSummaries:
    def test_summary_values(self):
        est = np.arange(10.0).reshape(-1, 1)
        run = BootstrapRun(estimates=est, method="first")
        summary = summarize_bootstrap(run)
        assert summary["mean"][0] == pytest.approx(4.5)
        assert summary["var"][0] == pytest.approx(est.var())
        assert summary["q25"][0] == pytest.approx(np.quantile(est, 0.25))
        assert summary["n_used"] == 10 and summary["n_excluded"] == 0

    def test_exclusion_mask(self):
        est = np.vstack([np.full((5, 1), 1.0), np.full((5, 1), np.nan)])
        run = BootstrapRun(estimates=est, method="importance")
        mask = np.zeros(10, dtype=bool)
        mask[5:] = True
        summary = summarize_bootstrap(run, exclude=mask)
        assert summary["mean"][0] == pytest.approx(1.0)
        assert summary["n_excluded"] == 5
