"""W family, dual Z matrix, score kernels, and embedding diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkernel.core import LogLikMatrix, StatMatrix, posterior_cov
from wkernel.errors import InvalidInput, NumericalFailure
from wkernel.freq_eval import freq_cov
from wkernel.kernels import (
    ScoreMatrix,
    build_deviation,
    build_embedding,
    build_info_matrices,
    build_w,
    build_z,
    center_loglik,
    centered,
    embedding_report,
    eval_score_kernel,
    eval_w_kernel,
    mf_feature_matrix,
    sym_inv_sqrt,
    sym_sqrt,
    z_spectrum,
)

_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


_LOGLIK_KINDS = ("random", "dup_draws", "dup_obs", "constant")


@st.composite
def loglik_cases(draw, kinds=_LOGLIK_KINDS):
    """Random M x n log-likelihoods with M < n, M > n or M = n; some are
    rank deficient (duplicated draws or observations), some constant."""
    m = draw(st.integers(2, 14))
    n = draw(st.one_of(st.just(m), st.integers(2, 14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        # a dyadic constant centers to exactly 0
        return LogLikMatrix(np.full((m, n), draw(st.integers(-40, 40)) / 8.0))
    arr = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
    if kind == "dup_draws":
        arr = arr[rng.integers(0, max(1, m // 2), m)]
    elif kind == "dup_obs":
        arr = arr[:, rng.integers(0, max(1, n // 2), n)]
    return LogLikMatrix(arr)


def normal_mean_setup(n, m, seed, sigma=1.0):
    """Exact conjugate draws for the flat-prior normal location model."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * sigma
    xbar = x.mean()
    theta = xbar + np.sqrt(sigma**2 / n) * rng.standard_normal(m)
    loglik = -0.5 * np.log(2 * np.pi * sigma**2) - (x[None, :] - theta[:, None]) ** 2 / (
        2 * sigma**2
    )
    return x, theta, LogLikMatrix(loglik)


def normal_loglik_at(points, theta, sigma=1.0):
    points = np.atleast_1d(points)
    return -0.5 * np.log(2 * np.pi * sigma**2) - (
        points[None, :] - theta[:, None]
    ) ** 2 / (2 * sigma**2)


class TestBuildW:
    def test_point_mass_posterior_gives_zero(self):
        ll = LogLikMatrix(np.tile([[0.3, -1.2, 4.0]], (5, 1)))
        w = build_w(ll)
        np.testing.assert_allclose(w.values, 0.0, atol=1e-15)

    def test_hand_example(self):
        ll = LogLikMatrix(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]))
        w = build_w(ll)
        expect = np.array([[2.0 / 3, 4.0 / 3], [4.0 / 3, 8.0 / 3]])
        np.testing.assert_allclose(w.values, expect, rtol=1e-14)

    def test_symmetric_psd_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(3, 15))
            n = int(rng.integers(2, 10))
            ll = LogLikMatrix(rng.standard_normal((m, n)) * 3.0)
            for kind in ("raw", "double_centered"):
                w = build_w(ll, kind=kind)
                np.testing.assert_allclose(w.values, w.values.T, atol=1e-14)
                floor = -1e-8 * w.trace / max(w.n, 1)
                assert np.linalg.eigvalsh(w.values)[0] >= floor

    def test_trace_equals_column_variances(self):
        rng = np.random.default_rng(8)
        ll = LogLikMatrix(rng.standard_normal((12, 6)))
        w = build_w(ll)
        total = sum(posterior_cov(ll.values[:, i], ll.values[:, i]) for i in range(6))
        assert w.trace == pytest.approx(total, rel=1e-12)

    def test_centered_approaches_raw_as_n_grows(self):
        # flat prior: relative gap between raw and double-centered W shrinks
        gaps = {}
        for n in (20, 80, 320):
            rels = []
            for seed in range(10):
                _, _, ll = normal_mean_setup(n, 4000, seed=100 + seed)
                raw = build_w(ll).values
                cent = build_w(ll, kind="double_centered").values
                rels.append(
                    np.linalg.norm(raw - cent) / np.linalg.norm(raw)
                )
            gaps[n] = float(np.median(rels))
        assert gaps[20] > gaps[80] > gaps[320]

    @pytest.mark.parametrize("kind", ["raw", "double_centered"])
    def test_peak_memory_is_about_two_w(self, kind):
        # the product is divided in place and handed over; the symmetry
        # check makes the one other n x n array
        ll = LogLikMatrix(np.random.default_rng(9).standard_normal((60, 500)))
        tracemalloc.start()
        try:
            w = build_w(ll, kind=kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * w.values.nbytes + ll.values.nbytes

    def test_weibull_rank_two_structure(self, weibull_bundle):
        w = build_w(weibull_bundle.loglik)
        assert w.n == 59
        evals = np.linalg.eigvalsh(w.values)[::-1]
        assert evals[:2].sum() / evals.sum() > 0.9


class TestCenteredLogLik:
    @_PROPERTY
    @given(loglik_cases(), st.sampled_from(["raw", "double_centered"]))
    def test_reads_w_without_forming_it(self, ll, kind):
        w = build_w(ll, kind=kind)
        centered = center_loglik(np.array(ll.values), kind)
        tol = 1e-12 * max(w.trace, 1.0)
        assert centered.trace == pytest.approx(w.trace, rel=0, abs=tol)
        np.testing.assert_allclose(centered.diagonal(), w.diagonal(), rtol=0, atol=tol)
        for p in range(w.n):
            np.testing.assert_allclose(centered.column(p), w.column(p), rtol=0, atol=tol)
        assert centered.gram().values.tobytes() == w.values.tobytes()

    def test_centers_in_place_and_hands_the_array_over(self):
        arr = np.random.default_rng(14).standard_normal((30, 7)) + 5.0
        centered = center_loglik(arr)
        assert centered.values is arr and not arr.flags.writeable
        np.testing.assert_allclose(arr.mean(axis=0), 0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.full((1, 3), 5.0), "need at least 2 posterior draws, got 1"),
            (np.full(3, 5.0), "must be 2-D"),
            (np.array([[5.0, np.nan], [5.0, 5.0]]), "non-finite"),
        ],
    )
    def test_refuses_before_centering(self, values, message):
        before = values.copy()
        with pytest.raises(InvalidInput, match=message):
            center_loglik(values)
        np.testing.assert_array_equal(values, before)

    def test_centered_passes_its_own_kind_through(self):
        ll = LogLikMatrix(np.random.default_rng(24).standard_normal((8, 5)) - 3.0)
        c = centered(ll, "double_centered")
        assert (c.kind, c.n_draws, c.n_obs) == ("double_centered", 8, 5)
        assert centered(c, "double_centered") is c
        with pytest.raises(InvalidInput, match="centered double_centered, not raw"):
            centered(c)
        assert not np.shares_memory(centered(ll).values, ll.values)

    def test_consumers_read_a_centered_one_as_the_raw_matrix(self):
        rng = np.random.default_rng(25)
        ll = LogLikMatrix(rng.standard_normal((40, 7)) * 2.0 - 3.0)
        stats = StatMatrix(rng.standard_normal((40, 2)))
        raw, dc = center_loglik(np.array(ll.values)), centered(ll, "double_centered")
        for read, c in [
            (lambda x: freq_cov(stats, x, estimator="centered"), raw),
            (lambda x: build_w(x).values, raw),
            (lambda x: build_w(x, "double_centered").values, dc),
            (lambda x: z_spectrum(x)[0], dc),
        ]:
            assert read(c).tobytes() == read(ll).tobytes()


class TestWKernel:
    def test_constant_point(self):
        v = np.full(6, 1.5)
        assert eval_w_kernel(v, v, 10) == 0.0

    def test_consistency_with_w(self):
        rng = np.random.default_rng(17)
        ll = LogLikMatrix(rng.standard_normal((9, 4)))
        w = build_w(ll)
        for i in range(4):
            for j in range(4):
                k = eval_w_kernel(ll.values[:, i], ll.values[:, j], 4)
                assert k == pytest.approx(4 * w.values[i, j], rel=1e-12, abs=1e-15)

    def test_out_of_sample_point_normal_mean(self):
        # analytic leading order: kernel at (x, y) is (x - xbar)(y - xbar)
        x, theta, _ = normal_mean_setup(200, 100000, seed=1)
        xbar = x.mean()
        pts = np.array([xbar + 1.0, xbar - 0.5])
        cols = normal_loglik_at(pts, theta)
        got = eval_w_kernel(cols[:, 0], cols[:, 1], 200)
        assert got == pytest.approx(-0.5, rel=0.05)


class TestDeviationAndZ:
    def test_constant_loglik_gives_zero(self):
        ll = LogLikMatrix(np.full((4, 3), 2.5))
        np.testing.assert_allclose(build_deviation(ll).values, 0.0, atol=1e-15)
        np.testing.assert_allclose(build_z(ll).values, 0.0, atol=1e-15)

    def test_z_matches_defining_formula(self):
        rng = np.random.default_rng(4)
        ll = LogLikMatrix(rng.standard_normal((5, 4)))
        z = build_z(ll)
        centered = ll.values - ll.values.mean(axis=0)  # draw-centered rows
        for r in range(5):
            for s in range(5):
                f, g = centered[r], centered[s]
                direct = np.mean((f - f.mean()) * (g - g.mean()))
                assert z.values[r, s] == pytest.approx(direct, abs=1e-14)

    def test_factorization_identities(self):
        rng = np.random.default_rng(44)
        ll = LogLikMatrix(rng.standard_normal((6, 4)) * 2.0)
        dev = build_deviation(ll).values
        n, m = 4, 6
        z = build_z(ll)
        wc = build_w(ll, kind="double_centered")
        np.testing.assert_allclose(z.values / m, dev.T @ dev / (n * m), atol=1e-12)
        np.testing.assert_allclose(wc.values / n, dev @ dev.T / (n * m), atol=1e-12)

    def test_exact_duality_of_nonzero_spectra(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            m = int(rng.integers(4, 20))
            n = int(rng.integers(3, 12))
            ll = LogLikMatrix(rng.standard_normal((m, n)) * rng.uniform(0.5, 4.0))
            z_eigs = np.linalg.eigvalsh(build_z(ll).values / m)[::-1]
            w_eigs = np.linalg.eigvalsh(
                build_w(ll, kind="double_centered").values / n
            )[::-1]
            rank = min(n, m) - 1
            scale = max(w_eigs[0], 1e-300)
            np.testing.assert_allclose(
                z_eigs[:rank], w_eigs[:rank], rtol=1e-10, atol=1e-10 * scale
            )


class TestZSpectrumProperties:
    @_PROPERTY
    @given(loglik_cases())
    def test_matches_dense_z(self, ll):
        z_eigs, max_rel = z_spectrum(ll)
        want = np.linalg.eigvalsh(build_z(ll).values)[::-1]
        assert z_eigs.shape == (ll.n_draws,)
        np.testing.assert_allclose(
            z_eigs, want, rtol=0, atol=1e-10 * np.max(np.abs(want))
        )
        assert np.all(z_eigs[min(ll.n_obs, ll.n_draws) :] == 0.0)
        assert 0.0 <= max_rel <= 1e-10


class TestWShiftProperty:
    @_PROPERTY
    @given(
        # a shifted constant input is W = 0 plus centering noise: no case
        loglik_cases(kinds=_LOGLIK_KINDS[:3]),
        st.integers(0, 13),
        st.floats(-10.0, 10.0),
        st.sampled_from(["raw", "double_centered"]),
    )
    def test_constant_shift_of_one_observation(self, ll, obs, shift, kind):
        # a constant added to one observation's log-likelihood is no
        # covariance with anything
        shifted = np.array(ll.values)
        shifted[:, obs % ll.n_obs] += shift
        w = build_w(ll, kind=kind)
        got = build_w(LogLikMatrix(shifted), kind=kind)
        # scaled by the raw trace: with all observations duplicated the
        # double-centered W is exactly 0 and the shifted one is rounding
        scale = build_w(ll, kind="raw").trace
        np.testing.assert_allclose(got.values, w.values, rtol=0, atol=1e-12 * scale)


def _exactly_symmetric(mat):
    return np.array_equal(mat, mat.T)


class TestGramProductsAreExactlySymmetric:
    """numpy returns the Gram product of one C- or F-contiguous array exactly
    symmetric, so these products are not symmetrized again."""

    @_PROPERTY
    @given(
        st.integers(2, 40),
        st.integers(2, 40),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_products(self, m, n, seed, fortran):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
        if fortran:
            arr = np.asfortranarray(arr)
        assert _exactly_symmetric(arr.T @ arr) and _exactly_symmetric(arr @ arr.T)
        ll = LogLikMatrix(arr)
        for kind in ("raw", "double_centered"):
            assert _exactly_symmetric(build_w(ll, kind=kind).values)
        assert _exactly_symmetric(build_z(ll).values)
        stats = StatMatrix(arr[:, : min(n, 3)].copy(order="F" if fortran else "C"))
        for estimator in ("plain", "centered"):
            assert _exactly_symmetric(freq_cov(stats, ll, estimator=estimator))
        k = min(n, 4)
        scores = ScoreMatrix(values=arr[:, :k].copy(order="K"), hessian_sum=np.eye(k))
        assert _exactly_symmetric(build_info_matrices(scores)[0])
        shifted = build_info_matrices(scores, prior_score=np.ones(k), prior_weight=0.5)
        assert _exactly_symmetric(shifted[0])


class TestInfoMatrices:
    def test_normal_mean_analytic(self):
        x, _, _ = normal_mean_setup(300, 10, seed=2)
        xbar = x.mean()
        scores = ScoreMatrix(values=(x - xbar).reshape(-1, 1), hessian_sum=np.array([[1.0]]))
        i_hat, j_hat, sandwich = build_info_matrices(scores)
        sample_var = np.mean((x - xbar) ** 2)
        assert j_hat[0, 0] == pytest.approx(1.0)
        assert i_hat[0, 0] == pytest.approx(sample_var, rel=1e-12)
        assert sandwich[0, 0] == pytest.approx(sample_var, rel=1e-12)

    def test_zero_scores(self):
        scores = ScoreMatrix(values=np.zeros((5, 2)), hessian_sum=np.eye(2))
        i_hat, _, _ = build_info_matrices(scores)
        np.testing.assert_allclose(i_hat, 0.0)

    def test_well_specified_sandwich_near_identity(self):
        x, _, _ = normal_mean_setup(4000, 10, seed=3)
        xbar = x.mean()
        scores = ScoreMatrix(
            values=(x - xbar).reshape(-1, 1), hessian_sum=np.array([[1.0]])
        )
        _, _, sandwich = build_info_matrices(scores)
        assert abs(sandwich[0, 0] - 1.0) < 0.1

    def test_prior_adjustment_shifts_scores(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((40, 2))
        scores = ScoreMatrix(values=s, hessian_sum=np.eye(2))
        ps = np.array([0.5, -1.0])
        ph = -np.eye(2)  # log-concave prior curvature
        i_hat, j_hat, _ = build_info_matrices(
            scores, prior_score=ps, prior_weight=0.3, prior_hessian=ph
        )
        shifted = s + 0.3 * ps
        np.testing.assert_allclose(i_hat, shifted.T @ shifted / 40, atol=1e-12)
        np.testing.assert_allclose(j_hat, np.eye(2) * 1.3, atol=1e-12)

    def test_prior_weight_requires_score(self):
        scores = ScoreMatrix(values=np.ones((4, 1)), hessian_sum=np.eye(1))
        with pytest.raises(InvalidInput):
            build_info_matrices(scores, prior_weight=0.5)

    @pytest.mark.parametrize("weight", [-0.5, np.nan, np.inf])
    def test_prior_weight_outside_zero_inf_is_refused(self, weight):
        scores = ScoreMatrix(values=np.ones((4, 2)), hessian_sum=np.eye(2))
        with pytest.raises(InvalidInput) as info:
            build_info_matrices(scores, prior_score=np.ones(2), prior_weight=weight)
        assert str(info.value) == f"prior_weight must be in [0, inf), got {weight}"

    def test_zero_prior_weight_is_unadjusted(self):
        s = np.arange(8.0).reshape(4, 2)
        scores = ScoreMatrix(values=s, hessian_sum=np.eye(2))
        plain = build_info_matrices(scores)
        zero = build_info_matrices(scores, prior_score=np.ones(2), prior_weight=0.0)
        for a, b in zip(plain, zero):
            assert np.array_equal(a, b)

    def test_singular_curvature_rejected(self):
        scores = ScoreMatrix(values=np.ones((4, 2)), hessian_sum=np.zeros((2, 2)))
        with pytest.raises(NumericalFailure, match="J_hat is not positive definite"):
            build_info_matrices(scores)

    def test_triple_is_read_only(self):
        scores = ScoreMatrix(values=np.ones((4, 2)), hessian_sum=np.eye(2))
        for mat in build_info_matrices(scores):
            assert mat.shape == (2, 2) and not mat.flags.writeable

    def test_overflowing_information_is_refused(self):
        scores = ScoreMatrix(values=np.full((4, 2), 1e200), hessian_sum=np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInput, match="I_hat contains non-finite entries"):
                build_info_matrices(scores)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_score_is_refused(self, bad):
        scores = ScoreMatrix(values=np.ones((4, 2)), hessian_sum=np.eye(2))
        with pytest.raises(InvalidInput, match="prior_score contains non-finite entries"):
            build_info_matrices(scores, prior_score=np.array([0.0, bad]), prior_weight=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_hessian_is_refused(self, bad):
        scores = ScoreMatrix(values=np.ones((4, 2)), hessian_sum=np.eye(2))
        ph = -np.eye(2)
        ph[0, 1] = ph[1, 0] = bad
        with pytest.raises(InvalidInput, match="prior_hessian contains non-finite entries"):
            build_info_matrices(
                scores, prior_score=np.zeros(2), prior_weight=0.5, prior_hessian=ph
            )


class TestSymmetricRoots:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((4, 4))
        mat = b @ b.T + 4 * np.eye(4)
        root = sym_sqrt(mat)
        np.testing.assert_allclose(root @ root, mat, atol=1e-10)
        inv_root = sym_inv_sqrt(mat)
        np.testing.assert_allclose(inv_root @ mat @ inv_root, np.eye(4), atol=1e-10)


class TestScoreKernels:
    def test_plain_orthogonal_scores(self):
        scores = ScoreMatrix(values=np.eye(3), hessian_sum=np.eye(3))
        assert eval_score_kernel(
            scores, "plain", np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        ) == pytest.approx(0.0)

    def test_normal_mean_curvature_kernel(self):
        x, _, _ = normal_mean_setup(50, 10, seed=12)
        xbar = x.mean()
        scores = ScoreMatrix(
            values=(x - xbar).reshape(-1, 1), hessian_sum=np.array([[1.0]])
        )
        for xa, xb in [(1.3, -0.4), (0.2, 2.0)]:
            got = eval_score_kernel(
                scores,
                "modified_fisher",
                np.array([xa - xbar]),
                np.array([xb - xbar]),
            )
            assert got == pytest.approx((xa - xbar) * (xb - xbar), rel=1e-12)

    def test_fisher_uses_score_information(self):
        rng = np.random.default_rng(13)
        s = rng.standard_normal((30, 2))
        scores = ScoreMatrix(values=s, hessian_sum=np.eye(2))
        i_hat = s.T @ s / 30
        x, y = rng.standard_normal((2, 2))
        expect = x @ np.linalg.solve(i_hat, y)
        assert eval_score_kernel(scores, "fisher", x, y) == pytest.approx(expect)

    def test_w_kernel_approaches_curvature_kernel(self):
        # flat prior, growing n: relative gap between the covariance kernel
        # on the data and the score kernel shrinks
        errs = {}
        for n in (40, 160):
            per_seed = []
            for seed in range(6):
                x, theta, ll = normal_mean_setup(n, 40000, seed=1000 + seed)
                xbar = x.mean()
                kw = n * build_w(ll).values
                kmf = np.outer(x - xbar, x - xbar)
                per_seed.append(np.linalg.norm(kw - kmf) / np.linalg.norm(kmf))
            errs[n] = float(np.median(per_seed))
        assert errs[160] < errs[40]


class TestFeatureMatrix:
    def test_identity_curvature_returns_scores(self):
        rng = np.random.default_rng(21)
        s = rng.standard_normal((10, 3))
        scores = ScoreMatrix(values=s, hessian_sum=np.eye(3))
        info = build_info_matrices(scores)
        np.testing.assert_allclose(mf_feature_matrix(scores, info), s, atol=1e-12)

    def test_duality_identities(self):
        rng = np.random.default_rng(22)
        s = rng.standard_normal((25, 3))
        b = rng.standard_normal((3, 3))
        hess = b @ b.T / 3 + np.eye(3)
        scores = ScoreMatrix(values=s, hessian_sum=hess)
        info = build_info_matrices(scores)
        phi = mf_feature_matrix(scores, info)
        n = 25
        # kernel reproduction
        j_inv = np.linalg.inv(hess)
        kernel = s @ j_inv @ s.T
        np.testing.assert_allclose(phi @ phi.T / n, kernel / n, atol=1e-10)
        # sandwich reproduction
        np.testing.assert_allclose(phi.T @ phi / n, info[2], atol=1e-10)

    def test_normal_mean_feature_is_centered_data(self):
        x, _, _ = normal_mean_setup(40, 10, seed=33)
        xbar = x.mean()
        scores = ScoreMatrix(
            values=(x - xbar).reshape(-1, 1), hessian_sum=np.array([[1.0]])
        )
        info = build_info_matrices(scores)
        phi = mf_feature_matrix(scores, info)
        np.testing.assert_allclose(phi[:, 0], x - xbar, atol=1e-12)


class TestEmbedding:
    def test_draws_at_estimate_give_zero(self):
        draws = np.full((20, 2), 1.5)
        emb = build_embedding(draws, np.array([1.5, 1.5]), np.eye(2), n=10)
        np.testing.assert_allclose(emb, 0.0)
        assert emb.shape == (2, 20) and not emb.flags.writeable

    def test_orthogonality_gap_normal_mean(self):
        x, theta, _ = normal_mean_setup(200, 10000, seed=41)
        emb = build_embedding(theta.reshape(-1, 1), np.array([x.mean()]), np.eye(1), n=200)
        gap, duality = embedding_report(emb, 200)
        assert gap < 0.1 and duality is None

    def test_duality_gap_small_case(self):
        # moderate M so the dense dual covariance is cheap to materialize
        x, theta, ll = normal_mean_setup(200, 400, seed=43)
        xbar = x.mean()
        z = build_z(ll)
        scores = ScoreMatrix(
            values=(x - xbar).reshape(-1, 1), hessian_sum=np.array([[1.0]])
        )
        _, _, sandwich = build_info_matrices(scores)
        emb = build_embedding(theta.reshape(-1, 1), np.array([xbar]), np.eye(1), n=200)
        _, duality = embedding_report(emb, 200, z=z, sandwich=sandwich)
        # scaled Z is rank-one dominated with norm ~ 1; the conjugated
        # sandwich must capture it up to sampling error
        assert duality is not None
        scale = np.linalg.norm(200 / 400 * z.values)
        assert duality < 0.5 * scale

    def test_eigenvalue_correspondence_via_dual(self):
        x, theta, ll = normal_mean_setup(200, 10000, seed=47)
        xbar = x.mean()
        sample_var = float(np.mean((x - xbar) ** 2))
        # lambda_1((1/n) W_centered) equals (1/M) lambda_1(Z) exactly
        wc = build_w(ll, kind="double_centered")
        lam1 = np.linalg.eigvalsh(wc.values)[-1]
        assert abs(lam1 - sample_var) / sample_var < 0.2

    def test_shape_validation(self):
        with pytest.raises(InvalidInput):
            build_embedding(np.zeros((10, 2)), np.zeros(3), np.eye(2), n=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_are_refused(self, bad):
        draws = np.random.default_rng(49).standard_normal((20, 2))
        draws[7, 1] = bad
        with pytest.raises(InvalidInput, match="^draws contains non-finite entries$"):
            build_embedding(draws, np.zeros(2), np.eye(2), n=10)

    def test_report_refuses_z_without_sandwich_and_a_draw_mismatch(self):
        x, theta, ll = normal_mean_setup(30, 40, seed=51)
        emb = build_embedding(theta.reshape(-1, 1), np.array([x.mean()]), np.eye(1), n=30)
        z = build_z(ll)
        with pytest.raises(InvalidInput, match="needs both z and sandwich"):
            embedding_report(emb, 30, z=z)
        with pytest.raises(InvalidInput, match="Z has 40 draws, embedding has 39"):
            embedding_report(emb[:, :39], 30, z=z, sandwich=np.eye(1))
