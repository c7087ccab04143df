"""Pivoted Cholesky, eigensolvers, projections, and representative sets."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wkernel import spectral
from wkernel.core import LogLikMatrix, posterior_var, third_cumulant
from wkernel.errors import InvalidInput, NumericalFailure, RankOutOfRange
from wkernel.kernels import WMatrix, build_w, center_loglik
from wkernel.spectral import (
    _PIVOT_TIE,
    _TAIL_TOL,
    _signs,
    dual_eigen,
    full_eigen,
    incomplete_cholesky,
    principal_basis,
    project_loglik,
    project_perturbation,
    representative_set,
    subsample_draws,
)


def wmat(values):
    return WMatrix(values=np.asarray(values, dtype=float))


def random_psd(rng, n, rank=None):
    rank = rank or n
    b = rng.standard_normal((n, rank))
    return wmat(b @ b.T)


class TestIncompleteCholesky:
    def test_rank_one_stops_after_one_column(self):
        v = np.array([1.0, -2.0, 0.5])
        chol = incomplete_cholesky(wmat(np.outer(v, v)), rel_tol=1e-10)
        assert chol.a_M == 1
        assert chol.residual_trace <= 1e-12 * chol.trace_w

    def test_hand_pivot_on_diagonal(self):
        chol = incomplete_cholesky(wmat(np.diag([3.0, 1.0])), rel_tol=1e-12, max_rank=2)
        assert chol.pivots[0] == 0
        np.testing.assert_allclose(chol.L[:, 0], [np.sqrt(3.0), 0.0])

    def test_planted_rank_recovered(self):
        rng = np.random.default_rng(42)
        w = random_psd(rng, 10, rank=3)
        chol = incomplete_cholesky(w, rel_tol=1e-10, max_rank=10)
        assert chol.a_M == 3

    def test_reconstruction_and_monotone_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 16))
            w = random_psd(rng, n)
            chol = incomplete_cholesky(w, rel_tol=1e-10, max_rank=n)
            # monitored residual equals actual reconstruction residual
            recon = chol.reconstruct()
            assert np.trace(w.values - recon) == pytest.approx(
                chol.residual_trace, abs=1e-10 * max(chol.trace_w, 1.0)
            )
            hist = chol.residual_trace_history
            assert np.all(np.diff(hist) <= 1e-12 * chol.trace_w)

    def test_residual_not_below_optimal_truncation(self):
        # greedy pivoting can never beat the eigenvalue tail
        rng = np.random.default_rng(6)
        w = random_psd(rng, 12)
        chol = incomplete_cholesky(w, rel_tol=1e-12, max_rank=12)
        evals = np.linalg.eigvalsh(w.values)[::-1]
        for j, res in enumerate(chol.residual_trace_history, start=1):
            assert res >= evals[j:].sum() - 1e-9

    def test_tie_break_lowest_index(self):
        w = wmat(np.diag([2.0, 2.0, 1.0]))
        chol = incomplete_cholesky(w, rel_tol=1e-12, max_rank=3)
        assert chol.pivots[0] == 0
        assert chol.pivots[1] == 1

    def test_not_psd_raises(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NumericalFailure, match="not PSD"):
            incomplete_cholesky(wmat(bad), rel_tol=1e-12, max_rank=2)

    def test_zero_matrix_gives_empty_factor(self):
        chol = incomplete_cholesky(wmat(np.zeros((4, 4))))
        assert chol.a_M == 0
        assert chol.stopped_by == "exhausted"

    def test_bad_tolerance(self):
        with pytest.raises(InvalidInput):
            incomplete_cholesky(wmat(np.eye(2)), rel_tol=0.0)


@st.composite
def psd_cases(draw):
    """Random PSD W, possibly rank-deficient, possibly with duplicated
    observations (identical rows and columns, so exact diagonal ties),
    scaled to unit largest diagonal."""
    n_unique = draw(st.integers(1, 8))
    rank = draw(st.integers(1, n_unique))
    n_dup = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((n_unique, rank))
    w0 = base @ base.T
    w0 = (w0 + w0.T) / 2.0
    dups = rng.integers(0, n_unique, n_dup)
    idx = rng.permutation(np.concatenate([np.arange(n_unique), dups]))
    w = w0[np.ix_(idx, idx)]
    return w / np.max(np.diagonal(w))


def schur_diagonals(w, pivots):
    """Residual diagonal before each step, from explicit dense Schur complements."""
    s = np.array(w, dtype=float)
    out = []
    for p in pivots:
        out.append(np.diagonal(s).copy())
        s = s - np.outer(s[:, p], s[:, p]) / s[p, p]
    return out


_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestCholeskyProperties:
    @_PROPERTY
    @given(psd_cases(), st.integers(1, 12))
    def test_pivots_follow_the_schur_complement(self, w, max_rank):
        n = w.shape[0]
        chol = incomplete_cholesky(wmat(w), rel_tol=1e-10, max_rank=min(max_rank, n))
        free = np.ones(n, dtype=bool)
        slack = _PIVOT_TIE / 4
        for k, (p, ref) in enumerate(zip(chol.pivots, schur_diagonals(w, chol.pivots))):
            assert free[p]
            top = np.max(ref[free])
            # a largest residual diagonal, and no lower free index ties with it
            assert ref[p] >= top - _PIVOT_TIE - slack
            lower = free.copy()
            lower[p:] = False
            assert np.all(ref[lower] < top - _PIVOT_TIE + slack)
            assert chol.L[p, k] == pytest.approx(np.sqrt(ref[p]), rel=1e-10)
            free[p] = False

    @_PROPERTY
    @given(psd_cases(), st.integers(1, 12))
    def test_stop_reason_is_recorded(self, w, max_rank):
        cap = min(max_rank, w.shape[0])
        chol = incomplete_cholesky(wmat(w), rel_tol=1e-10, max_rank=cap)
        if chol.residual_trace <= 1e-10 * chol.trace_w:
            assert chol.stopped_by == "rel_tol"
        else:
            assert chol.stopped_by == "max_rank" and chol.a_M == cap

    @_PROPERTY
    @given(psd_cases(), st.integers(1, 12))
    def test_factor_is_in_observation_order(self, w, max_rank):
        n = w.shape[0]
        chol = incomplete_cholesky(wmat(w), rel_tol=1e-10, max_rank=min(max_rank, n))
        assert chol.L.shape == (n, chol.a_M)
        assert len(set(chol.pivots.tolist())) == chol.a_M
        # column k is zero on every row pivoted before step k
        tri = chol.L[chol.pivots]
        assert np.all(np.triu(tri, 1) == 0.0)
        assert np.all(np.diagonal(tri) > 0.0)
        assert np.trace(w - chol.reconstruct()) == pytest.approx(
            chol.residual_trace, abs=1e-10 * chol.trace_w
        )

    @_PROPERTY
    @given(psd_cases())
    def test_dual_eigen_matches_full_eigen_at_full_rank(self, w):
        n = w.shape[0]
        basis_d = dual_eigen(incomplete_cholesky(wmat(w), rel_tol=1e-12, max_rank=n))
        basis_f = full_eigen(wmat(w))
        k = basis_d.rank_retained
        lam = basis_f.eigenvalues
        tol = 1e-10 * lam[0]
        np.testing.assert_allclose(basis_d.eigenvalues, lam[:k], rtol=0, atol=tol)
        assert np.all(lam[k:] <= tol)
        # eigenvectors are unique (same sign convention) where the gap is wide
        gaps = np.abs(lam[:k, None] - lam[None, :])
        gaps[np.arange(k), np.arange(k)] = np.inf
        wide = np.min(gaps, axis=1) > 1e-3 * lam[0]
        vectors_f = basis_f.vectors[:, :k]
        np.testing.assert_allclose(
            basis_d.vectors[:, wide], vectors_f[:, wide], rtol=0, atol=1e-10
        )


@st.composite
def planted_loglik_cases(draw):
    """(log-likelihoods, kind, rank cap): M x n of planted rank r below
    min(M - 1, n), factor scales 1, 1/2, 1/4, ..., with M < n or M > n and
    some observations repeated, so that diagonals tie exactly."""
    r = draw(st.integers(1, 4))
    small = draw(st.integers(r + 2, 9))
    large = draw(st.integers(small + 1, 20))
    m, n = draw(st.sampled_from([(small, large), (large, small)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = rng.standard_normal((r, n)) * 0.5 ** np.arange(r)[:, None]
    factors = factors[:, rng.integers(0, n, size=n) if draw(st.booleans()) else slice(None)]
    vals = rng.standard_normal((m, r)) @ factors
    # W's largest diagonal near 1, the scale _PIVOT_TIE is absolute on
    vals = vals / np.sqrt(np.max(np.var(vals, axis=0))) + rng.integers(-5, 6, size=n)
    kind = draw(st.sampled_from(["raw", "double_centered"]))
    cap = draw(st.none() | st.integers(1, max(r - 1, 1)))
    return LogLikMatrix(vals), kind, cap


class TestCholeskyFromLogLik:
    """The factorization reading W's columns from the centered
    log-likelihoods against the one reading the W that build_w forms."""

    @_PROPERTY
    @given(planted_loglik_cases())
    def test_matches_factorization_of_w(self, case):
        ll, kind, cap = case
        w = build_w(ll, kind)
        want = incomplete_cholesky(w, max_rank=cap)
        got = incomplete_cholesky(center_loglik(np.array(ll.values), kind), max_rank=cap)
        assert got.trace_w == pytest.approx(want.trace_w, rel=1e-12)
        free = np.ones(ll.n_obs, dtype=bool)
        for k, p in enumerate(want.pivots):
            d = np.diagonal(w.values) - np.sum(want.L[:, :k] ** 2, axis=1)
            threshold = np.max(d[free]) - _PIVOT_TIE
            if np.any(np.abs(d[free] - threshold) <= _PIVOT_TIE / 4):
                return  # rounding could put a diagonal on either side of the window
            assert got.pivots[k] == p
            free[p] = False
        assert got.stopped_by == want.stopped_by
        np.testing.assert_array_equal(got.pivots, want.pivots)
        np.testing.assert_allclose(got.L, want.L, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            got.residual_trace_history, want.residual_trace_history, rtol=0, atol=1e-12
        )

    def test_factor_is_handed_over_at_the_rank_cap(self, monkeypatch):
        # the doubling buffer is exactly 500 columns wide at the default cap
        rng = np.random.default_rng(11)
        source = center_loglik(rng.standard_normal((600, 700)))
        build, built = spectral.PivotedCholesky, []

        def traced(**fields):
            tracemalloc.start()
            try:
                chol = build(**fields)
                built.append((chol, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return chol

        monkeypatch.setattr(spectral, "PivotedCholesky", traced)
        chol = incomplete_cholesky(source)
        assert chol.stopped_by == "max_rank" and chol.a_M == 500
        assert built[0][1] < 0.01 * chol.L.nbytes


def _signs_by_argmax(vectors):
    """The sign rule as first written, with one |V| temporary."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


class TestSigns:
    @_PROPERTY
    @given(
        hnp.arrays(
            float,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
        )
    )
    def test_same_as_argmax_rule(self, vectors):
        # small sets of values give ties of +-max and zero columns
        np.testing.assert_array_equal(_signs(vectors), _signs_by_argmax(vectors))

    def test_tie_goes_to_the_first_largest_component(self):
        vectors = np.array([[0.0, 2.0, 0.0], [-2.0, -2.0, 0.0], [2.0, 1.0, -0.0]])
        np.testing.assert_array_equal(_signs(vectors), [-1.0, 1.0, 1.0])


class TestDualEigen:
    def test_identity_factor(self):
        chol = incomplete_cholesky(wmat(np.eye(4)), rel_tol=1e-12, max_rank=4)
        basis = dual_eigen(chol)
        np.testing.assert_allclose(basis.eigenvalues, 1.0)
        # fully degenerate spectrum: the basis is the axes up to ordering
        perm = np.abs(basis.vectors)
        np.testing.assert_allclose(perm @ perm.T, np.eye(4), atol=1e-12)
        assert np.all(np.isin(np.round(perm), [0.0, 1.0]))

    def test_matches_full_eigen(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            w = random_psd(rng, n)
            basis_d = dual_eigen(incomplete_cholesky(w, rel_tol=1e-14, max_rank=n))
            basis_f = full_eigen(w)
            k = basis_d.rank_retained
            np.testing.assert_allclose(
                basis_d.eigenvalues, basis_f.eigenvalues[:k], atol=1e-8
            )
            assert np.all(basis_f.eigenvalues[k:] <= 1e-8 * basis_f.eigenvalues[0])

    def test_exact_rank_count(self):
        rng = np.random.default_rng(31)
        w = random_psd(rng, 10, rank=3)
        basis = dual_eigen(incomplete_cholesky(w, rel_tol=1e-10, max_rank=10))
        assert basis.rank_retained == 3

    def test_vectors_are_eigenvectors(self):
        rng = np.random.default_rng(32)
        w = random_psd(rng, 8)
        basis = dual_eigen(incomplete_cholesky(w, rel_tol=1e-14, max_rank=8))
        lam1 = basis.eigenvalues[0]
        for a in range(basis.rank_retained):
            resid = w.values @ basis.vectors[:, a] - basis.eigenvalues[a] * basis.vectors[:, a]
            assert np.max(np.abs(resid)) <= 1e-6 * lam1
        gram = basis.vectors.T @ basis.vectors
        np.testing.assert_allclose(gram, np.eye(basis.rank_retained), atol=1e-8)


@st.composite
def loglik_cases(draw):
    """Random M x n log-likelihoods with M < n, M > n or M = n, possibly
    with duplicated draws or duplicated observations, or constant over
    the draws (integer columns, so centering leaves exact zeros).  One
    column's spread may be scaled down so that its direction carries
    about 1e-4 or 1e-12 of the variance: kept and dropped by the tail
    rule, and both far above the 1e-14 rank-drop level."""
    small = draw(st.integers(2, 9))
    large = draw(st.integers(small + 1, 14))
    m, n = draw(st.sampled_from([(small, large), (large, small), (small, small)]))
    variant = draw(st.sampled_from(["plain", "dup_draws", "dup_obs", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.integers(-5, 6, size=n).astype(float)
    if variant == "constant":
        return LogLikMatrix(np.tile(offsets, (m, 1)))
    spread = rng.uniform(0.5, 2.0, size=n)
    spread[rng.integers(n)] *= draw(st.sampled_from([1.0, 1e-2, 1e-6]))
    vals = rng.standard_normal((m, n)) * spread + offsets
    if variant == "dup_draws":
        vals = vals[rng.integers(0, max(m // 2, 1), size=m)]
    elif variant == "dup_obs":
        vals = vals[:, rng.integers(0, max(n // 2, 1), size=n)]
    return LogLikMatrix(vals)


def tail_rank(evals):
    """The fewest leading eigenvalues whose dropped tail sums to at most
    _TAIL_TOL times the total."""
    tail = np.cumsum(np.maximum(evals, 0.0)[::-1])[::-1]
    return int(np.count_nonzero(tail > _TAIL_TOL * tail[0])) if evals.size else 0


class TestPrincipalBasisProperties:
    @_PROPERTY
    @given(loglik_cases())
    def test_matches_dense_eigen_of_w(self, ll):
        basis = principal_basis(ll)
        dense = full_eigen(build_w(ll))
        lam = dense.eigenvalues
        k = basis.rank_retained
        assert k == tail_rank(lam)
        assert basis.vectors.shape == (ll.n_obs, k)
        if k == 0:
            return
        np.testing.assert_allclose(basis.eigenvalues, lam[:k], rtol=0, atol=1e-10 * lam[0])
        np.testing.assert_allclose(basis.vectors.T @ basis.vectors, np.eye(k), atol=1e-10)
        # the top-j span is unique wherever the spectrum has a gap after j
        following = np.append(lam[1:], 0.0)
        for j in range(1, k + 1):
            if lam[j - 1] - following[j - 1] > 1e-6 * lam[0]:
                u, v = basis.vectors[:, :j], dense.vectors[:, :j]
                np.testing.assert_allclose(u @ u.T, v @ v.T, rtol=0, atol=1e-8)


class TestPrincipalBasisLeading:
    @pytest.mark.parametrize("shape", [(300, 2000), (2000, 60)])
    def test_leading_directions_are_the_full_basis_columns(self, shape):
        # bitwise: --rank must not change a byte of what it keeps
        rng = np.random.default_rng(12)
        ll = LogLikMatrix(rng.standard_normal(shape))
        full = principal_basis(ll)
        for a_M in (1, 2, 7, full.rank_retained):
            basis = principal_basis(ll, a_M)
            np.testing.assert_array_equal(basis.eigenvalues, full.eigenvalues[:a_M])
            np.testing.assert_array_equal(basis.vectors, full.vectors[:, :a_M])

    @pytest.mark.parametrize("a_M", [0, -1, 9])
    def test_rank_outside_the_retained_one_is_refused(self, a_M):
        ll = LogLikMatrix(np.random.default_rng(13).standard_normal((60, 8)))
        with pytest.raises(RankOutOfRange, match="retained rank 8") as info:
            principal_basis(ll, a_M)
        assert info.value.retained == 8


class TestLeadingRank:
    """principal_basis, project_loglik and project_perturbation keep one
    rule: from 1 to the retained rank of leading directions."""

    @pytest.mark.parametrize("beyond", [False, True], ids=["zero", "retained+1"])
    @pytest.mark.parametrize(
        "func", ["principal_basis", "project_loglik", "project_perturbation"]
    )
    def test_rank_outside_one_to_retained_is_refused(self, func, beyond):
        ll = LogLikMatrix(np.random.default_rng(14).standard_normal((60, 8)))
        basis = principal_basis(ll)
        a_M = basis.rank_retained + 1 if beyond else 0
        calls = {
            "principal_basis": lambda: principal_basis(ll, a_M),
            "project_loglik": lambda: project_loglik(ll, basis, a_M),
            "project_perturbation": lambda: project_perturbation(np.zeros(8), basis, a_M),
        }
        with pytest.raises(RankOutOfRange, match="retained rank 8") as info:
            calls[func]()
        assert (info.value.rank, info.value.retained) == (a_M, 8)


class TestFullEigen:
    def test_diagonal(self):
        basis = full_eigen(wmat(np.diag([5.0, 2.0, 0.0])))
        np.testing.assert_allclose(basis.eigenvalues, [5.0, 2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(basis.vectors[:, 0]), [1, 0, 0], atol=1e-14)

    def test_hand_two_by_two(self):
        basis = full_eigen(wmat([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(basis.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(basis.vectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(np.abs(basis.vectors[:, 1]), [s, s], atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        w = random_psd(rng, 6)
        basis = full_eigen(w)
        for a in range(basis.rank_retained):
            col = basis.vectors[:, a]
            assert col[np.argmax(np.abs(col))] > 0

    def test_cap_enforced(self):
        with pytest.raises(InvalidInput):
            full_eigen(wmat(np.eye(5)), cap=4)

    def test_zero_matrix_empty_basis(self):
        basis = full_eigen(wmat(np.zeros((3, 3))))
        assert basis.rank_retained == 0


class TestProjectLogLik:
    def _setup(self, seed=3, m=40, n=8):
        rng = np.random.default_rng(seed)
        ll = LogLikMatrix(rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, size=n))
        basis = full_eigen(build_w(ll))
        return ll, basis

    def test_complete_basis_identity(self):
        ll, basis = self._setup()
        proj = project_loglik(ll, basis, basis.rank_retained)
        np.testing.assert_allclose(proj.projected_loglik, ll.values, atol=1e-9)

    def test_projection_covariance_is_diagonal(self):
        ll, basis = self._setup()
        proj = project_loglik(ll, basis)
        lam1 = basis.eigenvalues[0]
        centered = proj.projections - proj.projections.mean(axis=0)
        cov = centered.T @ centered / ll.n_draws
        np.testing.assert_allclose(
            cov, np.diag(basis.eigenvalues), atol=1e-6 * max(lam1, 1.0)
        )

    def test_residual_variance_bound(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            m = int(rng.integers(5, 30))
            n = int(rng.integers(2, 10))
            ll = LogLikMatrix(rng.standard_normal((m, n)) * 2.0)
            basis = full_eigen(build_w(ll))
            for a_m in range(1, basis.rank_retained + 1):
                proj = project_loglik(ll, basis, a_m)
                tail = basis.eigenvalues[a_m:].sum()
                for i in range(n):
                    resid = ll.values[:, i] - proj.projected_loglik[:, i]
                    assert posterior_var(resid) <= tail + 1e-9 * basis.eigenvalues[0]

    def test_covariance_error_bound(self):
        rng = np.random.default_rng(78)
        ll = LogLikMatrix(rng.standard_normal((25, 6)))
        basis = full_eigen(build_w(ll))
        a = rng.standard_normal(25)
        for a_m in (1, 2, 4, 6):
            proj = project_loglik(ll, basis, a_m)
            tail = basis.eigenvalues[a_m:].sum()
            bound = np.sqrt(posterior_var(a) * tail) + 1e-9
            for i in range(6):
                from wkernel.core import posterior_cov

                gap = posterior_cov(a, ll.values[:, i]) - posterior_cov(
                    a, proj.projected_loglik[:, i]
                )
                assert abs(gap) <= bound

    def test_third_cumulant_error_bound(self):
        rng = np.random.default_rng(79)
        ll = LogLikMatrix(rng.standard_normal((30, 5)))
        basis = full_eigen(build_w(ll))
        a = np.tanh(rng.standard_normal(30))  # bounded statistic
        sup_a = np.max(np.abs(a - a.mean()))
        for a_m in (1, 3):
            proj = project_loglik(ll, basis, a_m)
            tail = np.sqrt(basis.eigenvalues[a_m:].sum())
            for i in range(5):
                for j in range(5):
                    gap = third_cumulant(
                        a, ll.values[:, i], ll.values[:, j]
                    ) - third_cumulant(
                        a, proj.projected_loglik[:, i], proj.projected_loglik[:, j]
                    )
                    bound = (
                        sup_a
                        * (
                            np.sqrt(posterior_var(ll.values[:, i]))
                            + np.sqrt(posterior_var(ll.values[:, j]))
                        )
                        * tail
                        + 1e-9
                    )
                    assert abs(gap) <= bound

    def test_rank_out_of_range(self):
        ll, basis = self._setup()
        with pytest.raises(InvalidInput):
            project_loglik(ll, basis, basis.rank_retained + 1)


class TestProjectPerturbation:
    def test_zero(self):
        rng = np.random.default_rng(50)
        basis = full_eigen(random_psd(rng, 5))
        np.testing.assert_allclose(project_perturbation(np.zeros(5), basis), 0.0)

    def test_first_eigenvector_maps_to_unit(self):
        rng = np.random.default_rng(51)
        basis = full_eigen(random_psd(rng, 5))
        coords = project_perturbation(basis.vectors[:, 0], basis)
        expect = np.zeros(basis.rank_retained)
        expect[0] = 1.0
        np.testing.assert_allclose(coords, expect, atol=1e-10)

    def test_isometry_at_full_rank(self):
        rng = np.random.default_rng(52)
        basis = full_eigen(random_psd(rng, 7))
        eta = rng.standard_normal(7)
        coords = project_perturbation(eta, basis, 7)
        assert np.linalg.norm(coords) == pytest.approx(np.linalg.norm(eta), rel=1e-12)


class TestRepresentativeSet:
    def test_rank_one_single_pivot(self):
        v = np.array([0.5, -3.0, 1.0])
        w = wmat(np.outer(v, v))
        chol = incomplete_cholesky(w, rel_tol=1e-10)
        basis = dual_eigen(chol)
        rset = representative_set(chol, basis)
        assert list(rset.indices) == [1]  # largest diagonal

    def test_reconstruction_matches_direct_projection(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            w = random_psd(rng, n)
            chol = incomplete_cholesky(w, rel_tol=1e-12, max_rank=n)
            basis = dual_eigen(chol)
            rset = representative_set(chol, basis)
            eta = rng.standard_normal(n)
            direct = project_perturbation(eta, basis)
            via_pivots = rset.principal_projection(eta)
            np.testing.assert_allclose(via_pivots, direct, atol=1e-8)

    def test_requires_dual_basis(self):
        rng = np.random.default_rng(61)
        w = random_psd(rng, 5)
        chol = incomplete_cholesky(w, rel_tol=1e-12, max_rank=5)
        with pytest.raises(InvalidInput):
            representative_set(chol, full_eigen(w))

    def test_no_more_near_duplicates_than_diagonal_selection(
        self, regression_est_sigma_bundle
    ):
        # pivoting should not duplicate near-identical covariate points more
        # than plain largest-diagonal selection does
        bundle = regression_est_sigma_bundle
        w = build_w(bundle.loglik)
        chol = incomplete_cholesky(w, rel_tol=1e-10, max_rank=w.n)
        k = 5
        z = bundle.covariates
        pivot_pts = z[chol.pivots[:k]]
        diag_sel = np.argsort(-np.diagonal(w.values))[:k]
        diag_pts = z[diag_sel]

        def close_pairs(pts):
            count = 0
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if abs(pts[i] - pts[j]) < 0.05:
                        count += 1
            return count

        assert close_pairs(pivot_pts) <= close_pairs(diag_pts)


class TestSubsampleDraws:
    def test_full_subsample_is_identity(self):
        rng = np.random.default_rng(70)
        ll = LogLikMatrix(rng.standard_normal((8, 3)))
        out = subsample_draws(ll, 8, seed=1)
        np.testing.assert_array_equal(out.values, ll.values)

    def test_single_draw_rejected(self):
        ll = LogLikMatrix(np.zeros((5, 2)))
        with pytest.raises(InvalidInput):
            subsample_draws(ll, 1, seed=1)

    def test_seed_determinism(self):
        rng = np.random.default_rng(71)
        ll = LogLikMatrix(rng.standard_normal((30, 4)))
        a = subsample_draws(ll, 10, seed=99)
        b = subsample_draws(ll, 10, seed=99)
        np.testing.assert_array_equal(a.values, b.values)
        c = subsample_draws(ll, 10, seed=100)
        assert not np.array_equal(a.values, c.values)

    def test_rows_keep_original_order(self):
        values = np.arange(40.0).reshape(20, 2)
        ll = LogLikMatrix(values)
        out = subsample_draws(ll, 6, seed=3)
        assert np.all(np.diff(out.values[:, 0]) > 0)
