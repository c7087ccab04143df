"""Principal-space machinery for the observation-covariance matrix.

The leading eigenvectors of the W matrix span the directions of
observation space that posterior means actually respond to.
``principal_basis`` reads that space from the smaller Gram product of
the centered log-likelihoods without forming W.  It, ``dual_eigen`` and
``kernels.z_spectrum`` share one eigen engine, ``kernels._gram_eigen``.
The incomplete pivoted Cholesky factorization (greedy diagonal
pivoting, kept in observation order, O(n * rank^2) plus one W column per
step) remains for its pivots, a representative subset of observations,
with the small dual eigenproblem that ``eigen`` reports beside them; it
reads W's columns from W or from the centered log-likelihoods.  A full dense
eigendecomposition serves as oracle.  Projection helpers map
log-likelihoods and perturbation vectors onto the retained directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LogLikMatrix, _freeze, _frozen, _stream
from .errors import InvalidInput, NumericalFailure
from .kernels import (
    CenteredLogLik,
    WMatrix,
    _eigh_descending,
    _gram_eigen,
    _rank,
    _signs,
    centered,
)

DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_RANK = 500
FULL_EIGEN_CAP = 2000
# principal_basis drops the longest eigenvalue tail summing to <= this * tr W
_TAIL_TOL = 1e-10

# pivot candidates within this absolute slack of the max diagonal tie-break
# to the lowest observation index, for deterministic output
_PIVOT_TIE = 1e-14


@dataclass(frozen=True)
class PivotedCholesky:
    """Incomplete pivoted Cholesky factorization of a PSD matrix.

    W = L L^T + R with L (n x a_M) in observation order: column k is
    zero on the rows pivoted before step k, so L[pivots] is lower
    triangular.  ``pivots`` are the observations chosen greedily by
    largest residual diagonal, in the order they were taken.
    ``residual_trace_history`` records tr R after each accepted column,
    so entry a-1 is the reconstruction error trace of the rank-a
    truncation.  ``stopped_by`` is why it ended: "rel_tol", "max_rank" (the
    cap, with tr R still above rel_tol * tr W) or "exhausted" (no residual
    left).  The factorization costs O(n * a_M^2) plus one W column per step.
    """

    L: np.ndarray
    pivots: np.ndarray
    residual_trace_history: np.ndarray
    trace_w: float
    stopped_by: str = "rel_tol"

    def __post_init__(self):
        _freeze(self, "L", "residual_trace_history")
        _freeze(self, "pivots", dtype=int)

    @property
    def a_M(self) -> int:
        return self.L.shape[1]

    @property
    def residual_trace(self) -> float:
        hist = self.residual_trace_history
        return float(hist[-1]) if hist.size else self.trace_w

    def reconstruct(self) -> np.ndarray:
        """Rank-a_M approximation L L^T."""
        return self.L @ self.L.T


@dataclass(frozen=True)
class SpectralBasis:
    """Leading eigenpairs of a symmetric PSD matrix, eigenvalues descending.

    ``vectors`` has orthonormal columns in the original observation
    ordering.  ``dual_vectors`` (set only by ``dual_eigen``) holds the
    eigenvectors of the small dual problem, which the representative set
    needs for its reconstruction map.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    dual_vectors: np.ndarray | None = None

    def __post_init__(self):
        _freeze(self, "eigenvalues", "vectors", "dual_vectors")
        evals, vecs = self.eigenvalues, self.vectors
        if evals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != evals.shape[0]:
            raise InvalidInput("eigenvalues and eigenvector columns disagree")
        if evals.size and np.any(np.diff(evals) > 1e-12 * max(evals[0], 1e-300)):
            raise InvalidInput("eigenvalues must be in descending order")

    @property
    def rank_retained(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ProjectedLogLik:
    """Log-likelihoods projected onto the leading principal directions.

    ``projections[u, a]`` is the a-th principal combination of the
    log-likelihoods at draw u; these combinations diagonalize the
    posterior covariance (their covariance matrix is diag(eigenvalues)).
    ``basis`` holds the a_M directions they were taken along.
    """

    projections: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        _freeze(self, "projections")

    @property
    def projected_loglik(self) -> np.ndarray:
        """The projections mapped back to per-observation space (draws x n),
        computed on each access: the rank-a_M approximation of the original
        log-likelihood matrix."""
        return self.projections @ self.basis.vectors.T

    @property
    def a_M(self) -> int:
        return self.projections.shape[1]

    @property
    def n_draws(self) -> int:
        return self.projections.shape[0]


@dataclass(frozen=True)
class RepresentativeSet:
    """Observations selected as Cholesky pivots, plus reconstruction maps.

    Perturbations restricted to these a_M observations can reproduce the
    first-order effect of any perturbation on posterior means: project
    eta through L (``eta_map``, observation order) to the pivot set, then
    through the dual eigenvectors back to principal coordinates.
    """

    indices: np.ndarray
    eta_map: np.ndarray
    eigen_link: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        _freeze(self, "indices", dtype=int)
        _freeze(self, "eta_map", "eigen_link", "eigenvalues")

    def pivot_projection(self, eta) -> np.ndarray:
        """Map a full perturbation vector to values on the pivot set."""
        return self.eta_map.T @ _as_eta(eta, self.eta_map.shape[0])

    def principal_projection(self, eta) -> np.ndarray:
        """Reconstruct the principal-space projection from pivot values."""
        dagger = self.pivot_projection(eta)
        return (self.eigen_link.T @ dagger) / np.sqrt(self.eigenvalues)


def _as_eta(eta, n: int) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (n,):
        raise InvalidInput(f"perturbation must have shape ({n},), got {eta.shape}")
    return eta


def _vectors(basis: SpectralBasis, n_obs: int) -> np.ndarray:
    """The basis vectors V, refused unless they span n_obs observations."""
    if basis.n != n_obs:
        raise InvalidInput(
            f"basis is over {basis.n} observations, log-likelihood has {n_obs}"
        )
    return basis.vectors


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


def incomplete_cholesky(
    w: WMatrix | CenteredLogLik,
    rel_tol: float = DEFAULT_REL_TOL,
    max_rank: int | None = None,
) -> PivotedCholesky:
    """Greedy pivoted Cholesky of W, stopped on the residual trace.

    Left-looking: only the residual diagonal d is kept up to date.  Each
    step pivots on the largest d (ties go to the lowest index), reads
    that one column of W and subtracts the columns of L taken so far,
    so the cost is O(n * rank^2) and W is never copied or permuted.
    ``w`` is W itself or its centered log-likelihoods C, whose columns
    cost O(M n) each but need no n x n array.  Stops when
    tr R <= rel_tol * tr W, when max_rank columns have been taken or when
    no residual is left, and records which.  A residual diagonal below
    -1e-10 * tr W means the input was not PSD.
    """
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInput(f"rel_tol must be in (0, 1), got {rel_tol}")
    n = w.n
    if max_rank is None:
        max_rank = min(n, DEFAULT_MAX_RANK)
    if not 0 < max_rank <= n:
        raise InvalidInput(f"max_rank must be in [1, {n}], got {max_rank}")

    trace_w = w.trace
    if trace_w < -1e-10 * max(abs(trace_w), 1.0):
        raise NumericalFailure("matrix has negative trace")
    # residual diagonal; pivoted entries are held at exactly zero
    d = w.diagonal()
    free = np.ones(n, dtype=bool)
    # columns of L, grown by doubling so a low rank never costs n x max_rank
    big_l = np.zeros((n, min(max_rank, 64)))
    pivots = []
    history = []
    stopped_by = "exhausted"

    # a degenerate zero matrix gives an empty factor rather than an error
    while trace_w > 0.0:
        if np.min(d) < -1e-10 * trace_w:
            raise NumericalFailure(
                f"residual diagonal fell to {np.min(d):.3e} "
                f"(limit {-1e-10 * trace_w:.3e}); input is not PSD"
            )
        k = len(pivots)
        d_max = np.max(d)
        converged = bool(history) and history[-1] <= rel_tol * trace_w
        if converged or d_max <= 0.0 or k == max_rank:
            stopped_by = (
                "rel_tol" if converged else "exhausted" if d_max <= 0.0 else "max_rank"
            )
            break
        p = int(np.argmax(free & (d >= d_max - _PIVOT_TIE)))

        if k == big_l.shape[1]:
            big_l = np.hstack([big_l, np.zeros((n, min(k, max_rank - k)))])
        pivot = np.sqrt(d[p])
        col = (w.column(p) - big_l[:, :k] @ big_l[p, :k]) / pivot
        col[~free] = 0.0
        col[p] = pivot
        big_l[:, k] = col
        d -= col * col
        d[p] = 0.0
        free[p] = False
        pivots.append(p)
        history.append(float(np.sum(d)))

    # at the rank cap the buffer is exactly as wide as L, and is handed over
    if big_l.shape[1] != len(pivots):
        big_l = big_l[:, : len(pivots)].copy()
    return PivotedCholesky(
        L=_frozen(big_l),
        pivots=np.array(pivots, dtype=int),
        residual_trace_history=np.array(history),
        trace_w=trace_w,
        stopped_by=stopped_by,
    )


def dual_eigen(chol: PivotedCholesky) -> SpectralBasis:
    """Spectrum of W from the small dual problem of its Cholesky factor.

    Solves the a_M x a_M eigenproblem of L^T L, whose nonzero
    eigenvalues equal those of L L^T, and lifts each eigenvector V_a to
    the unit eigenvector L V_a / sqrt(lambda_a) of W (already in
    observation order).  Eigenvalues at relative level 1e-14 or below
    are dropped.
    """
    evals, vectors, dual = _gram_eigen(chol.L.T @ chol.L, chol.L)
    return SpectralBasis(eigenvalues=evals, vectors=vectors, dual_vectors=dual)


def principal_basis(loglik: LogLikMatrix, a_M: int | None = None) -> SpectralBasis:
    """W's retained principal space from the smaller Gram product.

    With C the draw-centered log-likelihoods, W = C^T C / M; for M < n the
    M x M C C^T is eigendecomposed instead and lifted through C^T, so no
    n x n array exists, and the eigenvalues are divided by M after the
    lift, so no scaled copy of C exists either.  The fewest leading
    directions are kept whose dropped eigenvalues sum to at most 1e-10 tr W
    (none if constant).  With ``a_M``, only the leading a_M of them are
    returned, and an a_M outside 1 to that retained rank raises
    RankOutOfRange.
    """
    c = centered(loglik).values
    wide = c.shape[0] < c.shape[1]
    gram = c @ c.T if wide else c.T @ c
    evals, vectors, _ = _gram_eigen(gram, c.T if wide else None, _TAIL_TOL, a_M)
    return SpectralBasis(eigenvalues=_frozen(evals / c.shape[0]), vectors=vectors)


def full_eigen(w: WMatrix, cap: int = FULL_EIGEN_CAP) -> SpectralBasis:
    """Full symmetric eigendecomposition, descending, as oracle/fallback.

    Tiny negative eigenvalues from rounding are clamped to zero.  The
    degenerate all-zero matrix yields an empty basis.
    """
    if w.n > cap:
        raise InvalidInput(f"full eigendecomposition capped at n={cap}, got {w.n}")
    evals, evecs = _eigh_descending(w.values, "eigendecomposition")
    if evals.size and evals[0] <= 0.0:
        return SpectralBasis(eigenvalues=np.zeros(0), vectors=np.zeros((w.n, 0)))
    np.clip(evals, 0.0, None, out=evals)
    return SpectralBasis(eigenvalues=evals, vectors=evecs * _signs(evecs))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def project_loglik(
    loglik: LogLikMatrix, basis: SpectralBasis, a_M: int | None = None
) -> ProjectedLogLik:
    """Project the log-likelihood matrix onto the leading a_M directions.

    Returns the principal combinations (draws x a_M) with the trimmed
    basis; their rank-a_M reconstruction of the full matrix is the
    ``projected_loglik`` property.  For every observation the posterior
    variance of the reconstruction residual is bounded by the sum of the
    dropped eigenvalues.
    """
    a_M = _rank(a_M, basis.rank_retained)
    v = _vectors(basis, loglik.n_obs)[:, :a_M]
    if a_M < basis.rank_retained:
        basis = SpectralBasis(eigenvalues=basis.eigenvalues[:a_M], vectors=v)
    return ProjectedLogLik(projections=_frozen(loglik.values @ basis.vectors), basis=basis)


def project_perturbation(eta, basis: SpectralBasis, a_M: int | None = None) -> np.ndarray:
    """Coordinates of a perturbation vector eta = w - 1 in the leading a_M
    directions."""
    return basis.vectors[:, : _rank(a_M, basis.rank_retained)].T @ _as_eta(eta, basis.n)


def representative_set(chol: PivotedCholesky, basis: SpectralBasis) -> RepresentativeSet:
    """Representative observations and the maps that make them sufficient.

    The pivot observations span the principal space; ``basis`` must be
    the dual-eigen basis of the same factorization so that its dual
    eigenvectors can link pivot-space perturbation values back to
    principal coordinates.
    """
    if basis.dual_vectors is None:
        raise InvalidInput("basis must come from dual_eigen of the same factorization")
    if basis.dual_vectors.shape[0] != chol.a_M:
        raise InvalidInput("basis and factorization disagree on rank")
    return RepresentativeSet(
        indices=chol.pivots,
        eta_map=chol.L,
        eigen_link=basis.dual_vectors,
        eigenvalues=basis.eigenvalues,
    )


def subsample_draws(loglik: LogLikMatrix, m_star: int, seed: int) -> LogLikMatrix:
    """Uniform without-replacement subsample of posterior draws.

    Selected rows keep their original relative order, so m_star = M
    returns the matrix unchanged.  Counter-based generator: fixed seed
    gives identical subsets on every platform.
    """
    m = loglik.n_draws
    if not 2 <= m_star <= m:
        raise InvalidInput(f"m_star must be in [2, {m}], got {m_star}")
    if m_star == m:
        return loglik
    idx = np.sort(_stream(seed).choice(m, size=m_star, replace=False))
    return LogLikMatrix(values=_frozen(loglik.values[idx, :]))
