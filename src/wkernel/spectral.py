"""Principal-space machinery for the observation-covariance matrix.

The leading eigenvectors of the W matrix span the directions of
observation space that posterior means actually respond to.  This module
computes that space two ways: an incomplete pivoted Cholesky
factorization with greedy diagonal pivoting, kept in observation order
(left-looking: O(n * rank^2) plus one W column per step, and the pivots
double as a representative subset of observations), whose small dual
eigenproblem recovers the nonzero spectrum; and a full dense
eigendecomposition used as oracle and fallback.  Projection helpers map
log-likelihoods and perturbation vectors onto the retained directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LogLikMatrix, WeightVector, _readonly
from .errors import InvalidInput, NotPSD, NumericalFailure
from .kernels import _RANK_DROP, WMatrix

DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_RANK = 500
FULL_EIGEN_CAP = 2000

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
    truncation.  The factorization costs O(n * a_M^2) plus one W column
    per step.
    """

    L: np.ndarray
    pivots: np.ndarray
    residual_trace_history: np.ndarray
    trace_w: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "L", _readonly(self.L))
        object.__setattr__(self, "pivots", _readonly(self.pivots, dtype=int))
        object.__setattr__(
            self, "residual_trace_history", _readonly(self.residual_trace_history)
        )

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
    ordering.  ``dual_vectors`` (set by the Cholesky-based solver) holds
    the eigenvectors of the small dual problem, which the representative
    set needs for its reconstruction map.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    dual_vectors: np.ndarray | None = None

    def __post_init__(self):
        evals = _readonly(self.eigenvalues)
        vecs = _readonly(self.vectors)
        if evals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != evals.shape[0]:
            raise InvalidInput("eigenvalues and eigenvector columns disagree")
        if evals.size and np.any(np.diff(evals) > 1e-12 * max(evals[0], 1e-300)):
            raise InvalidInput("eigenvalues must be in descending order")
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "vectors", vecs)
        if self.dual_vectors is not None:
            object.__setattr__(self, "dual_vectors", _readonly(self.dual_vectors))

    @property
    def rank_retained(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def tail_mass(self, a_M: int) -> float:
        """Sum of retained eigenvalues beyond the first a_M."""
        return float(self.eigenvalues[a_M:].sum())


@dataclass(frozen=True)
class ProjectedLogLik:
    """Log-likelihoods projected onto the leading principal directions.

    ``projections[u, a]`` is the a-th principal combination of the
    log-likelihoods at draw u; these combinations diagonalize the
    posterior covariance (their covariance matrix is diag(eigenvalues)).
    ``projected_loglik`` maps them back to per-observation space: the
    rank-a_M approximation of the original matrix.
    """

    projections: np.ndarray
    projected_loglik: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        object.__setattr__(self, "projections", _readonly(self.projections))
        object.__setattr__(self, "projected_loglik", _readonly(self.projected_loglik))

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
        object.__setattr__(self, "indices", _readonly(self.indices, dtype=int))
        object.__setattr__(self, "eta_map", _readonly(self.eta_map))
        object.__setattr__(self, "eigen_link", _readonly(self.eigen_link))
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))

    def pivot_projection(self, eta) -> np.ndarray:
        """Map a full perturbation vector to values on the pivot set."""
        return self.eta_map.T @ _as_eta(eta, self.eta_map.shape[0])

    def principal_projection(self, eta) -> np.ndarray:
        """Reconstruct the principal-space projection from pivot values."""
        dagger = self.pivot_projection(eta)
        return (self.eigen_link.T @ dagger) / np.sqrt(self.eigenvalues)


def _as_eta(eta, n: int) -> np.ndarray:
    if isinstance(eta, WeightVector):
        eta = eta.eta
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (n,):
        raise InvalidInput(f"perturbation must have shape ({n},), got {eta.shape}")
    return eta


def _signs(vectors: np.ndarray) -> np.ndarray:
    """Column signs of the convention: the largest-magnitude component of
    each column is positive; among ties, the first such component decides."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


def incomplete_cholesky(
    w: WMatrix, rel_tol: float = DEFAULT_REL_TOL, max_rank: int | None = None
) -> PivotedCholesky:
    """Greedy pivoted Cholesky of W, stopped on the residual trace.

    Left-looking: only the residual diagonal d is kept up to date.  Each
    step pivots on the largest d (ties go to the lowest index), reads
    that one column of W and subtracts the columns of L taken so far,
    so the cost is O(n * rank^2) and W is never copied or permuted.
    Stops when tr R <= rel_tol * tr W or when max_rank columns have been
    taken.  A residual diagonal below -1e-10 * tr W means the input was
    not PSD.
    """
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInput(f"rel_tol must be in (0, 1), got {rel_tol}")
    n = w.n
    if max_rank is None:
        max_rank = min(n, DEFAULT_MAX_RANK)
    if not 0 < max_rank <= n:
        raise InvalidInput(f"max_rank must be in [1, {n}], got {max_rank}")

    values = w.values
    trace_w = float(np.trace(values))
    if trace_w < -1e-10 * max(abs(trace_w), 1.0):
        raise NotPSD("matrix has negative trace")
    # residual diagonal; pivoted entries are held at exactly zero
    d = np.diagonal(values).copy()
    free = np.ones(n, dtype=bool)
    # columns of L, grown by doubling so a low rank never costs n x max_rank
    big_l = np.zeros((n, min(max_rank, 64)))
    pivots = []
    history = []

    # a degenerate zero matrix gives an empty factor rather than an error
    while trace_w > 0.0:
        if np.min(d) < -1e-10 * trace_w:
            raise NotPSD(
                f"residual diagonal fell to {np.min(d):.3e} "
                f"(limit {-1e-10 * trace_w:.3e}); input is not PSD"
            )
        k = len(pivots)
        d_max = np.max(d)
        converged = bool(history) and history[-1] <= rel_tol * trace_w
        if k == max_rank or d_max <= 0.0 or converged:
            break
        p = int(np.argmax(free & (d >= d_max - _PIVOT_TIE)))

        if k == big_l.shape[1]:
            big_l = np.hstack([big_l, np.zeros((n, min(k, max_rank - k)))])
        pivot = np.sqrt(d[p])
        col = (values[:, p] - big_l[:, :k] @ big_l[p, :k]) / pivot
        col[~free] = 0.0
        col[p] = pivot
        big_l[:, k] = col
        d -= col * col
        d[p] = 0.0
        free[p] = False
        pivots.append(p)
        history.append(float(np.sum(d)))

    return PivotedCholesky(
        L=big_l[:, : len(pivots)],
        pivots=np.array(pivots, dtype=int),
        residual_trace_history=np.array(history),
        trace_w=trace_w,
        n=n,
    )


def dual_eigen(chol: PivotedCholesky) -> SpectralBasis:
    """Spectrum of W from the small dual problem of its Cholesky factor.

    Solves the a_M x a_M eigenproblem of L^T L, whose nonzero
    eigenvalues equal those of L L^T, and lifts each eigenvector V_a to
    the unit eigenvector L V_a / sqrt(lambda_a) of W (already in
    observation order).  Directions with eigenvalues at
    relative level 1e-14 or below are dropped.
    """
    if chol.a_M == 0:
        return SpectralBasis(
            eigenvalues=np.zeros(0),
            vectors=np.zeros((chol.n, 0)),
            dual_vectors=np.zeros((0, 0)),
        )
    gram = chol.L.T @ chol.L
    gram = (gram + gram.T) / 2.0
    try:
        evals, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("dual eigenproblem did not converge") from exc
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    keep = evals > _RANK_DROP * max(evals[0], 0.0)
    evals = evals[keep]
    evecs = evecs[:, keep]

    vectors = chol.L @ evecs
    vectors /= np.sqrt(evals)
    # one sign convention for the lifted vectors and the dual vectors, so
    # the representative-set reconstruction reproduces the same coordinates
    signs = _signs(vectors)
    return SpectralBasis(
        eigenvalues=evals, vectors=vectors * signs, dual_vectors=evecs * signs
    )


def full_eigen(w: WMatrix, cap: int = FULL_EIGEN_CAP) -> SpectralBasis:
    """Full symmetric eigendecomposition, descending, as oracle/fallback.

    Tiny negative eigenvalues from rounding are clamped to zero.  The
    degenerate all-zero matrix yields an empty basis.
    """
    if w.n > cap:
        raise InvalidInput(f"full eigendecomposition capped at n={cap}, got {w.n}")
    try:
        evals, evecs = np.linalg.eigh(w.values)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigendecomposition did not converge") from exc
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1]
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

    Returns both the principal combinations (draws x a_M) and the
    rank-a_M reconstruction of the full matrix (draws x n).  For every
    observation the posterior variance of the reconstruction residual
    is bounded by the sum of the dropped eigenvalues.
    """
    if a_M is None:
        a_M = basis.rank_retained
    if not 0 <= a_M <= basis.rank_retained:
        raise InvalidInput(
            f"a_M must be in [0, {basis.rank_retained}], got {a_M}"
        )
    if basis.n != loglik.n_obs:
        raise InvalidInput(
            f"basis is over {basis.n} observations, log-likelihood has {loglik.n_obs}"
        )
    u = basis.vectors[:, :a_M]
    proj = loglik.values @ u
    back = proj @ u.T
    trimmed = SpectralBasis(
        eigenvalues=basis.eigenvalues[:a_M],
        vectors=u,
        dual_vectors=None
        if basis.dual_vectors is None
        else basis.dual_vectors[:, :a_M],
    )
    return ProjectedLogLik(projections=proj, projected_loglik=back, basis=trimmed)


def project_perturbation(eta, basis: SpectralBasis, a_M: int | None = None) -> np.ndarray:
    """Coordinates of a perturbation vector in the leading a_M directions.

    Accepts either a raw perturbation vector or a WeightVector (whose
    w - 1 is used).
    """
    if a_M is None:
        a_M = basis.rank_retained
    if not 0 <= a_M <= basis.rank_retained:
        raise InvalidInput(f"a_M must be in [0, {basis.rank_retained}], got {a_M}")
    eta = _as_eta(eta, basis.n)
    return basis.vectors[:, :a_M].T @ eta


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
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = np.sort(rng.choice(m, size=m_star, replace=False))
    return LogLikMatrix(values=loglik.values[idx, :])
