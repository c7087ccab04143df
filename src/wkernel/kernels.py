"""Posterior covariance kernels and their score-based approximations.

Three families of objects live here:

* The W matrix: the n x n posterior covariance matrix of per-observation
  log-likelihoods, optionally double centered (per-draw mean over
  observations removed).  Scaled by n it acts as a positive-definite
  kernel on observation space.
* The Z matrix: the M x M empirical covariance (over observations) of
  draw-centered log-likelihood rows.  Z is the exact PCA dual of the
  double-centered W: with C the doubly centered log-likelihoods (the
  deviation matrix is C^T), W is C^T C / M and Z is C C^T / n, so (1/M) Z
  and (1/n) W_centered share their nonzero spectra, which ``z_spectrum``
  reads from the smaller Gram product through ``_gram_eigen``.
* Score-based kernels (Fisher, modified Fisher, plain) built from the
  per-observation score vectors at the MLE/MAP, together with the
  information matrices that act as their metrics and the sandwich
  matrix whose eigenvalues asymptotically match those of W under weak
  priors.

``center_loglik`` is the one centering; the functions that read centered
log-likelihoods also take its CenteredLogLik, through ``centered``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LogLikMatrix, _check_loglik, _freeze, _frozen, _require_finite, posterior_cov
from .errors import InvalidInput, NumericalFailure, RankOutOfRange

_W_KINDS = ("raw", "double_centered")
# eigenvalues this far below the largest are treated as zero rank
_RANK_DROP = 1e-14


def _symmetric(obj, name: str) -> None:
    """Freeze ``obj.values``, checked finite, square and symmetric to 1e-12
    of its largest entry with one temporary; ``name`` is its letter."""
    scale = _freeze(obj, "values", ndim=2, what=f"{name} matrix")
    arr = obj.values
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {arr.shape}")
    gap = arr - arr.T
    if np.max(np.abs(gap, out=gap), initial=0.0) > 1e-12 * max(scale, 1.0):
        raise InvalidInput(f"{name} matrix is not symmetric")


def _eigh_descending(mat: np.ndarray, what: str):
    """Eigenpairs of a symmetric matrix, eigenvalues descending; a LAPACK
    failure is a NumericalFailure saying ``what`` did not converge."""
    try:
        evals, evecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{what} did not converge") from exc
    return evals[::-1], evecs[:, ::-1]


def _signs(vectors: np.ndarray) -> np.ndarray:
    """Column signs of the convention: the largest-magnitude component of
    each column is positive; among ties, the first such component decides;
    a zero column keeps +1.  Read from each column's extremes, so only a
    column whose maximum and minimum tie in magnitude is searched."""
    hi = np.max(vectors, axis=0, initial=0.0)
    lo = np.min(vectors, axis=0, initial=0.0)
    signs = np.where(hi >= -lo, 1.0, -1.0)
    for j in np.flatnonzero((hi == -lo) & (hi > 0.0)):
        col = vectors[:, j]
        if np.argmax(col == lo[j]) < np.argmax(col == hi[j]):
            signs[j] = -1.0
    return signs


def _rank(a_M: int | None, retained: int) -> int:
    """How many leading directions to use: all ``retained`` ones for None;
    RankOutOfRange unless 1 to ``retained``."""
    if a_M is None:
        return retained
    if not 1 <= a_M <= retained:
        raise RankOutOfRange(a_M, retained)
    return a_M


def _gram_eigen(
    gram: np.ndarray,
    factor: np.ndarray | None,
    tail_tol: float = 0.0,
    a_M: int | None = None,
):
    """Eigenpairs of W = F F^T from the Gram product ``gram`` = F^T F of the
    n x k ``factor`` F (or of W itself for None), exactly symmetric as numpy
    returns it.  Eigenvalues at relative level 1e-14 or below go, as does
    the longest tail summing to <= tail_tol of the total.  Of the retained
    V_a, the leading ``a_M`` (all for None; RankOutOfRange unless 1 to the
    retained rank) lift to F V_a / sqrt(lambda_a), signed like ``gram``'s
    own, which are returned read-only too (the same array for None)."""
    evals, evecs = _eigh_descending(gram, "Gram eigenproblem")
    tail = np.cumsum(np.maximum(evals[::-1], 0.0))[::-1]
    keep = evals > _RANK_DROP * np.max(evals, initial=0.0)
    keep &= tail > tail_tol * np.max(tail, initial=0.0)
    evals, evecs = evals[keep], evecs[:, keep]
    a = _rank(a_M, evals.size)
    if factor is None:
        vectors = evecs[:, :a]
    else:
        # numpy multiplies by one column with gemv, which rounds unlike gemm:
        # a second column keeps a_M = 1 bitwise equal to the full lift's first
        vectors = (factor @ evecs[:, : max(a, min(2, evals.size))])[:, :a]
        vectors /= np.sqrt(evals[:a])
    evals, evecs = evals[:a], evecs[:, :a]
    signs = _signs(vectors)
    vectors *= signs
    if factor is not None:
        evecs *= signs
    return _frozen(evals), _frozen(vectors), _frozen(evecs)


@dataclass(frozen=True)
class WMatrix:
    """n x n posterior covariance matrix of per-observation log-likelihoods,
    raw or double centered as ``build_w``'s ``kind`` chose."""

    values: np.ndarray

    def __post_init__(self):
        _symmetric(self, "W")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))

    def diagonal(self) -> np.ndarray:
        """W's diagonal, as a new writable array."""
        return np.diagonal(self.values).copy()

    def column(self, p: int) -> np.ndarray:
        """Column p of W, read-only."""
        return self.values[:, p]


@dataclass(frozen=True)
class CenteredLogLik:
    """M x n centered log-likelihoods C, the factor of W = C^T C / M.

    Each observation column has its mean over the draws removed and, for
    ``kind`` "double_centered", each draw row its mean over the
    observations first.  W's column p is C^T C[:, p] / M and its diagonal
    the column sums of squares over M, so W can be read a column at a time
    (``diagonal``, ``column``, ``trace``, as from a WMatrix) without
    forming it; ``gram`` forms it.
    """

    values: np.ndarray
    kind: str = "raw"

    def __post_init__(self):
        _freeze(self, "values", ndim=2, what="centered log-likelihood matrix")

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def trace(self) -> float:
        return float(np.sum(self.diagonal()))

    def diagonal(self) -> np.ndarray:
        """W's diagonal, as a new writable array."""
        d = np.einsum("ij,ij->j", self.values, self.values)
        # einsum ignores np.errstate, so its overflow is reported here
        if not np.isfinite(d).all():
            raise FloatingPointError("overflow encountered in W's diagonal")
        d /= self.n_draws
        return d

    def column(self, p: int) -> np.ndarray:
        """Column p of W, computed in O(M n)."""
        col = self.values.T @ self.values[:, p]
        col /= self.n_draws
        return col

    def gram(self) -> WMatrix:
        """W itself; the Gram product of one contiguous array is exactly
        symmetric."""
        w = self.values.T @ self.values
        w /= self.n_draws
        return WMatrix(values=_frozen(w))


@dataclass(frozen=True)
class ZMatrix:
    """M x M empirical covariance over observations of draw-centered rows."""

    values: np.ndarray

    def __post_init__(self):
        _symmetric(self, "Z")

    @property
    def M(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CenteredDeviationMatrix:
    """n x M doubly centered log-likelihood deviations.

    Entry (i, r) is the log-likelihood of observation i at draw r with
    the draw mean, the observation mean and the grand mean removed.  Its
    two Gram products factorize the dual covariance pair exactly:
    (1/M) Z = (1/(nM)) A^T A and (1/n) W_centered = (1/(nM)) A A^T.
    """

    values: np.ndarray

    def __post_init__(self):
        scale = _freeze(self, "values", ndim=2, what="deviation matrix")
        arr, tol = self.values, 1e-9 * max(scale, 1.0)
        if np.max(np.abs(arr.sum(axis=0)), initial=0.0) > tol * arr.shape[0]:
            raise InvalidInput("deviation matrix columns do not sum to zero")
        if np.max(np.abs(arr.sum(axis=1)), initial=0.0) > tol * arr.shape[1]:
            raise InvalidInput("deviation matrix rows do not sum to zero")


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-observation score vectors at a fixed parameter point.

    ``values[i, alpha]`` is the derivative of observation i's
    log-likelihood with respect to parameter alpha, evaluated at the
    MLE (or the MAP when prior-adjusted).  ``hessian_sum`` is the
    averaged negative Hessian -(1/n) sum_i d2 loglik_i, the curvature
    information matrix.
    """

    values: np.ndarray
    hessian_sum: np.ndarray

    def __post_init__(self):
        _freeze(self, "values", ndim=2, what="score matrix")
        _freeze(self, "hessian_sum", what="hessian sum")
        k = self.n_params
        if self.hessian_sum.shape != (k, k):
            raise InvalidInput(
                f"hessian_sum shape {self.hessian_sum.shape} does not match {k} parameters"
            )

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_params(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def center_loglik(values: np.ndarray, kind: str = "raw") -> CenteredLogLik:
    """Center a writable M x n log-likelihood array in place and hand it over.

    The array is checked as a LogLikMatrix would be, then loses its
    per-draw mean over observations (kind="double_centered" only) and
    its per-observation mean over draws.  The caller must not use
    ``values`` afterwards: it is the returned container's, read-only.
    """
    if kind not in _W_KINDS:
        raise InvalidInput(f"kind must be one of {_W_KINDS}, got {kind!r}")
    _check_loglik(values)
    if kind == "double_centered":
        values -= values.mean(axis=1, keepdims=True)
    values -= values.mean(axis=0)
    return CenteredLogLik(values=_frozen(values), kind=kind)


def centered(loglik: LogLikMatrix | CenteredLogLik, kind: str = "raw") -> CenteredLogLik:
    """The log-likelihoods centered as ``kind`` says: a CenteredLogLik as it
    is (InvalidInput if centered another way), a LogLikMatrix as a centered
    copy."""
    if not isinstance(loglik, CenteredLogLik):
        return center_loglik(np.array(loglik.values), kind)
    if loglik.kind != kind:
        raise InvalidInput(f"log-likelihoods are centered {loglik.kind}, not {kind}")
    return loglik


def build_w(loglik: LogLikMatrix, kind: str = "raw") -> WMatrix:
    """Build the W matrix from a log-likelihood matrix.

    Gram-product construction: center each observation column by its
    mean over draws and form (1/M) C^T C, which is symmetric positive
    semidefinite by construction.  With kind="double_centered" the
    per-draw mean over observations is subtracted first, which matters
    only under strong priors.  Holds one copy of the log-likelihoods
    besides W.
    """
    return centered(loglik, kind).gram()


def eval_w_kernel(loglik_x, loglik_y, n: int) -> float:
    """Kernel value between two points of observation space.

    Takes the log-likelihood vectors of the two points over the same
    posterior draws and returns n times their posterior covariance.  On
    two data columns i, j this equals n * W[i, j] exactly.  The caller
    supplies the log-likelihood evaluations; this module never touches
    densities itself.
    """
    if n < 1:
        raise InvalidInput("observation count n must be positive")
    return n * posterior_cov(loglik_x, loglik_y)


def build_deviation(loglik: LogLikMatrix) -> CenteredDeviationMatrix:
    """Doubly centered n x M deviation matrix of the log-likelihoods: C^T."""
    if loglik.n_obs < 2:
        raise InvalidInput("deviation matrix needs at least 2 observations")
    return CenteredDeviationMatrix(values=centered(loglik, "double_centered").values.T)


def build_z(loglik: LogLikMatrix) -> ZMatrix:
    """Build the M x M dual covariance matrix.

    Entry (r, s) is the empirical covariance over observations of the
    draw-centered log-likelihood rows r and s.  Computed through the
    deviation-matrix factorization Z = (1/n) A^T A, which makes the
    duality with the double-centered W exact rather than approximate.
    Only the double-centered form exists: the draw-centering term does
    not vanish even for flat priors.  See ``z_spectrum`` for its spectrum.
    """
    dev = build_deviation(loglik).values
    z = dev.T @ dev
    z /= loglik.n_obs
    return ZMatrix(values=_frozen(z))


def z_spectrum(loglik: LogLikMatrix) -> tuple[np.ndarray, float]:
    """Z's M eigenvalues, descending, and the duality check, without Z.

    ``_gram_eigen`` reads the smaller of C^T C and C C^T and lifts its
    eigenvectors through C; its eigenvalues over n are Z's leading
    min(n, M), and the rest, rank-drop level included, are exactly 0.  The
    check pairs each of the min(n, M) - 1 shared eigenvalues with the
    larger product's Rayleigh quotient at its lifted vector and returns the
    largest gap over the largest eigenvalue: the relative
    max |lambda_Z / M - lambda_Wc / n| that ``zmat`` reports.
    """
    if loglik.n_obs < 2:
        raise InvalidInput("deviation matrix needs at least 2 observations")
    c = centered(loglik, "double_centered").values
    m, n = c.shape
    f = c.T if m < n else c  # the side of the smaller Gram product f^T f
    evals, lifted, _ = _gram_eigen(f.T @ f, f)
    back = f.T @ lifted
    rayleigh = np.sum(back * back, axis=0) / np.einsum("ij,ij->j", lifted, lifted)
    shared = min(n, m) - 1
    diff = np.max(np.abs(evals[:shared] - rayleigh[:shared]), initial=0.0)
    z_eigs = np.zeros(m)
    z_eigs[: evals.size] = evals / n
    return z_eigs, float(diff / evals[0]) if evals.size else 0.0


# ---------------------------------------------------------------------------
# symmetric square roots
# ---------------------------------------------------------------------------

_EIG_CLAMP = 1e-12


def _sym_eig_psd(mat: np.ndarray, what: str):
    """Eigendecomposition of a symmetric PD matrix, for principal roots.

    Eigenvalues at or below the clamp (1e-12 of the largest) mean the
    matrix is numerically singular, which the metric-based kernels must
    refuse rather than silently regularize.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        evals, evecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{what}: eigendecomposition failed") from exc
    if evals[-1] <= 0 or evals[0] <= _EIG_CLAMP * evals[-1]:
        raise NumericalFailure(f"{what} is not positive definite")
    return evals, evecs


def sym_sqrt(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Principal (symmetric PSD) square root of a symmetric PD matrix."""
    evals, evecs = _sym_eig_psd(mat, what)
    return (evecs * np.sqrt(evals)) @ evecs.T


def sym_inv_sqrt(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Principal square root of the inverse of a symmetric PD matrix."""
    evals, evecs = _sym_eig_psd(mat, what)
    return (evecs / np.sqrt(evals)) @ evecs.T


# ---------------------------------------------------------------------------
# score-based kernels
# ---------------------------------------------------------------------------


def build_info_matrices(
    scores: ScoreMatrix,
    prior_score=None,
    prior_weight: float = 0.0,
    prior_hessian=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Information matrices and sandwich from per-observation scores: the
    read-only k x k triple ``(I_hat, J_hat, sandwich)``.

    I_hat = (1/n) sum_i s_i s_i^T is the outer-product (score) information
    and J_hat the averaged negative Hessian carried by the score matrix,
    the curvature information; ``sandwich`` is J^{-1/2} I J^{-1/2} with the
    principal square root.  Under correct specification and weak priors
    the sandwich approaches the identity; its nonzero eigenvalues match
    those of the W matrix asymptotically.  With ``prior_weight`` > 0 each
    score is shifted by prior_weight * prior_score and J_hat picks up
    prior_weight times the prior's negative Hessian, giving the
    prior-adjusted information matrices evaluated at the MAP.  A
    non-finite prior score or Hessian, or a product that overflows, is
    refused.
    """
    s = scores.values
    j_hat = scores.hessian_sum
    if prior_weight > 0.0:
        if prior_score is None:
            raise InvalidInput("prior_weight > 0 requires prior_score")
        ps = np.asarray(prior_score, dtype=float)
        if ps.shape != (scores.n_params,):
            raise InvalidInput(
                f"prior_score shape {ps.shape} does not match {scores.n_params} parameters"
            )
        _require_finite(ps, "prior_score")
        s = s + prior_weight * ps
        if prior_hessian is not None:
            ph = np.asarray(prior_hessian, dtype=float)
            if ph.shape != j_hat.shape:
                raise InvalidInput("prior_hessian shape mismatch")
            _require_finite(ph, "prior_hessian")
            j_hat = j_hat - prior_weight * ph
    i_hat = (s.T @ s) / scores.n_obs
    j_hat = (j_hat + j_hat.T) / 2.0
    j_inv_sqrt = sym_inv_sqrt(j_hat, "J_hat")
    sandwich = j_inv_sqrt @ i_hat @ j_inv_sqrt
    sandwich = (sandwich + sandwich.T) / 2.0
    for name, mat in (("I_hat", i_hat), ("J_hat", j_hat), ("sandwich", sandwich)):
        _require_finite(mat, name)
    return _frozen(i_hat), _frozen(j_hat), _frozen(sandwich)


_METRICS = ("fisher", "modified_fisher", "plain")


def eval_score_kernel(scores: ScoreMatrix, metric: str, x_score, y_score) -> float:
    """Score-kernel value x^T M^{-1} y for a choice of metric matrix.

    metric="fisher" uses the outer-product information, "modified_fisher"
    the curvature information (this is the one that approximates the
    observation-space kernel n*Cov for weak priors), and "plain" the
    identity (the empirical tangent kernel).
    """
    if metric not in _METRICS:
        raise InvalidInput(f"metric must be one of {_METRICS}, got {metric!r}")
    x = np.asarray(x_score, dtype=float)
    y = np.asarray(y_score, dtype=float)
    k = scores.n_params
    if x.shape != (k,) or y.shape != (k,):
        raise InvalidInput(f"score vectors must have shape ({k},)")
    if metric == "plain":
        return float(x @ y)
    if metric == "fisher":
        m = (scores.values.T @ scores.values) / scores.n_obs
    else:
        m = scores.hessian_sum
    evals, evecs = _sym_eig_psd(m, f"{metric} metric")
    return float((evecs.T @ x) @ ((evecs.T @ y) / evals))


def mf_feature_matrix(scores: ScoreMatrix, info: tuple) -> np.ndarray:
    """Feature vectors of the curvature-metric score kernel.

    ``info`` is ``build_info_matrices``'s (I_hat, J_hat, sandwich).
    Returns the n x k matrix Phi with Phi[i] = J^{-1/2} s_i.  Row inner
    products reproduce the kernel ((1/n) Phi Phi^T = (1/n) K) and column
    inner products reproduce the sandwich ((1/n) Phi^T Phi = sandwich):
    the two Gram products of the same feature matrix, which is why both
    spectra agree.
    """
    _, j_hat, _ = info
    if j_hat.shape[0] != scores.n_params:
        raise InvalidInput("scores and info matrices disagree on parameter count")
    return scores.values @ sym_inv_sqrt(j_hat, "J_hat")


def build_embedding(draws, theta_hat, j_hat, n: int) -> np.ndarray:
    """Whitened embedding of posterior draws around the point estimate.

    draws is M x k; the result is sqrt(n/M) J^{1/2} (draws - theta_hat)^T,
    a read-only k x M matrix whose Gram matrix approaches the identity when
    the draws come from a well-behaved posterior with weak prior.
    Asymptotically it embeds parameter space orthogonally into draw space
    and conjugates the sandwich matrix into (n/M) Z.  Non-finite draws, or
    a product that overflows, are refused.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws.reshape(-1, 1)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    m, k = draws.shape
    if theta_hat.shape != (k,):
        raise InvalidInput(f"theta_hat shape {theta_hat.shape} does not match k={k}")
    if n < 1:
        raise InvalidInput("observation count n must be positive")
    j_hat = np.atleast_2d(np.asarray(j_hat, dtype=float))
    if j_hat.shape != (k, k):
        raise InvalidInput(f"J_hat shape {j_hat.shape} does not match k={k}")
    root = sym_sqrt(j_hat, "J_hat")
    with np.errstate(invalid="ignore", over="ignore"):  # refused just below
        emb = np.sqrt(n / m) * (root @ (draws - theta_hat).T)
    _require_finite(emb, "embedding matrix")
    return _frozen(emb)


def embedding_report(
    emb: np.ndarray, n: int, z: ZMatrix | None = None, sandwich=None
) -> tuple[float, float | None]:
    """Check how close the k x M embedding of ``n`` observations is to an
    exact orthogonal embedding.

    Returns the Frobenius gap between the k x k Gram matrix and the
    identity and, when Z and the sandwich matrix are supplied, the
    Frobenius gap between (n/M) Z and the sandwich conjugated by the
    embedding (None otherwise).  The second check materializes an M x M
    matrix; keep M moderate.
    """
    k, m = emb.shape
    duality = None
    if z is not None:
        if sandwich is None:
            raise InvalidInput("duality gap needs both z and sandwich")
        if z.M != m:
            raise InvalidInput(f"Z has {z.M} draws, embedding has {m}")
        sandwich = np.atleast_2d(np.asarray(sandwich, dtype=float))
        conj = emb.T @ sandwich @ emb
        duality = float(np.linalg.norm((n / m) * z.values - conj))
    return float(np.linalg.norm(emb @ emb.T - np.eye(k))), duality
