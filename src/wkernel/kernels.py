"""Posterior covariance kernels and their score-based approximations.

Three families of objects live here:

* The W matrix: the n x n posterior covariance matrix of per-observation
  log-likelihoods, optionally double centered (per-draw mean over
  observations removed).  Scaled by n it acts as a positive-definite
  kernel on observation space.
* The Z matrix: the M x M empirical covariance (over observations) of
  draw-centered log-likelihood rows.  Z is the exact PCA dual of the
  double-centered W: both are Gram matrices of the same doubly centered
  deviation matrix, so (1/M) Z and (1/n) W_centered share their nonzero
  spectra, which ``z_spectrum`` reads from the smaller Gram product.
* Score-based kernels (Fisher, modified Fisher, plain) built from the
  per-observation score vectors at the MLE/MAP, together with the
  information matrices that act as their metrics and the sandwich
  matrix whose eigenvalues asymptotically match those of W under weak
  priors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LogLikMatrix, _readonly, _require_finite, posterior_cov
from .errors import InvalidInput, NumericalFailure, SingularInformation

_W_KINDS = ("raw", "double_centered")
# eigenvalues this far below the largest are treated as zero rank
_RANK_DROP = 1e-14


@dataclass(frozen=True)
class WMatrix:
    """n x n posterior covariance matrix of per-observation log-likelihoods.

    ``kind`` records whether the per-draw mean log-likelihood across
    observations was subtracted before taking covariances
    ("double_centered") or not ("raw").  ``source_M`` is the number of
    posterior draws the moments were estimated from.
    """

    values: np.ndarray
    kind: str
    source_M: int

    def __post_init__(self):
        arr = _readonly(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInput(f"W must be square, got shape {arr.shape}")
        _require_finite(arr, "W matrix")
        if self.kind not in _W_KINDS:
            raise InvalidInput(f"kind must be one of {_W_KINDS}, got {self.kind!r}")
        scale = np.max(np.abs(arr), initial=0.0)
        if np.max(np.abs(arr - arr.T), initial=0.0) > 1e-12 * max(scale, 1.0):
            raise InvalidInput("W matrix is not symmetric")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; Gram construction keeps it >= -1e-8 tr/n."""
        return float(np.linalg.eigvalsh(self.values)[0])


@dataclass(frozen=True)
class ZMatrix:
    """M x M empirical covariance over observations of draw-centered rows."""

    values: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInput(f"Z must be square, got shape {arr.shape}")
        _require_finite(arr, "Z matrix")
        scale = np.max(np.abs(arr), initial=0.0)
        if np.max(np.abs(arr - arr.T), initial=0.0) > 1e-12 * max(scale, 1.0):
            raise InvalidInput("Z matrix is not symmetric")
        object.__setattr__(self, "values", arr)

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
        arr = _readonly(self.values)
        if arr.ndim != 2:
            raise InvalidInput("deviation matrix must be 2-D")
        _require_finite(arr, "deviation matrix")
        scale = np.max(np.abs(arr), initial=0.0)
        tol = 1e-9 * max(scale, 1.0)
        if np.max(np.abs(arr.sum(axis=0)), initial=0.0) > tol * arr.shape[0]:
            raise InvalidInput("deviation matrix columns do not sum to zero")
        if np.max(np.abs(arr.sum(axis=1)), initial=0.0) > tol * arr.shape[1]:
            raise InvalidInput("deviation matrix rows do not sum to zero")
        object.__setattr__(self, "values", arr)


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
    theta_hat: np.ndarray | None = None

    def __post_init__(self):
        arr = _readonly(self.values)
        if arr.ndim != 2:
            raise InvalidInput("score matrix must be 2-D (observations x parameters)")
        _require_finite(arr, "score matrix")
        hess = _readonly(self.hessian_sum)
        if hess.shape != (arr.shape[1], arr.shape[1]):
            raise InvalidInput(
                f"hessian_sum shape {hess.shape} does not match {arr.shape[1]} parameters"
            )
        _require_finite(hess, "hessian sum")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "hessian_sum", hess)
        if self.theta_hat is not None:
            object.__setattr__(self, "theta_hat", _readonly(self.theta_hat))

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_params(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class InfoMatrices:
    """Information matrices and their sandwich combination.

    I_hat is the outer-product (score) information, J_hat the curvature
    information; ``sandwich`` is J^{-1/2} I J^{-1/2} with the principal
    square root.  Under correct specification and weak priors the
    sandwich approaches the identity; its nonzero eigenvalues match
    those of the W matrix asymptotically.
    """

    I_hat: np.ndarray
    J_hat: np.ndarray
    sandwich: np.ndarray
    theta_hat: np.ndarray | None = None
    prior_weight: float = 0.0

    def __post_init__(self):
        for name in ("I_hat", "J_hat", "sandwich"):
            arr = _readonly(getattr(self, name))
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise InvalidInput(f"{name} must be square")
            _require_finite(arr, name)
            object.__setattr__(self, name, arr)
        if self.theta_hat is not None:
            object.__setattr__(self, "theta_hat", _readonly(self.theta_hat))

    @property
    def n_params(self) -> int:
        return self.J_hat.shape[0]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """k x M whitened draw deviations sqrt(n/M) J^{1/2} (draws - theta_hat)^T.

    Asymptotically this is an orthogonal embedding of parameter space
    into draw space: its k x k Gram matrix approaches the identity, and
    it conjugates the sandwich matrix into (n/M) Z.
    """

    values: np.ndarray
    n_obs: int

    def __post_init__(self):
        arr = _readonly(self.values)
        if arr.ndim != 2:
            raise InvalidInput("embedding matrix must be 2-D")
        _require_finite(arr, "embedding matrix")
        object.__setattr__(self, "values", arr)

    @property
    def n_params(self) -> int:
        return self.values.shape[0]

    @property
    def n_draws(self) -> int:
        return self.values.shape[1]

    def orthogonality_gap(self) -> float:
        """Frobenius norm of (Gram matrix - identity)."""
        k = self.n_params
        gram = self.values @ self.values.T
        return float(np.linalg.norm(gram - np.eye(k)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_w(loglik: LogLikMatrix, kind: str = "raw") -> WMatrix:
    """Build the W matrix from a log-likelihood matrix.

    Gram-product construction: center each observation column by its
    mean over draws and form (1/M) C^T C, which is symmetric positive
    semidefinite by construction.  With kind="double_centered" the
    per-draw mean over observations is subtracted first, which matters
    only under strong priors.
    """
    if kind not in _W_KINDS:
        raise InvalidInput(f"kind must be one of {_W_KINDS}, got {kind!r}")
    vals = loglik.values
    if kind == "double_centered":
        vals = vals - vals.mean(axis=1, keepdims=True)
    centered = vals - vals.mean(axis=0)
    m = loglik.n_draws
    w = (centered.T @ centered) / m
    w = (w + w.T) / 2.0
    return WMatrix(values=w, kind=kind, source_M=m)


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
    """Doubly centered n x M deviation matrix of the log-likelihoods."""
    if loglik.n_obs < 2:
        raise InvalidInput("deviation matrix needs at least 2 observations")
    vals = loglik.values
    centered = (
        vals
        - vals.mean(axis=0, keepdims=True)
        - vals.mean(axis=1, keepdims=True)
        + vals.mean()
    )
    return CenteredDeviationMatrix(values=centered.T)


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
    z = (dev.T @ dev) / loglik.n_obs
    z = (z + z.T) / 2.0
    return ZMatrix(values=z)


def z_spectrum(loglik: LogLikMatrix) -> tuple[np.ndarray, float]:
    """Z's M eigenvalues, descending, and the duality check, without Z.

    Only the smaller Gram product small @ small.T is eigendecomposed, with
    small = A or A^T for the deviation matrix A.  Its eigenvalues over n
    are Z's leading min(n, M); the rest are exactly 0.  The check pairs
    each of the min(n, M) - 1 shared eigenvalues with the larger product's
    Rayleigh quotient |small v|^2 at the lifted unit vector v ~ small^T u
    (0 at rank-drop level, where the lift can be the zero vector), and
    returns the largest gap over the largest eigenvalue: the relative
    max |lambda_Z / M - lambda_Wc / n| that ``zmat`` reports.
    """
    n, m = loglik.n_obs, loglik.n_draws
    dev = build_deviation(loglik).values
    small = dev if n <= m else dev.T
    try:
        evals, evecs = np.linalg.eigh(small @ small.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("Gram eigenproblem did not converge") from exc
    evals = np.maximum(evals[::-1], 0.0)
    shared = min(n, m) - 1
    lift = evals[:shared] > _RANK_DROP * evals[0]
    lifted = small.T @ evecs[:, ::-1][:, :shared][:, lift]
    lifted /= np.linalg.norm(lifted, axis=0)
    rayleigh = np.zeros(shared)
    rayleigh[lift] = np.sum((small @ lifted) ** 2, axis=0)
    diff = np.max(np.abs(evals[:shared] - rayleigh))
    z_eigs = np.zeros(m)
    z_eigs[: evals.size] = evals / n
    return z_eigs, float(diff / evals[0]) if evals[0] > 0 else 0.0


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
        raise SingularInformation(f"{what}: eigendecomposition failed") from exc
    if evals[-1] <= 0 or evals[0] <= _EIG_CLAMP * evals[-1]:
        raise SingularInformation(f"{what} is not positive definite")
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
) -> InfoMatrices:
    """Information matrices and sandwich from per-observation scores.

    I_hat = (1/n) sum_i s_i s_i^T and J_hat is the averaged negative
    Hessian carried by the score matrix.  With ``prior_weight`` > 0 each
    score is shifted by prior_weight * prior_score and J_hat picks up
    prior_weight times the prior's negative Hessian, giving the
    prior-adjusted information matrices evaluated at the MAP.
    """
    s = scores.values
    j_hat = np.array(scores.hessian_sum, dtype=float)
    if prior_weight > 0.0:
        if prior_score is None:
            raise InvalidInput("prior_weight > 0 requires prior_score")
        ps = np.asarray(prior_score, dtype=float)
        if ps.shape != (scores.n_params,):
            raise InvalidInput(
                f"prior_score shape {ps.shape} does not match {scores.n_params} parameters"
            )
        s = s + prior_weight * ps
        if prior_hessian is not None:
            ph = np.asarray(prior_hessian, dtype=float)
            if ph.shape != j_hat.shape:
                raise InvalidInput("prior_hessian shape mismatch")
            j_hat = j_hat - prior_weight * ph
    i_hat = (s.T @ s) / scores.n_obs
    i_hat = (i_hat + i_hat.T) / 2.0
    j_hat = (j_hat + j_hat.T) / 2.0
    j_inv_sqrt = sym_inv_sqrt(j_hat, "J_hat")
    sandwich = j_inv_sqrt @ i_hat @ j_inv_sqrt
    sandwich = (sandwich + sandwich.T) / 2.0
    return InfoMatrices(
        I_hat=i_hat,
        J_hat=j_hat,
        sandwich=sandwich,
        theta_hat=scores.theta_hat,
        prior_weight=prior_weight,
    )


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
        m = np.array(scores.hessian_sum, dtype=float)
    evals, evecs = _sym_eig_psd(m, f"{metric} metric")
    return float((evecs.T @ x) @ ((evecs.T @ y) / evals))


def mf_feature_matrix(scores: ScoreMatrix, info: InfoMatrices) -> np.ndarray:
    """Feature vectors of the curvature-metric score kernel.

    Returns the n x k matrix Phi with Phi[i] = J^{-1/2} s_i.  Row inner
    products reproduce the kernel ((1/n) Phi Phi^T = (1/n) K) and column
    inner products reproduce the sandwich ((1/n) Phi^T Phi = sandwich):
    the two Gram products of the same feature matrix, which is why both
    spectra agree.
    """
    if scores.n_params != info.n_params:
        raise InvalidInput("scores and info matrices disagree on parameter count")
    j_inv_sqrt = sym_inv_sqrt(info.J_hat, "J_hat")
    return scores.values @ j_inv_sqrt


def build_embedding(draws, theta_hat, j_hat, n: int) -> EmbeddingMatrix:
    """Whitened embedding of posterior draws around the point estimate.

    draws is M x k; the result is sqrt(n/M) J^{1/2} (draws - theta_hat)^T,
    a k x M matrix whose Gram matrix approaches the identity when the
    draws come from a well-behaved posterior with weak prior.
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
    emb = np.sqrt(n / m) * (root @ (draws - theta_hat).T)
    return EmbeddingMatrix(values=emb, n_obs=n)


@dataclass(frozen=True)
class EmbeddingReport:
    """Diagnostics for the whitened-draw embedding."""

    orthogonality_gap: float
    duality_gap: float | None = None


def embedding_report(
    emb: EmbeddingMatrix, z: ZMatrix | None = None, sandwich=None
) -> EmbeddingReport:
    """Check how close the embedding is to an exact orthogonal embedding.

    Reports the Frobenius gap between the k x k Gram matrix and the
    identity and, when Z and the sandwich matrix are supplied, the
    Frobenius gap between (n/M) Z and the sandwich conjugated by the
    embedding.  The second check materializes an M x M matrix; keep M
    moderate.
    """
    duality = None
    if z is not None:
        if sandwich is None:
            raise InvalidInput("duality gap needs both z and sandwich")
        if z.M != emb.n_draws:
            raise InvalidInput(f"Z has {z.M} draws, embedding has {emb.n_draws}")
        sandwich = np.atleast_2d(np.asarray(sandwich, dtype=float))
        scaled_z = (emb.n_obs / emb.n_draws) * z.values
        conj = emb.values.T @ sandwich @ emb.values
        duality = float(np.linalg.norm(scaled_z - conj))
    return EmbeddingReport(
        orthogonality_gap=emb.orthogonality_gap(), duality_gap=duality
    )
