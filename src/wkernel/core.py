"""Immutable matrix containers and the sample-moment engine.

Conventions used throughout the package:

* Posterior moments average over the M parameter draws with divisor 1/M.
* Empirical moments average over the n observations with divisor 1/n.
* No Bessel correction anywhere; the exact PCA duality between the
  observation-space and draw-space covariance matrices holds only with
  these divisors.
* Moments are accumulated in two passes (mean first, then centered
  products).  Single-pass covariance formulas are deliberately avoided:
  at M, n ~ 1e4-1e5 the cancellation error of the textbook one-pass
  formula is not acceptable.

All containers are frozen dataclasses wrapping read-only float64 arrays,
taken under the one copy rule of ``_readonly``, so every operation here
is a pure function that is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


def _readonly(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``, the copy rule of every
    container: adopted when no caller can still write to it (a fresh
    conversion, or an owned array already read-only), else copied, views
    included, since an adopted view would keep its whole base alive."""
    arr = np.asarray(values, dtype=dtype)
    if arr.base is not None or (arr is values and arr.flags.writeable):
        arr = np.array(arr)
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, which its producer has just made, marked read-only so that
    the container it is handed to adopts it without a copy."""
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> float:
    """Refuse a non-finite entry of ``arr``; return its largest magnitude,
    found by two reductions with no temporary the size of ``arr``."""
    lo = np.min(arr, initial=0.0)
    hi = np.max(arr, initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInput(f"{what} contains non-finite entries")
    return float(max(hi, -lo))


def _check_shape(arr: np.ndarray, what: str, shape: tuple) -> None:
    """Refuse ``arr`` unless its shape is ``shape``, where a None entry
    matches any length; a shape of None entries alone is worded as a
    dimension count."""
    if arr.ndim == len(shape) and all(s is None or s == t for s, t in zip(shape, arr.shape)):
        return
    if all(s is None for s in shape):
        raise InvalidInput(f"{what} must be {len(shape)}-D, got {arr.ndim}-D")
    dims = ", ".join("*" if s is None else str(s) for s in shape) + "," * (len(shape) == 1)
    raise InvalidInput(f"{what} must have shape ({dims}), got {arr.shape}")


def _as_array(x, what: str, shape: tuple) -> np.ndarray:
    """``x`` as a float array, not copied if it is one already: the intake
    rule of every array argument, refused with InvalidInput naming
    ``what`` unless numpy converts it, it has ``shape`` (``_check_shape``)
    and its entries are finite."""
    try:
        arr = np.asarray(x, dtype=float)
    except (ValueError, TypeError) as exc:  # ragged nesting, text, objects
        raise InvalidInput(f"{what} is not an array of numbers") from exc
    _check_shape(arr, what, shape)
    _require_finite(arr, what)
    return arr


def _freeze(obj, *names, dtype=float, shape=None, what=None) -> float:
    """Store each named field of ``obj`` (None stays None) through
    ``_readonly``; with ``shape``, refuse another (``_check_shape``), and
    with ``what``, a non-finite entry, naming the array ``what`` in both
    messages and returning the largest magnitude checked."""
    scale = 0.0
    for name in names:
        value = getattr(obj, name)
        if value is None:
            continue
        arr = _readonly(value, dtype)
        if shape is not None:
            _check_shape(arr, what or name, shape)
        if what is not None:
            scale = max(scale, _require_finite(arr, what))
        object.__setattr__(obj, name, arr)
    return scale


def _check_loglik(arr: np.ndarray) -> None:
    """The rules of a log-likelihood matrix: 2-D and finite, with at least
    2 draws and 1 observation."""
    _check_shape(arr, "log-likelihood matrix", (None, None))
    _require_finite(arr, "log-likelihood matrix")
    if arr.shape[0] < 2:
        raise InvalidInput(f"need at least 2 posterior draws, got {arr.shape[0]}")
    if arr.shape[1] < 1:
        raise InvalidInput("need at least 1 observation")


def _check_draws(a, b, a_name="statistics", b_name="log-likelihoods") -> None:
    """Refuse two containers of posterior draws whose draw counts differ."""
    if a.n_draws != b.n_draws:
        raise InvalidInput(
            f"{a_name} have {a.n_draws} draws, {b_name} have {b.n_draws}"
        )


def _check_seed(seed) -> None:
    """Refuse a seed that is not an integer in [0, 2^128), the range of
    Philox's key, before any stream is drawn from it."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**128):
        raise InvalidInput(f"seed must be an integer in [0, 2^128), got {seed!r}")


def _stream(seed: int, jumps: int = 0) -> np.random.Generator:
    """Counter-based Philox 4x64 stream keyed by the 64-bit seed and jumped
    ``jumps`` times, identical on every platform."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(jumps))


@dataclass(frozen=True)
class LogLikMatrix:
    """M x n matrix of per-observation log-likelihoods at posterior draws.

    Row u holds the log-likelihoods of all n observations evaluated at
    the u-th posterior draw (values in nats).  This is the universal
    input of the package: every covariance kernel, sensitivity measure
    and approximate bootstrap is computed from it.

    Parameters
    ----------
    values : array_like, shape (M, n)
        values[u, i] = log density of observation i at parameter draw u.
    """

    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "values")
        _check_loglik(self.values)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StatMatrix:
    """M x p matrix of statistics evaluated at posterior draws.

    Column j holds the draw-wise values of the j-th target statistic;
    its posterior mean is the Bayesian estimator under study.
    """

    values: np.ndarray
    names: tuple = ()

    def __post_init__(self):
        if np.ndim(self.values) == 1:
            object.__setattr__(self, "values", np.reshape(self.values, (-1, 1)))
        _freeze(self, "values", shape=(None, None), what="statistic matrix")
        if self.n_draws < 1:
            raise InvalidInput("statistic matrix has no rows")
        names = tuple(self.names) or tuple(f"stat_{j}" for j in range(self.n_stats))
        if len(names) != self.n_stats:
            raise InvalidInput(
                f"{len(names)} names for {self.n_stats} statistic columns"
            )
        object.__setattr__(self, "names", names)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_stats(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LogPriorVector:
    """Log prior density at each posterior draw."""

    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "values", shape=(None,), what="log-prior vector")

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# sample moments
# ---------------------------------------------------------------------------


def posterior_mean(stats: StatMatrix) -> np.ndarray:
    """Posterior mean of each statistic column, averaged over draws."""
    return stats.values.mean(axis=0)


def posterior_cov(a, b) -> float:
    """Posterior covariance of two draw vectors, divisor 1/M.

    Two-pass evaluation: subtract the means, then average the product
    of the centered values.
    """
    a = _as_array(a, "first argument", (None,))
    b = _as_array(b, "second argument", a.shape)
    if a.shape[0] < 2:
        raise InvalidInput("posterior covariance needs at least 2 draws")
    ac = a - a.mean()
    bc = b - b.mean()
    return float(ac @ bc) / a.shape[0]


def posterior_var(a) -> float:
    """Posterior variance (divisor 1/M); never negative."""
    return posterior_cov(a, a)


def posterior_cov_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Covariance grid between the columns of two draw matrices.

    Given a (M, p) and b (M, q), returns the (p, q) matrix whose (j, i)
    entry is the posterior covariance of column j of ``a`` with column i
    of ``b``.  This is the bulk primitive behind sensitivity grids and
    the W matrix.
    """
    a = _as_array(a, "first argument", (None, None))
    b = _as_array(b, "second argument", (a.shape[0], None))
    if a.shape[0] < 2:
        raise InvalidInput("posterior covariance needs at least 2 draws")
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    return (ac.T @ bc) / a.shape[0]


def centered_cov_star(stats_col, loglik: LogLikMatrix, i: int) -> float:
    """Posterior covariance with log-likelihood i, centered over observations.

    Subtracts from Cov[A, loglik_i] the average of Cov[A, loglik_j] over
    all observations j.  The centered values sum to zero over i; the
    centering only matters under strong priors.
    """
    a = _as_array(stats_col, "statistic column", (loglik.n_draws,))
    if not 0 <= i < loglik.n_obs:
        raise InvalidInput(f"observation index {i} out of range [0, {loglik.n_obs})")
    grid = posterior_cov_grid(a[:, None], loglik.values)[0]
    return float(grid[i] - grid.mean())


def third_cumulant(a, b, c) -> float:
    """Third-order combined posterior cumulant of three draw vectors.

    Mean of the product of the three centered vectors (divisor 1/M);
    symmetric under any permutation of the arguments and invariant to
    shifting any argument by a constant.
    """
    a = _as_array(a, "first argument", (None,))
    b = _as_array(b, "second argument", a.shape)
    c = _as_array(c, "third argument", a.shape)
    if a.shape[0] < 3:
        raise InvalidInput("third cumulant needs at least 3 draws")
    ac = a - a.mean()
    bc = b - b.mean()
    cc = c - c.mean()
    return float(np.sum(ac * bc * cc)) / a.shape[0]


def third_cumulant_grid(stats: StatMatrix, funcs: np.ndarray) -> np.ndarray:
    """(p, a, a) tensor of third cumulants of statistics with function pairs.

    ``funcs`` is an (M, a) matrix of draw values; entry (j, alpha, beta)
    is the third cumulant of statistic j with functions alpha and beta.
    """
    f = _as_array(funcs, "function matrix", (stats.n_draws, None))
    return _cumulant_tensor(stats, f - f.mean(axis=0))


def _cumulant_tensor(stats: StatMatrix, fc: np.ndarray) -> np.ndarray:
    """``third_cumulant_grid`` of function columns ``fc`` centered already."""
    if fc.shape[0] < 3:
        raise InvalidInput("third cumulant needs at least 3 draws")
    ac = stats.values - stats.values.mean(axis=0)
    tensor = np.einsum("up,ua,ub->pab", ac, fc, fc, optimize=True) / fc.shape[0]
    # einsum's BLAS contraction ignores np.errstate, so its overflow is
    # reported here rather than as infs in the caller's estimates
    if not np.isfinite(tensor).all() and np.isfinite(fc).all():
        raise FloatingPointError("overflow encountered in third cumulant tensor")
    return tensor


def empirical_cov_over_obs(f, g) -> float:
    """Empirical covariance over observations, divisor 1/n."""
    f = _as_array(f, "first argument", (None,))
    g = _as_array(g, "second argument", f.shape)
    if f.shape[0] < 1:
        raise InvalidInput("empty vectors")
    fc = f - f.mean()
    gc = g - g.mean()
    return float(fc @ gc) / f.shape[0]
