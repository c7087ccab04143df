"""Approximate bootstraps for posterior means, from one posterior run.

Resampling the data multinomially and rerunning inference is the gold
standard for frequentist evaluation but costs one posterior run per
replicate.  The estimators here replace the rerun with expansions in the
resample perturbation eta = counts - 1 around the original posterior:

* first order      posterior mean + sum_i eta_i Cov[A, l_i]
* second order     adds (1/2) sum_ij eta_i eta_j K3[A, l_i, l_j], computed
                   either by collapsing eta against the log-likelihoods
                   once per replicate ("efficient", the default) or from
                   the precomputed p x n x n cumulant tensor ("direct" --
                   algebraically identical, the paper's formula)
* projected        the same sums in the principal coordinates: S V, h V,
                   C V, for the sensitivity grid S, the perturbations h,
                   the centered log-likelihoods C and W's leading
                   eigenvectors V
* importance       self-normalized reweighting of the original draws by
                   exp(sum_i eta_i l_i), exact as M grows but prone to
                   weight collapse

Replicate r is drawn from the counter-based Philox stream keyed by the
seed and jumped r times, so results are reproducible and independent of
any execution schedule.  ``Resamples`` hands replicates out in blocks of
_BLOCK rows, each drawn when it is reached, and every estimator runs one
loop over those blocks; memory is O(_BLOCK x max(M, n) + n_b x p), not
O(n_b x n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LogLikMatrix,
    StatMatrix,
    _check_draws,
    _check_seed,
    _freeze,
    _frozen,
    _readonly,
    _cumulant_tensor,
    _stream,
)
from .errors import InvalidInput
from .freq_eval import sensitivity_first
from .kernels import centered
from .spectral import SpectralBasis, _vectors

_METHODS = (
    "first",
    "second_direct",
    "second_efficient",
    "second_projected",
    "importance",
    "gold",
)

# p * n^2 scalars above which the second-order tensor is refused
DIRECT_TENSOR_BUDGET = 10**8
# cells above which a resample block (B x n counts) or the n_b x p replicate
# estimates are refused: 1 GiB of either
MAX_RESAMPLE_CELLS = 2**27
# replicates drawn and estimated together
_BLOCK = 256


class Resamples:
    """Multinomial resamples: n_b replicates of counts over n observations.

    Row r of the (n_b x n) count matrix holds how many times each
    observation was drawn in replicate r; every row sums to n.  Built
    from a count matrix, which is checked and kept as a read-only copy,
    or by ``draw_resamples``, which keeps only the seed and draws rows
    when they are asked for.  ``blocks`` hands the rows out _BLOCK at a
    time.
    """

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.ndim != 2:
            raise InvalidInput(
                "resample counts must be 2-D (replicates x observations), "
                f"got {arr.ndim}-D"
            )
        if arr.shape[0] < 1:
            raise InvalidInput("need at least one replicate")
        if arr.dtype.kind not in "biu":
            values = np.asarray(arr, dtype=float)
            whole = np.isfinite(values) & (np.floor(values) == values)
            bad = np.flatnonzero(~whole.all(axis=1))
            if bad.size:
                raise InvalidInput(f"resample {bad[0]} has a count that is not an integer")
        arr = _readonly(counts, dtype=np.int64)
        negative = np.flatnonzero(arr.min(axis=1, initial=0) < 0)
        if negative.size:
            raise InvalidInput(f"resample {negative[0]} has a negative count")
        sums = arr.sum(axis=1)
        off = np.flatnonzero(sums != arr.shape[1])
        if off.size:
            r = off[0]
            raise InvalidInput(
                f"resample {r} counts must sum to n={arr.shape[1]}, got {sums[r]}"
            )
        self._counts, self._seed = arr, None
        self._n_b, self._n = arr.shape

    @classmethod
    def _drawn(cls, n: int, n_b: int, seed: int) -> Resamples:
        self = cls.__new__(cls)
        self._counts, self._seed, self._n_b, self._n = None, seed, n_b, n
        return self

    def __len__(self) -> int:
        return self._n_b

    @property
    def n_obs(self) -> int:
        return self._n

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Count rows start..stop-1, sliced from the matrix or drawn.

        A drawn row r counts n uniform category indices from
        ``replicate_rng(seed, r)``: one Philox generator is set to the
        counter and empty buffer that jumping r times produces (a jump
        adds 1 to counter word 2), so each row equals that stream's draw
        bit for bit, whichever rows are drawn together.
        """
        if self._counts is not None:
            return self._counts[start:stop]
        bitgen = np.random.Philox(key=self._seed)
        rng = np.random.Generator(bitgen)
        state = bitgen.state
        counter = state["state"]["counter"]
        n = self._n
        rows = np.empty((stop - start, n), dtype=np.int64)
        for i in range(stop - start):
            counter[2] = start + i
            bitgen.state = state
            rows[i] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        return _frozen(rows)

    def blocks(self):
        """Yield (row slice, read-only counts) for consecutive blocks of at
        most _BLOCK replicates; drawn rows are drawn once per call."""
        for start in range(0, self._n_b, _BLOCK):
            stop = min(start + _BLOCK, self._n_b)
            yield slice(start, stop), self._rows(start, stop)


@dataclass(frozen=True)
class BootstrapRun:
    """Replicate estimates of the posterior means, one row per resample."""

    estimates: np.ndarray
    method: str
    draws_used: int | None = None

    def __post_init__(self):
        what = None if self.method == "importance" else "replicate estimates"
        _freeze(self, "estimates", shape=(None, None), what=what)
        if self.method not in _METHODS:
            raise InvalidInput(f"unknown method {self.method!r}")

    @property
    def n_replicates(self) -> int:
        return self.estimates.shape[0]


@dataclass(frozen=True)
class ImportanceDiagnostics:
    """Weight-concentration diagnostics for the importance-sampling bootstrap.

    ``max_weight`` is the largest normalized weight per replicate (values
    near 1 mean the estimate rests on a single posterior draw);
    ``ess`` is the effective sample size (sum w)^2 / sum w^2.  Degenerate
    replicates are flagged, never dropped.
    """

    max_weight: np.ndarray
    ess: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        _freeze(self, "max_weight", "ess")
        _freeze(self, "degenerate", dtype=bool)

    @property
    def n_degenerate(self) -> int:
        return int(self.degenerate.sum())


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate.

    Philox 4x64 keyed by the 64-bit seed and jumped ``index`` times;
    streams are identical regardless of the order replicates are drawn.
    """
    return _stream(seed, index)


def draw_resamples(n: int, n_b: int, seed: int) -> Resamples:
    """n_b independent multinomial(n, uniform) resamples.

    Replicate r draws n uniform category indices from
    ``replicate_rng(seed, r)`` and counts them into row r, which is
    exactly the multinomial distribution with equal cell probabilities.
    Nothing is drawn here: the rows are drawn block by block as the
    estimators reach them.  Raises InvalidInput when one block of
    min(n_b, _BLOCK) x n counts exceeds MAX_RESAMPLE_CELLS, and for a seed
    outside [0, 2^128).
    """
    _check_seed(seed)
    if n < 1:
        raise InvalidInput("need at least one observation")
    if n_b < 1:
        raise InvalidInput("need at least one replicate")
    if min(n_b, _BLOCK) * n > MAX_RESAMPLE_CELLS:
        raise InvalidInput(
            f"a block of {min(n_b, _BLOCK)} x {n} resample counts exceeds the "
            f"limit of {MAX_RESAMPLE_CELLS}"
        )
    return Resamples._drawn(n, n_b, seed)


def _check_resamples(stats, loglik, resamples: Resamples) -> None:
    """Refuse statistics, log-likelihoods and resamples that do not pair up,
    and n_b x p estimates over MAX_RESAMPLE_CELLS, before any block is drawn."""
    _check_draws(stats, loglik)
    if resamples.n_obs != loglik.n_obs:
        raise InvalidInput(
            f"resamples have {resamples.n_obs} observations, expected {loglik.n_obs}"
        )
    if len(resamples) * stats.n_stats > MAX_RESAMPLE_CELLS:
        raise InvalidInput(
            f"n_b x p = {len(resamples)} x {stats.n_stats} replicate estimates "
            f"exceed the limit of {MAX_RESAMPLE_CELLS}"
        )


def _expansion(stats, resamples, method, grid, basis=None, second=None):
    """The run of replicate estimates mean + h' grid^T (+ second(h)) over the
    blocks of perturbations h = counts - 1, with h' = h mapped onto
    ``basis`` if given, else h."""
    mean = stats.values.mean(axis=0)
    estimates = np.empty((len(resamples), stats.n_stats))
    for rows, counts in resamples.blocks():
        h = counts - 1.0
        estimates[rows] = mean[None, :] + (h if basis is None else h @ basis) @ grid.T
        if second is not None:
            estimates[rows] += second(h)
    return BootstrapRun(estimates=_frozen(estimates), method=method, draws_used=stats.n_draws)


def boot_first(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    resamples: Resamples,
    basis: SpectralBasis | None = None,
) -> BootstrapRun:
    """First-order replicate estimates, linear in the perturbations.

    The p x n sensitivity grid S is computed once; each block of
    replicates is then one matrix product.  With a basis V the block's
    perturbations h are taken as h V against S V instead, which changes
    nothing when V keeps the full rank.
    """
    _check_resamples(stats, loglik, resamples)
    grid = sensitivity_first(stats, loglik)
    if basis is None:
        return _expansion(stats, resamples, "first", grid)
    v = _vectors(basis, loglik.n_obs)
    return _expansion(stats, resamples, "first", grid @ v, v)


def _second_term_direct(stats, fc, basis=None):
    """The quadratic term of a block of perturbations h, from the cumulant
    tensor of the function columns ``fc``, centered over the draws already;
    with a basis, h is first mapped onto it."""
    p, n = stats.n_stats, fc.shape[1]
    if p * n**2 > DIRECT_TENSOR_BUDGET:
        raise InvalidInput(
            f"p x n^2 = {p} x {n}^2 second-order tensor entries exceed the "
            f"limit of {DIRECT_TENSOR_BUDGET}"
        )
    tensor = _cumulant_tensor(stats, fc)

    def term(h):
        if basis is not None:
            h = h @ basis
        return 0.5 * np.einsum("ra,pab,rb->rp", h, tensor, h, optimize=True)

    return term


def _second_term_efficient(stats, c):
    """The quadratic term of a block of perturbations h, from the centered
    log-likelihoods C collapsed against h: C h^T is centered over draws."""
    m = stats.n_draws
    ac = stats.values - stats.values.mean(axis=0)

    def term(h):
        collapsed = c @ h.T  # draws x replicates
        np.square(collapsed, out=collapsed)
        collapsed *= 0.5
        return collapsed.T @ ac / m

    return term


def boot_second(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    resamples: Resamples,
    mode: str = "efficient",
    basis: SpectralBasis | None = None,
) -> BootstrapRun:
    """Second-order replicate estimates.

    The first-order term is always computed directly; the quadratic term
    comes from per-replicate collapsed log-likelihoods ("efficient"),
    from the cumulant tensor ("direct"), or, when a basis V is supplied,
    from the tensor of the principal coordinates C V of the centered
    log-likelihoods C.  A tensor of more than
    DIRECT_TENSOR_BUDGET scalars raises InvalidInput before allocation.
    """
    if mode not in ("direct", "efficient"):
        raise InvalidInput(f"mode must be direct/efficient, got {mode!r}")
    _check_resamples(stats, loglik, resamples)
    c = centered(loglik)
    method = f"second_{mode}"
    if basis is not None:
        v = _vectors(basis, c.n_obs)
        second = _second_term_direct(stats, c.values @ v, v)
        method = "second_projected"
    elif mode == "direct":
        second = _second_term_direct(stats, c.values)
    else:
        second = _second_term_efficient(stats, c.values)
    grid = sensitivity_first(stats, c)
    return _expansion(stats, resamples, method, grid, second=second)


def boot_importance(stats: StatMatrix, loglik: LogLikMatrix, resamples: Resamples):
    """Self-normalized importance-sampling replicate estimates.

    Log-weights sum_i eta_i * l[u, i] are normalized per replicate with
    the log-sum-exp shift.  Returns the run together with the weight
    diagnostics; replicates whose weights cannot be normalized are
    flagged as degenerate and their estimates left NaN.
    """
    _check_resamples(stats, loglik, resamples)
    c = centered(loglik).values  # shifts each replicate's log-weights alike
    n_b = len(resamples)
    m = loglik.n_draws
    estimates = np.empty((n_b, stats.n_stats))
    max_weight = np.empty(n_b)
    ess = np.empty(n_b)
    degenerate = np.empty(n_b, dtype=bool)

    for rows, counts in resamples.blocks():
        w = (counts - 1.0) @ c.T  # replicates x draws, log-weights
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        norm = w.sum(axis=1)
        bad = ~np.isfinite(norm) | (norm <= 0.0)
        norm = np.where(bad, 1.0, norm)
        w /= norm[:, None]
        estimates[rows] = w @ stats.values
        max_weight[rows] = w.max(axis=1)
        ess[rows] = np.minimum(1.0 / np.sum(np.square(w, out=w), axis=1), m)
        degenerate[rows] = bad
        estimates[rows][bad] = np.nan

    run = BootstrapRun(estimates=_frozen(estimates), method="importance", draws_used=m)
    diags = ImportanceDiagnostics(
        max_weight=_frozen(max_weight), ess=_frozen(ess), degenerate=_frozen(degenerate)
    )
    return run, diags


def boot_gold(model_refitter, resamples: Resamples) -> BootstrapRun:
    """Gold-standard bootstrap: refit the model on every resample.

    ``model_refitter`` maps one replicate's row of counts to the vector
    of estimates for that replicate (an exact reweighted posterior for
    conjugate models, or a full sampler rerun).  The rows come block by
    block, so the whole count matrix is never built.  Failures carry the
    replicate index.
    """
    rows = []
    for block, counts in resamples.blocks():
        for idx, row in zip(range(block.start, block.stop), counts):
            try:
                rows.append(np.atleast_1d(np.asarray(model_refitter(row), dtype=float)))
            except Exception as exc:
                raise RuntimeError(f"refit callback failed at replicate {idx}") from exc
    return BootstrapRun(estimates=np.vstack(rows), method="gold")


BOOTSTRAP_QUANTILES = (0.10, 0.25, 0.75, 0.90)


def summarize_bootstrap(run: BootstrapRun, exclude=None) -> dict:
    """Per-statistic mean, variance and the standard quantile set.

    Quantiles use linear interpolation (the type-7 convention), variance
    uses divisor N.  Rows flagged in ``exclude`` (e.g. degenerate
    importance replicates) are left out of the summaries; their count is
    reported, not hidden.
    """
    est = run.estimates
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=bool)
        if exclude.shape != (est.shape[0],):
            raise InvalidInput("exclude mask length does not match replicates")
        est = est[~exclude]
    n_excluded = run.estimates.shape[0] - est.shape[0]
    if est.shape[0] == 0:
        raise InvalidInput("no replicates left to summarize")
    summary = {
        "mean": est.mean(axis=0),
        "var": est.var(axis=0),
        "n_used": est.shape[0],
        "n_excluded": n_excluded,
    }
    qs = np.quantile(est, BOOTSTRAP_QUANTILES, axis=0, method="linear")
    for q, row in zip(BOOTSTRAP_QUANTILES, qs):
        summary[f"q{int(round(q * 100)):02d}"] = row
    return summary
