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
* projected        the same expansions with the log-likelihoods replaced
                   by their principal-space projections
* importance       self-normalized reweighting of the original draws by
                   exp(sum_i eta_i l_i), exact as M grows but prone to
                   weight collapse

All replicates live in one (n_b x n) count matrix, ``Resamples``.
Replicate r is drawn from the counter-based Philox stream keyed by the
seed and jumped r times, so results are reproducible and independent of
any execution schedule; one generator is rewound to each replicate's
counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LogLikMatrix,
    StatMatrix,
    _check_paired,
    _readonly,
    posterior_cov_grid,
    third_cumulant_grid,
)
from .errors import InvalidInput
from .spectral import ProjectedLogLik

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
# n_b * n above which resamples are refused: counts and eta take 1 GiB each
MAX_RESAMPLE_CELLS = 2**27
# replicate block size for the draw-by-replicate work matrices
_BLOCK = 256


@dataclass(frozen=True)
class Resamples:
    """Multinomial resamples as a read-only (n_b x n) count matrix.

    Row r holds how many times each observation was drawn in replicate r;
    every row sums to n.  A read-only int64 array that owns its data, as
    ``draw_resamples`` hands over, is kept without a copy; anything else is
    copied, so a writable array of the caller's is never frozen.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = self.counts
        frozen = isinstance(arr, np.ndarray) and not arr.flags.writeable
        if not (frozen and arr.flags.owndata and arr.dtype == np.int64):
            arr = _readonly(arr, dtype=np.int64)
        if arr.ndim != 2:
            raise InvalidInput(
                "resample counts must be 2-D (replicates x observations), "
                f"got {arr.ndim}-D"
            )
        if arr.shape[0] < 1:
            raise InvalidInput("need at least one replicate")
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
        object.__setattr__(self, "counts", arr)

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def eta(self) -> np.ndarray:
        return self.counts - 1.0

    @property
    def n_obs(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class BootstrapRun:
    """Replicate estimates of the posterior means, one row per resample."""

    estimates: np.ndarray
    method: str
    rank_used: int | None = None
    seed: int | None = None
    draws_used: int | None = None

    def __post_init__(self):
        arr = _readonly(self.estimates)
        if arr.ndim != 2:
            raise InvalidInput("estimates must be (replicates x statistics)")
        if self.method not in _METHODS:
            raise InvalidInput(f"unknown method {self.method!r}")
        if self.method != "importance" and not np.all(np.isfinite(arr)):
            raise InvalidInput("replicate estimates contain non-finite entries")
        object.__setattr__(self, "estimates", arr)

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
        object.__setattr__(self, "max_weight", _readonly(self.max_weight))
        object.__setattr__(self, "ess", _readonly(self.ess))
        object.__setattr__(self, "degenerate", _readonly(self.degenerate, dtype=bool))

    @property
    def n_degenerate(self) -> int:
        return int(self.degenerate.sum())


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate.

    Philox 4x64 keyed by the 64-bit seed and jumped ``index`` times;
    streams are identical regardless of the order replicates are drawn.
    """
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def draw_resamples(n: int, n_b: int, seed: int) -> Resamples:
    """n_b independent multinomial(n, uniform) resamples.

    Replicate r draws n uniform category indices from
    ``replicate_rng(seed, r)`` and counts them into row r, which is
    exactly the multinomial distribution with equal cell probabilities.
    One Philox generator serves every replicate: its state is set to the
    counter and empty buffer that jumping r times produces, so each row
    equals the per-replicate stream bit for bit.  Raises InvalidInput
    when n_b x n exceeds MAX_RESAMPLE_CELLS.
    """
    if n < 1:
        raise InvalidInput("need at least one observation")
    if n_b < 1:
        raise InvalidInput("need at least one replicate")
    if n_b * n > MAX_RESAMPLE_CELLS:
        raise InvalidInput(
            f"n_b x n = {n_b} x {n} resample counts exceed the limit of "
            f"{MAX_RESAMPLE_CELLS}"
        )
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    # a fresh state has counter 0 and an empty buffer; jumped(r) adds r
    # to counter word 2 (one jump is 2**128 steps) and empties the buffer
    state = bitgen.state
    counter = state["state"]["counter"]
    counts = np.empty((n_b, n), dtype=np.int64)
    for r in range(n_b):
        counter[2] = r
        bitgen.state = state
        counts[r] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    counts.setflags(write=False)
    return Resamples(counts=counts)


def _eta(resamples: Resamples, n: int) -> np.ndarray:
    if resamples.n_obs != n:
        raise InvalidInput(
            f"resamples have {resamples.n_obs} observations, expected {n}"
        )
    return resamples.eta


def boot_first(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    resamples: Resamples,
    projection: ProjectedLogLik | None = None,
    seed: int | None = None,
) -> BootstrapRun:
    """First-order replicate estimates, linear in the perturbations.

    The p x n sensitivity grid is computed once; each replicate is then
    one matrix-vector product.  With a projection the grid is taken
    against the principal combinations instead, which changes nothing
    when the projection keeps the full rank.
    """
    _check_paired(stats, loglik)
    h = _eta(resamples, loglik.n_obs)
    mean = stats.values.mean(axis=0)
    rank = None
    if projection is not None:
        if projection.n_draws != stats.n_draws:
            raise InvalidInput("projection and statistics disagree on draw count")
        grid = posterior_cov_grid(stats.values, projection.projections)
        h_eff = h @ projection.basis.vectors
        rank = projection.a_M
    else:
        grid = posterior_cov_grid(stats.values, loglik.values)
        h_eff = h
    estimates = mean[None, :] + h_eff @ grid.T
    return BootstrapRun(
        estimates=estimates,
        method="first",
        rank_used=rank,
        seed=seed,
        draws_used=stats.n_draws,
    )


def _second_term_direct(stats, funcs, h_eff) -> np.ndarray:
    p, n = stats.n_stats, funcs.shape[1]
    if p * n**2 > DIRECT_TENSOR_BUDGET:
        raise InvalidInput(
            f"p x n^2 = {p} x {n}^2 second-order tensor entries exceed the "
            f"limit of {DIRECT_TENSOR_BUDGET}"
        )
    tensor = third_cumulant_grid(stats, funcs)
    return 0.5 * np.einsum("ra,pab,rb->rp", h_eff, tensor, h_eff, optimize=True)


def _second_term_efficient(stats, loglik_values, h) -> np.ndarray:
    m = stats.n_draws
    ac = stats.values - stats.values.mean(axis=0)
    out = np.empty((h.shape[0], stats.n_stats))
    for start in range(0, h.shape[0], _BLOCK):
        block = h[start : start + _BLOCK]
        collapsed = loglik_values @ block.T  # draws x replicates
        collapsed -= collapsed.mean(axis=0)
        out[start : start + _BLOCK] = 0.5 * (collapsed**2).T @ ac / m
    return out


def boot_second(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    resamples: Resamples,
    mode: str = "efficient",
    projection: ProjectedLogLik | None = None,
    seed: int | None = None,
) -> BootstrapRun:
    """Second-order replicate estimates.

    The first-order term is always computed directly; the quadratic term
    comes from per-replicate collapsed log-likelihoods ("efficient"),
    from the cumulant tensor ("direct"), or from the projected tensor
    when a projection is supplied.  A tensor of more than
    DIRECT_TENSOR_BUDGET scalars raises InvalidInput before allocation.
    """
    if mode not in ("direct", "efficient"):
        raise InvalidInput(f"mode must be direct/efficient, got {mode!r}")
    _check_paired(stats, loglik)
    h = _eta(resamples, loglik.n_obs)
    mean = stats.values.mean(axis=0)
    first_grid = posterior_cov_grid(stats.values, loglik.values)
    first_term = h @ first_grid.T

    if projection is not None:
        if projection.n_draws != stats.n_draws:
            raise InvalidInput("projection and statistics disagree on draw count")
        h_proj = h @ projection.basis.vectors
        second = _second_term_direct(stats, projection.projections, h_proj)
        method = "second_projected"
        rank = projection.a_M
    else:
        if mode == "direct":
            second = _second_term_direct(stats, loglik.values, h)
        else:
            second = _second_term_efficient(stats, loglik.values, h)
        method = f"second_{mode}"
        rank = None

    estimates = mean[None, :] + first_term + second
    return BootstrapRun(
        estimates=estimates,
        method=method,
        rank_used=rank,
        seed=seed,
        draws_used=stats.n_draws,
    )


def boot_importance(
    stats: StatMatrix,
    loglik: LogLikMatrix,
    resamples: Resamples,
    seed: int | None = None,
):
    """Self-normalized importance-sampling replicate estimates.

    Log-weights sum_i eta_i * l[u, i] are normalized per replicate with
    the log-sum-exp shift.  Returns the run together with the weight
    diagnostics; replicates whose weights cannot be normalized are
    flagged as degenerate and their estimates left NaN.
    """
    _check_paired(stats, loglik)
    h = _eta(resamples, loglik.n_obs)
    n_b = h.shape[0]
    m = loglik.n_draws
    estimates = np.full((n_b, stats.n_stats), np.nan)
    max_weight = np.empty(n_b)
    ess = np.empty(n_b)
    degenerate = np.zeros(n_b, dtype=bool)

    for start in range(0, n_b, _BLOCK):
        block = h[start : start + _BLOCK]
        logw = block @ loglik.values.T  # replicates x draws
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        norm = w.sum(axis=1)
        bad = ~np.isfinite(norm) | (norm <= 0.0)
        norm = np.where(bad, 1.0, norm)
        w /= norm[:, None]
        sl = slice(start, start + block.shape[0])
        estimates[sl] = w @ stats.values
        max_weight[sl] = w.max(axis=1)
        ess[sl] = 1.0 / np.sum(w**2, axis=1)
        degenerate[sl] = bad
        estimates[sl][bad] = np.nan

    run = BootstrapRun(
        estimates=estimates,
        method="importance",
        seed=seed,
        draws_used=m,
    )
    diags = ImportanceDiagnostics(
        max_weight=max_weight, ess=np.minimum(ess, m), degenerate=degenerate
    )
    return run, diags


def boot_gold(
    model_refitter, resamples: Resamples, seed: int | None = None
) -> BootstrapRun:
    """Gold-standard bootstrap: refit the model on every resample.

    ``model_refitter`` maps one row of ``resamples.counts`` to the vector
    of estimates for that replicate (an exact reweighted posterior for
    conjugate models, or a full sampler rerun).  Failures carry the
    replicate index.
    """
    rows = []
    for idx, counts in enumerate(resamples.counts):
        try:
            rows.append(np.atleast_1d(np.asarray(model_refitter(counts), dtype=float)))
        except Exception as exc:
            raise RuntimeError(f"refit callback failed at replicate {idx}") from exc
    return BootstrapRun(estimates=np.vstack(rows), method="gold", seed=seed)


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
