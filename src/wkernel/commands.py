"""The command handlers, one per command and named as it; ``cli.run_command``
calls ``handler(inputs, opts, outdir)`` once the options are checked and
the thread variables set, so this module loads the library at the top.

Library functions are reached through their modules (``spectral.dual_eigen``,
not a name bound at import), so that a wrapper put on the module attribute,
as by the tests and the benchmark's tracer, is the one a handler calls.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from . import bootstrap, freq_eval, kernels, matio, spectral
from .core import LogPriorVector, StatMatrix, _check_draws, _frozen
from .errors import InvalidInput, RankOutOfRange
from .kernels import ScoreMatrix, WMatrix


def _load_loglik(path, kind="raw"):
    """The log-likelihood file, centered in place as ``kind`` says: the one
    centering of a command, whose result every consumer reads."""
    return kernels.center_loglik(matio.load_matrix_cached(path)[0], kind)


def _load_stats(path, loglik):
    """The statistics, refused before any costly work when their draw count
    is not the log-likelihood's."""
    arr, header = matio.load_matrix_cached(path)
    stats = StatMatrix(values=_frozen(arr), names=tuple(header) if header else ())
    _check_draws(stats, loglik)
    return stats


def _load_logprior(path):
    """The log prior at the draws, or None when no file is given."""
    if not path:
        return None
    vec, _ = matio.load_vector(path)
    return LogPriorVector(values=vec)


def _projection(loglik, rank):
    """The basis of the leading ``rank`` directions of the raw W, or of all
    retained ones when rank is None; a rank above the retained rank is a
    usage error (one below 1 is refused with the options)."""
    try:
        return spectral.principal_basis(loglik, rank)
    except RankOutOfRange as exc:
        raise InvalidInput(
            f"--rank {rank} is outside 1 to the retained rank {exc.retained}"
        ) from None


def _save_indexed(path, values, header, start=0) -> None:
    """Write ``values`` (rows) after an index column start, start + 1, ..."""
    index = np.arange(start, start + len(values), dtype=float)
    matio.save_matrix(path, np.column_stack([index, values]), header)


def _save_spectrum(outdir, eigenvalues, log_scree) -> None:
    """eigenvalues.csv and its scree.svg bar chart."""
    path = os.path.join(outdir, "eigenvalues.csv")
    _save_indexed(path, eigenvalues, ["index", "eigenvalue"])
    matio.write_scree_svg(os.path.join(outdir, "scree.svg"), eigenvalues, log_scree)


def _cholesky(path, opts):
    """Pivoted Cholesky of the W that ``eigen`` and ``rep`` read: read as is
    with matrix = w, else from the log-likelihood file centered in place.
    From M x n log-likelihoods W is formed only when n <= 2M, where it is at
    most twice their size and its columns come cheaper than from C.  A
    --max-rank above n is refused; a stop at the rank cap with the residual
    above rel_tol x tr W is said on stderr."""
    if opts["matrix"] == "w":
        source = WMatrix(values=_frozen(matio.load_matrix_cached(path)[0]))
    else:
        source = _load_loglik(path, opts["kind"] or "raw")
        if source.n <= 2 * source.n_draws:
            source = source.gram()
    max_rank = opts["max_rank"]
    if max_rank is not None and max_rank > source.n:
        raise InvalidInput(f"--max-rank {max_rank} is above the {source.n} observations")
    chol = spectral.incomplete_cholesky(source, rel_tol=opts["rel_tol"], max_rank=max_rank)
    if chol.stopped_by == "max_rank":
        print(
            f"wkernel: pivoted Cholesky stopped at the rank cap of {chol.a_M} with "
            f"residual trace {chol.residual_trace:.6g} above rel_tol x tr W = "
            f"{opts['rel_tol'] * chol.trace_w:.6g}",
            file=sys.stderr,
        )
    return chol


def eigen(inputs, opts, outdir: str) -> None:
    chol = _cholesky(inputs[0], opts)
    basis = spectral.dual_eigen(chol)
    _save_spectrum(outdir, basis.eigenvalues, opts["log_scree"])
    matio.save_matrix(
        os.path.join(outdir, "eigenvectors.csv"),
        basis.vectors,
        header=[f"v{a}" for a in range(basis.rank_retained)],
    )
    _save_indexed(
        os.path.join(outdir, "cholesky_pivots.csv"),
        chol.pivots,
        ["pivot_rank", "observation"],
    )
    _save_indexed(
        os.path.join(outdir, "residual_trace.csv"),
        chol.residual_trace_history,
        ["rank", "residual_trace"],
        start=1,
    )


def freqcov(inputs, opts, outdir: str) -> None:
    estimator = opts["estimator"]
    loglik = _load_loglik(inputs[0])
    stats = _load_stats(inputs[1], loglik)
    logprior = _load_logprior(opts["logprior"])
    basis = _projection(loglik, opts["rank"]) if estimator == "projected" else None

    sigma = freq_eval.freq_cov(
        stats, loglik, estimator=estimator, logprior=logprior, basis=basis
    )
    matio.save_matrix(os.path.join(outdir, "sigma.csv"), sigma, header=list(stats.names))
    matio.save_keyvalue(
        os.path.join(outdir, "freqcov_meta.csv"),
        [
            ("estimator", estimator),
            ("rank_used", "full" if basis is None else basis.rank_retained),
            ("n_obs", loglik.n_obs),
            ("n_draws", loglik.n_draws),
            ("n_stats", stats.n_stats),
        ],
    )


def boot(inputs, opts, outdir: str) -> None:
    method, rank = opts["method"], opts["rank"]
    loglik = _load_loglik(inputs[0])
    stats = _load_stats(inputs[1], loglik)
    basis = None
    if method == "second_projected" or rank is not None:
        basis = _projection(loglik, rank)
    # drawn block by block inside the estimators, after their size checks
    resamples = bootstrap.draw_resamples(loglik.n_obs, opts["n_b"], opts["seed"])

    diags = None
    if method == "first":
        run = bootstrap.boot_first(stats, loglik, resamples, basis=basis)
    elif method == "importance":
        run, diags = bootstrap.boot_importance(stats, loglik, resamples)
    elif method == "second_projected":
        run = bootstrap.boot_second(stats, loglik, resamples, basis=basis)
    else:
        mode = method.removeprefix("second_")
        run = bootstrap.boot_second(stats, loglik, resamples, mode=mode)

    matio.save_matrix(
        os.path.join(outdir, "estimates.csv"),
        run.estimates,
        header=list(stats.names),
    )
    exclude = diags.degenerate if diags is not None else None
    summary = bootstrap.summarize_bootstrap(run, exclude=exclude)
    columns = ("mean", "var", "q10", "q25", "q75", "q90")
    matio.save_matrix(
        os.path.join(outdir, "summary.csv"),
        np.column_stack([summary[c] for c in columns]),
        header=["statistic", *columns],
        row_names=stats.names,
    )
    if diags is not None:
        _save_indexed(
            os.path.join(outdir, "is_diagnostics.csv"),
            np.column_stack([diags.max_weight, diags.ess, diags.degenerate]),
            ["replicate", "max_weight", "ess", "degenerate"],
        )


def rep(inputs, opts, outdir: str) -> None:
    _save_indexed(
        os.path.join(outdir, "representative_indices.csv"),
        _cholesky(inputs[0], opts).pivots,
        ["pivot_rank", "observation"],
    )


def diag(inputs, opts, outdir: str) -> None:
    loglik = _load_loglik(inputs[0])
    stats = _load_stats(inputs[1], loglik)
    logprior = _load_logprior(opts["logprior"])

    info = None
    if opts["scores"]:
        s_arr, _ = matio.load_matrix_cached(opts["scores"])
        if s_arr.shape[0] != loglik.n_obs:
            raise InvalidInput(
                f"scores have {s_arr.shape[0]} rows, log-likelihoods have "
                f"{loglik.n_obs} observations"
            )
        h_arr, _ = matio.load_matrix_cached(opts["hessian"])
        k = s_arr.shape[1]
        if h_arr.shape != (k, k):
            rows, cols = h_arr.shape
            raise InvalidInput(f"--hessian is {rows} x {cols}, --scores has {k} columns")
        info = kernels.build_info_matrices(ScoreMatrix(values=s_arr, hessian_sum=h_arr))

    report = freq_eval.penalties(loglik, logprior=logprior, info=info)
    matio.save_keyvalue(os.path.join(outdir, "penalties.csv"), report.items())

    values, scale = freq_eval.centering_diagnostic(stats, loglik, logprior=logprior)
    matio.save_matrix(
        os.path.join(outdir, "centering.csv"),
        np.column_stack([values, scale]),
        header=["statistic", "value", "scale"],
        row_names=stats.names,
    )


def zmat(inputs, opts, outdir: str) -> None:
    loglik = _load_loglik(inputs[0], "double_centered")
    z_eigs, max_rel = kernels.z_spectrum(loglik)
    _save_indexed(
        os.path.join(outdir, "z_eigenvalues.csv"), z_eigs, ["index", "eigenvalue"]
    )
    matio.save_keyvalue(
        os.path.join(outdir, "duality_report.csv"),
        [
            ("n_obs", loglik.n_obs),
            ("n_draws", loglik.n_draws),
            ("shared_rank_checked", min(loglik.n_obs, loglik.n_draws) - 1),
            ("max_rel_eigenvalue_diff", max_rel),
        ],
    )


def demo(inputs, opts, outdir: str) -> None:
    # the bundled models take about 7 ms to import and only demo runs them
    from . import models

    model, config = inputs
    seed = opts["seed"]
    bundle = models.run_model(config)
    stats = bundle.default_stats()

    params = list(bundle.param_names)
    theta_hat = np.asarray(bundle.theta_hat, dtype=float).reshape(1, -1)
    for name, arr, header in (
        ("data.csv", bundle.data, ["x"]),
        ("draws.csv", bundle.draws, params),
        ("loglik.csv", bundle.loglik.values, [f"obs_{i}" for i in range(bundle.n_obs)]),
        ("logprior.csv", bundle.logprior.values, ["logprior"]),
        ("theta_hat.csv", theta_hat, params),
    ):
        matio.save_matrix(os.path.join(outdir, name), arr, header=header)

    loglik = kernels.centered(bundle.loglik)
    basis = spectral.principal_basis(loglik)
    _save_spectrum(outdir, basis.eigenvalues, False)

    sigma = freq_eval.freq_cov(stats, loglik, estimator="centered")
    matio.save_matrix(os.path.join(outdir, "sigma.csv"), sigma, header=list(stats.names))

    resamples = bootstrap.draw_resamples(bundle.n_obs, 200, seed)
    run = bootstrap.boot_first(stats, loglik, resamples)
    matio.save_matrix(
        os.path.join(outdir, "estimates.csv"), run.estimates, header=list(stats.names)
    )
    summary = bootstrap.summarize_bootstrap(run)

    pen = freq_eval.penalties(loglik, logprior=bundle.logprior)
    top = basis.eigenvalues[: min(6, basis.rank_retained)]
    pairs = [
        ("model", model),
        ("n_obs", bundle.n_obs),
        ("n_draws", bundle.n_draws),
        ("trace_w", loglik.trace),
        ("waic_penalty", pen["waic_penalty"]),
        ("pcic_penalty", pen["pcic_penalty"]),
    ]
    if bundle.acceptance_rate is not None:
        pairs.append(("acceptance_rate", bundle.acceptance_rate))
    pairs += [(f"eigenvalue_{a}", float(v)) for a, v in enumerate(top)]
    pairs += [
        (f"boot_{key}_{name}", float(v))
        for key in ("mean", "var")
        for name, v in zip(stats.names, summary[key])
    ]
    matio.save_keyvalue(os.path.join(outdir, "report.csv"), pairs)
