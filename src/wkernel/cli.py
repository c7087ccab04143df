"""Command-line driver.

Commands: eigen, freqcov, boot, rep, diag, zmat, demo.  Inputs are CSV
matrices, each parsed once per distinct content (``matio.load_matrix_cached``);
outputs are CSV files (plus a scree SVG) in the output directory.  Every option is declared once, in ``_OPTIONS``, with its range,
and every command once, in ``_COMMANDS``, with its handler and the rules
on which of its options go together; a flat ``key = value`` config file
can supply any option under its name, with the same checks as the flag.
A value comes from the flag, else the config file, else the default.
Whatever the options alone decide is refused before any input is read
or the output directory made; each handler then only loads, computes
and writes.

Determinism: all stochastic commands take a 64-bit seed (counter-based
generator), and ``--threads 1`` pins the numerical thread pools before
numpy is loaded, which makes repeat runs byte-identical.

Exit codes: 0 success, 2 usage/invalid input (``InvalidInput``) or out of
memory, 3 parse error (``ParseError``), 4 numerical failure
(``NumericalFailure``, or an overflow).
"""

from __future__ import annotations

import argparse
import os
import sys

ENV_OUTDIR = "WKERNEL_OUTDIR"
ENV_THREADS = "WKERNEL_THREADS"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# option name -> (type, or tuple of allowed values; default; help; range, or
# None).  The flag is --name with "_" written "-", and the config-file key is
# the name itself.  A range (test, text) refuses a set value that fails test
# (nan fails them all) as "--name must be <text>".
_OPTIONS = {
    "kind": (("raw", "double_centered"), None, "W variant (default raw)", None),
    "rel_tol": (
        float,
        1e-8,
        "relative residual-trace tolerance of the Cholesky",
        (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ),
    "max_rank": (int, None, "Cholesky rank cap", (lambda v: v >= 1, "at least 1")),
    "log_scree": (bool, False, "log10 scale for scree.svg", None),
    "matrix": (
        ("loglik", "w"),
        "loglik",
        "input layout: draws x observations, or a precomputed covariance",
        None,
    ),
    "estimator": (("plain", "centered", "prior_adjusted", "projected"), "plain", None, None),
    "logprior": (str, None, "CSV vector, log prior at draws", None),
    "rank": (int, None, "retained rank (projected estimator, first/second_projected)", None),
    "method": (
        ("first", "second_direct", "second_efficient", "second_projected", "importance"),
        "first",
        None,
        None,
    ),
    "n_b": (int, 1000, "replicates", (lambda v: v >= 1, "at least 1")),
    "seed": (int, 0, "64-bit seed", (lambda v: 0 <= v < 2**64, "in [0, 2^64)")),
    "scores": (str, None, "CSV, observations x parameters", None),
    "hessian": (str, None, "CSV, k x k averaged neg. Hessian", None),
}

# demo model -> (config class in wkernel.models, the scalar fields a config
# file may override; their defaults and types are the class's own)
_DEMO = {
    "weibull": ("WeibullConfig", ("gamma", "lam", "n")),
    "betabinom": (
        "BetaBinomialConfig",
        ("N", "n", "q0", "rho", "alpha", "beta", "prior_weight", "m_draws"),
    ),
    "normal_mean": ("NormalMeanConfig", ("n", "m_draws")),
    "regression": ("RegressionConfig", ("n", "sigma_true", "likelihood", "sigma_lik")),
}

# positional input -> (allowed values or None, help)
_INPUTS = {
    "loglik": (None, "CSV, draws x observations (or a covariance matrix)"),
    "stats": (None, "CSV, draws x statistics"),
    "model": (tuple(_DEMO), "bundled model"),
}

# command -> (help, positional inputs, option names, handler, rules).  A rule
# (name, values, verb, other, allowed): when option name is set, or with values
# has one of them, option other must be set, or with allowed have one of those;
# the verb only words the refusal.
_COMMANDS = {
    "eigen": (
        "spectrum of the observation covariance matrix",
        ("loglik",),
        ("kind", "rel_tol", "max_rank", "log_scree", "matrix"),
        "_cmd_eigen",
        (("kind", None, "applies only with", "matrix", ("loglik",)),),
    ),
    "freqcov": (
        "frequentist covariance of posterior means",
        ("loglik", "stats"),
        ("estimator", "logprior", "rank"),
        "_cmd_freqcov",
        (
            ("rank", None, "applies only with", "estimator", ("projected",)),
            ("logprior", None, "applies only with", "estimator", ("prior_adjusted",)),
            ("estimator", ("prior_adjusted",), "requires", "logprior", None),
        ),
    ),
    "boot": (
        "approximate bootstrap of posterior means",
        ("loglik", "stats"),
        ("method", "n_b", "rank", "seed"),
        "_cmd_boot",
        (("rank", None, "applies only with", "method", ("first", "second_projected")),),
    ),
    "rep": (
        "representative observation subset",
        ("loglik",),
        ("kind", "rel_tol", "max_rank", "matrix"),
        "_cmd_rep",
        (("kind", None, "applies only with", "matrix", ("loglik",)),),
    ),
    "diag": (
        "penalties and centering diagnostics",
        ("loglik", "stats"),
        ("logprior", "scores", "hessian"),
        "_cmd_diag",
        (
            ("hessian", None, "applies only with", "scores", None),
            ("scores", None, "requires", "hessian", None),
        ),
    ),
    "zmat": (
        "spectrum of the dual matrix Z and duality check",
        ("loglik",),
        (),
        "_cmd_zmat",
        (),
    ),
    "demo": ("run a bundled model end to end", ("model",), ("seed",), "_cmd_demo", ()),
}


def _common_options(default) -> argparse.ArgumentParser:
    """--out, --config and --threads, which go before or after the command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", "-o", default=default, help="output directory")
    common.add_argument("--config", default=default, help="flat key = value config file")
    common.add_argument("--threads", type=int, default=default, help="thread cap")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkernel",
        description=(
            "Frequentist evaluation of Bayesian estimators from a "
            "per-observation log-likelihood matrix."
        ),
        parents=[_common_options(None)],
    )
    sub = parser.add_subparsers(dest="command")
    # a command's copies set nothing unless given, so that they do not
    # overwrite a value given before the command
    after = _common_options(argparse.SUPPRESS)
    for command, (help_text, inputs, options, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[after], help=help_text)
        for name in inputs:
            choices, text = _INPUTS[name]
            p.add_argument(name, choices=choices, help=text)
        for name in options:
            kind, _, text, _ = _OPTIONS[name]
            if kind is bool:
                how = {"action": "store_true"}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            p.add_argument(_flag(name), dest=name, default=None, help=text, **how)
    return parser


def _convert(key: str, text: str, kind):
    """A config-file value as ``kind`` (a type or a tuple of allowed values)."""
    from .errors import InvalidInput

    if isinstance(kind, tuple):
        if text in kind:
            return text
        expected = "one of " + ", ".join(kind)
    elif kind is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        expected = "true or false"
    else:
        try:
            return kind(text)
        except ValueError:
            expected = kind.__name__
    raise InvalidInput(f"config key {key}: expected {expected}, got {text!r}")


def _resolve_options(command: str, args, file_cfg: dict) -> dict:
    """Every option of the command: the flag, else the config file, else the default."""
    opts = {}
    for name in _COMMANDS[command][2]:
        kind, default, _, _ = _OPTIONS[name]
        value = getattr(args, name)
        if value is None and name in file_cfg:
            value = _convert(name, file_cfg[name], kind)
        opts[name] = default if value is None else value
    return opts


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    threads, source = args.threads, "--threads"
    if threads is None and os.environ.get(ENV_THREADS):
        threads, source = os.environ[ENV_THREADS], ENV_THREADS
        try:
            threads = int(threads)
        except ValueError:
            print(f"wkernel: {source} must be an integer, got {threads!r}", file=sys.stderr)
            return 2
    if threads is not None:
        if threads < 1:
            print(f"wkernel: {source} must be at least 1, got {threads}", file=sys.stderr)
            return 2
        # must happen before numpy is imported anywhere in this process; an
        # explicit count beats thread variables inherited from the environment
        for var in _THREAD_VARS:
            os.environ[var] = str(threads)

    from .errors import InvalidInput, NumericalFailure, ParseError

    import numpy as np

    try:
        # an overflow anywhere is a numerical failure, not an inf in the output
        with np.errstate(over="raise"):
            run_command(args)
        return 0
    except ParseError as exc:
        print(f"wkernel: parse error: {exc}", file=sys.stderr)
        return 3
    except InvalidInput as exc:
        print(f"wkernel: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"wkernel: out of memory: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, FloatingPointError) as exc:
        print(f"wkernel: numerical failure: {exc}", file=sys.stderr)
        return 4


def run_command(args) -> None:
    """Run one parsed command line: resolve its inputs, its options and the
    output directory (--out, else WKERNEL_OUTDIR, else the config key out,
    else "."), then call the command's handler with them.  ``demo``'s
    inputs are the model's name and its config."""
    from .errors import InvalidInput
    from .matio import load_config

    command = args.command
    file_cfg = load_config(args.config) if args.config else {}
    inputs = [getattr(args, name) for name in _COMMANDS[command][1]]
    opts = _resolve_options(command, args, file_cfg)
    _check_options(command, opts)
    if command == "demo":
        # the model's config class refuses its own bad fields, also before --out
        inputs.append(_demo_config(inputs[0], opts["seed"], file_cfg))
    outdir = args.out or os.environ.get(ENV_OUTDIR) or file_cfg.get("out") or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise InvalidInput(
            f"cannot make the output directory {outdir}: {exc.strerror}"
        ) from None
    globals()[_COMMANDS[command][3]](inputs, opts, outdir)


def _check_options(command: str, opts: dict) -> None:
    """Refuse what the options alone decide, before any input is read or the
    output directory made: a value outside its option's range, or a broken
    rule of the command.  The rules that need the data (--rank, --max-rank
    above n) come later."""
    from .errors import InvalidInput

    def holds(name, values):  # an empty path is unset, as for the loaders
        return opts[name] not in (None, "") if values is None else opts[name] in values

    def words(name, values):
        return f"{_flag(name)} {' or '.join(values)}" if values else _flag(name)

    for name, value in opts.items():
        valid = _OPTIONS[name][3]
        if valid and value is not None and not valid[0](value):
            raise InvalidInput(f"{_flag(name)} must be {valid[1]}, got {value}")
    for name, values, verb, other, allowed in _COMMANDS[command][4]:
        if holds(name, values) and not holds(other, allowed):
            actual = f", not {opts[other]}" if allowed else ""
            raise InvalidInput(
                f"{words(name, values)} {verb} {words(other, allowed)}{actual}"
            )


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _load_loglik(path, kind="raw"):
    """The log-likelihood file, centered in place as ``kind`` says: the one
    centering of a command, whose result every consumer reads."""
    from .kernels import center_loglik
    from .matio import load_matrix_cached

    return center_loglik(load_matrix_cached(path)[0], kind)


def _load_stats(path, loglik):
    """The statistics, refused before any costly work when their draw count
    is not the log-likelihood's."""
    from .core import StatMatrix, _check_draws, _frozen
    from .matio import load_matrix_cached

    arr, header = load_matrix_cached(path)
    stats = StatMatrix(values=_frozen(arr), names=tuple(header) if header else ())
    _check_draws(stats, loglik)
    return stats


def _load_logprior(path):
    """The log prior at the draws, or None when no file is given."""
    if not path:
        return None
    from .core import LogPriorVector
    from .matio import load_vector

    vec, _ = load_vector(path)
    return LogPriorVector(values=vec)


def _projection(loglik, rank):
    """The basis of the leading ``rank`` directions of the raw W, or of all
    retained ones when rank is None; a rank outside 1 to the retained
    rank is a usage error."""
    from .errors import InvalidInput, RankOutOfRange
    from .spectral import principal_basis

    try:
        return principal_basis(loglik, rank)
    except RankOutOfRange as exc:
        raise InvalidInput(
            f"--rank {rank} is outside 1 to the retained rank {exc.retained}"
        ) from None


def _save_indexed(path, values, header, start=0) -> None:
    """Write ``values`` (rows) after an index column start, start + 1, ..."""
    import numpy as np

    from .matio import save_matrix

    index = np.arange(start, start + len(values), dtype=float)
    save_matrix(path, np.column_stack([index, values]), header)


def _save_spectrum(outdir, eigenvalues, log_scree) -> None:
    """eigenvalues.csv and its scree.svg bar chart."""
    from .matio import write_scree_svg

    path = os.path.join(outdir, "eigenvalues.csv")
    _save_indexed(path, eigenvalues, ["index", "eigenvalue"])
    write_scree_svg(os.path.join(outdir, "scree.svg"), eigenvalues, log_scree)


def _cholesky(path, opts):
    """Pivoted Cholesky of the W that ``eigen`` and ``rep`` read: read as is
    with matrix = w, else from the log-likelihood file centered in place.
    From M x n log-likelihoods W is formed only when n <= 2M, where it is at
    most twice their size and its columns come cheaper than from C.  A
    --max-rank above n is refused; a stop at the rank cap with the residual
    above rel_tol x tr W is said on stderr."""
    from .core import _frozen
    from .errors import InvalidInput
    from .kernels import WMatrix
    from .matio import load_matrix_cached
    from .spectral import incomplete_cholesky

    if opts["matrix"] == "w":
        source = WMatrix(values=_frozen(load_matrix_cached(path)[0]))
    else:
        source = _load_loglik(path, opts["kind"] or "raw")
        if source.n <= 2 * source.n_draws:
            source = source.gram()
    max_rank = opts["max_rank"]
    if max_rank is not None and max_rank > source.n:
        raise InvalidInput(f"--max-rank {max_rank} is above the {source.n} observations")
    chol = incomplete_cholesky(source, rel_tol=opts["rel_tol"], max_rank=max_rank)
    if chol.stopped_by == "max_rank":
        print(
            f"wkernel: pivoted Cholesky stopped at the rank cap of {chol.a_M} with "
            f"residual trace {chol.residual_trace:.6g} above rel_tol x tr W = "
            f"{opts['rel_tol'] * chol.trace_w:.6g}",
            file=sys.stderr,
        )
    return chol


def _cmd_eigen(inputs, opts, outdir: str) -> None:
    from .matio import save_matrix
    from .spectral import dual_eigen

    chol = _cholesky(inputs[0], opts)
    basis = dual_eigen(chol)
    _save_spectrum(outdir, basis.eigenvalues, opts["log_scree"])
    save_matrix(
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


def _cmd_freqcov(inputs, opts, outdir: str) -> None:
    from .freq_eval import freq_cov
    from .matio import save_keyvalue, save_matrix

    estimator = opts["estimator"]
    loglik = _load_loglik(inputs[0])
    stats = _load_stats(inputs[1], loglik)
    logprior = _load_logprior(opts["logprior"])
    basis = _projection(loglik, opts["rank"]) if estimator == "projected" else None

    sigma = freq_cov(stats, loglik, estimator=estimator, logprior=logprior, basis=basis)
    save_matrix(os.path.join(outdir, "sigma.csv"), sigma, header=list(stats.names))
    save_keyvalue(
        os.path.join(outdir, "freqcov_meta.csv"),
        [
            ("estimator", estimator),
            ("rank_used", "full" if basis is None else basis.rank_retained),
            ("n_obs", loglik.n_obs),
            ("n_draws", loglik.n_draws),
            ("n_stats", stats.n_stats),
        ],
    )


def _cmd_boot(inputs, opts, outdir: str) -> None:
    import numpy as np

    from .bootstrap import (
        boot_first,
        boot_importance,
        boot_second,
        draw_resamples,
        summarize_bootstrap,
    )
    from .matio import save_matrix

    method, rank = opts["method"], opts["rank"]
    loglik = _load_loglik(inputs[0])
    stats = _load_stats(inputs[1], loglik)
    basis = None
    if method == "second_projected" or rank is not None:
        basis = _projection(loglik, rank)
    # drawn block by block inside the estimators, after their size checks
    resamples = draw_resamples(loglik.n_obs, opts["n_b"], opts["seed"])

    diags = None
    if method == "first":
        run = boot_first(stats, loglik, resamples, basis=basis)
    elif method == "importance":
        run, diags = boot_importance(stats, loglik, resamples)
    elif method == "second_projected":
        run = boot_second(stats, loglik, resamples, basis=basis)
    else:
        mode = method.removeprefix("second_")
        run = boot_second(stats, loglik, resamples, mode=mode)

    save_matrix(
        os.path.join(outdir, "estimates.csv"),
        run.estimates,
        header=list(stats.names),
    )
    exclude = diags.degenerate if diags is not None else None
    summary = summarize_bootstrap(run, exclude=exclude)
    columns = ("mean", "var", "q10", "q25", "q75", "q90")
    save_matrix(
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


def _cmd_rep(inputs, opts, outdir: str) -> None:
    _save_indexed(
        os.path.join(outdir, "representative_indices.csv"),
        _cholesky(inputs[0], opts).pivots,
        ["pivot_rank", "observation"],
    )


def _cmd_diag(inputs, opts, outdir: str) -> None:
    import numpy as np

    from .errors import InvalidInput
    from .freq_eval import centering_diagnostic, penalties
    from .kernels import ScoreMatrix, build_info_matrices
    from .matio import load_matrix_cached, save_keyvalue, save_matrix

    loglik = _load_loglik(inputs[0])
    stats = _load_stats(inputs[1], loglik)
    logprior = _load_logprior(opts["logprior"])

    info = None
    if opts["scores"]:
        s_arr, _ = load_matrix_cached(opts["scores"])
        if s_arr.shape[0] != loglik.n_obs:
            raise InvalidInput(
                f"scores have {s_arr.shape[0]} rows, log-likelihoods have "
                f"{loglik.n_obs} observations"
            )
        h_arr, _ = load_matrix_cached(opts["hessian"])
        k = s_arr.shape[1]
        if h_arr.shape != (k, k):
            rows, cols = h_arr.shape
            raise InvalidInput(f"--hessian is {rows} x {cols}, --scores has {k} columns")
        info = build_info_matrices(ScoreMatrix(values=s_arr, hessian_sum=h_arr))

    report = penalties(loglik, logprior=logprior, info=info)
    save_keyvalue(os.path.join(outdir, "penalties.csv"), report.items())

    values, scale = centering_diagnostic(stats, loglik, logprior=logprior)
    save_matrix(
        os.path.join(outdir, "centering.csv"),
        np.column_stack([values, scale]),
        header=["statistic", "value", "scale"],
        row_names=stats.names,
    )


def _cmd_zmat(inputs, opts, outdir: str) -> None:
    from .kernels import z_spectrum
    from .matio import save_keyvalue

    loglik = _load_loglik(inputs[0], "double_centered")
    z_eigs, max_rel = z_spectrum(loglik)
    _save_indexed(
        os.path.join(outdir, "z_eigenvalues.csv"), z_eigs, ["index", "eigenvalue"]
    )
    save_keyvalue(
        os.path.join(outdir, "duality_report.csv"),
        [
            ("n_obs", loglik.n_obs),
            ("n_draws", loglik.n_draws),
            ("shared_rank_checked", min(loglik.n_obs, loglik.n_draws) - 1),
            ("max_rel_eigenvalue_diff", max_rel),
        ],
    )


def _demo_config(model: str, seed: int, file_cfg: dict):
    """The model's config class at its defaults, with config-file overrides
    of its scalar fields converted to the default's type; ``seed`` is the
    option's."""
    import dataclasses

    from . import models

    cls_name, keys = _DEMO[model]
    cls = getattr(models, cls_name)
    overrides = {
        f.name: _convert(f.name, file_cfg[f.name], type(f.default))
        for f in dataclasses.fields(cls)
        if f.name in keys and f.name in file_cfg
    }
    return cls(seed=seed, **overrides)


def _cmd_demo(inputs, opts, outdir: str) -> None:
    import numpy as np

    from .bootstrap import boot_first, draw_resamples, summarize_bootstrap
    from .freq_eval import freq_cov, penalties
    from .kernels import centered
    from .matio import save_keyvalue, save_matrix
    from .models import run_model
    from .spectral import principal_basis

    model, config = inputs
    seed = opts["seed"]
    bundle = run_model(config)
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
        save_matrix(os.path.join(outdir, name), arr, header=header)

    loglik = centered(bundle.loglik)
    basis = principal_basis(loglik)
    _save_spectrum(outdir, basis.eigenvalues, False)

    sigma = freq_cov(stats, loglik, estimator="centered")
    save_matrix(os.path.join(outdir, "sigma.csv"), sigma, header=list(stats.names))

    resamples = draw_resamples(bundle.n_obs, 200, seed)
    run = boot_first(stats, loglik, resamples)
    save_matrix(
        os.path.join(outdir, "estimates.csv"), run.estimates, header=list(stats.names)
    )
    summary = summarize_bootstrap(run)

    pen = penalties(loglik, logprior=bundle.logprior)
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
    save_keyvalue(os.path.join(outdir, "report.csv"), pairs)


if __name__ == "__main__":
    sys.exit(main())
