"""Command-line driver.

Commands: eigen, freqcov, boot, rep, diag, zmat, demo.  Inputs are CSV
matrices; outputs are CSV files (plus a scree SVG) in the output
directory.  Every option is declared once, in ``_OPTIONS``; a flat
``key = value`` config file can supply any option under its name, with
the same checks as the flag.  A value comes from the flag, else the
config file, else the default.

Determinism: all stochastic commands take a 64-bit seed (counter-based
generator), and ``--threads 1`` pins the numerical thread pools before
numpy is loaded, which makes repeat runs byte-identical.

Exit codes: 0 success, 2 usage/invalid input, 3 parse error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

ENV_OUTDIR = "WKERNEL_OUTDIR"
ENV_THREADS = "WKERNEL_THREADS"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# option name -> (type, or tuple of allowed values; default; help).  The flag
# is --name with "_" written "-", and the config-file key is the name itself.
_OPTIONS = {
    "kind": (("raw", "double_centered"), "raw", "W variant"),
    "rel_tol": (float, 1e-8, "relative residual-trace tolerance of the Cholesky"),
    "max_rank": (int, None, "Cholesky rank cap"),
    "log_scree": (bool, False, "log10 scale for scree.svg"),
    "matrix": (
        ("loglik", "w"),
        "loglik",
        "input layout: draws x observations, or a precomputed covariance",
    ),
    "estimator": (("plain", "centered", "prior_adjusted", "projected"), "plain", None),
    "logprior": (str, None, "CSV vector, log prior at draws"),
    "rank": (int, None, "retained rank (projected estimator, first/second_projected)"),
    "method": (
        ("first", "second_direct", "second_efficient", "second_projected", "importance"),
        "first",
        None,
    ),
    "n_b": (int, 1000, "replicates"),
    "seed": (int, 0, "64-bit seed"),
    "scores": (str, None, "CSV, observations x parameters"),
    "hessian": (str, None, "CSV, k x k averaged neg. Hessian"),
}

# demo model -> (config class in wkernel.models, the scalar fields a config
# file may override with their bundled defaults, McmcConfig arguments or None)
_DEMO = {
    "weibull": (
        "WeibullConfig",
        {"gamma": 2.0, "lam": 50.0, "n": 59},
        {"iters": 4500, "burn_in": 1500},
    ),
    "betabinom": (
        "BetaBinomialConfig",
        {"N": 5, "n": 20, "q0": 0.25, "rho": 0.65, "alpha": 1.0, "beta": 1.0,
         "prior_weight": 0.0, "m_draws": 5000},
        None,
    ),
    "normal_mean": ("NormalMeanConfig", {"n": 200, "m_draws": 20000}, None),
    "regression": (
        "RegressionConfig",
        {"n": 30, "sigma_true": 0.3, "likelihood": "normal_known_sigma",
         "sigma_lik": 0.1},
        {"chains": 4, "iters": 14000, "burn_in": 2000},
    ),
}

# positional input -> (allowed values or None, help)
_INPUTS = {
    "loglik": (None, "CSV, draws x observations (or a covariance matrix)"),
    "stats": (None, "CSV, draws x statistics"),
    "model": (tuple(_DEMO), "bundled model"),
}

# command -> (help, positional inputs, option names)
_COMMANDS = {
    "eigen": (
        "spectrum of the observation covariance matrix",
        ("loglik",),
        ("kind", "rel_tol", "max_rank", "log_scree", "matrix"),
    ),
    "freqcov": (
        "frequentist covariance of posterior means",
        ("loglik", "stats"),
        ("estimator", "logprior", "rank"),
    ),
    "boot": (
        "approximate bootstrap of posterior means",
        ("loglik", "stats"),
        ("method", "n_b", "rank", "seed"),
    ),
    "rep": (
        "representative observation subset",
        ("loglik",),
        ("kind", "rel_tol", "max_rank", "matrix"),
    ),
    "diag": (
        "penalties and centering diagnostics",
        ("loglik", "stats"),
        ("logprior", "scores", "hessian"),
    ),
    "zmat": ("spectrum of the dual matrix Z and duality check", ("loglik",), ()),
    "demo": ("run a bundled model end to end", ("model",), ("seed",)),
}

# boot methods that project onto the leading directions of W
_PROJECTING_METHODS = ("first", "second_projected")


@dataclass
class RunConfig:
    """Resolved command invocation: command name, inputs, options, outdir."""

    command: str
    inputs: list = field(default_factory=list)
    options: dict = field(default_factory=dict)
    outdir: str = "."
    file_cfg: dict = field(default_factory=dict)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", "-o", default=None, help="output directory")
    common.add_argument("--config", default=None, help="flat key = value config file")
    common.add_argument("--threads", type=int, default=None, help="thread cap")

    parser = argparse.ArgumentParser(
        prog="wkernel",
        description=(
            "Frequentist evaluation of Bayesian estimators from a "
            "per-observation log-likelihood matrix."
        ),
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, inputs, options) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name in inputs:
            choices, text = _INPUTS[name]
            p.add_argument(name, choices=choices, help=text)
        for name in options:
            kind, _, text = _OPTIONS[name]
            if kind is bool:
                how = {"action": "store_true"}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, default=None, help=text, **how)
    return parser


def _convert(key: str, text: str, kind):
    """A config-file value as ``kind`` (a type or a tuple of allowed values)."""
    from .errors import UsageError

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
    raise UsageError(f"config key {key}: expected {expected}, got {text!r}")


def _resolve_options(command: str, args, file_cfg: dict) -> dict:
    """Every option of the command: the flag, else the config file, else the default."""
    opts = {}
    for name in _COMMANDS[command][2]:
        kind, default, _ = _OPTIONS[name]
        value = getattr(args, name)
        if value is None and name in file_cfg:
            value = _convert(name, file_cfg[name], kind)
        opts[name] = default if value is None else value
    return opts


def _run_config(args) -> RunConfig:
    from .matio import load_config

    file_cfg = load_config(args.config) if args.config else {}
    return RunConfig(
        command=args.command,
        inputs=[getattr(args, name) for name in _COMMANDS[args.command][1]],
        options=_resolve_options(args.command, args, file_cfg),
        outdir=args.out or os.environ.get(ENV_OUTDIR) or file_cfg.get("out") or ".",
        file_cfg=file_cfg,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    threads = args.threads
    if threads is None and os.environ.get(ENV_THREADS):
        try:
            threads = int(os.environ[ENV_THREADS])
        except ValueError:
            print(f"wkernel: bad {ENV_THREADS} value", file=sys.stderr)
            return 2
    if threads is not None:
        if threads < 1:
            print("wkernel: --threads must be >= 1", file=sys.stderr)
            return 2
        # must happen before numpy is imported anywhere in this process; an
        # explicit count beats thread variables inherited from the environment
        for var in _THREAD_VARS:
            os.environ[var] = str(threads)

    from .errors import (
        InvalidInput,
        NotPSD,
        NumericalFailure,
        ParseError,
        SingularInformation,
        UsageError,
        WkernelError,
    )

    import numpy as np

    try:
        # an overflow anywhere is a numerical failure, not an inf in the output
        with np.errstate(over="raise"):
            run_command(_run_config(args))
        return 0
    except ParseError as exc:
        print(f"wkernel: parse error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, InvalidInput) as exc:
        print(f"wkernel: {exc}", file=sys.stderr)
        return 2
    except (NotPSD, SingularInformation, NumericalFailure, FloatingPointError) as exc:
        print(f"wkernel: numerical failure: {exc}", file=sys.stderr)
        return 4
    except WkernelError as exc:
        print(f"wkernel: {exc}", file=sys.stderr)
        return 4


def run_command(config: RunConfig) -> None:
    """Execute one resolved command, writing artifacts to config.outdir."""
    from .errors import UsageError
    from .matio import resolve_outdir

    handlers = {
        "eigen": _cmd_eigen,
        "freqcov": _cmd_freqcov,
        "boot": _cmd_boot,
        "rep": _cmd_rep,
        "diag": _cmd_diag,
        "zmat": _cmd_zmat,
        "demo": _cmd_demo,
    }
    handler = handlers.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    outdir = resolve_outdir(config.outdir)
    handler(config, outdir)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _load_loglik(path):
    from .core import LogLikMatrix
    from .matio import load_matrix

    arr, _ = load_matrix(path)
    return LogLikMatrix(values=arr)


def _load_stats(path):
    from .core import StatMatrix
    from .matio import load_matrix

    arr, header = load_matrix(path)
    return StatMatrix(values=arr, names=tuple(header) if header else ())


def _load_logprior(path):
    """The log prior at the draws, or None when no file is given."""
    if not path:
        return None
    from .core import LogPriorVector
    from .matio import load_vector

    vec, _ = load_vector(path)
    return LogPriorVector(values=vec)


def _load_w(path, opts):
    """W built from a log-likelihood file, or read as is with matrix = w."""
    from .kernels import WMatrix, build_w
    from .matio import load_matrix

    if opts["matrix"] == "w":
        arr, _ = load_matrix(path)
        return WMatrix(values=arr, kind=opts["kind"], source_M=0)
    return build_w(_load_loglik(path), kind=opts["kind"])


def _spectrum(w, rel_tol, max_rank):
    """Pivoted Cholesky of W and the spectrum from its dual problem."""
    from .spectral import dual_eigen, incomplete_cholesky

    chol = incomplete_cholesky(w, rel_tol=rel_tol, max_rank=max_rank)
    return chol, dual_eigen(chol)


def _full_spectrum(w):
    """W's whole retained spectrum, as the projected paths and ``demo`` use
    it: pivoted Cholesky to relative tolerance 1e-10, with no rank cap."""
    return _spectrum(w, 1e-10, w.n)[1]


def _projection(loglik, rank):
    """Projection onto the leading ``rank`` directions of the raw W, or onto
    all retained ones when rank is None; more than that is a usage error."""
    from .errors import UsageError
    from .kernels import build_w
    from .spectral import project_loglik

    basis = _full_spectrum(build_w(loglik, kind="raw"))
    if rank is not None and rank > basis.rank_retained:
        raise UsageError(
            f"--rank {rank} exceeds the retained rank {basis.rank_retained}"
        )
    return project_loglik(loglik, basis, rank)


def _save_indexed(path, values, header, start=0) -> None:
    """Write ``values`` (rows) after an index column start, start + 1, ..."""
    import numpy as np

    from .matio import save_matrix

    index = np.arange(start, start + len(values), dtype=float)
    save_matrix(path, np.column_stack([index, values]), header)


def _cmd_eigen(config: RunConfig, outdir: str) -> None:
    from .matio import save_matrix, write_scree_svg

    opts = config.options
    w = _load_w(config.inputs[0], opts)
    chol, basis = _spectrum(w, opts["rel_tol"], opts["max_rank"])

    _save_indexed(
        os.path.join(outdir, "eigenvalues.csv"),
        basis.eigenvalues,
        ["index", "eigenvalue"],
    )
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
    write_scree_svg(
        os.path.join(outdir, "scree.svg"), basis.eigenvalues, opts["log_scree"]
    )


def _cmd_freqcov(config: RunConfig, outdir: str) -> None:
    from .errors import UsageError
    from .freq_eval import freq_cov
    from .matio import save_keyvalue, save_matrix

    opts = config.options
    estimator = opts["estimator"]
    if opts["rank"] is not None and estimator != "projected":
        raise UsageError(
            f"--rank applies only to the projected estimator, not {estimator}"
        )
    loglik = _load_loglik(config.inputs[0])
    stats = _load_stats(config.inputs[1])
    logprior = _load_logprior(opts["logprior"])
    projection = _projection(loglik, opts["rank"]) if estimator == "projected" else None

    est = freq_cov(
        stats, loglik, estimator=estimator, logprior=logprior, projection=projection
    )
    save_matrix(os.path.join(outdir, "sigma.csv"), est.values, header=list(stats.names))
    save_keyvalue(
        os.path.join(outdir, "freqcov_meta.csv"),
        [
            ("estimator", est.estimator),
            ("rank_used", str(est.rank_used)),
            ("n_obs", loglik.n_obs),
            ("n_draws", loglik.n_draws),
            ("n_stats", stats.n_stats),
        ],
    )


def _cmd_boot(config: RunConfig, outdir: str) -> None:
    import numpy as np

    from .bootstrap import (
        boot_first,
        boot_importance,
        boot_second,
        draw_resamples,
        summarize_bootstrap,
    )
    from .errors import UsageError
    from .matio import save_matrix

    opts = config.options
    method, rank, seed = opts["method"], opts["rank"], opts["seed"]
    if rank is not None and method not in _PROJECTING_METHODS:
        raise UsageError(
            f"--rank applies only to methods {_PROJECTING_METHODS}, not {method}"
        )
    loglik = _load_loglik(config.inputs[0])
    stats = _load_stats(config.inputs[1])
    if opts["n_b"] < 1:
        raise UsageError("boot needs n_b >= 1 replicates")
    resamples = draw_resamples(loglik.n_obs, opts["n_b"], seed)

    projection = None
    if method == "second_projected" or rank is not None:
        projection = _projection(loglik, rank)
    diags = None
    if method == "first":
        run = boot_first(stats, loglik, resamples, projection=projection, seed=seed)
    elif method == "importance":
        run, diags = boot_importance(stats, loglik, resamples, seed=seed)
    elif method == "second_projected":
        run = boot_second(stats, loglik, resamples, projection=projection, seed=seed)
    else:
        mode = method.removeprefix("second_")
        run = boot_second(stats, loglik, resamples, mode=mode, seed=seed)

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


def _cmd_rep(config: RunConfig, outdir: str) -> None:
    from .spectral import representative_set

    opts = config.options
    w = _load_w(config.inputs[0], opts)
    rset = representative_set(*_spectrum(w, opts["rel_tol"], opts["max_rank"]))
    _save_indexed(
        os.path.join(outdir, "representative_indices.csv"),
        rset.indices,
        ["pivot_rank", "observation"],
    )


def _cmd_diag(config: RunConfig, outdir: str) -> None:
    import numpy as np

    from .errors import UsageError
    from .freq_eval import centering_diagnostic, penalties
    from .kernels import ScoreMatrix, build_info_matrices
    from .matio import load_matrix, save_keyvalue, save_matrix

    loglik = _load_loglik(config.inputs[0])
    stats = _load_stats(config.inputs[1])
    opts = config.options
    logprior = _load_logprior(opts["logprior"])

    info = None
    if opts["scores"]:
        if not opts["hessian"]:
            raise UsageError("--scores requires --hessian for the curvature matrix")
        s_arr, _ = load_matrix(opts["scores"])
        h_arr, _ = load_matrix(opts["hessian"])
        info = build_info_matrices(ScoreMatrix(values=s_arr, hessian_sum=h_arr))

    report = penalties(loglik, logprior=logprior, info=info)
    pairs = [("waic_penalty", report.waic_penalty)]
    if report.tic_penalty is not None:
        pairs.append(("tic_penalty", report.tic_penalty))
    if report.pcic_penalty is not None:
        pairs.append(("pcic_penalty", report.pcic_penalty))
    save_keyvalue(os.path.join(outdir, "penalties.csv"), pairs)

    diag = centering_diagnostic(stats, loglik, logprior=logprior)
    save_matrix(
        os.path.join(outdir, "centering.csv"),
        np.column_stack([diag.values, diag.scale]),
        header=["statistic", "value", "scale"],
        row_names=stats.names,
    )


def _cmd_zmat(config: RunConfig, outdir: str) -> None:
    from .kernels import z_spectrum
    from .matio import save_keyvalue

    loglik = _load_loglik(config.inputs[0])
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
    """The model's config: bundled defaults, with config-file overrides of its
    scalar fields converted like option values; ``seed`` is the option's."""
    from . import models

    cls_name, fields, mcmc = _DEMO[model]
    kwargs = {
        key: _convert(key, file_cfg[key], type(value)) if key in file_cfg else value
        for key, value in fields.items()
    }
    if mcmc is not None:
        kwargs["mcmc"] = models.McmcConfig(**mcmc, seed=seed)
    return getattr(models, cls_name)(**kwargs, seed=seed)


def _cmd_demo(config: RunConfig, outdir: str) -> None:
    import numpy as np

    from .bootstrap import boot_first, draw_resamples, summarize_bootstrap
    from .freq_eval import freq_cov, penalties
    from .kernels import build_w
    from .matio import save_keyvalue, save_matrix, write_scree_svg
    from .models import run_model

    model = config.inputs[0]
    seed = config.options["seed"]
    bundle = run_model(_demo_config(model, seed, config.file_cfg))
    stats = bundle.default_stats()

    params = list(bundle.param_names)
    theta_hat = np.asarray(bundle.theta_hat, dtype=float).reshape(1, -1)
    for name, arr, header in (
        ("data.csv", bundle.data, ["x"]),
        ("draws.csv", bundle.draws, params),
        ("loglik.csv", bundle.loglik.values, [f"obs_{i}" for i in range(bundle.n_obs)]),
        ("stats.csv", stats.values, list(stats.names)),
        ("logprior.csv", bundle.logprior.values, ["logprior"]),
        ("theta_hat.csv", theta_hat, params),
    ):
        save_matrix(os.path.join(outdir, name), arr, header=header)

    w = build_w(bundle.loglik, kind="raw")
    basis = _full_spectrum(w)
    _save_indexed(
        os.path.join(outdir, "eigenvalues.csv"),
        basis.eigenvalues,
        ["index", "eigenvalue"],
    )
    write_scree_svg(os.path.join(outdir, "scree.svg"), basis.eigenvalues, False)

    sigma = freq_cov(stats, bundle.loglik, estimator="centered")
    save_matrix(os.path.join(outdir, "sigma.csv"), sigma.values, header=list(stats.names))

    resamples = draw_resamples(bundle.n_obs, 200, seed)
    run = boot_first(stats, bundle.loglik, resamples, seed=seed)
    save_matrix(
        os.path.join(outdir, "estimates.csv"), run.estimates, header=list(stats.names)
    )
    summary = summarize_bootstrap(run)

    pen = penalties(bundle.loglik, logprior=bundle.logprior)
    top = basis.eigenvalues[: min(6, basis.rank_retained)]
    pairs = [
        ("model", model),
        ("n_obs", bundle.n_obs),
        ("n_draws", bundle.n_draws),
        ("trace_w", w.trace),
        ("waic_penalty", pen.waic_penalty),
        ("pcic_penalty", pen.pcic_penalty),
    ]
    if bundle.acceptance_rate is not None:
        pairs.append(("acceptance_rate", bundle.acceptance_rate))
    pairs += [(f"eigenvalue_{a}", float(v)) for a, v in enumerate(top)]
    pairs += [
        (f"boot_mean_{name}", float(v))
        for name, v in zip(stats.names, summary["mean"])
    ]
    pairs += [
        (f"boot_var_{name}", float(v)) for name, v in zip(stats.names, summary["var"])
    ]
    save_keyvalue(os.path.join(outdir, "report.csv"), pairs)


if __name__ == "__main__":
    sys.exit(main())
