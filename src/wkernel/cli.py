"""Command-line driver: the front, which runs before numpy loads.

Commands: eigen, freqcov, boot, rep, diag, zmat, demo.  Inputs are CSV
matrices, each parsed once per distinct content (``matio.load_matrix_cached``);
outputs are CSV files (plus a scree SVG) in the output directory.  Every
option is declared once, in ``_OPTIONS``, with its range, and every
command once, in ``_COMMANDS``, with the rules on which of its options go
together; a flat ``key = value`` config file can supply any option under
its name, with the same checks as the flag.  A value comes from the flag,
else the config file, else the default.  Whatever the options alone
decide is refused before any input is read or the output directory made.

Each handler, which only loads, computes and writes, is the function of
the command's name in ``wkernel.commands``.  ``--threads`` must set the
thread variables before numpy loads, so this module loads no numpy, and
``run_command`` imports ``commands`` (and the library) only after that.

Determinism: all stochastic commands take a 64-bit seed (counter-based
generator), and ``--threads 1`` pins the numerical thread pools before
numpy is loaded, which makes repeat runs byte-identical.

Exit codes: 0 success, 2 usage/invalid input (``InvalidInput``) or out of
memory, 3 parse error (``ParseError``), 4 numerical failure
(``NumericalFailure``, or an overflow).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import InvalidInput, NumericalFailure, ParseError

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
    "rank": (
        int,
        None,
        "retained rank (projected estimator, first/second_projected)",
        (lambda v: v >= 1, "at least 1"),
    ),
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

# command -> (help, positional inputs, option names, rules); its handler is
# the function of that name in wkernel.commands.  A rule (name, values, verb,
# other, allowed): when option name is set, or with values has one of them,
# option other must be set, or with allowed have one of those; the verb only
# words the refusal.
_COMMANDS = {
    "eigen": (
        "spectrum of the observation covariance matrix",
        ("loglik",),
        ("kind", "rel_tol", "max_rank", "log_scree", "matrix"),
        (("kind", None, "applies only with", "matrix", ("loglik",)),),
    ),
    "freqcov": (
        "frequentist covariance of posterior means",
        ("loglik", "stats"),
        ("estimator", "logprior", "rank"),
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
        (("rank", None, "applies only with", "method", ("first", "second_projected")),),
    ),
    "rep": (
        "representative observation subset",
        ("loglik",),
        ("kind", "rel_tol", "max_rank", "matrix"),
        (("kind", None, "applies only with", "matrix", ("loglik",)),),
    ),
    "diag": (
        "penalties and centering diagnostics",
        ("loglik", "stats"),
        ("logprior", "scores", "hessian"),
        (
            ("hessian", None, "applies only with", "scores", None),
            ("scores", None, "requires", "hessian", None),
        ),
    ),
    "zmat": (
        "spectrum of the dual matrix Z and duality check",
        ("loglik",),
        (),
        (),
    ),
    "demo": ("run a bundled model end to end", ("model",), ("seed",), ()),
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
    for command, (help_text, inputs, options, _) in _COMMANDS.items():
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
    except OSError as exc:  # reads raise ParseError, so an output file failed
        where = "" if exc.filename is None else f" {exc.filename}"
        print(f"wkernel: cannot write{where}: {exc.strerror or exc}", file=sys.stderr)
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
    from . import commands
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
    getattr(commands, command)(inputs, opts, outdir)


def _check_options(command: str, opts: dict) -> None:
    """Refuse what the options alone decide, before any input is read or the
    output directory made: a value outside its option's range, or a broken
    rule of the command.  The rules that need the data (--rank above the
    retained rank, --max-rank above n) come later."""
    def holds(name, values):  # an empty path is unset, as for the loaders
        return opts[name] not in (None, "") if values is None else opts[name] in values

    def words(name, values):
        return f"{_flag(name)} {' or '.join(values)}" if values else _flag(name)

    for name, value in opts.items():
        valid = _OPTIONS[name][3]
        if valid and value is not None and not valid[0](value):
            raise InvalidInput(f"{_flag(name)} must be {valid[1]}, got {value}")
    for name, values, verb, other, allowed in _COMMANDS[command][3]:
        if holds(name, values) and not holds(other, allowed):
            actual = f", not {opts[other]}" if allowed else ""
            raise InvalidInput(
                f"{words(name, values)} {verb} {words(other, allowed)}{actual}"
            )


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _demo_config(model: str, seed: int, file_cfg: dict):
    """The model's config class at its defaults, with config-file overrides
    of its scalar fields converted to the default's type; ``seed`` is the
    option's."""
    from . import models

    cls_name, keys = _DEMO[model]
    cls = getattr(models, cls_name)
    overrides = {
        f.name: _convert(f.name, file_cfg[f.name], type(f.default))
        for f in dataclasses.fields(cls)
        if f.name in keys and f.name in file_cfg
    }
    return cls(seed=seed, **overrides)


if __name__ == "__main__":
    sys.exit(main())
