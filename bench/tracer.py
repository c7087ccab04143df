"""Run one wkernel command in process with timing spans around each layer.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/tracer.py CMD_ID SPANS_FILE -- <wkernel argv>

The thread variables are pinned to THREADS before numpy loads, wrappers
are installed on the public functions of each ``wkernel`` module (at
every module attribute they are reachable through), on the containers'
``__post_init__`` and on ``numpy.linalg.eigh``/``eigvalsh``, and then
``wkernel.cli.main(argv)`` runs.  Spans stay in memory and are written
to SPANS_FILE as JSON lines when the command ends.  Nothing under
``src/`` is modified.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Every benchmarked command runs with --threads THREADS.  With two threads
# on a 2-core machine the wide session's run-to-run spread reached 0.30,
# too wide for a bound, and its CPU time was only 10% above its wall time
# (README.md).
THREADS = 1

# layer -> {public function wrapped in that layer: self-time bucket}; the
# per-layer metric of a bucket is "<layer>.<bucket>_s"
FUNCTIONS = {
    "matio": {"load_matrix": "load", "load_vector": "load", "load_config": "load",
              "save_matrix": "save", "save_keyvalue": "save", "write_scree_svg": "save"},
    "core": {"posterior_cov_grid": "moments", "third_cumulant_grid": "moments"},
    "kernels": {"build_w": "build_w", "build_z": "build_z", "build_deviation": "build_z"},
    "spectral": {"incomplete_cholesky": "cholesky", "dual_eigen": "dual_eigen",
                 "full_eigen": "dual_eigen", "project_loglik": "project",
                 "representative_set": "project"},
    "freq_eval": {"freq_cov": "freq_cov", "penalties": "diag", "centering_diagnostic": "diag"},
    "bootstrap": {"draw_resamples": "resample", "boot_first": "kernel", "boot_second": "kernel",
                  "boot_importance": "kernel", "summarize_bootstrap": "summary"},
    "models": {"run_model": "run_model"},
}
# layer -> containers whose __post_init__ (copy plus checks) is timed in
# the bucket "validate"
VALIDATED = {
    "core": ("LogLikMatrix", "StatMatrix", "LogPriorVector"),
    "kernels": ("WMatrix", "ZMatrix", "CenteredDeviationMatrix"),
}
LINALG = {"eigh": "eig", "eigvalsh": "eig"}


def bucket_of(name: str) -> str:
    """Self-time bucket "<layer>.<bucket>" of a span name "<layer>.<function>"."""
    layer, rest = name.split(".", 1)
    if rest.endswith(".__post_init__"):
        return f"{layer}.validate"
    table = LINALG if layer == "linalg" else FUNCTIONS[layer]
    return f"{layer}.{table[rest]}"


class Tracer:
    """In-memory span recorder; one per traced command."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans = []
        self.stack = []

    def wrap(self, name, func, attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = {"cmd": tracer.cmd_id, "id": len(tracer.spans), "name": name,
                    "parent": tracer.stack[-1]["id"] if tracer.stack else None}
            tracer.spans.append(span)
            tracer.stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                tracer.stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _dense_bytes(args, kwargs, result):
    return {"dense_bytes": int(result.values.nbytes)}


def _cholesky(args, kwargs, result):
    from wkernel.spectral import DEFAULT_MAX_RANK, DEFAULT_REL_TOL

    w = _arg(args, kwargs, 0, "w")
    rel_tol = _arg(args, kwargs, 1, "rel_tol", DEFAULT_REL_TOL)
    max_rank = _arg(args, kwargs, 2, "max_rank") or min(w.n, DEFAULT_MAX_RANK)
    cap_hit = result.a_M == max_rank and result.residual_trace > rel_tol * result.trace_w
    return {"cols": int(result.a_M), "cap_hit": bool(cap_hit)}


def _importance(args, kwargs, result):
    import numpy as np

    run, diags = result
    return {"ess_ratio": float(np.median(diags.ess) / run.draws_used),
            "degenerate": diags.n_degenerate, "replicates": run.n_replicates}


ATTRS = {
    "matio.load_matrix": _file_bytes,
    "matio.save_matrix": _file_bytes,
    "matio.save_keyvalue": _file_bytes,
    "matio.write_scree_svg": _file_bytes,
    "kernels.build_w": _dense_bytes,
    "kernels.build_z": _dense_bytes,
    "spectral.incomplete_cholesky": _cholesky,
    "spectral.dual_eigen": lambda a, k, r: {"rank": int(r.rank_retained)},
    "spectral.project_loglik": lambda a, k, r: {"a_M": int(r.a_M)},
    "bootstrap.draw_resamples": lambda a, k, r: {"replicates": len(r)},
    "bootstrap.boot_importance": _importance,
    "models.run_model": lambda a, k, r: {"acceptance_rate": r.acceptance_rate},
}


def install(tracer: Tracer, with_models: bool) -> None:
    """Wrap every traced callable wherever a loaded wkernel module binds it."""
    import numpy.linalg

    layers = [layer for layer in FUNCTIONS if with_models or layer != "models"]
    modules = {layer: importlib.import_module(f"wkernel.{layer}") for layer in layers}
    importlib.import_module("wkernel.cli")
    loaded = [m for name, m in sys.modules.items()
              if name == "wkernel" or name.startswith("wkernel.")]
    for layer in layers:
        for fname in FUNCTIONS[layer]:
            orig = getattr(modules[layer], fname)
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap(name, orig, ATTRS.get(name))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
        for cname in VALIDATED.get(layer, ()):
            cls = getattr(modules[layer], cname)
            cls.__post_init__ = tracer.wrap(f"{layer}.{cname}.__post_init__",
                                            cls.__post_init__)
    for fname in LINALG:
        setattr(numpy.linalg, fname,
                tracer.wrap(f"linalg.{fname}", getattr(numpy.linalg, fname)))


def main(argv) -> int:
    cmd_id, spans_path = int(argv[0]), argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py CMD_ID SPANS_FILE -- ARGV...")
    cli_argv = argv[3:]
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    tracer = Tracer(cmd_id)
    install(tracer, with_models=cli_argv[0] == "demo")
    from wkernel.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
