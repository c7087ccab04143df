#!/usr/bin/env python3
"""CLI session benchmark for wkernel.

    python3 bench/run_bench.py --workload {wide,resample_dual}
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the repository root.  The benchmark generates the workload's
inputs from the seed, then repeats the workload's session -- a fixed
sequence of ``python -m wkernel.cli`` commands, each a fresh child
process reading and writing CSV -- for about S seconds, and checks
every output against an independent numpy reference.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it also runs the
sessions with every command traced in process (bench/tracer.py) and
reports the per-layer metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from tracer import THREAD_VARS, THREADS, bucket_of

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MIN_SESSIONS = 2  # untraced sessions per --trace 0 run, whatever --seconds says
TINY = {"M": 0.04, "n": 0.1, "n_b": 200}  # --tiny: size factors and replicate cap
MB = 2.0**20

END_TO_END_UNITS = {
    "session_s": "s",
    "session_cpu_s": "s",
    "slowest_cmd_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "1",
}
COMMAND_LABELS = ("eigen", "rep", "freqcov", "diag", "boot_first", "boot_second",
                  "boot_importance", "zmat", "demo")
# per-layer metric -> unit
PER_LAYER_UNITS = {
    **{f"cmd.{label}_s": "s" for label in COMMAND_LABELS},
    "cli.self_s": "s",
    "matio.load_s": "s",
    "matio.load_calls": "count",
    "matio.load_mb": "MB",
    "matio.load_mb_per_s": "MB/s",
    "matio.save_s": "s",
    "matio.save_mb": "MB",
    "core.validate_s": "s",
    "core.moments_s": "s",
    "kernels.build_w_s": "s",
    "kernels.build_z_s": "s",
    "kernels.validate_s": "s",
    "kernels.dense_mb": "MB",
    "kernels.duality_reported_diff": "1",
    "linalg.eig_s": "s",
    "spectral.cholesky_s": "s",
    "spectral.cholesky_cols": "count",
    "spectral.cholesky_cap_hits": "count",
    "spectral.dual_eigen_s": "s",
    "spectral.project_s": "s",
    "spectral.used_ratio": "1",
    "freq_eval.freq_cov_s": "s",
    "freq_eval.diag_s": "s",
    "bootstrap.resample_s": "s",
    "bootstrap.resample_us_per_rep": "us",
    "bootstrap.replicates": "count",
    "bootstrap.kernel_s": "s",
    "bootstrap.summary_s": "s",
    "bootstrap.ess_ratio": "1",
    "bootstrap.degenerate_frac": "1",
    "models.run_model_s": "s",
    "models.acceptance_rate": "1",
    "trace.overhead_frac": "1",
}
LAYERS = ("cli", "matio", "core", "kernels", "linalg", "spectral", "freq_eval",
          "bootstrap", "models")


@dataclass
class CommandRun:
    label: str
    argv: list
    t0: float
    wall: float
    cpu: float
    rss_mb: float
    problems: list
    spans: list = field(default_factory=list)


@dataclass
class Session:
    commands: list
    wall: float
    traced: bool
    facts: dict

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c.problems)


class Bench:
    """One benchmark run: a workload's inputs, its sessions and their checks."""

    def __init__(self, workload, seed: int, root: str, tiny: bool, launcher):
        self.wl = workload
        self.launcher = launcher
        self.seed = seed
        self.root = root
        self.tiny = tiny
        self.work = os.path.join(root, ".bench_work", workload.name)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in THREAD_VARS and not k.startswith("WKERNEL_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # label -> (digest, problems) of its first checked run
        self.first_digest = {}
        self.ref = None
        self.paths = None

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Generate and write the inputs once, untimed: the first call also
        pays for lazy imports and first-touch page faults."""
        from checks import Reference
        from workloads import generate, write_inputs

        shutil.rmtree(self.work, ignore_errors=True)
        inputs = generate(self.wl.name, self.seed, self.wl.M, self.wl.n)
        self.paths = write_inputs(inputs, os.path.join(self.work, "inputs"))
        self.ref = Reference(inputs)

    def time_setup(self) -> float:
        """Generate and rewrite the same inputs; returns the time taken."""
        from workloads import generate, write_inputs

        t0 = time.perf_counter()
        inputs = generate(self.wl.name, self.seed, self.wl.M, self.wl.n)
        write_inputs(inputs, os.path.join(self.work, "inputs"))
        return time.perf_counter() - t0

    def argv(self, template) -> list:
        fill = {**self.paths, "seed": self.seed}
        out = [arg.format(**fill) for arg in template]
        if self.tiny and "--n-b" in out:
            i = out.index("--n-b") + 1
            out[i] = str(min(int(out[i]), TINY["n_b"]))
        return out + ["--threads", str(THREADS)]

    # -- sessions ---------------------------------------------------------

    def run_command(self, cmd_id, label, argv, traced) -> CommandRun:
        outdir = os.path.join(self.work, "out", label)
        spans_path = os.path.join(self.work, "spans.jsonl")
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
                   str(cmd_id), spans_path, "--"]
        else:
            cmd = [sys.executable, "-m", "wkernel.cli"]
        err_path = os.path.join(self.work, "stderr.txt")
        request = {"argv": cmd + argv + ["--out", outdir], "env": self.env,
                   "cwd": self.root, "stderr": err_path}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        done = json.loads(self.launcher.stdout.readline())
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        problems = []
        if done["code"] != 0:
            problems.append(f"exit code {done['code']}: {stderr.strip()[-300:]}")
        elif "Traceback" in stderr:
            problems.append("printed a traceback")
        spans = []
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            os.remove(spans_path)
        return CommandRun(label, argv, done["t0"], done["t1"] - done["t0"], done["cpu"],
                          done["maxrss_kb"] / 1024.0, problems, spans)

    def run_session(self, traced: bool) -> Session:
        shutil.rmtree(os.path.join(self.work, "out"), ignore_errors=True)
        t0 = time.perf_counter()
        commands = [self.run_command(k, label, self.argv(template), traced)
                    for k, (label, template) in enumerate(self.wl.session)]
        wall = time.perf_counter() - t0
        facts = {}
        for run in commands:
            if not run.problems:
                run.problems = self.check(run, facts)
        shutil.rmtree(os.path.join(self.work, "out"), ignore_errors=True)
        return Session(commands, wall, traced, facts)

    def check(self, run: CommandRun, facts: dict) -> list:
        """A repeat must be byte-identical to the label's first run (the
        README contract at --threads 1); the first run is checked against
        the reference."""
        from checks import check_command

        outdir = os.path.join(self.work, "out", run.label)
        digest = hashlib.sha256()
        for name in sorted(os.listdir(outdir)):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(outdir, name), "rb") as fh:
                digest.update(fh.read())
        digest = digest.hexdigest()
        first = self.first_digest.get(run.label)
        if first is not None:
            if digest != first[0]:
                return ["outputs not byte-identical to the first repetition"]
            return list(first[1])
        problems = check_command(self.ref, run.argv, outdir, facts)
        self.first_digest.setdefault(run.label, (digest, problems))
        return problems

    def measure(self, seconds: float, traced: bool, min_sessions: int,
                setup_times=None) -> list:
        """Whole sessions while the next one is expected to end within
        ``seconds``.  If ``setup_times`` is a list, one set-up is timed
        before the first session and one after each session and appended
        to it, so that the set-up times sample the same stretch of time as
        the sessions."""

        def time_setups():
            if setup_times is not None:
                setup_times.append(self.time_setup())

        t0 = time.perf_counter()
        sessions = []
        steps = []
        while len(sessions) < min_sessions or (
            time.perf_counter() - t0 + statistics.median(steps) <= seconds
        ):
            step0 = time.perf_counter()
            time_setups()
            sessions.append(self.run_session(traced))
            steps.append(time.perf_counter() - step0)
        time_setups()
        return sessions


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def command_medians(sessions, attr: str = "wall") -> dict:
    """Median wall (or cpu) time of each command over the sessions."""
    times = {}
    for s in sessions:
        for c in s.commands:
            times.setdefault(c.label, []).append(getattr(c, attr))
    return {label: statistics.median(t) for label, t in times.items()}


def end_to_end(sessions, setup_times) -> dict:
    """Session times are sums of per-command medians: one slow command
    then moves one term of the sum, not the whole session it fell in."""
    attempted = sum(len(s.commands) for s in sessions)
    failed = sum(s.failed for s in sessions)
    med = statistics.median
    walls = command_medians(sessions)
    return {
        "session_s": sum(walls.values()),
        "session_cpu_s": sum(command_medians(sessions, "cpu").values()),
        "slowest_cmd_s": max(walls.values()),
        "peak_rss_mb": med(max(c.rss_mb for c in s.commands) for s in sessions),
        "setup_s": med(setup_times),
        "ok_frac": 1.0 - failed / attempted,
    }


def self_times(session: Session) -> dict:
    """Self time per bucket, summed over the session, plus cli.self."""
    out = {"cli.self": 0.0}
    for run in session.commands:
        dur = {s["id"]: s["t1"] - s["t0"] for s in run.spans}
        child = dict.fromkeys(dur, 0.0)
        top = 0.0
        for s in run.spans:
            if s["parent"] is None:
                top += dur[s["id"]]
            else:
                child[s["parent"]] += dur[s["id"]]
        out["cli.self"] += run.wall - top
        for s in run.spans:
            key = bucket_of(s["name"])
            out[key] = out.get(key, 0.0) + dur[s["id"]] - child[s["id"]]
    return out


def counts(session: Session) -> dict:
    """Exact counts and ratios of one traced session."""
    spans = [s for run in session.commands for s in run.spans]

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    used = 0
    for run in session.commands:
        names = [s["name"] for s in run.spans]
        if "spectral.project_loglik" in names:
            used += sum(s["a_M"] for s in run.spans if s["name"] == "spectral.project_loglik")
        else:
            used += sum(s["rank"] for s in run.spans if s["name"] == "spectral.dual_eigen")
    cols = total("spectral.incomplete_cholesky", "cols")
    importance = [s for s in spans if s["name"] == "bootstrap.boot_importance"]
    is_reps = sum(s["replicates"] for s in importance)
    models = [s for s in spans if s["name"] == "models.run_model"]
    return {
        "matio.load_calls": sum(1 for s in spans if s["name"] == "matio.load_matrix"),
        "matio.load_mb": total("matio.load_matrix", "bytes") / MB,
        "matio.save_mb": sum(s.get("bytes", 0) for s in spans
                             if bucket_of(s["name"]) == "matio.save") / MB,
        "kernels.dense_mb": sum(s.get("dense_bytes", 0) for s in spans) / MB,
        "spectral.cholesky_cols": cols,
        "spectral.cholesky_cap_hits": sum(1 for s in spans if s.get("cap_hit")),
        "spectral.used_ratio": used / cols if cols else 0.0,
        "bootstrap.replicates": total("bootstrap.draw_resamples", "replicates"),
        "bootstrap.ess_ratio": statistics.median(s["ess_ratio"] for s in importance)
        if importance else 0.0,
        "bootstrap.degenerate_frac": sum(s["degenerate"] for s in importance) / is_reps
        if is_reps else 0.0,
        "models.acceptance_rate": models[0]["acceptance_rate"] if models else 0.0,
    }


def per_layer(untraced, traced) -> tuple:
    """(per-layer metrics, layer self-time totals) from the two session sets."""
    med = statistics.median
    cmd = command_medians(untraced)
    metrics = {f"cmd.{label}_s": cmd.get(label, 0.0) for label in COMMAND_LABELS}
    selfs = [self_times(s) for s in traced]
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and not name.startswith("cmd."):
            metrics[name] = med(t.get(name[:-2], 0.0) for t in selfs)
    metrics.update(counts(traced[0]))
    load_s = metrics["matio.load_s"]
    metrics["matio.load_mb_per_s"] = metrics["matio.load_mb"] / load_s if load_s else 0.0
    reps = metrics["bootstrap.replicates"]
    metrics["bootstrap.resample_us_per_rep"] = (
        metrics["bootstrap.resample_s"] / reps * 1e6 if reps else 0.0)
    diffs = [s.facts["duality_reported_diff"] for s in untraced
             if "duality_reported_diff" in s.facts]
    metrics["kernels.duality_reported_diff"] = med(diffs) if diffs else 0.0
    metrics["trace.overhead_frac"] = (
        med(s.wall for s in traced) / med(s.wall for s in untraced) - 1.0)
    layers = {layer: med(sum(v for k, v in t.items() if k.split(".")[0] == layer)
                         for t in selfs) for layer in LAYERS}
    return metrics, layers


def write_trace(path: str, sessions) -> None:
    """Every traced span as a JSON line.  Each command's root span is its
    child process as timed from outside (name "cli.<label>", no parent)."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, session in enumerate(sessions):
            for cmd_id, run in enumerate(session.commands):
                root = {"cmd": cmd_id, "id": None, "name": f"cli.{run.label}",
                        "parent": None, "t0": run.t0, "t1": run.t0 + run.wall}
                for span in [root] + run.spans:
                    fh.write(json.dumps({"session": k, **span}) + "\n")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def header(bench, input_bytes: int) -> list:
    import numpy as np

    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "absent"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(bench.root))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    wl = bench.wl
    return [
        f"git {sha or 'unknown (not a git checkout)'}",
        f"python {sys.version.split()[0]}  numpy {np.__version__}  scipy {scipy_version}",
        f"blas {blas.get('name', '?')} {blas.get('version', '')}",
        f"nproc {len(os.sched_getaffinity(0))}  llc {_llc_size()}",
        f"workload {wl.name}  M={wl.M} n={wl.n}  input {input_bytes / MB:.1f} MB  "
        f"threads {THREADS}  seed {bench.seed}",
    ]


def _llc_size() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("cache size"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spread(values) -> str:
    values = list(values)
    return (f"{len(values)} values, min {min(values):.4g}, "
            f"median {statistics.median(values):.4g}, max {max(values):.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wkernel", "cli.py")):
        print("run_bench: no src/wkernel here; run from the repository root",
              file=sys.stderr)
        return 2
    # started while this process is still small; see launcher.py
    launcher = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        return run(args, root, launcher)
    finally:
        launcher.stdin.close()
        launcher.wait(timeout=60)


def run(args, root, launcher) -> int:
    # this process's own numpy (inputs and references) stays single-threaded;
    # children get these variables removed and use --threads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run_bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = dataclasses.replace(wl, M=max(int(wl.M * TINY["M"]), 60),
                                 n=max(int(wl.n * TINY["n"]), 12))

    import compileall

    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    bench = Bench(wl, args.seed, root, args.tiny, launcher)
    bench.setup()
    input_bytes = sum(os.path.getsize(p) for p in bench.paths.values())
    for line in header(bench, input_bytes):
        print("#", line)

    if args.trace:
        untraced = bench.measure(args.seconds / 2, False, 1)
        traced = bench.measure(args.seconds / 2, True, 1)
        sessions = untraced + traced
        trace_path = os.path.join(root, ".bench_work", f"{wl.name}-seed{args.seed}.trace.jsonl")
        write_trace(trace_path, traced)
        print(f"# spans written to {os.path.relpath(trace_path, root)}")
        metrics, layers = per_layer(untraced, traced)
        units = PER_LAYER_UNITS
        print("# layer self time per session (s): " + "  ".join(
            f"{k} {v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    else:
        setup_times = []
        sessions = bench.measure(args.seconds, False, MIN_SESSIONS, setup_times)
        metrics = end_to_end(sessions, setup_times)
        units = END_TO_END_UNITS
        print(f"# session wall times: {_spread(s.wall for s in sessions)}")
        print(f"# set-up times: {_spread(setup_times)}")
    shutil.rmtree(bench.work, ignore_errors=True)

    attempted = sum(len(s.commands) for s in sessions)
    failed = sum(s.failed for s in sessions)
    for s in sessions:
        for run in s.commands:
            for problem in run.problems:
                print(f"# FAIL {run.label}{' (traced)' if s.traced else ''}: {problem}")
    print(f"# failed_frac {failed / attempted:.4g} ({failed} of {attempted} commands)")
    for name, value in metrics.items():
        print(f"# {name:34s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
