"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from checks import Reference, check_command  # noqa: E402
from run_bench import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from tracer import FUNCTIONS, LINALG, VALIDATED, bucket_of  # noqa: E402
from workloads import WORKLOADS, generate, write_inputs  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run_bench.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_and_passes_checks(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert result["attempted"] >= len(WORKLOADS[workload].session)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        line = next(ln for ln in out.stdout.splitlines() if ln.startswith(f"# {name} "))
        assert line.split()[-1] == unit


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_every_traced_function_has_a_reported_bucket():
    names = [f"{layer}.{f}" for layer, funcs in FUNCTIONS.items() for f in funcs]
    names += [f"linalg.{f}" for f in LINALG]
    names += [f"{layer}.{c}.__post_init__" for layer, cs in VALIDATED.items() for c in cs]
    for name in names:
        assert f"{bucket_of(name)}_s" in PER_LAYER_UNITS, name


def test_refuses_to_run_without_the_program(tmp_path):
    out = _bench("--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def _run_cli(argv, outdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("WKERNEL_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    subprocess.run([sys.executable, "-m", "wkernel.cli", *argv, "--threads", "1",
                    "--out", str(outdir)], env=env, check=True, timeout=120)


def _corrupt_first_value(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    cells = lines[1].rstrip("\n").split(",")
    cells[-1] = repr(float(cells[-1]) * 1.01)
    lines[1] = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("argv, corrupted", [
    (["freqcov", "{ll}", "{st}", "--estimator", "centered"], "sigma.csv"),
    (["boot", "{ll}", "{st}", "--method", "second_efficient", "--n-b", "60",
      "--seed", "5"], "estimates.csv"),
    (["eigen", "{ll}"], "eigenvalues.csv"),
])
def test_corrupted_output_fails_its_check(tmp_path, argv, corrupted):
    inputs = generate("resample_dual", 5, 300, 15)
    paths = write_inputs(inputs, str(tmp_path / "inputs"))
    argv = [arg.format(**paths) for arg in argv]
    outdir = tmp_path / "out"
    _run_cli(argv, outdir)
    ref = Reference(inputs)
    assert check_command(ref, argv, str(outdir), {}) == []
    _corrupt_first_value(outdir / corrupted)
    assert check_command(ref, argv, str(outdir), {}) != []
