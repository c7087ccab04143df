"""Every name the benchmark's tracer wraps exists in its ``wkernel`` module.

``bench/tracer.py`` looks its ``FUNCTIONS`` and ``VALIDATED`` names up with
``getattr``, so a renamed or deleted function would fail only the traced
benchmark run; this test fails first.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py"
)


def test_tracer_names_exist():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"wkernel.{layer}.{name}"
        for table in (tracer.FUNCTIONS, tracer.VALIDATED)
        for layer, names in table.items()
        for name in names
        if not hasattr(importlib.import_module(f"wkernel.{layer}"), name)
    ]
    assert not missing, f"bench/tracer.py wraps names that are gone: {missing}"
