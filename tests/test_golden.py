"""Golden outputs: every CLI command on tiny committed inputs, byte for byte.

The cases and the sha256 of each file they write are in
``golden/manifest.json``; ``golden/run_golden.py`` reruns them in a
fresh interpreter with the thread pools pinned to one thread, twice:
with an empty input cache, then with the cache the first run filled.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _entries(cache_home):
    """Each cache entry's name and inode; a miss replaces its entry's inode."""
    directory = os.path.join(cache_home, "wkernel")
    return {e.name: e.inode() for e in os.scandir(directory)}


def test_golden_outputs_unchanged(tmp_path, cache_home):
    # the second run shares the first one's input cache and must hit it
    # for every input: no entry is rewritten, and no digest moves
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(os.path.join(HERE, "golden", "manifest.json"), encoding="utf-8") as fh:
        expected = {case: entry["files"] for case, entry in json.load(fh).items()}
    entries = []
    for run in ("cold", "warm"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "golden", "run_golden.py"),
             str(tmp_path / run)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        observed = json.loads(proc.stdout)
        mismatched = sorted(
            case for case in expected.keys() | observed.keys()
            if expected.get(case) != observed.get(case)
        )
        assert not mismatched, (
            f"golden mismatch in {mismatched} ({run} cache); observed digests:\n"
            + json.dumps({case: observed.get(case) for case in mismatched}, indent=1)
        )
        entries.append(_entries(cache_home))
    assert entries[1] == entries[0]
    inputs = os.listdir(os.path.join(HERE, "golden", "inputs"))
    assert len(entries[0]) == sum(name.endswith(".csv") for name in inputs)
