"""Golden outputs: every CLI command on tiny committed inputs, byte for byte.

The cases and the sha256 of each file they write are in
``golden/manifest.json``; ``golden/run_golden.py`` reruns them in a
fresh interpreter with the thread pools pinned to one thread.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_golden_outputs_unchanged(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "golden", "run_golden.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    observed = json.loads(proc.stdout)
    with open(os.path.join(HERE, "golden", "manifest.json"), encoding="utf-8") as fh:
        expected = {case: entry["files"] for case, entry in json.load(fh).items()}
    mismatched = sorted(
        case for case in expected.keys() | observed.keys()
        if expected.get(case) != observed.get(case)
    )
    assert not mismatched, (
        f"golden mismatch in {mismatched}; observed digests:\n"
        + json.dumps({case: observed.get(case) for case in mismatched}, indent=1)
    )
