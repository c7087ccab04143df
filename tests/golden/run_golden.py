"""Run the golden CLI invocations and print the sha256 of every output.

Usage, with the package on PYTHONPATH:

    python3 tests/golden/run_golden.py WORKDIR [--record]

Each case of ``manifest.json`` runs in this process through
``wkernel.cli.main`` with ``--threads 1`` into WORKDIR/<case>; "{in}" in
an argv stands for the ``inputs`` directory next to this file.  The
observed digests are printed as JSON ({case: {file: sha256}}); with
``--record`` they are also written back into the manifest.

OpenBLAS picks its kernels by CPU at load time, and its AVX-512
(SkylakeX) kernels round some eigen and projection outputs differently
from its AVX2 (Haswell, Zen) ones, which agree with each other.  This
runner therefore sets ``OPENBLAS_CORETYPE=Haswell`` before numpy loads,
overriding any inherited value, so the digests reproduce on any x86-64
machine with AVX2.  The CLI itself pins no kernels: its byte-identity of
repeat runs holds per machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "manifest.json")


def digests(outdir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(argv) -> int:
    workdir, record = argv[0], "--record" in argv[1:]
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"
    # numpy loads during the first case, after its --threads 1 pinned the pools
    from wkernel.cli import main as cli_main

    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    inputs = os.path.join(HERE, "inputs")
    observed = {}
    for case, entry in manifest.items():
        outdir = os.path.join(workdir, case)
        args = [a.replace("{in}", inputs) for a in entry["argv"]]
        rc = cli_main(args + ["--threads", "1", "--out", outdir])
        if rc != 0:
            print(f"golden case {case} exited {rc}", file=sys.stderr)
            return 1
        observed[case] = digests(outdir)
        entry["files"] = observed[case]
    print(json.dumps(observed, indent=1, sort_keys=True))
    if record:
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
