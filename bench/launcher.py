"""Start the benchmark's child commands and report each one's rusage.

The benchmark starts this process before it loads numpy and sends it one
JSON request per line: {"argv", "env", "cwd", "stderr"}.  For each, it
runs the command to completion and answers with one JSON line:
{"t0", "t1", "cpu", "maxrss_kb", "code"}.

Linux carries the memory high-water mark of the process that calls exec
into the new program's ru_maxrss, so children started directly by the
benchmark (which holds the inputs and references in memory) would report
the benchmark's size as their own peak RSS.  Started from this small
process, they report their own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], env=req["env"], cwd=req["cwd"],
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # the child's own rusage; RUSAGE_CHILDREN would give the maximum
            # over every child so far
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"t0": t0, "t1": t1, "cpu": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()
