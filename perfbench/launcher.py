"""Starts dvcm children for the benchmark, one at a time, from a small process.

Linux carries a process's peak RSS across fork and exec, so a child started
by the benchmark itself, which holds whole corpora, would report at least
the benchmark's own footprint. This process stays small: it reads one JSON
request per line on stdin, runs ``python -m dvcm.cli ARGS`` with the
request's working directory and output files, reaps it with os.wait4 and
writes one JSON line with the wall time, that child's own CPU time (user +
system) and peak RSS, and its exit code. It exits when stdin closes.

    {"args": [...], "cwd": "...", "stdout": "...", "stderr": "...", "timeout": 150}
"""

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout()


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dvcm.cli", *request["args"]],
            cwd=request["cwd"],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        signal.alarm(request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            signal.alarm(0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    # already reaped; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "cpu_seconds": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
