"""Child launcher for the benchmark: runs one command per line of stdin.

Each input line is a JSON object with ``argv``, ``cwd``, ``env``, ``stdout``
and ``stderr`` (file paths).  The launcher runs the command to completion and
answers with one JSON line: exit ``code``, ``wall`` seconds and the child's
``maxrss_kb`` from ``os.wait4``.

It imports only the standard library and holds nothing else.  On Linux a
child's peak RSS counts the memory of the process it was forked from, so
forking from this small process, not from the benchmark itself, keeps the
reading the child's own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"],
                                    stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
