"""Run one command of the murmur CLI in a fresh interpreter and print its
peak memory.

    python tools/peak_rss.py SRC -- <murmur args>

SRC is the directory that holds the ``murmurations`` package (``src`` in a
checkout); the interpreter imports the package from there, ahead of any
installed copy, and calls ``murmurations.cli.main`` with the arguments
after ``--``.  The command writes its own output where its arguments send
it.  One JSON line goes to stdout: the exit code, the wall time of the
interpreter in seconds, and ``ru_maxrss`` in MiB of the interpreter itself
(``self_mib``) and of the largest of the worker processes that it forked
and reaped (``children_mib``, 0 when it forked none).  Example, a paired
reading of two checkouts:

    python tools/peak_rss.py old/src -- murmur --K 10000 --H 100 --delta 0 --E 0:2 --out a.csv
    python tools/peak_rss.py new/src -- murmur --K 10000 --H 100 --delta 0 --E 0:2 --out b.csv
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

# runs in the fresh interpreter: argv is [fd, src, *args]; the usage goes
# back through the pipe fd, so the command keeps stdout and stderr
_CHILD = """
import json, os, resource, sys
fd, src, args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
from murmurations.cli import main
code = main(args)
mib = [resource.getrusage(who).ru_maxrss / 1024 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
os.write(fd, json.dumps([code, *mib]).encode())
"""


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.strip(), file=sys.stderr)
        return 1
    src, args = os.path.abspath(argv[1]), argv[3:]
    read, write = os.pipe()
    start = time.perf_counter()
    with os.fdopen(read, "rb") as report:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(write), src, *args], pass_fds=(write,)
        )
        os.close(write)
        usage = report.read()
    proc.wait()
    wall = time.perf_counter() - start
    code, self_mib, children_mib = json.loads(usage) if usage else (proc.returncode, None, None)
    print(
        json.dumps(
            {
                "exit_code": code,
                "wall_s": round(wall, 3),
                "self_mib": self_mib,
                "children_mib": children_mib,
            }
        )
    )
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
