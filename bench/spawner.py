"""Start CLI runs from a small process and report each child's own rusage.

On Linux a child's ru_maxrss starts from the resident peak of the process
that spawned it, so children of the benchmark process (which holds the
generated lexicon and the reference) would report that peak instead of
their own. This process holds nothing, so the peak a child reports is its
own. It also times the calibration unit (calibrate.py), on the same CPU
as the children, from a heap small enough that the unit's time does not
depend on the benchmark's.

Protocol: one JSON request per stdin line, either
``{"argv": [...], "stdout": path, "stderr": path}``, answered by
``{"wall_s": float, "maxrss_kb": int, "exit": int}``, or
``{"calibrate": true}``, answered by ``{"wall_s": float}``; one reply per
stdout line. The process ends when stdin closes.
"""

import json
import os
import sys
import time

from calibrate import calibrate


def run(argv, stdout, stderr):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "exit": os.waitstatus_to_exitcode(status)}


def main():
    # One CPU for the calibrations and every child (they inherit it): on a
    # virtual machine each CPU's speed drifts on its own, so a calibration
    # only speaks for runs on the CPU it ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("calibrate"):
            reply = {"wall_s": calibrate()}
        else:
            reply = run(req["argv"], req["stdout"], req["stderr"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
