"""Run one command and report its wall time, exit code and peak RSS.

    python3 bench/spawn.py <log file> <timeout s> <command...>

Prints one JSON object: {"seconds", "exit", "maxrss_kib"}.  The benchmark
starts every timed child through this small process, because a child's
ru_maxrss also counts the memory of the process that forked it: spawned
straight from the benchmark, the children would report the benchmark's own
footprint.  The command's output goes to the log file.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    log_path, timeout, cmd = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(timeout)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"seconds": elapsed, "exit": proc.returncode,
                      "maxrss_kib": usage.ru_maxrss}))


if __name__ == "__main__":
    main()
