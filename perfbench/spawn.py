"""Start commands and report their exit code, wall time and peak memory.

The benchmark runs every measured command through this small process.
A child's peak resident set (`ru_maxrss`) starts from its parent's
high-water mark, and the benchmark process holds the generated dataset;
started before any dataset exists, this process stays small.

Reads one JSON request per line on stdin,
`{"cmd": [...], "log": path, "env": {...}, "limit_s": seconds}`, and
answers each with one JSON line `{"code", "wall_s", "peak_rss_mb"}`.
A command still running after `limit_s` seconds is killed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(cmd: list[str], log: str, env: dict, limit_s: float) -> dict:
    with open(log, "wb") as handle:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=handle, stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["log"], request["env"], request["limit_s"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
