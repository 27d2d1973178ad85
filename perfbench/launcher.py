"""Thin launcher: runs one command per request, reports its wall time and peak RSS.

On Linux a child's ru_maxrss starts at the high-water RSS of the process it
was spawned from.  run.py holds numpy and parsed outputs, so
children are started from this small stdlib-only process instead, and their
peak RSS is their own.

Protocol: one JSON request per stdin line,
  {"args": [...], "env": {...}, "cwd": str, "stderr": path, "timeout": s, "capture": bool}
and one JSON reply per stdout line,
  {"wall": s, "rc": exit code, "rss_mb": MB, "stdout": str}.
The launcher exits when its stdin closes.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    capture = req["capture"]
    with open(req["stderr"], "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["args"], cwd=req["cwd"], env=req["env"], stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        # a hung child, and any pool workers it started, is killed as a group
        timer = threading.Timer(req["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = ""
    if capture:
        out = proc.stdout.read().decode()
        proc.stdout.close()
    return {"wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0, "stdout": out}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
