"""A small launcher process, so each CLI child's peak RSS is the child's own.

On Linux a process's ``ru_maxrss`` starts at exec from the peak RSS of the
process that spawned it.  The benchmark runs admflux in its own interpreter
too, so children it spawned directly would report its peak, not theirs.  This
launcher imports only the standard library.  It runs one child per JSON
request line on stdin and answers with one JSON line, taking the child's peak
RSS from that child's own ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path


def run_child(argv: list[str], env: dict, cwd: str, log: str, timeout: float) -> dict:
    """Run ``argv`` to completion; its exit code is None when it was killed or crashed."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        fd = os.pidfd_open(proc.pid)
        try:
            exited = bool(select.select([fd], [], [], timeout)[0])
            if not exited:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            os.close(fd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if exited and proc.returncode >= 0 else None
    return {"code": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


class Spawner:
    """Client for a launcher process; :meth:`close` stops it and any child it runs."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict, cwd: Path, log: Path, timeout: float):
        """(exit code or None, wall s, peak RSS in MB) of one child."""
        request = {"argv": argv, "env": env, "cwd": str(cwd), "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["peak_rss_mb"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def main() -> None:
    # SIGTERM unwinds through run_child, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        print(json.dumps(run_child(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
