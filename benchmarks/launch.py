"""Start one ``python -m lbo.cli`` process and time it; imports nothing heavy.

The benchmark starts every CLI process through this small script rather
than from its own process: on Linux a child's maximum resident set counts
the memory of the process it was forked from until it execs, so a launcher
holding numpy and the corpus would inflate ``peak_rss_mb``.

    python3 benchmarks/launch.py STDOUT_FILE STDERR_FILE ARG...

runs ``python -m lbo.cli ARG...`` from the repository root on empty stdin
with ``src`` first on ``PYTHONPATH`` and no ``LBO_*`` variables, copies its
stdout to STDOUT_FILE as it streams, and prints one JSON line: wall time and
time to the first output line (both from just before the start), peak
resident set in MB, and exit code.
"""
import json
import os
import select
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# A child that runs longer than this is killed; its missing records then fail.
TIMEOUT_S = 90.0


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LBO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def launch(argv, stdout_path: str, stderr_path: str) -> dict:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "lbo.cli", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=ROOT,
            env=cli_env(),
        )
        first = None
        fd = proc.stdout.fileno()
        try:
            while True:
                left = start + TIMEOUT_S - time.perf_counter()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    proc.kill()
                    break
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                if first is None and b"\n" in chunk:
                    first = time.perf_counter() - start
                out.write(chunk)
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
    return {
        "wall_s": wall,
        "first_line_s": wall if first is None else first,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "exit_code": proc.returncode,
    }


if __name__ == "__main__":
    print(json.dumps(launch(sys.argv[3:], sys.argv[1], sys.argv[2])))
