#!/usr/bin/env python3
"""lbo benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Run from the repository root; the package runs from ``src`` without being
installed:

    python3 benchmarks/run.py --workload classify-mixed --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the benchmark builds the workload's corpus from the seed,
then alternates a set-up run (the CLI on empty input) with a batch run (a
fresh ``python -m lbo.cli`` process over the whole corpus) until ``--seconds``
have passed.  Every batch output is checked against the corpus's expected
answers; runs of one corpus must give byte-identical stdout.  Each
metric is the median over the runs (traced: over the passes).

With ``--trace 1`` it calls ``lbo.cli.main`` in this process instead,
alternating an untraced pass with a pass traced by span wrappers
(``benchmarks/tracing.py``), and reports per-layer metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (metric
quartiles, output digests, machine description) goes to
``benchmarks/out/``.  Exit code 0 means a result was printed; 2 means the
program could not be run at all and nothing was measured.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import launch
import workloads as W

ROOT, SRC = Path(launch.ROOT), Path(launch.SRC)
# Past the launcher's own limit on the CLI process.
LAUNCH_TIMEOUT_S = launch.TIMEOUT_S + 30.0
# Every run measures at least this many batch processes, so digests can be compared.
MIN_REPS = 2
SETUP_ARGV = ("classify", "--r", "1.0")


# --- child processes ----------------------------------------------------------


@dataclass
class Proc:
    """Outcome of one CLI process, timed by the launcher from just before its start."""

    wall_s: float
    first_line_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    @property
    def lines(self) -> int:
        return self.stdout.count(b"\n")


def run_cli(argv) -> Proc:
    """Run ``python -m lbo.cli argv`` through the launcher (see launch.py)."""
    W.OUT.mkdir(exist_ok=True)
    stdout_path, stderr_path = W.OUT / "child.stdout", W.OUT / "child.stderr"
    done = subprocess.run(
        [sys.executable, launch.__file__, str(stdout_path), str(stderr_path), *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=LAUNCH_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"launcher failed: {done.stderr[-2000:]}")
    return Proc(
        **json.loads(done.stdout),
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
    )


# --- statistics and metadata --------------------------------------------------


def summarise(values: list, unit: str) -> dict:
    """Median and quartiles of one metric's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "unit": unit,
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "values": values,
    }


def _cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "platform": platform.platform(),
    }


# --- untraced end-to-end run --------------------------------------------------


END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "suite_s": "s",
    "setup_s": "s",
    "first_record_s": "s",
    "peak_rss_mb": "MB",
}


def measure(wl: W.Workload, seed: int, seconds: float):
    """Alternate set-up and batch processes for ``seconds``; return (samples, tally)."""
    argv, check = W.build_input(wl, seed, wl.records, wl.argv)
    samples = {k: [] for k in END_TO_END_UNITS}
    tally = W.Tally()
    checked_by_digest = {}
    start = time.perf_counter()
    reps = 0
    while True:
        setup = run_cli(SETUP_ARGV)
        if setup.exit_code != 0 or setup.stdout:
            tally.problems.append(f"set-up run exited {setup.exit_code} with {len(setup.stdout)} bytes")
        samples["setup_s"].append(setup.wall_s)

        proc = run_cli(argv)
        reps += 1
        key = (proc.digest, proc.exit_code)
        if key not in checked_by_digest:  # identical bytes check identically
            checked_by_digest[key] = check(proc.stdout, proc.exit_code)
        tally.add(checked_by_digest[key], *key)
        emitted = wl.records if wl.corpus is None else proc.lines
        samples["records_per_s"].append(emitted / proc.wall_s)
        samples["suite_s"].append(proc.wall_s)
        samples["first_record_s"].append(proc.first_line_s)
        samples["peak_rss_mb"].append(proc.peak_rss_mb)

        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed + elapsed / reps > seconds:
            break
    if len(tally.outputs) > 1:
        tally.problems.append(f"{len(tally.outputs)} distinct outputs from one corpus")
    return samples, tally


# --- entry point ----------------------------------------------------------------


def program_runs() -> bool:
    """Warm-up: the CLI must start and accept empty input before anything is timed."""
    if not (SRC / "lbo" / "cli.py").is_file():
        print(f"benchmark: no program at {SRC / 'lbo'}", file=sys.stderr)
        return False
    proc = run_cli(SETUP_ARGV)
    if proc.exit_code != 0:
        print(f"benchmark: CLI failed to start (exit {proc.exit_code})", file=sys.stderr)
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(W.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = W.WORKLOADS[args.workload]

    if not program_runs():
        return 2

    if args.trace:
        import tracing

        sys.path.insert(0, str(SRC))  # the traced passes import lbo from the checkout
        samples, tally, extra = tracing.traced_run(wl, args.seed, args.seconds)
        units = tracing.PER_LAYER_UNITS
    else:
        samples, tally = measure(wl, args.seed, args.seconds)
        units, extra = END_TO_END_UNITS, {}
    stats = {k: summarise(samples[k], units[k]) for k in units}
    metrics = {k: stats[k]["median"] for k in units}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "records_per_process": wl.trace_records if args.trace else wl.records,
        "machine": machine(),
        "metrics": stats,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "failure_reasons": tally.reasons,
        "outputs": [{"sha256": d, "exit_code": c} for d, c in tally.outputs.items()],
        "problems": tally.problems,
        **extra,
    }
    W.OUT.mkdir(exist_ok=True)
    (W.OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    for name, unit in units.items():
        print(f"{wl.name:<17} {name:<45} {metrics[name]:>14.6g} {unit}")
    print(f"{wl.name:<17} {'error_rate':<45} {record['error_rate']:>14.6g} failed/attempted")
    for problem in tally.problems:
        print(f"{wl.name:<17} problem: {problem}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
