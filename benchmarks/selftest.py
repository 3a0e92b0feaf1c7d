#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; run from the repository root.

    python3 benchmarks/selftest.py

It runs every workload end to end (untraced and traced), shows that the
output checks count a corrupted record, a truncated output and a failing
exit code, and that the benchmark refuses to run where the program is
missing.  Prints one PASS/FAIL line per check and exits 1 on any failure.
"""
from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys

import run
import tracing
import workloads as W

TINY = {"classify-mixed": 60, "stabilizer-mixed": 30, "slice-pairs": 90, "verify-all": 40}
SEED = 3

failures = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  (' + detail + ')' if detail else ''}")
    if not ok:
        failures.append(name)


def end_to_end() -> None:
    sys.path.insert(0, str(run.SRC))
    for name, n in TINY.items():
        wl = dataclasses.replace(W.WORKLOADS[name], records=n, trace_records=n)
        samples, tally = run.measure(wl, SEED, seconds=0)
        values = [v for series in samples.values() for v in series]
        expect(
            f"{name}: untraced runs correct and repeatable",
            tally.correct and tally.attempted > 0 and all(v > 0 for v in values),
            f"{tally.attempted} attempted, {tally.failed} failed, {len(tally.outputs)} digest(s)",
        )
        samples, tally, _ = tracing.traced_run(wl, SEED, seconds=0)
        expect(
            f"{name}: traced pass matches untraced bytes",
            tally.correct and all(len(samples[k]) == 1 for k in tracing.PER_LAYER_UNITS),
            f"overhead {samples['trace.overhead_ratio'][0]:.2f}",
        )


def checks_count_failures() -> None:
    wl = W.WORKLOADS["classify-mixed"]
    n = TINY[wl.name]
    argv, check = W.build_input(wl, SEED, n, wl.argv)
    proc = run.run_cli(argv)
    good = check(proc.stdout, proc.exit_code)
    expect("clean output has no failures", good.failed == 0 and good.attempted == n)

    lines = proc.stdout.split(b"\n")
    k = next(i for i, line in enumerate(lines) if b'"NeutralPlus"' in line)
    lines[k] = lines[k].replace(b'"NeutralPlus"', b'"NeutralMinus"')
    bad = check(b"\n".join(lines), 0)
    expect("a record of the wrong kind fails", bad.failed == 1 and bad.reasons["wrong kind"] == 1)

    cut = proc.stdout.index(b"\n", len(proc.stdout) // 2) + 10  # mid-way through a line
    emitted = proc.stdout[:cut].count(b"\n")
    short = check(proc.stdout[:cut], 1)
    expect(
        "a truncated output fails every unemitted record",
        short.failed == n - emitted and short.reasons["missing"] == n - emitted,
        f"{short.failed} of {n}",
    )
    expect("a nonzero exit fails a complete output", check(proc.stdout, 4).failed == 1)

    verify_out = b"isometry   induced metric preserved   FAIL  1.000e+00 <= 1e-08\n"
    failed_verify = W.check_verify(verify_out, 4)
    expect(
        "verify: a FAIL line and missing checks fail",
        failed_verify.reasons["FAIL"] == 1 and failed_verify.failed == failed_verify.attempted,
    )


def refuses_without_program() -> None:
    bare = W.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "benchmarks", bare / "benchmarks", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "slice-pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(
        "no program: nonzero exit and no result",
        done.returncode != 0 and '"correct"' not in done.stdout,
        f"exit {done.returncode}",
    )


if __name__ == "__main__":
    end_to_end()
    checks_count_failures()
    refuses_without_program()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
