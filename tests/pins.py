"""Every frozen output pin of the lbo CLI: one table, one runner, one command.

A frozen pin is the stdout that `python -m lbo.cli` printed for a fixed
input, captured from the code and kept: a file under tests/golden/, or the
full sha256 of a longer stdout in tests/golden/digests.json.  A hand-written
expectation (a byte string or an assertion built from a rule, in the other
tests) is a different thing: no command ever rewrites it.

test_pins.py runs each row of PINS through run() and compares its exit code,
its empty stderr and its stdout bytes or digest.  A change that moves output
bytes on purpose rewrites the pins with this module, which takes no options:

    PYTHONPATH=src python tests/pins.py

It reruns every row through the same runner, rewrites the golden files and
digests that moved, and prints one line per moved pin, then the count of
unchanged ones; list that output in CHANGES.md.  It never changes an exit
code: a row that exits with another code than PINS gives it, or writes to
stderr, is reported and not rewritten, and the command exits 1.  A new row
gets its pin from the command too.

The real-number bytes do not depend on the BLAS kernel: every product is
an elementwise sum in a written order.  They do depend on numpy's SIMD loops
for transcendental functions: without its AVX-512 loops 15 pins move
(tests/golden/README.md).
"""
import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DIGESTS = GOLDEN / "digests.json"


@dataclass(frozen=True)
class Pin:
    name: str  # the test id, and the key of a digest
    argv: tuple
    code: int  # written by hand; the command never rewrites it
    # a file under tests/golden/, a benchmark corpus (workload, seed), or None
    stdin: "str | tuple | None"
    # the stdout's file under tests/golden/, or None for a sha256 in DIGESTS
    out: "str | None" = None


CLASSIFY, SLICE = ("classify", "--r", "1.0"), ("slice", "--r", "1.0")
JSON, TABLE, TINY_TOL = ("--format", "json"), ("--format", "table"), ("--tol", "1e-300")
COMMANDS = {"classify": CLASSIFY, "canonical": ("canonical",), "slice": SLICE,
            "stabilizer": ("stabilizer",)}

PINS = [
    Pin("classify-off-cone", ("classify",), 0, "off-cone.ndjson", "classify-off-cone.ndjson"),
    Pin("classify-neutral", ("classify",), 0, "neutral.ndjson", "classify-neutral.ndjson"),
    # pair.ndjson is a generic neutral record and a generic degenerate one
    # (axial (1, 2, 2), polar (3, 0, 0) and (2, 1, -2)); every --threads
    # prints the same bytes
    *(
        Pin(f"{command}-pair-threads{threads}", (*COMMANDS[command], "--threads", threads), 0,
            "pair.ndjson", f"{command}-pair.ndjson")
        for command in ("classify", "canonical", "stabilizer")
        for threads in ("1", "4")
    ),
    # parallel and anti-parallel pairs with the polar vector on the first
    # axis, where u1 falls back to the second axis
    Pin("canonical-parallel", ("canonical",), 0, "parallel.ndjson", "canonical-parallel.ndjson"),
    # mixed.ndjson holds ids with escapes and non-ASCII characters, a missing
    # id, negative-zero coefficients, a right-angle neutral record (an error
    # with --tol 1e-300), a decode error, a bad JSON line after a valid first
    # line, a non-string id, integral float outputs, off-cone records (among
    # them one whose split norms differ by 19% at a magnitude of 1e-4), zero,
    # vector-pair and array records, and split norms that overflow (an input
    # error, so exit 2).  It holds no exit-4 record: the tests of that exit
    # take theirs from tests/faults.py.
    *(
        Pin(f"{command}-mixed{suffix}", (*COMMANDS[command], *args), 2, "mixed.ndjson",
            f"{command}.{ext}")
        for suffix, args, ext in (("-json", JSON, "json"), ("-table", TABLE, "table"),
                                  ("-tol300", (*JSON, *TINY_TOL), "tol300.json"))
        for command in COMMANDS
    ),
    # slice.ndjson meets the radius 1 in every topology
    Pin("slice-topologies", SLICE, 0, "slice.ndjson", "slice-topologies.ndjson"),
    Pin("slice-topologies-table", (*SLICE, *TABLE), 0, "slice.ndjson", "slice-topologies.table"),
    # the drawn words and vectors feed every figure, so a changed draw shows
    # here; 300 samples cross the edges of the 128-sample stacked passes, and
    # 2500 is the benchmark's verify-all configuration
    *(
        Pin(f"verify-samples{samples}-seed{seed}",
            ("verify", "--suite", "all", "--tol", "1e-9", "--samples", samples, "--seed", seed),
            0, None, f"verify.samples{samples}.seed{seed}.txt")
        for samples, seed in (("2500", "1"), ("300", "2"))
    ),
    # edge.ndjson holds lines that each fail alone or decode to something
    # unusual: two bad lines that joined by a comma would read as one array, a
    # bad line, a line holding an array of records, blank lines, "c" entries
    # given as a string and a bool, which are refused, and a number past the
    # largest double, whose split norms overflow.  edge-chunks.ndjson holds
    # the same lines six times among 300 records, around the first chunk
    # boundary and inside chunks.
    Pin("slice-edge", SLICE, 2, "edge.ndjson", "slice-edge.ndjson"),
    *(Pin(f"{command}-edge-chunks", argv, 2, "edge-chunks.ndjson")
      for command, argv in COMMANDS.items()),
    # the benchmark corpora, built by benchmarks/workloads.py
    Pin("bench-classify-mixed-1", CLASSIFY, 0, ("classify-mixed", 1)),
    Pin("bench-classify-mixed-2", CLASSIFY, 0, ("classify-mixed", 2)),
    Pin("bench-stabilizer-mixed-1", ("stabilizer", "--threads", "2"), 0, ("stabilizer-mixed", 1)),
    Pin("bench-stabilizer-mixed-2", ("stabilizer", "--threads", "2"), 0, ("stabilizer-mixed", 2)),
    Pin("bench-slice-pairs-1", SLICE, 0, ("slice-pairs", 1)),
    Pin("bench-canonical-classify-mixed-1", ("canonical",), 0, ("classify-mixed", 1)),
]


@functools.cache
def _workloads():
    path = ROOT / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("lbo_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _stdin(pin) -> bytes:
    if pin.stdin is None:
        return b""
    if isinstance(pin.stdin, str):
        return (GOLDEN / pin.stdin).read_bytes()
    workload = _workloads()[pin.stdin[0]]
    return workload.corpus(pin.stdin[1], workload.records).text.encode()


def run(pin) -> tuple:
    """(exit code, stdout, stderr) of `python -m lbo.cli` on the pin's argv and
    input, with no LBO_ setting from the environment."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("LBO_")}
    p = subprocess.run([sys.executable, "-m", "lbo.cli", *pin.argv], input=_stdin(pin),
                       capture_output=True, env=env)
    return p.returncode, p.stdout, p.stderr


def pinned(pin, stdout: bytes):
    """What the pin holds of a stdout: its bytes, or their sha256."""
    return stdout if pin.out else hashlib.sha256(stdout).hexdigest()


def digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def expected(pin, held: dict):
    """The pin's frozen stdout bytes or digest; None if it has none yet."""
    if pin.out is None:
        return held.get(pin.name)
    path = GOLDEN / pin.out
    return path.read_bytes() if path.exists() else None


def main() -> int:
    held = digests()
    # read before any file is rewritten, so each row of a shared file reports it
    old = {pin.name: expected(pin, held) for pin in PINS}
    moved = refused = 0
    for pin in PINS:
        code, stdout, stderr = run(pin)
        new = pinned(pin, stdout)
        if (code, stderr) != (pin.code, b""):
            print(f"{pin.name}: exit {code} with {len(stderr)} bytes of stderr, "
                  f"not exit {pin.code} with none; not rewritten")
            refused += 1
        elif new != old[pin.name]:
            print(f"moved: {pin.name} ({pin.out or 'digest'})")
            moved += 1
            if pin.out:
                (GOLDEN / pin.out).write_bytes(new)
            else:
                held[pin.name] = new
    kept = {pin.name: held[pin.name] for pin in PINS if pin.name in held}
    if kept != digests():
        DIGESTS.write_text(json.dumps(kept, indent=2) + "\n", encoding="utf-8")
    print(f"{moved} moved, {len(PINS) - moved - refused} unchanged, {refused} not rewritten")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
