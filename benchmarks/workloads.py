"""Seeded corpora, expected answers and output checks for the lbo benchmark.

Each workload builds its input from (workload, seed) alone with numpy's PCG64,
so one seed always gives byte-identical input.  The expected answers come
from how each record was built, never from lbo itself:

* a "c" record is an axial/polar pair (a, b) of equal length; the pfaffian
  equals a.b, so the orbit kind is the sign of a.b (zero when the pair was
  built orthogonal) and r0 = sqrt|a.b|;
* a vector-pair record joins a null x = (u, |u|) with a spatial y = (v, 0),
  v perpendicular to u, so its wedge is decomposable, on the cone and
  degenerate;
* the radius-r slice of a neutral orbit is empty below r0 and projective
  3-space above it; a degenerate orbit meets every radius in projective
  3-space.

The checks read the program's stdout bytes and exit code against these
answers and count every record that is missing, an error record, off the
cone, of the wrong kind, off in r0, or of the wrong topology.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Corpora, results and spans go here; the directory is not committed.
OUT = Path(__file__).resolve().parent / "out"

R_QUERY = 1.0
# Relative r0 tolerance of the checks; far above the rounding of a.b.
R0_RTOL = 1e-9
# A stabilizer element must fix its record: residuals past this are wrong.
FIXING_CEILING = 1e-6
STAB_PARAMS = (-0.9, -0.3, 0.3, 0.9)
NEUTRAL_FAMILIES = ("rotation12", "boost34", "reflected_boost34")
DEGENERATE_FAMILIES = ("null_rotation_a", "null_rotation_b")
# Checks that `verify --suite all` prints, per suite, in order.
VERIFY_CHECKS = (("isometry", 3), ("pfaffian", 2), ("frames", 3), ("stabilizer", 4), ("slice", 3))


@dataclass(frozen=True)
class Expected:
    """What one record must produce."""

    rid: str
    kind: str
    r0: float
    topology: str
    in_slice: bool = False


@dataclass(frozen=True)
class Corpus:
    """Input bytes of one batch workload and the answer for each record."""

    text: str
    expected: list


@dataclass(frozen=True)
class Checked:
    attempted: int
    failed: int
    reasons: Counter


def _kind_of(dot: float, degenerate: bool) -> str:
    if degenerate:
        return "Degenerate"
    return "NeutralPlus" if dot > 0 else "NeutralMinus"


def _topology(kind: str, r0: float, r: float) -> str:
    if kind == "Degenerate" or r > r0:
        return "RP3"
    return "Empty" if r < r0 else "Sphere2"


def _rid(i: int) -> str:
    return f"r{i:07d}"


def _pair_records(rng, n: int, degenerate_every: int, log10_scale: tuple):
    """Equal-length axial/polar pairs; every k-th record has b orthogonal to a."""
    a = rng.normal(size=(n, 3))
    b = rng.normal(size=(n, 3))
    d = rng.normal(size=(n, 3))
    degenerate = np.arange(n) % degenerate_every == 0
    b[degenerate] = np.cross(a[degenerate], d[degenerate])
    b *= (np.linalg.norm(a, axis=1) / np.linalg.norm(b, axis=1))[:, None]
    scale = 10.0 ** rng.uniform(*log10_scale, size=n)
    a *= scale[:, None]
    b *= scale[:, None]
    lines, expected = [], []
    for i in range(n):
        (a1, a2, a3), (b1, b2, b3) = a[i].tolist(), b[i].tolist()
        c = [a3, -a2, b1, a1, b2, b3]
        # read a and b back from c exactly as the program will see them
        dot = math.fsum((c[3] * c[2], -c[1] * c[4], c[0] * c[5]))
        kind = _kind_of(dot, bool(degenerate[i]))
        r0 = 0.0 if kind == "Degenerate" else math.sqrt(abs(dot))
        lines.append(json.dumps({"id": _rid(i), "c": c}))
        expected.append(Expected(_rid(i), kind, r0, _topology(kind, r0, R_QUERY)))
    return Corpus("\n".join(lines) + "\n", expected)


def classify_corpus(seed: int, n: int) -> Corpus:
    """10% degenerate, the rest random neutral; magnitudes log-uniform over 1e-2..1e2."""
    return _pair_records(np.random.default_rng([seed, 1]), n, 10, (-2.0, 2.0))


def stabilizer_corpus(seed: int, n: int) -> Corpus:
    """Unit-scale records, one third degenerate."""
    return _pair_records(np.random.default_rng([seed, 2]), n, 3, (0.0, 0.0))


def slice_corpus(seed: int, n: int) -> Corpus:
    """Vector pairs x = (u, |u|), y = (v, 0) with v perpendicular to u."""
    rng = np.random.default_rng([seed, 3])
    u = rng.normal(size=(n, 3))
    v = np.cross(u, rng.normal(size=(n, 3)))
    lines, expected = [], []
    for i in range(n):
        ui, vi = u[i].tolist(), v[i].tolist()
        x = ui + [math.sqrt(math.fsum(t * t for t in ui))]
        y = vi + [0.0]
        spatial = math.fsum(
            (x[p] * y[q] - x[q] * y[p]) ** 2 for p, q in ((0, 1), (0, 2), (1, 2))
        )
        member = abs(spatial - R_QUERY * R_QUERY) <= R0_RTOL * R_QUERY * R_QUERY
        lines.append(json.dumps({"id": _rid(i), "x": x, "y": y}))
        expected.append(Expected(_rid(i), "Degenerate", 0.0, "RP3", member))
    return Corpus("\n".join(lines) + "\n", expected)


# --- the workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One seeded workload: CLI arguments, batch size and corpus generator.

    ``records`` is the batch size of one measured process; for verify-all,
    which reads no records, it is ``--samples``.  ``trace_records`` is the
    smaller batch of the in-process traced passes.  Traced passes run on one
    thread: with two, spans would time waits for the interpreter lock.
    """

    name: str
    argv: tuple
    records: int
    trace_records: int
    corpus: Optional[Callable] = None

    @property
    def trace_argv(self) -> tuple:
        if "--threads" not in self.argv:
            return self.argv
        at = self.argv.index("--threads")
        return (*self.argv[:at], "--threads", "1", *self.argv[at + 2 :])

    @property
    def command(self) -> str:
        return self.argv[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify-mixed", ("classify", "--r", "1.0"), 2400, 600, classify_corpus),
        Workload("stabilizer-mixed", ("stabilizer", "--threads", "2"), 1200, 300, stabilizer_corpus),
        Workload("slice-pairs", ("slice", "--r", "1.0"), 15000, 3000, slice_corpus),
        Workload("verify-all", ("verify", "--suite", "all"), 2500, 600),
    )
}


def build_input(wl: Workload, seed: int, records: int, argv: tuple):
    """Write the corpus of a batch workload; return (CLI argv, output checker)."""
    if wl.corpus is None:
        return [*argv, "--samples", str(records), "--seed", str(seed)], check_verify
    corpus = wl.corpus(seed, records)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"corpus-{wl.name}-{seed}-{records}.ndjson"
    path.write_text(corpus.text, encoding="utf-8")

    def check(stdout: bytes, exit_code: int) -> Checked:
        return check_batch(wl.command, corpus.expected, stdout, exit_code)

    return [*argv, "--in", str(path)], check


# --- checks -----------------------------------------------------------------


def _r0_ok(got, want: float) -> bool:
    if not isinstance(got, (int, float)):
        return False
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= R0_RTOL * want


def _check_classify(rec: dict, exp: Expected):
    klass = rec.get("class") or {}
    if klass.get("kind") != exp.kind:
        return "wrong kind"
    if not _r0_ok(klass.get("r0"), exp.r0):
        return "r0 off"
    if (rec.get("slice") or {}).get("topology") != exp.topology:
        return "wrong topology"
    return None


def _check_slice(rec: dict, exp: Expected):
    klass = rec.get("class") or {}
    if klass.get("kind") != exp.kind:
        return "wrong kind"
    if not _r0_ok(klass.get("r0"), exp.r0):
        return "r0 off"
    if rec.get("topology") != exp.topology:
        return "wrong topology"
    if rec.get("in_slice") is not exp.in_slice:
        return "wrong slice membership"
    return None


def _check_stabilizer(rec: dict, exp: Expected):
    if rec.get("kind") != exp.kind:
        return "wrong kind"
    fams = DEGENERATE_FAMILIES if exp.kind == "Degenerate" else NEUTRAL_FAMILIES
    want = [(f, t) for t in STAB_PARAMS for f in fams]
    got = rec.get("families") or []
    if [(e.get("family"), e.get("parameter")) for e in got] != want:
        return "wrong families"
    residuals = [e.get("fixing_residual") for e in got]
    if not all(isinstance(r, (int, float)) and r <= FIXING_CEILING for r in residuals):
        return "element does not fix record"
    if rec.get("max_residual") != max(residuals):
        return "wrong max residual"
    return None


RECORD_CHECKS = {
    "classify": _check_classify,
    "slice": _check_slice,
    "stabilizer": _check_stabilizer,
}


def check_batch(command: str, expected: list, stdout: bytes, exit_code: int) -> Checked:
    """Count failed records; a nonzero exit also fails every record it did not emit.

    Output records are matched to input records by id, so a record that is
    lost or unparsable fails alone; emitting records out of input order
    costs one more failure.
    """
    reasons: Counter = Counter()
    *lines, _ = stdout.split(b"\n")  # a cut-off last line is not a record
    got = {}
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and isinstance(rec.get("id"), str):
            got.setdefault(rec["id"], rec)
    check_one = RECORD_CHECKS[command]
    for exp in expected:
        rec = got.get(exp.rid)
        if rec is None:
            reasons["missing"] += 1
        elif "error" in rec:
            reasons["error record"] += 1
        elif rec.get("in_light_cone") is not True:
            reasons["off cone"] += 1
        else:
            why = check_one(rec, exp)
            if why:
                reasons[why] += 1
    if list(got) != [e.rid for e in expected if e.rid in got]:
        reasons["out of order"] += 1
    if len(lines) > len(expected):
        reasons["extra output"] += len(lines) - len(expected)
    if exit_code != 0 and not reasons:
        reasons[f"exit code {exit_code}"] += 1
    return _checked(len(expected), reasons)


_VERIFY_LINE = re.compile(r"^(\S+)\s+(.+?)\s+(PASS|FAIL)\s+(\S+) <= (\S+)$")


def check_verify(stdout: bytes, exit_code: int) -> Checked:
    """Every suite prints its checks; FAIL lines and missing checks count as failed."""
    reasons: Counter = Counter()
    seen: Counter = Counter()
    for line in stdout.decode("utf-8", "replace").splitlines():
        m = _VERIFY_LINE.match(line)
        if not m:
            reasons["unparsable line"] += 1
            continue
        suite, _, status, value, threshold = m.groups()
        seen[suite] += 1
        if status == "FAIL":
            reasons["FAIL"] += 1
        elif not float(value) <= float(threshold):
            reasons["PASS above threshold"] += 1
    for suite, count in VERIFY_CHECKS:
        reasons["missing"] += max(0, count - seen[suite])
    attempted = sum(count for _, count in VERIFY_CHECKS)
    if exit_code != (4 if reasons["FAIL"] else 0):
        reasons[f"exit code {exit_code}"] += 1
    return _checked(attempted, reasons)


def _checked(attempted: int, reasons: Counter) -> Checked:
    reasons = +reasons  # drop zero counts
    return Checked(attempted, min(attempted, sum(reasons.values())), reasons)


@dataclass
class Tally:
    """Correctness over every pass of one run."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    outputs: dict = field(default_factory=dict)  # sha256 of stdout -> exit code
    problems: list = field(default_factory=list)

    def add(self, checked: Checked, digest: str, exit_code: int) -> None:
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.reasons.update(checked.reasons)
        self.outputs[digest] = exit_code

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.outputs) == 1 and not self.problems
