"""Command line interface: batch orbit reports, and the checks of lbo.verify.

Input records are JSON objects carrying either six bivector coefficients
{"c": [...]} or a vector pair {"x": [...], "y": [...]} whose wedge is taken,
plus an optional string "id".  Batches stream as NDJSON (one object per
line); a single pretty-printed object or a top-level array also works.

Output is deterministic byte-for-byte: keys appear in fixed order and reals
are printed with 17 significant digits, so re-runs compare equal.  A batch
runs in chunks of up to CHUNK records, each in three stages, with the same
bytes and exit code as a record-by-record run:

- decode: CHUNK input lines are parsed by one json.loads of the lines
  joined as an array, which is taken only when each line provably holds one
  document; otherwise each line is parsed alone.  The chunk's records become
  one array, its vector pairs wedged in one stacked call.
- report: one reduce_orbits call, and for stabilizer stacked products of
  STABILIZER_BLOCK records.  Every output record has one of a few shapes,
  each compiled once to a %-template with typed slots: reals are formatted
  by the template from the chunk's columns, enum names and bools arrive as
  JSON text, and only ids and nullable values go through _scalar.
- write: the chunk's lines, error records in input order among them, go to
  stdout as one string, so an unbuffered stdout (PYTHONUNBUFFERED) costs one
  write call per chunk, not one per record.  json output joins every line;
  both it and the table are written once, at the end.

A table is a flat view of the JSON records: a column per leaf path
(canonical.r, families.0.parameter), in order of first appearance, and in
each cell the leaf's JSON text, but a real to 6 digits; - where a record's
shape has no such leaf.

--threads is still accepted for compatibility and has no effect.
Exit codes: 0 success, 2 input error, 3 usage error, 4 internal invariant
violation.  A record that fails with an input error or an invariant
violation is emitted as an error record and the batch continues; 4 wins
over 2 in the exit code.  When the reader of stdout goes away, a batch
stops writing and exits with the code of the records written so far.

Flags can be seeded from the environment with the LBO_ prefix (LBO_TOL,
LBO_SEED, LBO_SAMPLES, LBO_R, LBO_FORMAT); explicit flags win.
"""
from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import verify
from .errors import DegenerateOrbitError, InvariantViolationError, NotInLightConeError
from .minkowski import ToleranceConfig, lorentz_inverse
from .orbit import RIGHT_ANGLE, OrbitKind, normal_form_bivector, reconstruct, reduce_orbits
from .rslice import SliceTopology, _on_radius, slice_topology
from .stabilizer import fixing_residual, generator_stack
from .wedge import _row_norms, wedge

# Records per chunk: each chunk is decoded into one array and reduced by one
# reduce_orbits call.  Large enough to spread the kernel's fixed cost, small
# enough that the first output line is not held back.
CHUNK = 128

# Stabilizer rows conjugated per stacked product: the (rows, 12, 4, 4) stack
# and its second compounds stay small, where a whole chunk at once raises the
# peak memory of a run by several percent.
STABILIZER_BLOCK = 16

# Residuals past this ceiling (scaled by witness conditioning) indicate a bug,
# not an input problem, and map to exit code 4.
_BUG_CEILING = 1e-6


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit 3, not argparse's 2
        raise _UsageError(message)


# --- deterministic serialisation ------------------------------------------
#
# Every output record has one of a few shapes: a skeleton of keys and fixed
# values with slots for what varies from record to record.  A shape is
# compiled once to a %-template, and a record travels as (shape, values), one
# value per slot in the order the skeleton lists them.  A slot is typed: a
# real that is never null is formatted by the template itself, an enum name
# or a bool arrives as its JSON text, and only ids and nullable values go
# through _scalar per record.


class _Slot:
    """A skeleton leaf filled per record; format is its conversion in the template."""

    __slots__ = ("format",)

    def __init__(self, format: str):
        self.format = format


_SLOT = _Slot("%s")  # any leaf, through _scalar: ids, messages and nullable values
_REAL = _Slot("%.17g")  # a float, never null, fed through _json_reals so never -0.0
_TEXT = _Slot("%s")  # JSON text rendered ahead: enum names and bools
# What json.dumps returns for a str, without its dispatch on the argument's type.
_json_string = json.encoder.encode_basestring_ascii
_BOOL_TEXT = ("false", "true")  # indexed by a bool


def _scalar(v) -> str:
    """JSON text of one leaf: reals to 17 significant digits, negative zero as 0."""
    t = type(v)
    if t is float:
        return "%.17g" % v if v != 0.0 else "0"
    if t is str:
        return _json_string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if t is int:
        return repr(v)
    raise TypeError(f"cannot serialise {t!r}")


def _json_reals(x: np.ndarray) -> list:
    """x.tolist() for _REAL slots: + 0.0 turns -0.0 into 0.0, which _scalar prints as 0."""
    return (x + 0.0).tolist()


def _compile(node) -> str:
    if type(node) is _Slot:
        return node.format
    if type(node) is dict:
        return "{" + ",".join(json.dumps(k) + ":" + _compile(v) for k, v in node.items()) + "}"
    if type(node) is list:
        return "[" + ",".join(map(_compile, node)) + "]"
    return _scalar(node).replace("%", "%%")


def _leaves(node, path=""):
    """(dotted path, leaf) of each leaf of a skeleton, in the order the template prints them."""
    if type(node) not in (dict, list):
        yield path, node
        return
    for key, child in node.items() if type(node) is dict else enumerate(node):
        yield from _leaves(child, f"{path}.{key}" if path else key)


class _Shape:
    """One record shape: its skeleton, the %-template compiled from it, its
    columns (path, leaf) and the positions of its _SLOT values."""

    __slots__ = ("skeleton", "template", "columns", "scalars")

    def __init__(self, skeleton: dict):
        self.skeleton = skeleton
        self.template = _compile(skeleton)
        self.columns = tuple(_leaves(skeleton))
        slots = [leaf for _, leaf in self.columns if type(leaf) is _Slot]
        self.scalars = tuple(i for i, slot in enumerate(slots) if slot is _SLOT)


def dumps(shape: _Shape, values: tuple) -> str:
    """Canonical JSON of one record, without a newline: its shape's template filled with values."""
    values = list(values)
    for i in shape.scalars:
        values[i] = _scalar(values[i])
    return shape.template % tuple(values)


_ERROR = _Shape({"id": _SLOT, "error": _SLOT})


# --- record parsing -------------------------------------------------------


def _decode_record(obj) -> tuple:
    """(id, row) for one parsed document, where row holds the six coefficients
    or the entries of x then y as floats, or (id, _InputError) for a document
    that does not decode; id is None unless it is a string."""
    if isinstance(obj, _InputError):  # a line that did not parse
        return None, obj
    if not isinstance(obj, dict):
        return None, _InputError("record must be a JSON object")
    rid = obj.get("id")
    if rid is not None and not isinstance(rid, str):
        return None, _InputError("id must be a string")
    has_c = "c" in obj
    if has_c == ("x" in obj or "y" in obj):
        return rid, _InputError('record needs exactly one of "c" or "x"/"y"')
    fields, entries = ((("c", 6),), '"c"') if has_c else ((("x", 4), ("y", 4)), "vector")
    for name, length in fields:
        v = obj.get(name)
        if not (isinstance(v, list) and len(v) == length):
            return rid, _InputError(f'"{name}" must be a list of {length} numbers')
    try:
        row = [float(v) for name, _ in fields for v in obj[name]]
    except (TypeError, ValueError) as exc:
        return rid, _InputError(f"{entries} entries must be numbers: {exc}")
    if not all(map(math.isfinite, row)):
        return rid, _InputError(f"{entries} entries must be finite")
    return rid, row


def _bivectors(rows: list) -> np.ndarray:
    """The (n, 6) array of decoded rows: one array of the coefficient rows and
    one stacked wedge of the vector-pair rows."""
    W = np.empty((len(rows), 6))
    coefficients = [i for i, row in enumerate(rows) if len(row) == 6]
    pairs = [i for i, row in enumerate(rows) if len(row) == 8]
    W[coefficients] = np.array([rows[i] for i in coefficients]).reshape(-1, 6)
    XY = np.array([rows[i] for i in pairs]).reshape(-1, 8)
    W[pairs] = wedge(XY[:, :4], XY[:, 4:])
    return W


def _parse_json(text: str):
    """The JSON document in text, or an _InputError that says why there is none
    (with the parser's exception as its __cause__).  Integers parse as floats,
    so one past the largest double is inf, as 1e400 is, whatever its length."""
    try:
        return json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:  # also too deep nesting
        error = _InputError(f"bad JSON line: {exc}")
        error.__cause__ = exc
        return error


# Every byte but quotes, brackets and line feeds, for bytes.translate to delete.
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"[]{}\n')))
# Bracket nesting the line test follows; input records nest two or three deep.
_MAX_NESTING = 16


def _brackets_close_per_line(text: str) -> bool:
    """Whether, in text that parses as part of one JSON document, each line
    closes every bracket it opens.  A JSON string holds no line feed, so
    strings stay within their lines; text with a backslash, with a bracket
    inside a string or nested deeper than _MAX_NESTING is not proved."""
    if "\\" in text:
        return False
    marks = text.encode("ascii", "ignore").translate(None, _NOT_STRUCTURE)
    # strings are now adjacent quote pairs; one with a bracket inside leaves
    # quotes behind, and they fail the final test
    marks = marks.replace(b'""', b"")
    for _ in range(_MAX_NESTING):
        closed = marks.replace(b"[]", b"").replace(b"{}", b"")
        if closed == marks:
            return not marks.strip(b"\n")
        marks = closed
    return False


def _parse_lines(lines: list) -> list:
    """The JSON document of each line, or an _InputError for a line that does not parse.

    When each line closes its own brackets, every comma that joins two lines
    sits at the top level, so one json.loads of the lines joined as an array
    gives the lines' documents if it gives one element per line.  Otherwise
    each line is parsed alone, so a bad line gets its own error text.  The
    bracket test is cheap and comes first, so a chunk it rejects costs what
    line-by-line parsing costs; a chunk it passes with a bad line in it also
    pays for the failed joined parse.
    """
    if _brackets_close_per_line("".join(lines)):
        try:
            docs = json.loads("[" + ",".join(lines) + "]", parse_int=float)
        except (ValueError, RecursionError):
            docs = None
        if docs is not None and len(docs) == len(lines):
            return docs
    return [_parse_json(line) for line in lines]


def _iter_docs(stream):
    """Yield parsed JSON documents, or an _InputError per line that does not parse:
    NDJSON line mode, the first line alone and then the lines up to each
    CHUNK-line boundary in one parse, with a whole-document fallback for a
    first line that ends before its document does (the rest of the input is
    read only then)."""
    lines = (line for line in stream if line.strip())
    first = next(lines, None)
    if first is None:
        return
    doc = _parse_json(first)
    cause = doc.__cause__ if isinstance(doc, _InputError) else None
    if isinstance(cause, json.JSONDecodeError) and not first[cause.pos :].strip():
        rest = stream.read()
        whole = _parse_json(first + rest)  # one pretty-printed object or array
        if not isinstance(whole, _InputError):
            yield whole
            return
        lines = (line for line in io.StringIO(rest) if line.strip())
    # the first line, parsed alone to tell NDJSON from one document, counts
    # towards the first chunk, so that a chunk of records waits for no line
    # past its own
    yield doc
    yield from _parse_lines(list(itertools.islice(lines, CHUNK - 1)))
    while chunk := list(itertools.islice(lines, CHUNK)):
        yield from _parse_lines(chunk)


def _iter_raw(stream):
    """Yield input records: a top-level array, on one line or spread over many,
    batches its elements."""
    for doc in _iter_docs(stream):
        if isinstance(doc, list):
            yield from doc
        else:
            yield doc


def _decode_chunk(docs: list):
    """Decode stage: (items, ids, W) for one chunk of parsed documents.  items
    holds an error record per document that does not decode and None where
    the report's next row goes; W is the (n, 6) array of the others."""
    items, rids, rows = [], [], []
    for doc in docs:
        rid, row = _decode_record(doc)
        if isinstance(row, _InputError):
            items.append((_ERROR, (rid, row)))
        else:
            items.append(None)
            rids.append(rid)
            rows.append(row)
    return items, rids, _bivectors(rows)


# --- chunk reports ----------------------------------------------------------
#
# Each report takes the ids and the (n, 6) array of one chunk of decoded
# records, reduces them with one reduce_orbits call, turns its columns into
# lists once and yields, in order, one (shape, values) record per row; a row
# that fails yields (_ERROR, (id, exception)).  Float columns become lists
# through _json_reals.

_CLASSIFY_OFF = _Shape(
    {"id": _SLOT, "in_light_cone": False, "A": _REAL, "B": _REAL, "pfaffian": _REAL,
     "canonical": None, "class": None, "reason": _SLOT}
)
_CLASSIFY_ON, _CLASSIFY_ON_SLICE = (
    _Shape(
        {"id": _SLOT, "in_light_cone": True, "A": _REAL, "B": _REAL, "pfaffian": _REAL,
         "canonical": {"r": _REAL, "phi": _REAL},
         "class": {"kind": _TEXT, "r0": _REAL, "epsilon": _SLOT},
         **slice_block,
         "diagnostics": {"reconstruction_residual": _REAL, "representative_residual": _SLOT}}
    )
    for slice_block in ({}, {"slice": {"r_queried": _REAL, "topology": _TEXT, "boundary": _TEXT}})
)

_CANONICAL_OFF = _Shape(
    {"id": _SLOT, "in_light_cone": False, "r": None, "phi": None, "basis": None,
     "representative": None, "witness": None, "reason": _SLOT}
)
_CANONICAL_NEUTRAL = _Shape(
    {"id": _SLOT, "in_light_cone": True, "r": _REAL, "phi": _REAL, "basis": [_REAL] * 16,
     "representative": [_REAL] * 6, "witness": [_REAL] * 16}
)
_CANONICAL_DEGENERATE = _Shape(
    {"id": _SLOT, "in_light_cone": True, "r": _REAL, "phi": _REAL, "basis": [_REAL] * 16,
     "representative": None, "witness": None,
     "note": "degenerate orbit: no element of the form r0*(e12 + eps*e34) exists"}
)

_SLICE_OFF = _Shape(
    {"id": _SLOT, "in_light_cone": False, "r_queried": _REAL, "class": None, "topology": None,
     "in_slice": False, "reason": _SLOT}
)
_SLICE_ON = _Shape(
    {"id": _SLOT, "in_light_cone": True, "r_queried": _REAL,
     "class": {"kind": _TEXT, "r0": _REAL, "epsilon": _SLOT},
     "topology": _TEXT, "boundary": _TEXT, "in_slice": _TEXT}
)

_STABILIZER_OFF = _Shape(
    {"id": _SLOT, "in_light_cone": False, "kind": None, "families": None, "reason": _SLOT}
)


@functools.cache
def _stabilizer_on(kind: str) -> _Shape:
    """The on-cone stabilizer shape of kind: its families and parameters are fixed text."""
    families = [
        {"family": family.value, "parameter": t, "fixing_residual": _REAL}
        for family, t in generator_stack(kind)[1]
    ]
    return _Shape(
        {"id": _SLOT, "in_light_cone": True, "kind": kind, "families": families,
         "max_residual": _REAL}
    )


# The _TEXT values of an orbit kind, and of a slice topology with its boundary flag.
_KIND_TEXT = {
    kind: _json_string(kind)
    for kind in (OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE)
}
_TOPOLOGY_TEXT = {
    t: (_json_string(t.value), _BOOL_TEXT[t is SliceTopology.SPHERE_2]) for t in SliceTopology
}


def _right_angle(rid):
    return _ERROR, (rid, _InputError(f"neutral bivector: {RIGHT_ANGLE}"))


def _topology_slots(b, r: float, tol: ToleranceConfig) -> list:
    """The (topology, boundary) _TEXT values of each row's radius-r slice; None off the cone."""
    return [t and _TOPOLOGY_TEXT[t] for t in slice_topology(b, r, tol)]


def _classify_chunk(rids, W, tol: ToleranceConfig, r_query):
    b = reduce_orbits(W, tol)
    on, ok = b.on_cone, b.witnessed
    recon, rep_residual, witness_max = np.zeros(len(W)), np.zeros(len(W)), np.zeros(len(W))
    recon[on] = _row_norms(reconstruct(b)[on] - W[on]) / _row_norms(W[on])
    expected = normal_form_bivector(b.r0[ok], b.epsilon[ok])
    rep_residual[ok] = _row_norms(b.reduced[ok] - expected) / np.maximum(b.r0[ok], 1.0)
    witness_max[ok] = np.abs(b.witness[ok]).max(axis=(1, 2))
    A, B, pf, r, phi, r0, recon, rep_residual = map(
        _json_reals, (b.spatial, b.temporal, b.pfaffian, b.r, b.phi, b.r0, recon, rep_residual)
    )
    eps, on, ok, witness_max = (x.tolist() for x in (b.epsilon, on, ok, witness_max))
    if r_query is not None:
        topologies = _topology_slots(b, r_query, tol)
    for i, rid in enumerate(rids):
        if not on[i]:
            yield _CLASSIFY_OFF, (rid, A[i], B[i], pf[i], b.reason[i])
            continue
        if eps[i] and not ok[i]:
            yield _right_angle(rid)
            continue
        rep = rep_residual[i] if ok[i] else None
        if ok[i] and rep > _BUG_CEILING * max(1.0, witness_max[i] ** 2):  # conditioning
            message = f"reduced element off its normal form (residual {rep:.3e})"
            yield _ERROR, (rid, InvariantViolationError(message))
            continue
        if recon[i] > _BUG_CEILING:
            message = f"canonical form fails to reconstruct (residual {recon[i]:.3e})"
            yield _ERROR, (rid, InvariantViolationError(message))
            continue
        kind = _KIND_TEXT[b.kind[i]]
        values = (rid, A[i], B[i], pf[i], r[i], phi[i], kind, r0[i], eps[i] or None)
        if r_query is None:
            yield _CLASSIFY_ON, (*values, recon[i], rep)
        else:
            yield _CLASSIFY_ON_SLICE, (*values, r_query, *topologies[i], recon[i], rep)


def _canonical_chunk(rids, W, tol: ToleranceConfig):
    b = reduce_orbits(W, tol)
    on, ok, eps = (x.tolist() for x in (b.on_cone, b.witnessed, b.epsilon))
    r, phi = _json_reals(b.r), _json_reals(b.phi)
    basis = _json_reals(b.basis.reshape(-1, 16))
    reduced = _json_reals(b.reduced)
    witness = _json_reals(b.witness.reshape(-1, 16))
    for i, rid in enumerate(rids):
        if not on[i]:
            yield _CANONICAL_OFF, (rid, b.reason[i])
        elif ok[i]:
            yield _CANONICAL_NEUTRAL, (rid, r[i], phi[i], *basis[i], *reduced[i], *witness[i])
        elif eps[i]:
            yield _right_angle(rid)
        else:
            yield _CANONICAL_DEGENERATE, (rid, r[i], phi[i], *basis[i])


def _slice_chunk(rids, W, tol: ToleranceConfig, r: float):
    b = reduce_orbits(W, tol, frames=False)
    on, eps = b.on_cone.tolist(), b.epsilon.tolist()
    r0 = _json_reals(b.r0)
    member = _on_radius(b.spatial, r, tol).tolist()
    topologies = _topology_slots(b, r, tol)
    for i, rid in enumerate(rids):
        if not on[i]:
            yield _SLICE_OFF, (rid, r, b.reason[i])
            continue
        yield _SLICE_ON, (
            rid, r, _KIND_TEXT[b.kind[i]], r0[i], eps[i] or None, *topologies[i],
            _BOOL_TEXT[member[i]],
        )


def _conjugated_residuals(kind: str, conj, conj_inv, W) -> np.ndarray:
    """fixing_residual(conj[i] @ stack @ conj_inv[i], W[i]) for each row i, with
    the generator stack of kind, STABILIZER_BLOCK rows per stacked product."""
    stack = generator_stack(kind)[0]
    residuals = np.empty((len(W), len(stack)))
    for start in range(0, len(W), STABILIZER_BLOCK):
        rows = slice(start, start + STABILIZER_BLOCK)
        conjugated = conj[rows, None] @ stack @ conj_inv[rows, None]
        residuals[rows] = fixing_residual(conjugated, W[rows])
    return residuals


def _stabilizer_chunk(rids, W, tol: ToleranceConfig):
    b = reduce_orbits(W, tol)
    # degenerate rows conjugate the base-point stabilizer through the adapted
    # basis, witnessed neutral rows through the inverse of the witness
    degenerate = np.flatnonzero(b.on_cone & (b.epsilon == 0))
    neutral = np.flatnonzero(b.witnessed)
    basis, witness = b.basis[degenerate], b.witness[neutral]
    residuals = dict(zip(degenerate.tolist(), _json_reals(_conjugated_residuals(
        OrbitKind.DEGENERATE, basis, lorentz_inverse(basis), W[degenerate]
    ))))
    residuals.update(zip(neutral.tolist(), _json_reals(_conjugated_residuals(
        OrbitKind.NEUTRAL_PLUS, lorentz_inverse(witness), witness, W[neutral]
    ))))
    on = b.on_cone.tolist()
    for i, rid in enumerate(rids):
        if not on[i]:
            yield _STABILIZER_OFF, (rid, b.reason[i])
            continue
        res = residuals.get(i)
        if res is None:
            yield _right_angle(rid)
            continue
        yield _stabilizer_on(b.kind[i]), (rid, *res, max(0.0, *res))


def _report_chunk(items: list, reported) -> tuple:
    """Report stage: (records, exit code) of one chunk, the report's rows in
    place of items' Nones and each failure an error record with its message.
    An invariant violation is also printed to stderr."""
    code = 0
    records = []
    for item in items:
        if item is None:
            item = next(reported)
        if item[0] is _ERROR:
            rid, exc = item[1]
            if isinstance(exc, InvariantViolationError):
                code = 4
                message = f"invariant violation: {exc}"
                print(message, file=sys.stderr)
            else:
                code = max(code, 2)
                message = str(exc)
            item = _ERROR, (rid, message)
        records.append(item)
    return records, code


# --- output formatting ----------------------------------------------------
#
# Each format renders records as one string: ndjson per chunk, json and
# table once for the whole batch.


def _ndjson(records) -> str:
    return "".join([dumps(shape, values) + "\n" for shape, values in records])


def _json_array(records) -> str:
    return "[" + ",".join([dumps(shape, values) for shape, values in records]) + "]\n"


def _row(shape: _Shape, values: tuple) -> dict:
    """A record's table cells by column: a _TEXT value as it comes, a real
    with 6 significant digits (never -0: reals come through _json_reals) and
    any other leaf as its JSON text."""
    values = iter(values)
    row = {}
    for path, leaf in shape.columns:
        value = next(values) if type(leaf) is _Slot else leaf
        if leaf is not _TEXT:
            value = "%.6g" % value if type(value) is float else _scalar(value)
        row[path] = value
    return row


def _table(records) -> str:
    rows = [_row(shape, values) for shape, values in records]
    columns = list(dict.fromkeys(path for row in rows for path in row))
    lines = [columns, *([row.get(c, "-") for c in columns] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n" for line in lines
    )


# --- subcommands ----------------------------------------------------------


def _open_input(args):
    if args.infile and args.infile != "-":
        return open(args.infile, "r", encoding="utf-8")
    return sys.stdin


def _tolerance(args) -> ToleranceConfig:
    try:
        return ToleranceConfig(eps=args.tol)
    except ValueError as exc:
        raise _UsageError(f"bad --tol or LBO_TOL: {exc}") from exc


def _check_radius(r) -> None:
    """A given --r (or LBO_R) must be positive and finite."""
    if r is not None and not 0 < r < np.inf:
        raise _InputError(f"--r must be positive and finite, got {r!r}")


def _drop_stdout() -> None:
    """The reader is gone: stop, and send what is still buffered to devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _run_batch(args, report) -> int:
    """Decode, report and write the input CHUNK records at a time.  ndjson
    output is written once per chunk; json and table output once at the end."""
    tol = _tolerance(args)
    code = 0
    held = []  # json and table records
    stream = _open_input(args)
    docs = _iter_raw(stream)
    try:
        while chunk := list(itertools.islice(docs, CHUNK)):
            items, rids, W = _decode_chunk(chunk)
            records, chunk_code = _report_chunk(items, report(rids, W, tol))
            code = max(code, chunk_code)
            if args.format == "ndjson":
                sys.stdout.write(_ndjson(records))
            else:
                held += records
        if args.format != "ndjson":
            sys.stdout.write((_json_array if args.format == "json" else _table)(held))
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:
        _drop_stdout()
    finally:
        if stream is not sys.stdin:
            stream.close()
    return code


def _cmd_classify(args) -> int:
    _check_radius(args.r)
    return _run_batch(args, functools.partial(_classify_chunk, r_query=args.r))


def _cmd_canonical(args) -> int:
    return _run_batch(args, _canonical_chunk)


def _cmd_slice(args) -> int:
    if args.r is None:
        raise _UsageError("slice requires --r")
    _check_radius(args.r)
    return _run_batch(args, functools.partial(_slice_chunk, r=args.r))


def _cmd_stabilizer(args) -> int:
    return _run_batch(args, _stabilizer_chunk)


def _check_line(check: verify.Check) -> str:
    """The line verify prints for one check."""
    status = "PASS" if check.passed else "FAIL"
    bound = f"{check.value:.3e} <= {check.threshold:.0e}"
    return f"{check.suite:<10} {check.name:<44} {status}  {bound}"


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:  # numpy seeds are nonnegative
        raise _UsageError(f"--seed must be at least 0, got {args.seed}")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    tol = _tolerance(args)
    all_ok = True
    try:
        for check in verify.run(names, args.samples, args.seed, tol):
            all_ok = all_ok and check.passed
            print(_check_line(check))
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:
        _drop_stdout()  # the exit code still reports the checks written so far
    if not all_ok:
        raise InvariantViolationError("verification suite failed")
    return 0


# --- entry point ----------------------------------------------------------


def _env(name, parse, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return parse(raw)
    except ValueError as exc:
        raise _UsageError(f"bad {name}={raw!r}") from exc


def _build_parser() -> _Parser:
    tol_default = _env("LBO_TOL", float, 1e-9)
    seed_default = _env("LBO_SEED", int, 0)
    samples_default = _env("LBO_SAMPLES", int, 500)
    r_default = _env("LBO_R", float, None)
    fmt_default = os.environ.get("LBO_FORMAT", "ndjson")
    if fmt_default not in ("ndjson", "json", "table"):
        raise _UsageError(f"bad LBO_FORMAT={fmt_default!r}")

    parser = _Parser(prog="lbo", description="light-cone bivector orbit reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_batch(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", default=None, help="input file (default stdin)")
        p.add_argument("--format", choices=("ndjson", "json", "table"), default=fmt_default)
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--threads", type=int, default=1, help="kept for compatibility; no effect")
        return p

    p = add_batch("classify", "orbit class, invariants and diagnostics per record")
    p.add_argument("--r", type=float, default=r_default, help="also certify the radius-r slice")
    p.set_defaults(func=_cmd_classify)

    p = add_batch("canonical", "canonical form, reduced element and witness per record")
    p.set_defaults(func=_cmd_canonical)

    p = add_batch("slice", "topology certificate of the radius-r slice per record")
    p.add_argument("--r", type=float, default=r_default)
    p.set_defaults(func=_cmd_slice)

    p = add_batch("stabilizer", "stabilizer generator families and fixing residuals per record")
    p.set_defaults(func=_cmd_stabilizer)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", choices=(*verify.SUITES, "all"), required=True)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--samples", type=int, default=samples_default)
    p.add_argument("--tol", type=float, default=tol_default)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (NotInLightConeError, DegenerateOrbitError, _InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
