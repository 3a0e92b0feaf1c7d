"""Command line interface: batch orbit reports, and the checks of lbo.verify.

Input records are JSON objects carrying either six bivector coefficients
{"c": [...]} or a vector pair {"x": [...], "y": [...]} whose wedge is taken,
plus an optional string "id".  Batches stream as NDJSON (one object per
line); a single pretty-printed object or a top-level array also works.
Input is read as UTF-8, from stdin and from --in alike.

Output is deterministic byte-for-byte: keys appear in fixed order and reals
are printed with 17 significant digits, so re-runs compare equal.  A batch
runs in chunks, CHUNK records and then each chunk twice the one before, up
to CHUNK_CAP, each in three stages, with the same bytes and exit code as a
record-by-record run:

- decode: each input line is parsed alone, by a scanner built once, and
  json.loads words the refusal of a line that does not parse.  One pass
  over the chunk checks each document's structure; the entries of the good
  ones, one flat list per layout, become one array, and the vector pairs
  are wedged in one stacked call.  An entry must be a JSON number; one past
  the double range is left to the report's overflow check.  Every document
  is a row: one that does not decode is a zero row, refused with its message.
- report: one reduce_orbits call, and for stabilizer one stabilizer_residuals
  call.  One function, _row_status, gives every row of every report its
  status: on the cone; off it, with its reason; an input error (refused by
  the decode, split norms outside the double range, a pfaffian past it, or
  a right-angle neutral row); or an invariant violation, a residual past its
  ceiling.  classify, canonical and stabilizer check the reconstruction and
  representative residuals, and stabilizer its fixing residuals too; slice
  has no frames and answers from the invariants.  Every output record has
  one of a few shapes, each compiled once to a %-template with typed slots
  (the run's radius is fixed text): reals are formatted by the template,
  every other value arrives as JSON text, a column of codes read from a
  table of texts, and the rows' values are zipped from the columns.  An
  off-cone record has the keys of its on-cone record, null where a value is
  not defined off the cone, and its reason.
- write: the chunk's records render to its NDJSON lines, which go to stdout
  as one string, so an unbuffered stdout (PYTHONUNBUFFERED) costs one write
  call per chunk, not one per record.  On a slow stream the first output
  waits for CHUNK records, and each later one for its grown chunk to fill
  (or for the end of the stream).  json and table output are views of
  the same lines, written once, at the end: json joins them into one array,
  and a table is a flat view of their parsed records, a column per leaf path
  (canonical.r, families.0.parameter) in order of first appearance, in each
  cell the leaf's JSON text, but a real to 6 digits; - where a record has no
  such leaf.

--threads is still accepted for compatibility and has no effect.
Exit codes: 0 success, 2 input error, 3 usage error, 4 internal invariant
violation.  A record that fails with an input error or an invariant
violation is emitted as an error record and the batch continues; 4 wins
over 2 in the exit code, and each violation also prints one line to
stderr.  No output real is inf or nan.  When the reader of stdout goes away, a batch
stops writing and exits with the code of the records written so far.

Flags can be seeded from the environment with the LBO_ prefix (LBO_TOL,
LBO_SEED, LBO_SAMPLES, LBO_R, LBO_FORMAT); explicit flags win.

Start-up: lbo.stabilizer and lbo.verify load only in the subcommands that
run them, and only the process entry, console(), freezes the import heap.
"""
from __future__ import annotations

import argparse
import functools
import gc
import io
import itertools
import json
import os
import re
import sys

import numpy as np

from .errors import DegenerateOrbitError, InvariantViolationError, NotInLightConeError
from .minkowski import ToleranceConfig
from .orbit import _KIND_BY_CODE, RIGHT_ANGLE, OrbitKind, normal_form_bivector, reconstruct
from .orbit import reduce_orbits
from .rslice import _TOPOLOGIES, SliceTopology, _check_radius as _check_slice_radius, _on_radius
from .rslice import _topology_codes
from .wedge import _UNDERFLOW, _row_norms, wedge

# Records in a batch's first chunk.  Each chunk is decoded into one array and
# reduced by one reduce_orbits call, so it pays a fixed cost whatever its
# size; the first chunk is small enough that the first output line is not
# held back.  Each later chunk is twice the one before, up to CHUNK_CAP, the
# largest size at which a fresh process's peak resident set stays within 2%
# of a batch run in chunks of 128.
CHUNK = 128
CHUNK_CAP = 256

# Residuals past max(this, eps) (scaled by witness conditioning) indicate a
# bug, not an input problem, and map to exit code 4.
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
# real that is never null is formatted by the template itself, and every
# other value (ids, messages, enum names, bools and nullable values) arrives
# as its JSON text, rendered once per column or read from a table of texts.


class _Slot:
    """A skeleton leaf filled per record: format is its conversion in the template."""

    __slots__ = ("format",)

    def __init__(self, format: str):
        self.format = format


_REAL = _Slot("%.17g")  # a float, never null, fed through _json_reals so never -0.0
_TEXT = _Slot("%s")  # JSON text: ids, messages, enum names, bools and nullable values
# What json.dumps returns for a str, without its dispatch on the argument's type.
_json_string = json.encoder.encode_basestring_ascii


def _scalar(v) -> str:
    """JSON text of one leaf: reals to 17 significant digits, negative zero as 0."""
    t = type(v)
    if t is float:
        return "%.17g" % v if v != 0.0 else "0"
    if t is str:
        return _json_string(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
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
    """(dotted path, leaf) of each leaf of a skeleton or a parsed record, in
    the order the template prints them."""
    if type(node) not in (dict, list):
        yield path, node
        return
    for key, child in node.items() if type(node) is dict else enumerate(node):
        yield from _leaves(child, f"{path}.{key}" if path else key)


class _Shape:
    """One record shape: its skeleton and the %-template compiled from it."""

    __slots__ = ("skeleton", "template")

    def __init__(self, skeleton: dict):
        self.skeleton = skeleton
        self.template = _compile(skeleton)


def dumps(shape: _Shape, values: tuple) -> str:
    """Canonical JSON of one record, without a newline: its shape's template filled with values."""
    return shape.template % values


# Row statuses, numbered so that a chunk's largest is its exit code.
_OFF, _ON, _INPUT_ERROR, _VIOLATION = -1, 0, 2, 4
_ERROR = _Shape({"id": _TEXT, "error": _TEXT})


# --- record parsing -------------------------------------------------------


# A byte that is not UTF-8, read with errors="surrogateescape".
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _escaped_byte(text: str):
    """The first byte of text that did not decode as UTF-8, or None."""
    escaped = _ESCAPED_BYTE.search(text)
    return None if escaped is None else ord(escaped[0]) - 0xDC00


_JSON_SPACE = " \t\n\r"  # white space, as JSON has it
# The scanner of a decoder whose integers parse as floats, built once:
# json.loads builds a decoder and its scanner on every call that passes a keyword.
_scan = json.JSONDecoder(parse_int=float).scan_once


def _parse_json(text: str):
    """The JSON document in text, or an _InputError that says why there is none
    (with the parser's exception as its __cause__).  Integers parse as floats,
    so one past the largest double is inf, as 1e400 is, whatever its length.

    _scan reads a document from the first character; when only JSON white
    space follows it, that is json.loads's document.  Any other text (leading
    white space, a bad or a second document) goes to json.loads, which parses
    it or words its refusal."""
    if not text.isascii() and (byte := _escaped_byte(text)) is not None:
        return _InputError(f"line is not UTF-8: byte 0x{byte:02x}")
    try:
        doc, end = _scan(text, 0)
        if not text[end:].strip(_JSON_SPACE):
            return doc
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:  # also too deep nesting
        error = _InputError(f"bad JSON line: {exc}")
        error.__cause__ = exc
        return error


def _iter_docs(stream):
    """Yield parsed JSON documents, or an _InputError per line that does not parse:
    NDJSON line mode, each line parsed alone, with a whole-document fallback
    for a first line that ends before its document does (the rest of the
    input is read only then).  A line of _JSON_SPACE alone is blank."""
    lines = (line for line in stream if line.strip(_JSON_SPACE))
    first = next(lines, None)
    if first is None:
        return
    doc = _parse_json(first)
    cause = doc.__cause__ if isinstance(doc, _InputError) else None
    if isinstance(cause, json.JSONDecodeError) and not first[cause.pos :].strip(_JSON_SPACE):
        rest = stream.read()
        whole = _parse_json(first + rest)  # one pretty-printed object or array
        if not isinstance(whole, _InputError):
            yield whole
            return
        lines = (line for line in io.StringIO(rest) if line.strip(_JSON_SPACE))
    yield doc
    yield from map(_parse_json, lines)


def _iter_raw(stream):
    """Yield input records: a top-level array, on one line or spread over many,
    batches its elements."""
    for doc in _iter_docs(stream):
        if isinstance(doc, list):
            yield from doc
        else:
            yield doc


# Why a record without exactly one layout is refused.
_LAYOUT = 'record needs exactly one of "c" or "x"/"y"'


def _decode_chunk(docs: list):
    """Decode stage: (ids, W, refused) for one chunk of parsed documents: the
    JSON text of each document's id, the (n, 6) array of their rows, and a
    (row, message) pair per document that does not decode, in row order,
    whose row of W is zero.

    One pass reads each document and refuses it at the first check it fails:
    its line parsed; it is an object; its id is a string or absent (null);
    it has exactly one layout, "c" or "x"/"y"; each field is a list of its
    length.  The entries of the documents that pass go onto one flat list
    per layout, checked whole: every entry is a float (every JSON number
    parses to one), else each row with another entry, such as "1" or true,
    is refused.  A row of floats goes into W as it stands: an entry past the
    double range (1e400, NaN) makes its split norms not finite, an input
    error of _row_status.  The vector pairs are wedged in one stacked call."""
    ids, refused = [], []
    c_rows, c_entries, xy_rows, xy_entries = [], [], [], []
    for i, doc in enumerate(docs):
        rid = message = None
        if not isinstance(doc, dict):
            message = str(doc) if isinstance(doc, _InputError) else "record must be a JSON object"
        elif (rid := doc.get("id")) is not None and not isinstance(rid, str):
            rid, message = None, "id must be a string"
        elif (c := doc.get("c", doc)) is not doc:  # doc stands for a missing field
            if "x" in doc or "y" in doc:
                message = _LAYOUT
            elif not (isinstance(c, list) and len(c) == 6):
                message = '"c" must be a list of 6 numbers'
            else:
                c_rows.append(i)
                c_entries += c
        else:
            x, y = doc.get("x", doc), doc.get("y", doc)
            if x is doc and y is doc:
                message = _LAYOUT
            elif not (isinstance(x, list) and len(x) == 4):
                message = '"x" must be a list of 4 numbers'
            elif not (isinstance(y, list) and len(y) == 4):
                message = '"y" must be a list of 4 numbers'
            else:
                xy_rows.append(i)
                xy_entries += x
                xy_entries += y
        ids.append("null" if rid is None else _json_string(rid))
        if message is not None:
            refused.append((i, message))
    W = np.zeros((len(docs), 6))
    for rows, entries, what in ((c_rows, c_entries, '"c"'), (xy_rows, xy_entries, "vector")):
        if not rows:  # an empty stacked wedge costs more than this test
            continue
        width = len(entries) // len(rows)
        if set(map(type, entries)) != {float}:  # a row with another entry is refused
            for k in {j // width for j, v in enumerate(entries) if type(v) is not float}:
                entries[k * width : (k + 1) * width] = [0.0] * width
                refused.append((rows[k], f"{what} entries must be numbers"))
        A = np.array(entries, dtype=float).reshape(-1, width)
        # a slice, not an index per row, where one layout fills the chunk
        at = rows if len(rows) < len(docs) else slice(None)
        W[at] = A if width == 6 else wedge(A[:, :4], A[:, 4:])
    refused.sort()
    return ids, W, refused


def _decode_record(doc) -> tuple:
    """(id text, row of W, message or None) of one parsed document: the
    one-document case of _decode_chunk.  The batch does not call it;
    benchmarks/tracing.py hooks it by name."""
    (rid,), (row,), refused = _decode_chunk([doc])
    return rid, row, refused[0][1] if refused else None


# --- chunk reports ----------------------------------------------------------
#
# Each report takes the ids (as JSON text) and the (n, 6) array of one chunk
# of decoded records, reduces them with one reduce_orbits call and returns
# (records, status): in order, one (shape, values) record per row in its
# on-cone shapes, and the rows' _row_status.  Each column becomes a list
# once, reals through _json_reals and every other value as its JSON text, and
# the rows' values are zipped from the columns.  _row_status decides, once for
# every report, which rows are answered, off the cone, refused or a bug, and
# _settled gives each row the record of its status.

_OVERFLOW = "bivector overflows the double range: its split norms or pfaffian are not finite"

_CLASS = {"kind": _TEXT, "r0": _REAL, "epsilon": _TEXT}


@functools.lru_cache(16)
def _classify_on(r) -> _Shape:
    """The on-cone classify shape, with a radius-r slice block unless r is None."""
    block = {} if r is None else {"slice": {"r_queried": r, "topology": _TEXT, "boundary": _TEXT}}
    return _Shape(
        {"id": _TEXT, "in_light_cone": True, "A": _REAL, "B": _REAL, "pfaffian": _REAL,
         "canonical": {"r": _REAL, "phi": _REAL}, "class": _CLASS, **block,
         "diagnostics": {"reconstruction_residual": _REAL, "representative_residual": _TEXT}}
    )


_CANONICAL_NEUTRAL = _Shape(
    {"id": _TEXT, "in_light_cone": True, "r": _REAL, "phi": _REAL, "basis": [_REAL] * 16,
     "representative": [_REAL] * 6, "witness": [_REAL] * 16}
)
_CANONICAL_DEGENERATE = _Shape(
    {"id": _TEXT, "in_light_cone": True, "r": _REAL, "phi": _REAL, "basis": [_REAL] * 16,
     "representative": None, "witness": None,
     "note": "degenerate orbit: no element of the form r0*(e12 + eps*e34) exists"}
)


@functools.lru_cache(16)
def _slice_on(r: float) -> _Shape:
    """The on-cone slice shape of radius r: r_queried is fixed text."""
    return _Shape({"id": _TEXT, "in_light_cone": True, "r_queried": r, "class": _CLASS,
                   "topology": _TEXT, "boundary": _TEXT, "in_slice": _TEXT})


@functools.cache
def _stabilizer_on(kind: str) -> _Shape:
    """The on-cone stabilizer shape of kind: its families and parameters are fixed text."""
    from .stabilizer import generator_stack

    families = [
        {"family": family.value, "parameter": t, "fixing_residual": _REAL}
        for family, t in generator_stack(kind)[1]
    ]
    return _Shape(
        {"id": _TEXT, "in_light_cone": True, "kind": kind, "families": families,
         "max_residual": _REAL}
    )


# The keys an off-cone record keeps from its on-cone record, and the values it
# fixes.  Every other key is null.
_OFF_CONE_KEPT = {"id", "A", "B", "pfaffian", "r_queried"}
_OFF_CONE = {"in_light_cone": False, "in_slice": False}


@functools.lru_cache(64)
def _off_cone(on: _Shape) -> tuple:
    """(shape, kept) of the off-cone record of a row whose on-cone shape is on:
    every top-level key of on, in its order, with on's leaf if kept, else its
    _OFF_CONE leaf or null, then reason; kept indexes the values of its slots."""
    skeleton, kept, at = {}, [], 0
    for key, node in on.skeleton.items():
        skeleton[key] = node if key in _OFF_CONE_KEPT else _OFF_CONE.get(key)
        if type(skeleton[key]) is _Slot:
            kept.append(at)
        at += sum(type(leaf) is _Slot for _, leaf in _leaves(node))
    return _Shape({**skeleton, "reason": _TEXT}), kept


# JSON texts by code: kind by epsilon + 2 on the cone and 0 (null) off it, epsilon
# by itself, topology and boundary by rslice._topology_codes, a bool by itself.
_KIND_TEXT, _EPSILON_TEXT, _TOPOLOGY_TEXT, _BOUNDARY_TEXT, _BOOL_TEXT = (
    np.array(list(map(_scalar, values)), dtype=object)
    for values in (_KIND_BY_CODE, (None, 1, -1), [None] + [t.value for t in _TOPOLOGIES[1:]],
                   [None] + [t is SliceTopology.SPHERE_2 for t in _TOPOLOGIES[1:]], (False, True))
)


def _row_status(b, tol: ToleranceConfig, W=None, fixing=None) -> tuple:
    """(status, message, reconstruction, representative) of each row of a
    chunk, from b = reduce_orbits(W, tol): its status, its message (the reason
    off the cone, the error text of an error, None on the cone) and classify's
    two residuals.

    A row whose split norms or pfaffian are not finite, or whose split norms
    underflow, is an input error, and a row off the cone is off, with b's
    reason.  Given W, b has frames: a neutral row at the right angle is an
    input error, and a row is an invariant violation when its representative
    residual (relative to r0), or the max fixing residual of its stabilizer
    given in fixing, lies past c = max(_BUG_CEILING, eps) times max(1,
    witness max**2), or its reconstruction residual past c (split norms eps
    apart reconstruct to about eps / 2.8).  A row takes the first of these
    that it meets.  The reconstruction residual is 0 off the cone and the
    representative's 0 on rows without a witness; both are None without W.
    """
    status = np.where(b.on_cone, _ON, _OFF)
    message = list(b.reason)

    def error(rows, code, text, residual=None):
        for i in np.flatnonzero(rows & (status < _INPUT_ERROR)).tolist():
            status[i] = code
            message[i] = text if residual is None else text % residual[i]

    finite = np.isfinite(b.spatial) & np.isfinite(b.temporal) & np.isfinite(b.pfaffian)
    error(~finite, _INPUT_ERROR, _OVERFLOW)
    for i in np.flatnonzero(~b.on_cone).tolist():
        if message[i].startswith(_UNDERFLOW):  # refused, with its reason as the message
            status[i] = _INPUT_ERROR
    if W is None:
        return status, message, None, None
    on, ok = b.on_cone, b.witnessed
    recon, rep, witness_max = np.zeros(len(W)), np.zeros(len(W)), np.zeros(len(W))
    recon[on] = _row_norms(reconstruct(b)[on] - W[on]) / _row_norms(W[on])
    expected = normal_form_bivector(b.r0[ok], b.epsilon[ok])
    rep[ok] = _row_norms(b.reduced[ok] - expected) / b.r0[ok]
    witness_max[ok] = np.abs(b.witness[ok]).max(axis=(1, 2))
    bug_ceiling = max(_BUG_CEILING, tol.eps)
    ceiling = bug_ceiling * np.maximum(1.0, witness_max * witness_max)
    error(on & (b.epsilon != 0) & ~ok, _INPUT_ERROR, f"neutral bivector: {RIGHT_ANGLE}")
    # a NaN residual fails its bound too
    for residual, bound, what in (
        (rep, ceiling, "reduced element off its normal form"),
        (recon, bug_ceiling, "canonical form fails to reconstruct"),
        (fixing, ceiling, "stabilizer generator fails to fix its element"),
    ):
        if residual is not None:
            text = f"invariant violation: {what} (residual %.3e)"
            error(~(residual <= bound), _VIOLATION, text, residual)
    return status, message, recon, rep


def _settled(records: list, status: tuple, refused: list) -> tuple:
    """(records, code): records, one per row in its report's on-cone shapes,
    with each row that is not on the cone given the record of its status (the
    off-cone record of its shape, or an error record with its message, which
    an invariant violation also prints to stderr), and the largest status.  A
    refused (row, message) pair of the decode makes its row an input error
    first; its zero row is off the cone, so no other status competes."""
    code, message = status[:2]
    for i, text in refused:
        code[i], message[i] = _INPUT_ERROR, text
    for i in np.flatnonzero(code != _ON).tolist():
        shape, values = records[i]
        text = _json_string(message[i])
        if code[i] == _OFF:
            off, kept = _off_cone(shape)
            records[i] = off, (*[values[k] for k in kept], text)
        else:
            if code[i] == _VIOLATION:
                print(message[i], file=sys.stderr)
            records[i] = _ERROR, (values[0], text)
    return records, int(code.max())


def _class_columns(b) -> list:
    """The kind, r0 and epsilon columns of each row's class."""
    kind = _KIND_TEXT[(b.epsilon + 2) * b.on_cone]
    return [kind.tolist(), _json_reals(b.r0), _EPSILON_TEXT[b.epsilon].tolist()]


def _topology_columns(b, r: float, tol: ToleranceConfig) -> list:
    """The topology and boundary columns of each row's radius-r slice."""
    code = _topology_codes(b.on_cone, b.epsilon, b.r0, r, tol)
    return [_TOPOLOGY_TEXT[code].tolist(), _BOUNDARY_TEXT[code].tolist()]


def _records(shape: _Shape, columns: list) -> list:
    """One (shape, values) record per row, its values zipped from the columns."""
    return list(zip(itertools.repeat(shape), zip(*columns)))


def _classify_chunk(ids, W, tol: ToleranceConfig, r_query):
    b = reduce_orbits(W, tol)
    status = _row_status(b, tol, W)
    A, B, pf, r, phi, recon, rep = map(
        _json_reals, (b.spatial, b.temporal, b.pfaffian, b.r, b.phi, *status[2:])
    )
    rep = ["%.17g" % x if w else "null" for x, w in zip(rep, b.witnessed.tolist())]
    columns = [ids, A, B, pf, r, phi, *_class_columns(b)]
    if r_query is not None:
        columns += _topology_columns(b, r_query, tol)
    return _records(_classify_on(r_query), [*columns, recon, rep]), status


def _canonical_chunk(ids, W, tol: ToleranceConfig):
    b = reduce_orbits(W, tol)
    frame = _json_reals(np.column_stack([b.r, b.phi, b.basis.reshape(-1, 16)]))
    element = _json_reals(np.column_stack([b.reduced, b.witness.reshape(-1, 16)]))
    records = [(_CANONICAL_NEUTRAL, (rid, *f, *e)) for rid, f, e in zip(ids, frame, element)]
    for i in np.flatnonzero(b.on_cone & (b.epsilon == 0)).tolist():
        records[i] = _CANONICAL_DEGENERATE, (ids[i], *frame[i])
    return records, _row_status(b, tol, W)


def _slice_chunk(ids, W, tol: ToleranceConfig, r: float):
    # answered from the invariants: no frames, so no right angle or residual to check
    b = reduce_orbits(W, tol, frames=False)
    member = _BOOL_TEXT[_on_radius(b.spatial, r, tol).view(np.int8)].tolist()
    columns = [ids, *_class_columns(b), *_topology_columns(b, r, tol), member]
    return _records(_slice_on(r), columns), _row_status(b, tol)


def _stabilizer_chunk(ids, W, tol: ToleranceConfig):
    from .stabilizer import stabilizer_residuals

    b = reduce_orbits(W, tol)
    # a row without residuals keeps only its id, for the record of its status
    records = _records(_stabilizer_on(OrbitKind.DEGENERATE), [ids])
    fixing = np.zeros(len(W))
    for rows, residuals in stabilizer_residuals(b, W):
        fixing[rows] = residuals.max(axis=1)
        for i, res in zip(rows.tolist(), _json_reals(residuals)):
            records[i] = _stabilizer_on(b.kind[i]), (ids[i], *res, max(0.0, *res))
    return records, _row_status(b, tol, W, fixing)


# --- output formatting ----------------------------------------------------


def _table(ndjson: list) -> str:
    """The table view of NDJSON lines: each line's leaves by path, a real to
    6 significant digits and any other leaf as its JSON text."""
    rows = [
        {path: "%.6g" % leaf if type(leaf) is float else _scalar(leaf)
         for path, leaf in _leaves(json.loads(line, parse_int=float))}
        for line in ndjson
    ]
    columns = list(dict.fromkeys(path for row in rows for path in row))
    lines = [columns, *([row.get(c, "-") for c in columns] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n" for line in lines
    )


# --- subcommands ----------------------------------------------------------


def _open_input(args):
    """The input stream: --in, or stdin's file descriptor, read as UTF-8 either
    way, whatever the locale.  A byte that is not UTF-8 reads as a lone
    surrogate (surrogateescape), which _parse_json turns into its line's
    error.  A stdin that is no file (a StringIO) is read as it is."""
    if args.infile and args.infile != "-":
        try:
            return open(args.infile, "r", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise _InputError(f"cannot read --in {args.infile}: {exc.strerror}") from exc
    if isinstance(sys.stdin, io.TextIOWrapper):
        # a stream of its own on the descriptor, which closing leaves open
        return open(sys.stdin.fileno(), "r", encoding="utf-8", errors="surrogateescape",
                    closefd=False)
    return sys.stdin


def _tolerance(args) -> ToleranceConfig:
    try:
        return ToleranceConfig(eps=args.tol)
    except ValueError as exc:
        raise _UsageError(f"bad --tol or LBO_TOL: {exc}") from exc


def _check_radius(r) -> None:
    """A given --r (or LBO_R) must be a slice radius."""
    if r is not None:
        try:
            _check_slice_radius(r)
        except ValueError as exc:
            raise _InputError(f"--r: {exc}") from exc


def _drop_stdout() -> None:
    """The reader is gone: stop, and send what is still buffered to devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _run_batch(args, report) -> int:
    """Decode, report and render the input a chunk at a time: CHUNK records,
    then each chunk twice the one before, up to CHUNK_CAP.  ndjson output is
    written once per chunk, so on a slow stream each output after the first
    waits for its grown chunk to fill; json and table output, views of the
    same lines, are written once, at the end.  Each stage's input is let go
    once the next stage has read it, so a chunk's peak holds little beyond
    its largest stage."""
    tol = _tolerance(args)
    code = 0
    held = []  # json and table lines
    size = CHUNK
    stream = _open_input(args)
    docs = _iter_raw(stream)
    try:
        while chunk := list(itertools.islice(docs, size)):
            size = min(2 * size, CHUNK_CAP)
            ids, W, refused = _decode_chunk(chunk)
            del chunk
            # a row whose arithmetic overflows shows in its status, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                records, chunk_code = _settled(*report(ids, W, tol), refused)
            code = max(code, chunk_code)
            lines = [dumps(shape, values) for shape, values in records]
            del records
            if args.format == "ndjson":
                lines.append("")  # the last newline, without a copy of the joined text
                text = "\n".join(lines)
                del lines  # the text and its encoding alone are held through the write
                sys.stdout.write(text)
                del text
            else:
                held += lines
        if args.format == "json":
            sys.stdout.write("[" + ",".join(held) + "]\n")
        elif args.format == "table":
            sys.stdout.write(_table(held))
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


def _check_line(check) -> str:
    """The line verify prints for one verify.Check."""
    status = "PASS" if check.passed else "FAIL"
    bound = f"{check.value:.3e} <= {check.threshold:.0e}"
    return f"{check.suite:<10} {check.name:<44} {status}  {bound}"


def _cmd_verify(args) -> int:
    from . import verify

    # checked here, in argparse's words, so that no other subcommand loads verify
    suites = (*verify.SUITES, "all")
    if args.suite not in suites:
        choices = ", ".join(map(repr, suites))
        raise _UsageError(f"argument --suite: invalid choice: {args.suite!r} (choose from {choices})")
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
    p.add_argument("--suite", required=True, help="a suite of lbo.verify, or all")
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


def console() -> int:
    """The process entry of python -m lbo.cli and of the lbo command: freeze
    the import-time heap, so that the run's collections, the final ones at
    exit among them, skip numpy's and lbo's module objects; then main.  main,
    the in-process API, leaves the collector as it finds it."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(console())
