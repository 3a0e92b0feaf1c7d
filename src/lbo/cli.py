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
  document; otherwise each line is parsed alone.  A chunk that passes a few
  tests run over it whole becomes one array, its vector pairs wedged in one
  stacked call; any other chunk is decoded record by record.
- report: one reduce_orbits call, and for stabilizer stacked products of
  STABILIZER_BLOCK records.  Every output record has one of a few shapes,
  each compiled once to a %-template with typed slots: reals are formatted
  by the template, every other value arrives as JSON text rendered once per
  column, and the rows' values are zipped from the columns.
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
import math
import os
import re
import sys

import numpy as np

from .errors import DegenerateOrbitError, InvariantViolationError, NotInLightConeError
from .minkowski import ToleranceConfig, lorentz_inverse
from .orbit import RIGHT_ANGLE, OrbitKind, normal_form_bivector, reconstruct, reduce_orbits
from .rslice import SliceTopology, _on_radius, slice_topology
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
# real that is never null is formatted by the template itself, and every
# other value (ids, messages, enum names, bools and nullable values) arrives
# as its JSON text, rendered once per column.


class _Slot:
    """A skeleton leaf filled per record: format is its conversion in the
    template, cell turns its value into a table cell."""

    __slots__ = ("format", "cell")

    def __init__(self, format: str, cell):
        self.format = format
        self.cell = cell


def _real_cell(x) -> str:
    """A real's table cell: 6 significant digits."""
    return "%.6g" % x


_REAL = _Slot("%.17g", _real_cell)  # a float, never null, fed through _json_reals so never -0.0
_TEXT = _Slot("%s", str)  # JSON text: ids, messages, enum names, bools and nullable ints
# JSON text of a real or null, a real in a table
_REAL_TEXT = _Slot("%s", lambda text: text if text == "null" else _real_cell(float(text)))
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
    """One record shape: its skeleton, the %-template compiled from it and its
    columns (path, leaf)."""

    __slots__ = ("skeleton", "template", "columns")

    def __init__(self, skeleton: dict):
        self.skeleton = skeleton
        self.template = _compile(skeleton)
        self.columns = tuple(_leaves(skeleton))


def dumps(shape: _Shape, values: tuple) -> str:
    """Canonical JSON of one record, without a newline: its shape's template filled with values."""
    return shape.template % values


_ERROR = _Shape({"id": _TEXT, "error": _TEXT})


# --- record parsing -------------------------------------------------------


# The (name, length) fields of a record, by whether it has "c".
_FIELDS = {True: (("c", 6),), False: (("x", 4), ("y", 4))}


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
    fields, entries = _FIELDS[has_c], '"c"' if has_c else "vector"
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


# A byte that is not UTF-8, read with errors="surrogateescape".
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _escaped_byte(text: str):
    """The first byte of text that did not decode as UTF-8, or None; an ASCII
    text, every benchmark corpus's, is cleared by one str.isascii()."""
    if text.isascii():
        return None
    escaped = _ESCAPED_BYTE.search(text)
    return None if escaped is None else ord(escaped[0]) - 0xDC00


def _parse_json(text: str):
    """The JSON document in text, or an _InputError that says why there is none
    (with the parser's exception as its __cause__).  Integers parse as floats,
    so one past the largest double is inf, as 1e400 is, whatever its length."""
    byte = _escaped_byte(text)
    if byte is not None:
        return _InputError(f"line is not UTF-8: byte 0x{byte:02x}")
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
    pays for the failed joined parse.  A chunk with a byte that is not UTF-8
    is parsed line by line, so that the byte's line alone is an error.
    """
    text = "".join(lines)
    if _brackets_close_per_line(text) and _escaped_byte(text) is None:
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


def _clean_chunk(docs: list):
    """(ids, W) of a chunk that decodes without a check per document, or None.

    It does when every document is an object whose id is a string or absent,
    all of them have one layout ("c", or "x" and "y"), every field is a list
    of its length, and every entry is a finite float (every JSON number
    parses to one).  Each test runs over the whole chunk; _decode_record,
    which says why a record is bad, runs only on chunks that fail one.
    """
    if set(map(type, docs)) != {dict}:
        return None
    rids = list(map(dict.get, docs, itertools.repeat("id")))
    id_types = set(map(type, rids))
    if not id_types <= {str, type(None)}:
        return None
    has_c = "c" in docs[0]
    for name in ("x", "y") if has_c else ("c",):
        if any(map(dict.__contains__, docs, itertools.repeat(name))):
            return None
    fields = _FIELDS[has_c]
    columns = [list(map(dict.get, docs, itertools.repeat(name))) for name, _ in fields]
    for column, (_, length) in zip(columns, fields):
        if set(map(type, column)) != {list} or set(map(len, column)) != {length}:
            return None
    flat = itertools.chain.from_iterable
    entries = list(flat(flat(zip(*columns))))
    if set(map(type, entries)) != {float}:
        return None
    rows = np.array(entries, dtype=float).reshape(len(docs), -1)
    if not np.isfinite(rows).all():
        return None
    ids = list(map(_json_string if id_types == {str} else _scalar, rids))
    return ids, rows if has_c else wedge(rows[:, :4], rows[:, 4:])


def _decode_chunk(docs: list):
    """Decode stage: (items, ids, W) for one chunk of parsed documents.  items
    holds an error record per document that does not decode and None where
    the report's next row goes; ids are the JSON texts of the others' ids and
    W is the (n, 6) array of their rows."""
    clean = _clean_chunk(docs)
    if clean is not None:
        return [None] * len(docs), *clean
    items, ids, rows = [], [], []
    for doc in docs:
        rid, row = _decode_record(doc)
        if isinstance(row, _InputError):
            items.append((_ERROR, (_scalar(rid), row)))
        else:
            items.append(None)
            ids.append(_scalar(rid))
            rows.append(row)
    return items, ids, _bivectors(rows)


# --- chunk reports ----------------------------------------------------------
#
# Each report takes the ids (as JSON text) and the (n, 6) array of one chunk
# of decoded records, reduces them with one reduce_orbits call and returns,
# in order, one (shape, values) record per row.  Each column becomes a list
# once, reals through _json_reals and every other value as its JSON text, and
# the rows' values are zipped from the columns; a row off the cone, or one
# that fails, then takes its own record, a failure (_ERROR, (id, exception)).

_CLASSIFY_OFF = _Shape(
    {"id": _TEXT, "in_light_cone": False, "A": _REAL, "B": _REAL, "pfaffian": _REAL,
     "canonical": None, "class": None, "reason": _TEXT}
)
_CLASSIFY_ON, _CLASSIFY_ON_SLICE = (
    _Shape(
        {"id": _TEXT, "in_light_cone": True, "A": _REAL, "B": _REAL, "pfaffian": _REAL,
         "canonical": {"r": _REAL, "phi": _REAL},
         "class": {"kind": _TEXT, "r0": _REAL, "epsilon": _TEXT},
         **slice_block,
         "diagnostics": {"reconstruction_residual": _REAL, "representative_residual": _REAL_TEXT}}
    )
    for slice_block in ({}, {"slice": {"r_queried": _REAL, "topology": _TEXT, "boundary": _TEXT}})
)

_CANONICAL_OFF = _Shape(
    {"id": _TEXT, "in_light_cone": False, "r": None, "phi": None, "basis": None,
     "representative": None, "witness": None, "reason": _TEXT}
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

_SLICE_OFF = _Shape(
    {"id": _TEXT, "in_light_cone": False, "r_queried": _REAL, "class": None, "topology": None,
     "in_slice": False, "reason": _TEXT}
)
_SLICE_ON = _Shape(
    {"id": _TEXT, "in_light_cone": True, "r_queried": _REAL,
     "class": {"kind": _TEXT, "r0": _REAL, "epsilon": _TEXT},
     "topology": _TEXT, "boundary": _TEXT, "in_slice": _TEXT}
)

_STABILIZER_OFF = _Shape(
    {"id": _TEXT, "in_light_cone": False, "kind": None, "families": None, "reason": _TEXT}
)


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


# The _TEXT values of an orbit kind, and of a slice topology with its boundary
# flag ((None, None) off the cone).
_KIND_TEXT = {
    kind: _json_string(kind)
    for kind in (OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE)
}
_TOPOLOGY_TEXT = {
    None: (None, None),
    **{t: (_json_string(t.value), _BOOL_TEXT[t is SliceTopology.SPHERE_2]) for t in SliceTopology},
}
# The _TEXT value of a class's epsilon, indexed by it: null for degenerate rows.
_EPSILON_TEXT = ("null", "1", "-1")


def _right_angle(rid):
    return _ERROR, (rid, _InputError(f"neutral bivector: {RIGHT_ANGLE}"))


def _class_columns(b) -> list:
    """The kind, r0 and epsilon columns of each row's class (kind None off the cone)."""
    kinds = list(map(_KIND_TEXT.get, b.kind))
    return [kinds, _json_reals(b.r0), list(map(_EPSILON_TEXT.__getitem__, b.epsilon.tolist()))]


def _topology_columns(b, r: float, tol: ToleranceConfig) -> list:
    """The topology and boundary columns of each row's radius-r slice (None off the cone)."""
    return list(zip(*map(_TOPOLOGY_TEXT.__getitem__, slice_topology(b, r, tol))))


def _records(shape: _Shape, columns: list) -> list:
    """One (shape, values) record per row, its values zipped from the columns."""
    return list(zip(itertools.repeat(shape), zip(*columns)))


def _classify_chunk(ids, W, tol: ToleranceConfig, r_query):
    b = reduce_orbits(W, tol)
    on, ok = b.on_cone, b.witnessed
    recon, rep_residual, witness_max = np.zeros(len(W)), np.zeros(len(W)), np.zeros(len(W))
    recon[on] = _row_norms(reconstruct(b)[on] - W[on]) / _row_norms(W[on])
    expected = normal_form_bivector(b.r0[ok], b.epsilon[ok])
    rep_residual[ok] = _row_norms(b.reduced[ok] - expected) / np.maximum(b.r0[ok], 1.0)
    witness_max[ok] = np.abs(b.witness[ok]).max(axis=(1, 2))
    right_angle = (b.epsilon != 0) & ~ok
    # the bound grows with the witness's conditioning
    off_form = ok & (rep_residual > _BUG_CEILING * np.maximum(1.0, witness_max * witness_max))
    no_reconstruction = recon > _BUG_CEILING
    A, B, pf, r, phi, recon, rep_residual = map(
        _json_reals, (b.spatial, b.temporal, b.pfaffian, b.r, b.phi, recon, rep_residual)
    )
    rep = ["%.17g" % x if w else "null" for x, w in zip(rep_residual, ok.tolist())]
    columns = [ids, A, B, pf, r, phi, *_class_columns(b)]
    if r_query is not None:
        columns += [itertools.repeat(r_query), *_topology_columns(b, r_query, tol)]
    shape = _CLASSIFY_ON if r_query is None else _CLASSIFY_ON_SLICE
    records = _records(shape, [*columns, recon, rep])
    for i in np.flatnonzero(~on | right_angle | off_form | no_reconstruction).tolist():
        if not on[i]:
            records[i] = _CLASSIFY_OFF, (ids[i], A[i], B[i], pf[i], _json_string(b.reason[i]))
        elif right_angle[i]:
            records[i] = _right_angle(ids[i])
        else:
            message = (
                f"reduced element off its normal form (residual {rep_residual[i]:.3e})"
                if off_form[i]
                else f"canonical form fails to reconstruct (residual {recon[i]:.3e})"
            )
            records[i] = _ERROR, (ids[i], InvariantViolationError(message))
    return records


def _canonical_chunk(ids, W, tol: ToleranceConfig):
    b = reduce_orbits(W, tol)
    frame = _json_reals(np.column_stack([b.r, b.phi, b.basis.reshape(-1, 16)]))
    element = _json_reals(np.column_stack([b.reduced, b.witness.reshape(-1, 16)]))
    records = [(_CANONICAL_NEUTRAL, (rid, *f, *e)) for rid, f, e in zip(ids, frame, element)]
    for i in np.flatnonzero(~b.witnessed).tolist():
        if not b.on_cone[i]:
            records[i] = _CANONICAL_OFF, (ids[i], _json_string(b.reason[i]))
        elif b.epsilon[i]:
            records[i] = _right_angle(ids[i])
        else:
            records[i] = _CANONICAL_DEGENERATE, (ids[i], *frame[i])
    return records


def _slice_chunk(ids, W, tol: ToleranceConfig, r: float):
    b = reduce_orbits(W, tol, frames=False)
    member = map(_BOOL_TEXT.__getitem__, _on_radius(b.spatial, r, tol).tolist())
    columns = [ids, itertools.repeat(r), *_class_columns(b), *_topology_columns(b, r, tol), member]
    records = _records(_SLICE_ON, columns)
    for i in np.flatnonzero(~b.on_cone).tolist():
        records[i] = _SLICE_OFF, (ids[i], r, _json_string(b.reason[i]))
    return records


def _conjugated_residuals(kind: str, conj, conj_inv, W) -> np.ndarray:
    """fixing_residual(conj[i] @ stack @ conj_inv[i], W[i]) for each row i, with
    the generator stack of kind, STABILIZER_BLOCK rows per stacked product."""
    from .stabilizer import fixing_residual, generator_stack

    stack = generator_stack(kind)[0]
    residuals = np.empty((len(W), len(stack)))
    for start in range(0, len(W), STABILIZER_BLOCK):
        rows = slice(start, start + STABILIZER_BLOCK)
        conjugated = conj[rows, None] @ stack @ conj_inv[rows, None]
        residuals[rows] = fixing_residual(conjugated, W[rows])
    return residuals


def _stabilizer_chunk(ids, W, tol: ToleranceConfig):
    b = reduce_orbits(W, tol)
    # degenerate rows conjugate the base-point stabilizer through the adapted
    # basis, witnessed neutral rows through the inverse of the witness
    degenerate = np.flatnonzero(b.on_cone & (b.epsilon == 0))
    neutral = np.flatnonzero(b.witnessed)
    basis, witness = b.basis[degenerate], b.witness[neutral]
    records = [None] * len(W)
    for rows, kind, conj, conj_inv in (
        (degenerate, OrbitKind.DEGENERATE, basis, lorentz_inverse(basis)),
        (neutral, OrbitKind.NEUTRAL_PLUS, lorentz_inverse(witness), witness),
    ):
        residuals = _json_reals(_conjugated_residuals(kind, conj, conj_inv, W[rows]))
        for i, res in zip(rows.tolist(), residuals):
            records[i] = _stabilizer_on(b.kind[i]), (ids[i], *res, max(0.0, *res))
    for i in np.flatnonzero(~b.on_cone | (b.epsilon != 0) & ~b.witnessed).tolist():
        if b.on_cone[i]:
            records[i] = _right_angle(ids[i])
        else:
            records[i] = _STABILIZER_OFF, (ids[i], _json_string(b.reason[i]))
    return records


def _report_chunk(items: list, rows: list) -> tuple:
    """Report stage: (records, exit code) of one chunk, the report's rows in
    place of items' Nones and each failure an error record with its message.
    An invariant violation is also printed to stderr."""
    if any(items):
        rows = iter(rows)
        rows = [next(rows) if item is None else item for item in items]
    code = 0
    for i, (shape, values) in enumerate(rows):
        if shape is _ERROR:
            rid, exc = values
            if isinstance(exc, InvariantViolationError):
                code = 4
                message = f"invariant violation: {exc}"
                print(message, file=sys.stderr)
            else:
                code = max(code, 2)
                message = str(exc)
            rows[i] = _ERROR, (rid, _json_string(message))
    return rows, code


# --- output formatting ----------------------------------------------------
#
# Each format renders records as one string: ndjson per chunk, json and
# table once for the whole batch.


def _ndjson(records) -> str:
    return "".join([dumps(shape, values) + "\n" for shape, values in records])


def _json_array(records) -> str:
    return "[" + ",".join([dumps(shape, values) for shape, values in records]) + "]\n"


def _row(shape: _Shape, values: tuple) -> dict:
    """A record's table cells by column: a slot's value through its cell
    conversion, and a fixed leaf as its JSON text but a real with 6
    significant digits (never -0: reals come through _json_reals)."""
    values = iter(values)
    row = {}
    for path, leaf in shape.columns:
        if type(leaf) is _Slot:
            row[path] = leaf.cell(next(values))
        else:
            row[path] = _real_cell(leaf) if type(leaf) is float else _scalar(leaf)
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
    """The input stream.  A byte that is not UTF-8 reads as a lone surrogate
    (surrogateescape), which _parse_json turns into its line's error."""
    if args.infile and args.infile != "-":
        try:
            return open(args.infile, "r", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise _InputError(f"cannot read --in {args.infile}: {exc.strerror}") from exc
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(errors="surrogateescape")
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
            items, ids, W = _decode_chunk(chunk)
            records, chunk_code = _report_chunk(items, report(ids, W, tol) if ids else [])
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
