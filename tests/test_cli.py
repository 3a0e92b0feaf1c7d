import contextlib
import errno
import io
import itertools
import json
import os
import re
import subprocess
import sys

import faults
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rotated_normal_forms
from pins import COMMANDS, GOLDEN, PINS


def run_cli(args, stdin=b"", env_extra=None, entry=("-m", "lbo.cli")):
    env = os.environ.copy()
    env.pop("LBO_FORMAT", None)
    env.pop("LBO_R", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *entry, *args],
        input=stdin,
        capture_output=True,
        env=env,
    )


def batch_lines(count=24, seed=7):
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(count):
        if k % 3 == 0:
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            b *= np.linalg.norm(a) / np.linalg.norm(b)
            c = [a[2], -a[1], b[0], a[0], b[1], b[2]]
            lines.append(json.dumps({"id": f"r{k}", "c": [float(v) for v in c]}))
        elif k % 3 == 1:
            x = [float(v) for v in rng.normal(size=4)]
            y = [float(v) for v in rng.normal(size=4)]
            lines.append(json.dumps({"id": f"v{k}", "x": x, "y": y}))
        else:
            lines.append(json.dumps({"id": f"g{k}", "c": [float(v) for v in rng.normal(size=6)]}))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("command", ["classify", "canonical", "stabilizer"])
def test_right_angle_neutral_is_an_input_error(command):
    # with --tol 1e-300 this record is neutral and its angle rounds to pi/2
    good_a = b'{"id":"a","c":[1,0,0,0,0,1]}\n'
    right = b'{"id":"pi2","c":[1,0,1,0,0,1e-20]}\n'
    good_b = b'{"id":"b","c":[2,-2,3,1,0,0]}\n'
    args = [command, "--tol", "1e-300"]
    p = run_cli(args, good_a + right + good_b)
    assert p.returncode == 2
    assert b"Traceback" not in p.stderr
    lines = p.stdout.splitlines(keepends=True)
    assert len(lines) == 3
    bad = json.loads(lines[1])
    assert list(bad) == ["id", "error"] and bad["id"] == "pi2"
    assert "right angle" in bad["error"] and "rapidity" in bad["error"]
    assert lines[0] == run_cli(args, good_a).stdout
    assert lines[2] == run_cli(args, good_b).stdout


def _chunk_test_lines(count):
    """Records of every kind: neutral, degenerate, off-cone, zero, parallel, pairs, bad ones."""
    rng = np.random.default_rng(11)
    lines = []
    for k in range(count):
        rid = f"k{k}"
        a, b = rng.normal(size=3), rng.normal(size=3)
        kind = k % 11
        if kind == 1:
            b = np.cross(a, b)
        elif kind == 4:
            b = -a if k % 2 else a
        if kind in (0, 1, 4):
            b *= np.linalg.norm(a) / np.linalg.norm(b)
            c = [a[2], -a[1], b[0], a[0], b[1], b[2]]
            rec = {"id": rid, "c": [float(v) * 10.0 ** (k % 5 - 2) for v in c]}
        elif kind == 2:
            rec = {"id": rid, "c": [float(v) for v in rng.normal(size=6)]}
        elif kind == 3:
            rec = {"id": rid, "c": [0, 0, 0, 0, 0, 0]}
        elif kind == 5:
            rec = {"id": rid, "c": [0, 0, 1.5, 1.5, 0, 0]}  # axial and polar along one axis
        elif kind == 6:
            rec = {"id": rid, "x": [float(v) for v in rng.normal(size=4)], "y": [1, 0, 0, 0]}
        elif kind == 7:
            u = rng.normal(size=3)
            x = [*map(float, u), float(np.linalg.norm(u))]
            rec = {"id": rid, "x": x, "y": [*map(float, np.cross(u, rng.normal(size=3))), 0.0]}
        elif kind == 8:
            rec = {"id": rid, "c": [1, 2]}
        elif kind == 9:
            rec = {"id": rid, "c": [1, 0, 0, 0, 0, "x" if k % 2 else 10**400]}
        else:  # a violation where faults.broken is in place, but not in slice
            rec = {"id": rid, "c": [faults.BUG_ENTRY, 0, 0, 0, 0, faults.BUG_ENTRY]}
        lines.append(json.dumps(rec))
    lines[count // 2] = "{not json"
    lines[count // 3] = "[" * 100000 + "]" * 100000  # nested past the recursion limit
    return [line + "\n" for line in lines]


def _main_in_process(args, text):
    import lbo.cli as cli

    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


CHUNK_ARGS = [["classify", "--r", "1"], ["canonical"], ["slice", "--r", "1"], ["stabilizer"]]


def _chunk_sizes(count) -> list:
    """The chunk sizes of a count-record batch: CHUNK, then each chunk twice
    the one before, up to CHUNK_CAP; the last holds what is left."""
    import lbo.cli as cli

    sizes, size = [], cli.CHUNK
    while count > 0:
        sizes.append(min(size, count))
        count -= size
        size = min(2 * size, cli.CHUNK_CAP)
    return sizes


# Small chunks for the chunk-boundary tests: 4, 8, 16, 16, ... records.  A
# 57-record batch crosses the first boundary (4), the end of a grown chunk
# (12), of the first chunk at the cap (28) and of a chunk held at it (44).
SMALL_CHUNK, SMALL_CAP, BOUNDARY_COUNT = 4, 16, 57
# A bad JSON line, an off-cone row and an invariant violation (exit 4 with
# faults.broken in place; slice answers that row from its invariants)
EDGE_ROWS = ["{not json\n", '{"id":"off","c":[0.5,-0.25,0.75,0.125,0.6,0.3]}\n', faults.BUG_LINE]


def _boundary_test_lines(monkeypatch) -> list:
    """_chunk_test_lines at the small schedule, with EDGE_ROWS on either side
    of each chunk boundary, and faults.broken in place."""
    import lbo.cli as cli

    monkeypatch.setattr(cli, "reduce_orbits", faults.broken(cli.reduce_orbits))
    monkeypatch.setattr(cli, "CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(cli, "CHUNK_CAP", SMALL_CAP)
    sizes = _chunk_sizes(BOUNDARY_COUNT)
    assert sizes == [4, 8, 16, 16, 13]
    lines = _chunk_test_lines(BOUNDARY_COUNT)
    for boundary in itertools.accumulate(sizes[:-1]):
        lines[boundary - 3 : boundary + 3] = [*EDGE_ROWS, *reversed(EDGE_ROWS)]
    return lines


@pytest.mark.parametrize("args", CHUNK_ARGS)
def test_output_does_not_depend_on_the_chunk(args, monkeypatch):
    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    lines = _boundary_test_lines(monkeypatch)
    code, batch = _main_in_process(args, "".join(lines))
    # each record alone, bad JSON lines included
    codes, parts = [], []
    for line in lines:
        one_code, one = _main_in_process(args, line)
        codes.append(one_code)
        parts.append(one)
    assert code == max(codes) == (2 if args[0] == "slice" else 4)
    assert batch == "".join(parts)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("args", CHUNK_ARGS)
def test_formatted_output_does_not_depend_on_the_chunk(args, fmt, monkeypatch):
    import lbo.cli as cli

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    args = [*args, "--format", fmt]
    text = "".join(_boundary_test_lines(monkeypatch))
    code, batch = _main_in_process(args, text)
    assert code == (2 if args[0] == "slice" else 4)
    # one record per chunk
    monkeypatch.setattr(cli, "CHUNK", 1)
    monkeypatch.setattr(cli, "CHUNK_CAP", 1)
    assert _main_in_process(args, text) == (code, batch)


def test_stacked_stabilizer_residuals_are_bit_identical():
    import lbo.cli as cli
    from lbo.minkowski import ToleranceConfig, lorentz_inverse
    from lbo.orbit import OrbitKind, reduce_orbits
    from lbo.stabilizer import fixing_residual, generator_stack, stabilizer_residuals

    # neutral of both signs, degenerate and off-cone rows over six decades
    rng = np.random.default_rng(3)
    rows = []
    for k in range(39):
        a, b = rng.normal(size=3), rng.normal(size=3)
        if k % 4 == 1:
            b = np.cross(a, b)
        if k % 4 != 3:
            b *= np.linalg.norm(a) / np.linalg.norm(b)
        rows.append(np.array([a[2], -a[1], b[0], a[0], b[1], b[2]]) * 10.0 ** (k % 7 - 3))
    W = np.array(rows)
    tol = ToleranceConfig(eps=1e-9)
    batch = reduce_orbits(W, tol)
    records, _ = cli._settled(
        *cli._stabilizer_chunk([f"r{i}" for i in range(len(W))], W, tol), []
    )
    off_cone = cli._off_cone(cli._stabilizer_on(OrbitKind.DEGENERATE))[0]
    seen = set()
    for i, (shape, values) in enumerate(records):
        kind = batch.kind[i]
        seen.add(kind)
        if kind is None:
            assert shape is off_cone
            continue
        alone = W[i : i + 1]  # the row's one-row call
        (one,) = [res[0] for rows, res in stabilizer_residuals(reduce_orbits(alone, tol), alone)
                  if len(rows)]
        assert values[0] == f"r{i}"
        assert np.array_equal(values[1:-1], one)
        assert values[-1] == max(0.0, *one)
        # the stabilizer conjugated to the row: the same residual, associated otherwise
        if kind == OrbitKind.DEGENERATE:
            conj, conj_inv, m = batch.basis[i], lorentz_inverse(batch.basis[i]), 1.0
        else:
            conj, conj_inv = lorentz_inverse(batch.witness[i]), batch.witness[i]
            m = np.abs(batch.witness[i]).max()
        conjugated = fixing_residual(conj @ generator_stack(kind)[0] @ conj_inv, W[i])
        assert np.all(np.abs(one - conjugated) <= 64 * 2.0**-53 * max(1.0, m) ** 4)
    assert seen == {None, OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE}


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text):
    """The document in text, which must be strict JSON: no NaN or Infinity."""
    return json.loads(text, parse_constant=_no_constant)


@pytest.mark.parametrize(
    "output", sorted({pin.out for pin in PINS if pin.out and pin.out.endswith((".json", ".ndjson"))})
)
def test_golden_outputs_are_strict_json(output):
    text = (GOLDEN / output).read_text(encoding="utf-8")
    for doc in text.splitlines() if output.endswith(".ndjson") else [text]:
        _strict_json(doc)


@pytest.mark.parametrize("command", ["classify", "canonical", "slice", "stabilizer", "verify"])
def test_closed_pipe_ends_quietly(command, tmp_path):
    # a batch writes more than a pipe holds, so it is still writing when the reader
    # leaves after one line; verify writes its few lines at the end, after the reader left
    path = tmp_path / "records.ndjson"
    path.write_bytes(batch_lines(3000))
    args = ["--suite", "all", "--samples", "50"] if command == "verify" else ["--in", str(path)]
    if command == "slice":
        args += ["--r", "1.0"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("LBO_")}
    p = subprocess.Popen(
        [sys.executable, "-m", "lbo.cli", command, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if command != "verify":
        assert json.loads(p.stdout.readline())["id"] == "r0"
    p.stdout.close()
    stderr = p.stderr.read()
    p.stderr.close()
    code = p.wait()
    assert code in ((0,) if command == "verify" else (0, 2, 4))
    assert b"Traceback" not in stderr and b"Exception ignored" not in stderr


def test_vector_pair_input_matches_coefficients():
    by_c = run_cli(["classify"], b'{"c":[0,0,0,1,1,0]}\n')
    by_xy = run_cli(["classify"], b'{"x":[1,0,0,1],"y":[0,0,1,0]}\n')
    assert by_c.returncode == by_xy.returncode == 0
    # same bivector either way: e1^e3 has c13 = 1... use identical geometry
    rec_c = json.loads(by_c.stdout)
    rec_xy = json.loads(by_xy.stdout)
    assert rec_c["class"] == rec_xy["class"]
    assert rec_c["A"] == rec_xy["A"]


def test_classify_with_radius_adds_slice_block():
    p = run_cli(["classify", "--r", "2.0"], b'{"c":[1,0,0,0,0,1]}\n')
    rec = json.loads(p.stdout)
    assert rec["slice"] == {"r_queried": 2.0, "topology": "RP3", "boundary": False}
    p = run_cli(["classify", "--r", "1.0"], b'{"c":[1,0,0,0,0,1]}\n')
    rec = json.loads(p.stdout)
    assert rec["slice"]["topology"] == "Sphere2"
    assert rec["slice"]["boundary"] is True


def test_canonical_degenerate_note():
    p = run_cli(["canonical"], b'{"id":"d","c":[0,0,0,1,0,1]}\n')
    assert p.returncode == 0
    rec = json.loads(p.stdout)
    assert rec["representative"] is None
    assert rec["witness"] is None
    assert "degenerate" in rec["note"]
    assert abs(rec["phi"] - np.pi / 2) < 1e-12


def test_canonical_neutral_reports_witness():
    p = run_cli(["canonical"], b'{"c":[1,0,0.6,0,0,0.8]}\n')
    rec = json.loads(p.stdout)
    assert len(rec["basis"]) == 16
    assert len(rec["witness"]) == 16
    assert len(rec["representative"]) == 6
    r0 = np.sqrt(0.8)
    np.testing.assert_allclose(
        rec["representative"], [r0, 0, 0, 0, 0, r0], atol=1e-12
    )


@pytest.mark.parametrize("args, env", [(["slice", "--r", "1e200"], None), (["slice"], {"LBO_R": "1e200"})])
def test_no_row_lies_on_a_radius_whose_square_overflows(args, env):
    p = run_cli(args, b'{"c":[1,0,0,0,0,1]}\n{"c":[1e150,0,0,0,0,1e150]}\n', env_extra=env)
    assert (p.returncode, p.stderr) == (0, b"")
    assert [json.loads(line)["in_slice"] for line in p.stdout.splitlines()] == [False, False]


def test_slice_command_and_exit_codes():
    p = run_cli(["slice", "--r", "2.0"], b'{"c":[1,0,0,0,0,1]}\n')
    assert p.returncode == 0
    rec = json.loads(p.stdout)
    assert rec["topology"] == "RP3"
    assert rec["in_slice"] is False
    p = run_cli(["slice", "--r", "-1.0"], b'{"c":[1,0,0,0,0,1]}\n')
    assert p.returncode == 2
    p = run_cli(["slice"], b'{"c":[1,0,0,0,0,1]}\n')
    assert p.returncode == 3


def test_stabilizer_command_residuals():
    p = run_cli(["stabilizer"], b'{"c":[1,0,0.6,0,0,0.8]}\n{"c":[0,0,0,1,0,1]}\n')
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    neutral = json.loads(lines[0])
    degen = json.loads(lines[1])
    assert neutral["kind"] == "NeutralPlus"
    assert degen["kind"] == "Degenerate"
    assert neutral["max_residual"] <= 1e-8
    assert degen["max_residual"] <= 1e-8
    fams = {f["family"] for f in neutral["families"]}
    assert fams == {"rotation12", "boost34", "reflected_boost34"}
    fams = {f["family"] for f in degen["families"]}
    assert fams == {"null_rotation_a", "null_rotation_b"}


def test_malformed_records_exit_2_but_keep_going():
    stdin = b'{"id":"ok","c":[1,0,0,0,0,1]}\n{"id":"bad","c":[1,2]}\nnot json\n'
    p = run_cli(["classify"], stdin)
    assert p.returncode == 2
    lines = p.stdout.splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["in_light_cone"] is True
    assert "error" in json.loads(lines[1])
    assert "error" in json.loads(lines[2])


def test_bad_json_first_line_is_one_error_record():
    good = b'{"id":"a","c":[1,0,0,0,0,1]}\n'
    p = run_cli(["classify"], b"\n{not json\n" + good)
    assert p.returncode == 2
    first, rest = p.stdout.split(b"\n", 1)
    assert rest == run_cli(["classify"], good).stdout
    # the same error record as the same line after a valid one
    later = run_cli(["classify"], good + b"{not json\n")
    assert later.returncode == 2
    assert later.stdout.splitlines()[1] == first
    assert json.loads(first) == {
        "id": None,
        "error": "bad JSON line: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    }


def test_an_integer_past_the_digit_limit_is_one_error_record():
    # integers parse as floats, so one of any length past the largest double
    # reads as inf, like 1e400, and not as the int() digit limit (4300 digits
    # where the Python has it) or a failed int-to-float conversion: its row's
    # split norms are not finite
    good = '{"id":"a","c":[1,0,0,0,0,1]}\n'
    for digits in (400, 4000, 5000):
        huge = "1" * digits
        for line, error in (
            ('{"id":"huge","c":[%s,0,0,0,0,1]}\n' % huge, OVERFLOW_TEXT),
            ('{"id":"huge","x":[1,0,0,%s],"y":[0,1,0,0]}\n' % huge, OVERFLOW_TEXT),
        ):
            for before in (0, 3):  # the first line, parsed alone, and a line inside a chunk
                code, out = _main_in_process(["slice", "--r", "1"], good * before + line + good * 3)
                assert code == 2
                records = [json.loads(text) for text in out.splitlines()]
                assert len(records) == before + 4
                assert records[before] == {"id": "huge", "error": error}
                assert all(rec["in_light_cone"] for rec in records[:before] + records[before + 1 :])


class _UnreadableStream(io.StringIO):
    """A stream that may be iterated line by line but not read whole."""

    def read(self, *args):
        raise AssertionError("the whole input was read")


def test_bad_first_line_keeps_the_input_streaming():
    import lbo.cli as cli

    good = '{"id":"a","c":[1,0,0,0,0,1]}\n'
    for first in ("{not json\n", '{"id": "a"} x\n', "[" * 100000 + "]" * 100000 + "\n"):
        docs = cli._iter_docs(_UnreadableStream(first + good + good))
        error = next(docs)
        assert isinstance(error, cli._InputError)
        assert str(error).startswith("bad JSON line: ")
        assert list(docs) == [json.loads(good)] * 2
    # a first line that stops short of its document still reads the whole input
    pretty = '{\n  "id": "solo",\n  "c": [1, 0, 0, 0, 0, 1]\n}\n'
    array = '[\n  {"id": "A", "c": [1, 0, 0, 0, 0, 1]},\n  {"id": "B", "c": [0, 1, 0, 0, 1, 0]}\n]\n'
    for text in (pretty, array):
        assert list(cli._iter_docs(io.StringIO(text))) == [json.loads(text)]
        with pytest.raises(AssertionError, match="the whole input was read"):
            list(cli._iter_docs(_UnreadableStream(text)))



def _parsed_alone(lines):
    """What json.loads gives each line: a document or the text of its refusal."""
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line, parse_int=float))
        except (ValueError, RecursionError) as exc:
            parsed.append("bad JSON line: " + str(exc))
    return parsed


def _parsed_together(lines):
    """What the CLI's parser gives each line: a document or an error's text."""
    import lbo.cli as cli

    return [
        str(doc) if isinstance(doc, cli._InputError) else doc
        for doc in map(cli._parse_json, lines)
    ]


@pytest.mark.parametrize(
    "lines",
    [
        # brackets that close on another line
        ['{"a":1}, [{}\n', "{}], {}\n", '{"d":[{}\n', "{}]}\n"],
        # the same with brackets inside strings evening out each line's count
        ['[{}, "]"\n', '"[", {}]\n', "{}, {}\n"],
        # a string's quote escaped, and a line without its line feed
        ['{"id":"a\\"]"}\n', '{"id":"[\\\\"}'],
        ["1,[2\n", "3]\n"],
        # bad lines among good ones, and a trailing comma on the last line
        ["1\n", "1,\n", "2\n", '{"a" 1}\n', "[3]\n", "4,\n"],
        # a line of two documents, and brackets nested deep
        ["1,2\n", "3\n"],
        ["[" * 20 + "]" * 20 + "\n", "[" * 2000 + "]" * 1999 + "\n"],
    ],
)
def test_chunk_parse_matches_each_line_alone(lines):
    assert _parsed_together(lines) == _parsed_alone(lines)


def test_only_json_white_space_may_follow_a_document():
    # white space that str.strip drops but JSON does not, a BOM, and leading space
    lines = ["1\x0b\n", "{}\x0c\n", "[]\xa0\n", "2\u2028\n", "3 \t\r\n", "\ufeff4\n", " 5\n"]
    assert _parsed_together(lines) == _parsed_alone(lines)


# What json.loads says of a line that holds no JSON value.
NO_VALUE = b'{"id":null,"error":"bad JSON line: Expecting value: line 1 column 1 (char 0)"}\n'


def test_a_line_of_white_space_json_does_not_allow_is_a_bad_line():
    # a form feed, a no-break space or U+2028 alone on a line is no JSON
    # document: a bad line, as it is after a document; JSON's own white
    # space alone makes a blank line, which is skipped
    good = '{"id":"a","c":[1,0,0,0,0,1]}\n'
    answer = run_cli(["slice", "--r", "1.0"], good.encode()).stdout
    p = run_cli(["slice", "--r", "1.0"], b"\x0c\n" + good.encode() + b"\xc2\xa0\n \t\r\n\n")
    assert (p.returncode, p.stderr) == (2, b"")
    assert p.stdout == NO_VALUE + answer + NO_VALUE
    for space in ("\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000", " \x0c\t"):
        with pytest.raises(json.JSONDecodeError) as refusal:
            json.loads(space)
        error = b'{"id":null,"error":"bad JSON line: %s"}\n' % str(refusal.value).encode()
        for lines in ([space + "\n", good], [good, space + "\n"]):
            code, out = _main_in_process(["slice", "--r", "1", "--format", "ndjson"], "".join(lines))
            assert code == 2
            assert out.encode() == b"".join(answer if line == good else error for line in lines)
    # a first line that ends before its document does, and then such white
    # space: that line is not the start of a whole document either
    code, out = _main_in_process(["slice", "--r", "1.0", "--format", "ndjson"], '{"id":"a",\x0c\n')
    assert code == 2 and out.count("\n") == 1 and "bad JSON line" in out


_FRAGMENTS = st.sampled_from(
    ["{", "}", "[", "]", ",", ":", " ", "1", "null", '"a"', '"]"', '"{"', '"\\""', '"\\\\"',
     '{"id":"x","c":[1,2]}', "[1,[2]]"]
)


_FRAGMENT_LINES = st.lists(
    st.lists(_FRAGMENTS, min_size=1, max_size=6).map("".join), min_size=1, max_size=6
)


@settings(max_examples=300, deadline=None)
@given(_FRAGMENT_LINES)
def test_chunk_parse_matches_each_line_alone_on_fragments(texts):
    lines = [text + "\n" for text in texts]
    assert _parsed_together(lines) == _parsed_alone(lines)


@settings(max_examples=300, deadline=None)
@given(_FRAGMENT_LINES)
def test_pure_python_scanner_parses_each_line_alone_on_fragments(texts):
    # the scanner of interpreters built without the _json accelerator
    import lbo.cli as cli

    lines = [text + "\n" for text in texts]
    scanner = json.scanner.py_make_scanner(json.JSONDecoder(parse_int=float))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_scan", scanner)
        assert _parsed_together(lines) == _parsed_alone(lines)


def _counting_loads(monkeypatch) -> list:
    """Count the CLI's json.loads calls: the list of the texts passed to it."""
    import lbo.cli as cli

    parsed = []
    loads = json.loads
    monkeypatch.setattr(
        cli.json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw)
    )
    return parsed


def test_records_parse_in_one_pass(monkeypatch):
    import lbo.cli as cli

    lines = batch_lines(cli.CHUNK).decode().splitlines(keepends=True)
    expected = [json.loads(line) for line in lines]
    monkeypatch.setattr(cli.json, "loads", None)  # no clean line reaches json.loads
    assert list(map(cli._parse_json, lines)) == expected


def test_escaped_lines_parse_without_json_loads(monkeypatch):
    import lbo.cli as cli

    lines = [json.dumps({"id": f"r{k}\u00e9", "c": [1, 0, 0, 0, 0, 1]}) + "\n" for k in range(9)]
    expected = [json.loads(line) for line in lines]
    parsed = _counting_loads(monkeypatch)
    assert list(map(cli._parse_json, lines)) == expected
    assert parsed == []


def test_only_bad_lines_reach_json_loads(monkeypatch):
    # a chunk of escaped ids with three bad lines: one json.loads call each
    import lbo.cli as cli

    lines = [json.dumps({"id": f"r{k}\u00e9", "c": [1, 0, 0, 0, 0, 1]}) + "\n" for k in range(128)]
    bad = {5: '{"id":"bad" "x":[1,0,0,1]}\n', 64: "{not json\n", 127: "[1,\n"}
    for at, line in bad.items():
        lines[at] = line
    parsed = _counting_loads(monkeypatch)
    docs = list(cli._iter_docs(io.StringIO("".join(lines))))
    assert len(docs) == 128
    assert [i for i, doc in enumerate(docs) if isinstance(doc, cli._InputError)] == sorted(bad)
    assert parsed == list(bad.values())


# The record-by-record decode that the one-pass chunk decode replaced, kept as
# the reference that test_chunk_decode_matches_each_record_alone checks it
# against: it shares no code with lbo.cli's decode.
_REFERENCE_FIELDS = {True: (("c", 6),), False: (("x", 4), ("y", 4))}


def _reference_decode_record(obj) -> tuple:
    """(id, row) for one parsed document, where row holds the six coefficients
    or the entries of x then y, each a float as the JSON parser made it, or
    (id, message) for a document that does not decode; id is None unless it
    is a string."""
    import lbo.cli as cli

    if isinstance(obj, cli._InputError):  # a line that did not parse
        return None, str(obj)
    if not isinstance(obj, dict):
        return None, "record must be a JSON object"
    rid = obj.get("id")
    if rid is not None and not isinstance(rid, str):
        return None, "id must be a string"
    has_c = "c" in obj
    if has_c == ("x" in obj or "y" in obj):
        return rid, 'record needs exactly one of "c" or "x"/"y"'
    fields, entries = _REFERENCE_FIELDS[has_c], '"c"' if has_c else "vector"
    for name, length in fields:
        v = obj.get(name)
        if not (isinstance(v, list) and len(v) == length):
            return rid, f'"{name}" must be a list of {length} numbers'
    row = [v for name, _ in fields for v in obj[name]]
    if not all(type(v) is float for v in row):
        return rid, f"{entries} entries must be numbers"
    return rid, row


def _decoded_record_by_record(docs):
    """What _decode_chunk must give for docs, from the reference on each alone:
    every document's id text, its bivector wedged one row at a time or a zero
    row if it is bad, and (row, message) per bad document."""
    import lbo.cli as cli

    ids, rows, refused = [], [], []
    for i, doc in enumerate(docs):
        rid, row = _reference_decode_record(doc)
        ids.append(cli._scalar(rid))
        if isinstance(row, str):
            refused.append((i, row))
            rows.append(np.zeros(6))
            continue
        rows.append(row if len(row) == 6 else cli.wedge(np.array(row[:4]), np.array(row[4:])))
    return ids, np.array(rows, dtype=float).reshape(-1, 6), refused


def _decoded_by_chunk(docs):
    import lbo.cli as cli

    ids, W, refused = cli._decode_chunk(docs)
    assert len(ids) == len(W) == len(docs)
    return ids, W, refused


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a value of each JSON type
_JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.none(), max_size=1), st.dictionaries(st.text(max_size=1), st.none(), max_size=1),
)
_ENTRY = st.one_of(
    _FINITE, st.floats(), st.booleans(), st.none(), st.sampled_from(["1", "x", ""]),
    st.lists(_FINITE, max_size=2),
)
_LAYOUTS = [("c",), ("x", "y"), ("c", "x"), ("c", "y"), ("x",), ("y",), ()]


@st.composite
def _document(draw, layouts=_LAYOUTS, entry=_ENTRY, ids=_JSON_VALUE, clean=False):
    """A record object; a clean one has lists of the layout's lengths."""
    doc = {}
    if draw(st.booleans()):
        doc["id"] = draw(ids)
    for name in draw(st.sampled_from(layouts)):
        length = 6 if name == "c" else 4
        field = st.lists(entry, min_size=length, max_size=length)
        doc[name] = draw(field if clean else field | st.lists(entry, max_size=7) | _JSON_VALUE)
    return doc


@st.composite
def _chunks(draw):
    """Documents of one layout, finite floats and string ids, with a few of any kind among them."""
    layout = draw(st.sampled_from([("c",), ("x", "y")]))
    clean = _document([layout], _FINITE, st.text(max_size=3), clean=True)
    docs = draw(st.lists(clean, max_size=8))
    anything = st.one_of(
        _document(),
        _document(_LAYOUTS, _FINITE, clean=True),  # any layout, and ids of any type
        _document([("c",), ("x", "y")], _ENTRY, clean=True),  # entries of any type
        _JSON_VALUE,
        st.builds(_bad_line),
    )
    for _ in range(draw(st.integers(0, 2))):
        doc = draw(anything)
        docs.insert(draw(st.integers(0, len(docs))), doc)
    return docs


def _bad_line():
    import lbo.cli as cli

    return cli._parse_json("{not json")


@settings(max_examples=400, deadline=None)
@given(_chunks())
@example([{"id": "b", "c": [True, False, -0.0, 0.0, 5e-324, 1.0]}, {"c": [1.0] * 6}])
@example([{"x": [1.0, 2.0, 3.0, -0.0], "y": [0.0, 1.0, 0.0, 0.0]},
          {"x": [2.0] * 4, "y": [0.5] * 4}])
@example([{"c": [1.0, 0.0, 0.0, 0.0, 0.0, float(v)]} for v in ("nan", "inf", "-inf")])
@example([{"c": [[1.0], [2.0], [0.0], [0.0], [0.0], [1.0]]}, {"c": [[1.0]] * 6}])
@example([{"id": "p", "x": [1.0, 0.0, 0.0, 1.0], "y": [0.0, 1.0, 0.0, 0.0]},
          {"id": "c", "c": [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]},
          {"x": [0.5, -0.0, 2.0, 1.0], "y": [1.0, 3.0, 0.0, 0.0]}])
@example([{"c": [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]}, {"id": "bad", "c": [1.0, 2.0]},
          {"c": [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]}])
@example([{"c": ["1", 0.0, 0.0, 0.0, 0.0, 1e400]}, {"c": [1.0] * 6}])
@example([{"c": [None, 0.0, 0.0, 0.0, 0.0, 1e400]}, {"c": [1.0] * 6}])
def test_chunk_decode_matches_each_record_alone(docs):
    import lbo.cli as cli

    ids, W, refused = _decoded_by_chunk(docs)
    want_ids, want_W, want_refused = _decoded_record_by_record(docs)
    assert (ids, refused) == (want_ids, want_refused)
    assert W.shape == want_W.shape
    assert np.array_equal(W.view(np.int64), want_W.view(np.int64))
    messages = dict(refused)
    for i, doc in enumerate(docs):
        (rid,), (row,), alone = cli._decode_chunk([doc])
        assert (rid, [m for _, m in alone]) == (ids[i], [messages[i]] if i in messages else [])
        assert np.array_equal(row.view(np.int64), W[i].view(np.int64))


def test_benchmark_hook_names_stay():
    # benchmarks/tracing.py patches these names of lbo.cli when it sets up
    import lbo.cli as cli

    for hook in (cli.json.loads, cli.wedge, cli.dumps, cli._decode_record):
        assert callable(hook)
    docs = [{"id": "g", "x": [1.0, 0.0, 0.0, 1.0], "y": [0.0, 1.0, 0.0, 0.0]},
            {"id": "r", "c": [1.0, "x", 0.0, 0.0, 0.0, 1.0]}]
    ids, W, refused = cli._decode_chunk(docs)
    assert refused == [(1, '"c" entries must be numbers')]
    for i, message in enumerate((None, refused[0][1])):
        rid, row, why = cli._decode_record(docs[i])
        assert (rid, why) == (ids[i], message)
        assert np.array_equal(row.view(np.int64), W[i].view(np.int64))


def test_a_chunk_decodes_in_one_pass(monkeypatch):
    # a pair chunk with one bad record and one "c" record: one stacked wedge
    # of its pair rows, and no call per record
    import lbo.cli as cli

    rng = np.random.default_rng(5)
    pairs = [
        {"id": f"p{k}", "x": rng.normal(size=4).tolist(), "y": rng.normal(size=4).tolist()}
        for k in range(cli.CHUNK)
    ]
    clean_ids, clean_W, clean_refused = cli._decode_chunk(pairs)
    assert clean_refused == [] and clean_ids == [f'"p{k}"' for k in range(cli.CHUNK)]
    docs = list(pairs)
    docs[40] = {"id": "bad", "x": [1.0, 2.0], "y": [0.0, 1.0, 0.0, 0.0]}
    docs[90] = {"id": "c", "c": [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]}
    wedged, decoded = [], []
    wedge = cli.wedge
    monkeypatch.setattr(cli, "wedge", lambda x, y: wedged.append(len(x)) or wedge(x, y))
    monkeypatch.setattr(cli, "_decode_record", lambda doc: decoded.append(doc))
    monkeypatch.setattr(cli.json, "loads", None)
    ids, W, refused = cli._decode_chunk(docs)
    assert wedged == [cli.CHUNK - 2] and decoded == []
    assert refused == [(40, '"x" must be a list of 4 numbers')]
    assert ids[40] == '"bad"' and ids[90] == '"c"' and not W[40].any()
    assert W[90].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    good = [k for k in range(cli.CHUNK) if k not in (40, 90)]
    assert [ids[k] for k in good] == [clean_ids[k] for k in good]
    assert np.array_equal(W[good].view(np.int64), clean_W[good].view(np.int64))
    # a whole run over three such runs of records, in the chunks of the
    # schedule: one stacked wedge of each chunk's pair rows
    text = "".join(json.dumps(doc) + "\n" for doc in docs * 3)
    code, out = _main_in_process(["slice", "--r", "1"], text)
    assert code == 2 and out.count("\n") == 3 * cli.CHUNK
    sizes = _chunk_sizes(3 * cli.CHUNK)
    assert len(sizes) > 1 and all(size % cli.CHUNK == 0 for size in sizes)
    assert wedged == [cli.CHUNK - 2] + [size // cli.CHUNK * (cli.CHUNK - 2) for size in sizes]
    assert decoded == []


class _WatchedStdin(io.StringIO):
    """Input that notes how many lines were written by the time it gives the
    line after each count of lines in after."""

    def __init__(self, text, out, after):
        super().__init__(text)
        self.out, self.after, self.lines, self.written = out, after, 0, {}

    def __next__(self):
        if self.lines in self.after:
            self.written[self.lines] = self.out.getvalue().count("\n")
        self.lines += 1
        return super().__next__()


def test_a_chunk_is_written_before_the_next_line_is_read(monkeypatch):
    import lbo.cli as cli

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    first, second = _chunk_sizes(10 * cli.CHUNK)[:2]
    ends = (first, first + second)
    out = io.StringIO()
    stdin = sys.stdin
    try:
        sys.stdin = _WatchedStdin(batch_lines(ends[1] + 5).decode(), out, ends)
        with contextlib.redirect_stdout(out):
            assert cli.main(["slice", "--r", "1.0"]) == 0
        assert sys.stdin.written == {end: end for end in ends}
    finally:
        sys.stdin = stdin


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


CHUNK_COUNTS = [1, 127, 128, 129, 384, 385, 2000]


@pytest.mark.parametrize("count", CHUNK_COUNTS)
def test_chunks_follow_the_schedule(count, monkeypatch):
    # the first chunk holds CHUNK records, and each later one twice the one
    # before, up to CHUNK_CAP
    import lbo.cli as cli

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    sizes = []
    decode = cli._decode_chunk
    monkeypatch.setattr(cli, "_decode_chunk", lambda docs: sizes.append(len(docs)) or decode(docs))
    code, out = _main_in_process(["slice", "--r", "1.0"], batch_lines(count).decode())
    assert code == 0 and out.count("\n") == count
    assert sizes == _chunk_sizes(count)
    assert sizes[0] == min(count, cli.CHUNK) and max(sizes) <= cli.CHUNK_CAP


@pytest.mark.parametrize("count", CHUNK_COUNTS)
def test_one_write_per_chunk(count, monkeypatch):
    import lbo.cli as cli

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    out = _CountingStdout()
    stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(batch_lines(count).decode())
        with contextlib.redirect_stdout(out):
            assert cli.main(["slice", "--r", "1.0"]) == 0
    finally:
        sys.stdin = stdin
    assert len(out.getvalue().splitlines()) == count
    assert out.writes == len(_chunk_sizes(count))


def test_unbuffered_stdout_gives_the_same_bytes():
    stdin = batch_lines(300)
    buffered = run_cli(COMMANDS["slice"], stdin, env_extra={"PYTHONUNBUFFERED": ""})
    unbuffered = run_cli(COMMANDS["slice"], stdin, env_extra={"PYTHONUNBUFFERED": "1"})
    assert buffered.returncode == unbuffered.returncode == 0
    assert len(buffered.stdout.splitlines()) == 300
    assert buffered.stdout == unbuffered.stdout


def _written_leaf_by_leaf(node, values) -> str:
    """A skeleton written as the untyped templates did: every slot's text from
    the iterator values, every fixed leaf through _scalar."""
    import lbo.cli as cli

    if type(node) is cli._Slot:
        return next(values)
    if type(node) is dict:
        return "{" + ",".join(
            json.dumps(k) + ":" + _written_leaf_by_leaf(v, values) for k, v in node.items()
        ) + "}"
    if type(node) is list:
        return "[" + ",".join(_written_leaf_by_leaf(v, values) for v in node) + "]"
    return cli._scalar(node)


def _check_real_slots(v: float) -> None:
    """Every real slot of every shape, fed v as its report feeds it, prints _scalar(v)."""
    import lbo.cli as cli
    from lbo.orbit import OrbitKind

    shapes = [x for x in vars(cli).values() if isinstance(x, cli._Shape)]
    shapes += [cli._stabilizer_on(k) for k in (OrbitKind.NEUTRAL_PLUS, OrbitKind.DEGENERATE)]
    shapes += [cli._classify_on(None), cli._classify_on(0.1), cli._slice_on(0.1)]
    shapes += [cli._off_cone(shape)[0] for shape in shapes if "in_light_cone" in shape.skeleton]
    (fed,) = cli._json_reals(np.array([v]))
    for shape in shapes:
        slots = [leaf for _, leaf in cli._leaves(shape.skeleton) if type(leaf) is cli._Slot]
        # every other slot takes JSON text and prints it as it comes
        values = [fed if s is cli._REAL else "true" for s in slots]
        texts = [cli._scalar(v) if s is cli._REAL else "true" for s in slots]
        assert cli.dumps(shape, tuple(values)) == _written_leaf_by_leaf(shape.skeleton, iter(texts))


@pytest.mark.parametrize(
    "v", [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16, 1e308, np.inf, np.nan]
)
def test_real_slots_print_like_scalar(v):
    _check_real_slots(v)


@settings(max_examples=200, deadline=None)
@given(st.floats())
def test_real_slots_print_like_scalar_on_any_float(v):
    _check_real_slots(v)


def test_text_slots_hold_the_json_of_their_values():
    # each table of texts holds, at each code, the JSON of the value it stands for
    import lbo.cli as cli
    from lbo.orbit import _KIND_BY_CODE, OrbitKind
    from lbo.rslice import _TOPOLOGIES, SliceTopology

    tables = (cli._KIND_TEXT, cli._EPSILON_TEXT, cli._TOPOLOGY_TEXT, cli._BOUNDARY_TEXT)
    assert all(table.dtype == object for table in (*tables, cli._BOOL_TEXT))
    # kind by epsilon + 2 on the cone, 0 off it
    assert cli._KIND_TEXT.tolist() == [cli._scalar(kind) for kind in _KIND_BY_CODE]
    kinds = (OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE, OrbitKind.NEUTRAL_PLUS)
    assert [cli._KIND_TEXT[e + 2] for e in (-1, 0, 1)] == [cli._scalar(k) for k in kinds]
    # epsilon by itself: null on degenerate rows
    assert [cli._EPSILON_TEXT[e] for e in (-1, 0, 1)] == ["-1", "null", "1"]
    assert _TOPOLOGIES[0] is None and set(_TOPOLOGIES[1:]) == set(SliceTopology)
    for code, t in enumerate(_TOPOLOGIES):
        if t is None:  # off the cone, where no record prints these slots
            assert cli._TOPOLOGY_TEXT[code] == cli._BOUNDARY_TEXT[code] == "null"
            continue
        assert cli._TOPOLOGY_TEXT[code] == cli._scalar(t.value)
        assert cli._BOUNDARY_TEXT[code] == cli._scalar(t is SliceTopology.SPHERE_2)
    # a bool by itself, as an int: a bool index into an array is a mask
    assert cli._BOOL_TEXT.tolist() == [cli._scalar(False), cli._scalar(True)]


# The keys of the text columns that code tables fill, and of the run's radius.
_TABLE_KEYS = ("r_queried", "kind", "epsilon", "topology", "boundary", "in_slice")


def _leaf_texts(line: str) -> dict:
    """The JSON text of each key of _TABLE_KEYS that an output line holds."""
    return {k: m[1] for k in _TABLE_KEYS if (m := re.search(f'"{k}":([^,}}]*)', line))}


@st.composite
def _rows_at_table_edges(draw):
    """(tol, coefficients, radius): a row off the cone, the zero row, or an
    on-cone row a = (s, 0, 0), b = s (p, q, 0) with a pfaffian s*s*p of either
    sign on either side of the degenerate band, well inside it or well past
    it; and a radius well below or above its r0 (or its split radius s, for
    in_slice), on either side of either end of their bands, or at them."""
    from lbo import NotInLightConeError, ToleranceConfig, from_vector_pair, orbit_class

    tol = draw(st.sampled_from(["1e-9", "1e-3"]))
    eps, s = float(tol), draw(st.sampled_from([0.1, 1.0, 30.0]))
    form = draw(st.sampled_from(["cone", "cone", "cone", "off", "zero"]))
    p = draw(st.sampled_from([0.0, 0.5, 1 - 1e-3, 1 + 1e-3, 2.0, 1e3])) * eps * max(s * s, 1.0)
    p = min(1.0, p / (s * s)) * draw(st.sampled_from([1.0, -1.0]))
    f = 1.0 if form == "cone" else draw(st.sampled_from([0.5, 2.0]))  # |b| / |a|
    c = from_vector_pair([s, 0.0, 0.0], [s * p * f, s * np.sqrt(1.0 - p * p) * f, 0.0])
    c = [0.0] * 6 if form == "zero" else c.tolist()
    try:
        r0 = orbit_class(c, ToleranceConfig(eps=eps)).r0
    except NotInLightConeError:
        r0 = 1.0
    base = draw(st.sampled_from([r0, s]))
    at = draw(st.sampled_from([-2.0, -1.001, -1.0, -0.999, 0.0, 0.999, 1.0, 1.001, 2.0, 0.5, 2]))
    if type(at) is int:  # well below or above
        r = base * draw(st.sampled_from([0.5, 2.0]))
    else:  # the band of r0, and a band at least as wide as in_slice's around s
        r = base + at * eps * max(base, 1.0)
    assume(r > 0)
    return tol, c, r


@settings(max_examples=300, deadline=None)
@given(_rows_at_table_edges())
# a = (1, 0, 0), b = (2e-3, q, 0): neutral with r0 = sqrt(2e-3) = 0.0447..., whose
# slice is Empty at 0.04, Sphere2 at 0.045 and RP3 at 0.05 when eps is 1e-3
@example(("1e-3", [0.0, -0.0, 2e-3, 1.0, float(np.sqrt(1 - 4e-6)), 0.0], 0.04))
@example(("1e-3", [0.0, -0.0, -2e-3, 1.0, float(np.sqrt(1 - 4e-6)), 0.0], 0.045))
@example(("1e-3", [0.0, -0.0, 2e-3, 1.0, float(np.sqrt(1 - 4e-6)), 0.0], 0.05))
@example(("1e-9", [0.0, -0.0, 0.0, 1.0, 1.0, 0.0], 2.0))  # degenerate, RP3
def test_text_columns_are_the_one_row_library_answers(row):
    # the text columns come from code tables; each row's texts must be the
    # JSON of orbit_class, slice_topology and in_slice called on it alone
    import lbo.cli as cli
    from lbo import NotInLightConeError, SliceTopology, ToleranceConfig
    from lbo import in_slice, orbit_class, slice_topology

    tol, c, r = row
    eps = ToleranceConfig(eps=float(tol))
    want = {"r_queried": cli._scalar(r)}
    try:
        klass = orbit_class(c, eps)
    except NotInLightConeError:  # the class and the topology are null off the cone
        want_classify = {}
        want.update(topology="null", boundary="null")
    else:
        t = slice_topology(klass, r, eps)
        want.update(kind=cli._scalar(klass.kind), epsilon=cli._scalar(klass.epsilon),
                    topology=cli._scalar(t.value),
                    boundary=cli._scalar(t is SliceTopology.SPHERE_2))
        want_classify = dict(want)
    want["in_slice"] = cli._scalar(in_slice(c, r, eps))
    line = json.dumps({"c": c}) + "\n"
    for command, texts in (("slice", want), ("classify", want_classify)):
        args = [command, "--r", repr(r), "--tol", tol, "--format", "ndjson"]
        code, out = _main_in_process(args, line)
        assert code == 0 and out.count("\n") == 1
        assert _leaf_texts(out) == texts


@pytest.mark.parametrize("fmt", ["ndjson", "json", "table"])
def test_an_off_cone_slice_row_prints_its_own_radius(fmt):
    # the radius is a fixed leaf of the run's shapes, the off-cone one too
    line = '{"id":"off","c":[0.5,-0.25,0.75,0.125,0.6,0.3]}\n'
    for r in ("0.25", "3.5"):
        code, out = _main_in_process(["slice", "--r", r, "--format", fmt], line)
        assert code == 0
        if fmt == "table":
            header, cells = out.splitlines()
            record = dict(zip(header.split(), cells.split()))
            assert (record["r_queried"], record["in_light_cone"]) == (r, "false")
        else:
            assert f'"id":"off","in_light_cone":false,"r_queried":{r},"class":null,' in out


@st.composite
def _rows_with_split_norms_apart(draw):
    """(w, f): a rotated normal form, of any magnitude the strategy draws, and
    the fraction f of eps by which the test moves its split norms apart."""
    _, w = draw(rotated_normal_forms())
    return w, draw(st.floats(-0.9, 0.9))


@pytest.mark.parametrize("eps", [1e-9, 1e-5, 1e-3])
@settings(max_examples=300, deadline=None)
@given(st.lists(_rows_with_split_norms_apart(), min_size=1, max_size=6))
# phi = 2e-6 with split norms 8e-10 apart, which the old clip took to phi = 0
@example([(np.array([0.999999999998, -0.0, 0.0, 1.9999999999986667e-06, 0.0, 1.0000000004]), 0.0)])
def test_split_norms_up_to_eps_apart_are_no_invariant_violation(eps, rows):
    import lbo.cli as cli
    from lbo.minkowski import ToleranceConfig

    # the polar vector scaled so that the split norms lie up to 0.9 eps apart
    W = np.array([w for w, _ in rows])
    W[:, [2, 4, 5]] *= np.sqrt(1.0 + eps * np.array([f for _, f in rows]))[:, None]
    tol = ToleranceConfig(eps=eps)
    ids = [f"r{i}" for i in range(len(W))]
    for chunk in (
        cli._classify_chunk(ids, W, tol, 1.0),
        cli._canonical_chunk(ids, W, tol),
        cli._stabilizer_chunk(ids, W, tol),
    ):
        status, message = chunk[1][:2]
        assert (status == cli._ON).all(), message


@pytest.mark.parametrize("command", ["classify", "canonical", "stabilizer"])
def test_a_row_on_the_cone_at_a_loose_tolerance_is_no_invariant_violation(command):
    # split norms 4e-6 apart: its reconstruction residual, 1.4e-6, lies past
    # 1e-6 but within the tolerance that put it on the cone
    p = run_cli([*COMMANDS[command], "--tol", "1e-3"], b'{"c":[0.0,-0.0,0.0,1.0,0.002,1.0]}\n')
    assert (p.returncode, p.stderr) == (0, b"")
    assert _strict_json(p.stdout)["in_light_cone"] is True


# Valid rows that once exited 4: an angle of 2e-6 with split norms 8e-10
# apart, which the angle's old clip took to 0, and magnitudes from 1e77,
# where the old frame's cross product squared entries past the double range.
FORMER_EXIT_4 = (
    b'{"c":[0.999999999998,-0.0,0.0,1.9999999999986667e-06,0.0,1.0000000004]}\n'
    b'{"c":[1e78,0,6e77,0,0,8e77]}\n{"c":[1e150,0,0.6e150,0,0,0.8e150]}\n'
    b'{"c":[2e77,-2e77,3e77,1e77,0,0]}\n'
)


@pytest.mark.parametrize("command", ["classify", "canonical", "stabilizer"])
def test_rows_that_once_exited_4_are_answered(command):
    p = run_cli(COMMANDS[command], FORMER_EXIT_4)
    assert (p.returncode, p.stderr) == (0, b"")
    records = [_strict_json(line) for line in p.stdout.splitlines()]
    assert len(records) == 4
    assert all(record["in_light_cone"] is True for record in records)


# Rows whose split norms or pfaffian overflow, given as coefficients and as a
# vector pair whose wedge overflows, and rows with an entry past the double
# range (NaN, -Infinity, and 1e400 wedged with the zero vector, all nan): an
# input error in every command, without a warning, where they once printed
# inf or nan.
OVERFLOW = (
    b'{"c":[1e200,0,0,0,0,1e200]}\n{"id":"xy","x":[0,0,0,1.4e154],"y":[0,0,1.4e154,0]}\n'
    b'{"id":"nan","c":[NaN,0,0,0,0,1]}\n{"id":"ninf","c":[0,0,-Infinity,0,0,1]}\n'
    b'{"id":"big","x":[1e400,0,0,0],"y":[0,0,0,0]}\n'
)
OVERFLOW_TEXT = "bivector overflows the double range: its split norms or pfaffian are not finite"
GOLD_OVERFLOW = b"".join(
    b'{"id":%s,"error":"%s"}\n' % (rid, OVERFLOW_TEXT.encode())
    for rid in (b"null", b'"xy"', b'"nan"', b'"ninf"', b'"big"')
)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_overflowing_pfaffian_is_quiet(command):
    p = run_cli(COMMANDS[command], OVERFLOW)
    assert (p.returncode, p.stderr) == (2, b"")
    assert p.stdout == GOLD_OVERFLOW


@pytest.mark.parametrize("command", ["classify", "canonical", "stabilizer"])
def test_invariant_violation_is_an_error_record_and_batch_goes_on(command):
    # the process entry with faults.broken in place: the bug row's reduced
    # element is off its normal form
    good = b'{"id":"a","c":[1,0,0,0,0,1]}\n'
    stdin = good + faults.BUG_LINE.encode() + good.replace(b'"a"', b'"c"')
    broken = ("-c", faults.BROKEN_CONSOLE)
    p = run_cli([command], stdin, entry=broken)
    assert p.returncode == 4
    lines = p.stdout.splitlines()
    assert [json.loads(line)["id"] for line in lines] == ["a", "bug", "c"]
    assert lines[2] == lines[0].replace(b'"id":"a"', b'"id":"c"')
    bad = json.loads(lines[1])
    assert list(bad) == ["id", "error"]
    assert bad["error"].startswith("invariant violation: reduced element off its normal form")
    assert p.stderr.decode().splitlines() == [bad["error"]]
    # exit 4 takes precedence over an input error's 2, in either order
    p = run_cli([command], stdin + b'{"id":"short","c":[1,2]}\n', entry=broken)
    assert p.returncode == 4
    assert len(p.stdout.splitlines()) == 4
    p = run_cli([command], b'{"id":"short","c":[1,2]}\n' + stdin, entry=broken)
    assert p.returncode == 4
    # without the fault the bug row is a good one
    p = run_cli([command], stdin)
    assert (p.returncode, p.stderr, len(p.stdout.splitlines())) == (0, b"", 3)


@pytest.mark.parametrize("offset,code", [(5e-7, 0), (1e-3, 4)])
def test_a_stabilizer_residual_past_the_ceiling_is_a_violation(offset, code, monkeypatch):
    import lbo.stabilizer as stabilizer

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    residuals = stabilizer.stabilizer_residuals
    monkeypatch.setattr(stabilizer, "stabilizer_residuals",
                        lambda *args: [(rows, res + offset) for rows, res in residuals(*args)])
    # a neutral and a degenerate record, each with a witness or basis of condition 1
    got = _main_in_process(["stabilizer"], (GOLDEN / "pair.ndjson").read_text())
    assert got[0] == code
    records = [json.loads(line) for line in got[1].splitlines()]
    if code == 0:
        assert [rec["max_residual"] > offset for rec in records] == [True, True]
    else:
        message = "invariant violation: stabilizer generator fails to fix its element"
        assert [rec["error"][: len(message)] for rec in records] == [message] * 2


# (args, environment, exit code): 3 for a bad flag or environment value, 2 for a bad radius
BAD_SETTINGS = {
    "unknown-command": (["bogus"], None, 3),
    "unknown-suite": (["verify", "--suite", "nope"], None, 3),
    "env-format": (["classify"], {"LBO_FORMAT": "nope"}, 3),
    "tol-zero": (["classify", "--tol", "0"], None, 3),
    "tol-negative": (["classify", "--tol", "-1"], None, 3),
    "tol-nan": (["slice", "--r", "1", "--tol", "nan"], None, 3),
    "tol-inf": (["stabilizer", "--tol", "inf"], None, 3),
    "env-tol-zero": (["canonical"], {"LBO_TOL": "0"}, 3),
    "r-inf-slice": (["slice", "--r", "inf"], None, 2),
    "r-nan-slice": (["slice", "--r", "nan"], None, 2),
    "r-inf-classify": (["classify", "--r", "inf"], None, 2),
    "r-zero-slice": (["slice", "--r", "0"], None, 2),
    "r-negative-classify": (["classify", "--r", "-1"], None, 2),
    "env-r-inf": (["slice"], {"LBO_R": "inf"}, 2),
    "samples-negative": (["verify", "--suite", "isometry", "--samples", "-3"], None, 3),
    "samples-zero": (["verify", "--suite", "pfaffian", "--samples", "0"], None, 3),
    "env-samples-zero": (["verify", "--suite", "isometry"], {"LBO_SAMPLES": "0"}, 3),
    "seed-negative": (["verify", "--suite", "isometry", "--seed", "-1"], None, 3),
    "env-seed-negative": (["verify", "--suite", "all"], {"LBO_SEED": "-3"}, 3),
}


@pytest.mark.parametrize("case", BAD_SETTINGS)
def test_bad_settings_exit_codes(case):
    args, env, code = BAD_SETTINGS[case]
    p = run_cli(args, b'{"c":[1,0,0,0,0,1]}\n', env_extra=env)
    assert p.returncode == code
    assert p.stdout == b""
    assert b"Traceback" not in p.stderr
    if code == 2:  # a bad radius, refused in the words of the library's check
        r = float(env["LBO_R"] if env else args[args.index("--r") + 1])
        message = f"input error: --r: slice radius must be positive and finite, got {r!r}\n"
        assert p.stderr == message.encode()


def test_whole_document_and_array_inputs():
    pretty = b'{\n  "id": "solo",\n  "c": [1, 0, 0, 0, 0, 1]\n}\n'
    p = run_cli(["classify"], pretty)
    assert p.returncode == 0
    assert len(p.stdout.splitlines()) == 1
    arr = b'[{"id":"A","c":[1,0,0,0,0,1]},{"id":"B","c":[0,1,0,0,1,0]}]'
    p = run_cli(["classify"], arr)
    assert p.returncode == 0
    assert len(p.stdout.splitlines()) == 2
    p = run_cli(["classify", "--format", "json"], arr)
    docs = json.loads(p.stdout)
    assert [d["id"] for d in docs] == ["A", "B"]


def test_table_format():
    p = run_cli(["classify", "--format", "table"], b'{"id":"a","c":[1,0,0,0,0,1]}\n')
    assert p.returncode == 0
    header = p.stdout.splitlines()[0].decode()
    assert header.startswith("id")
    assert "pfaffian" in header


def test_table_of_on_cone_records_has_their_leaf_columns():
    record = '{"id":"a","c":[2,-2,3,1,0,0]}\n'
    for args, some_columns in (
        (["classify", "--r", "1"], {"canonical.phi", "class.kind", "slice.topology",
                                    "diagnostics.representative_residual"}),
        (["slice", "--r", "1"], {"class.kind", "class.r0", "class.epsilon", "topology"}),
        (["stabilizer"], {"families.0.family", "families.0.parameter",
                          "families.11.fixing_residual", "max_residual"}),
    ):
        code, table = _main_in_process([*args, "--format", "table"], record)
        assert code == 0
        assert some_columns <= set(table.splitlines()[0].split())


def _table_cells(node, path="") -> dict:
    """The table's cells of one parsed JSON record by leaf path: a real to 6
    digits, never -0, and any other leaf as its JSON text."""
    if not isinstance(node, (dict, list)):
        if isinstance(node, float):
            return {path: "%.6g" % (node + 0.0)}
        return {path: json.dumps(node)}
    cells = {}
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        cells.update(_table_cells(child, f"{path}.{key}" if path else key))
    return cells


@pytest.mark.parametrize("source", ["mixed.ndjson", "slice.ndjson"])
@pytest.mark.parametrize("args", [["classify"], *CHUNK_ARGS])
def test_table_cells_are_the_json_leaves(args, source, monkeypatch):
    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    text = (GOLDEN / source).read_text(encoding="utf-8")
    code, ndjson = _main_in_process(args, text)
    table_code, table = _main_in_process([*args, "--format", "table"], text)
    assert table_code == code
    # an integral real prints without a fraction, so every number is read as a
    # float, and the one integer leaf, epsilon (+-1), prints the same either way
    records = [
        _table_cells(json.loads(line, parse_int=float, parse_constant=_no_constant))
        for line in ndjson.splitlines()
    ]
    header, *lines = table.splitlines()
    columns = header.split()
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    rows = [
        {c: line[a:b].rstrip() for c, a, b in zip(columns, starts, [*starts[1:], None])}
        for line in lines
    ]
    assert columns == list(dict.fromkeys(path for record in records for path in record))
    assert rows == [{c: record.get(c, "-") for c in columns} for record in records]
    assert table.isascii()
    cells = [cell for row in rows for cell in row.values()]
    assert "-0" not in cells and not any(cell.startswith(("{", "[", "'")) for cell in cells)


def test_empty_input_is_fine():
    p = run_cli(["classify"], b"")
    assert p.returncode == 0
    assert p.stdout == b""


def test_byte_determinism_across_runs_and_threads():
    payload = batch_lines()
    one = run_cli(["classify", "--r", "1.3"], payload)
    two = run_cli(["classify", "--r", "1.3"], payload)
    four = run_cli(["classify", "--r", "1.3", "--threads", "4"], payload)
    # LBO_THREADS is not read: a value that is not a number changes nothing
    bogus = run_cli(["classify", "--r", "1.3"], payload, env_extra={"LBO_THREADS": "bogus"})
    assert one.returncode == two.returncode == four.returncode == bogus.returncode == 0
    assert one.stdout == two.stdout == four.stdout == bogus.stdout
    assert bogus.stderr == b""


def test_env_defaults_and_flag_priority():
    p = run_cli(["classify"], b'{"c":[1,0,0,0,0,1]}\n', env_extra={"LBO_R": "1.5"})
    rec = json.loads(p.stdout)
    assert rec["slice"]["r_queried"] == 1.5
    # explicit flag beats the environment
    p = run_cli(
        ["classify", "--format", "ndjson"],
        b'{"c":[1,0,0,0,0,1]}\n',
        env_extra={"LBO_FORMAT": "table"},
    )
    assert p.stdout.startswith(b"{")


def test_verify_suites_pass():
    p = run_cli(["verify", "--suite", "isometry", "--samples", "60"])
    assert p.returncode == 0
    out = p.stdout.decode()
    assert "PASS" in out and "FAIL" not in out
    p = run_cli(["verify", "--suite", "stabilizer"])
    assert p.returncode == 0
    # isometry 3, pfaffian 2, frames 3, stabilizer 4, slice 3
    p = run_cli(["verify", "--suite", "all", "--samples", "50"])
    assert p.returncode == 0
    lines = p.stdout.decode().splitlines()
    assert len(lines) == 15
    assert all(" PASS " in line for line in lines)


def test_off_cone_reasons():
    stdin = (
        b'{"id":"zero","c":[0,0,0,0,0,0]}\n'
        b'{"id":"small","c":[1e-6,0,0,0,0,1e-6]}\n'
        b'{"id":"tiny","c":[1e-10,0,0,0,0,1e-10]}\n'
        b'{"id":"apart","c":[0.5,-0.25,0.75,0.125,0.6,0.3]}\n'
        b'{"id":"floor","c":[7e-5,0,0,0,0,6.3e-5]}\n'
    )
    # tolerances are relative, with no floor at 1: small rows are on the cone
    # and a small row whose split norms are 19% apart is off it
    expected = [
        "zero bivector",
        None,
        None,
        "split norms differ: spatial 0.328125 vs temporal 1.0125",
        "split norms differ: spatial 4.9e-09 vs temporal 3.969e-09",
    ]
    underflow = b'{"id":"under","c":[1e-160,0,0,0,0,1e-160]}\n'
    refused = {
        "id": "under",
        "error": "split norms underflow the double range: "
        "spatial 9.99989e-321 vs temporal 9.99989e-321",
    }
    for args in (["classify"], ["canonical"], ["slice", "--r", "1"], ["stabilizer"]):
        p = run_cli(args, stdin)
        assert p.returncode == 0
        recs = [json.loads(line) for line in p.stdout.splitlines()]
        assert [rec["in_light_cone"] for rec in recs] == [False, True, True, False, False]
        assert [rec.get("reason") for rec in recs] == expected
        # entries whose squares leave the normal range are refused with the reason
        p = run_cli(args, stdin + underflow)
        assert p.returncode == 2
        assert p.stdout.splitlines()[:-1] == run_cli(args, stdin).stdout.splitlines()
        assert json.loads(p.stdout.splitlines()[-1]) == refused


def test_file_input(tmp_path):
    path = tmp_path / "records.ndjson"
    path.write_bytes(b'{"id":"f","c":[1,0,0,0,0,1]}\n')
    p = run_cli(["classify", "--in", str(path)])
    assert p.returncode == 0
    assert json.loads(p.stdout)["id"] == "f"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_input_file_is_an_input_error(kind, tmp_path):
    path, reason = {
        "missing": (tmp_path / "absent.ndjson", os.strerror(errno.ENOENT)),
        "directory": (tmp_path, os.strerror(errno.EISDIR)),
    }[kind]
    p = run_cli(["classify", "--in", str(path)])
    assert p.returncode == 2
    assert p.stdout == b""
    assert p.stderr.decode() == f"input error: cannot read --in {path}: {reason}\n"


NOT_UTF8 = b'{"id":null,"error":"line is not UTF-8: byte 0xff"}'


@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize("at", [0, 60])
def test_a_line_that_is_not_utf8_is_one_error_record(at, source, tmp_path):
    # the first line, parsed alone, and lines inside the first chunk: a bad
    # byte inside an id, which json.loads would accept, and a bad line alone
    lines = batch_lines(count=150).splitlines(keepends=True)
    bad = [b'{"id":"b\xff","c":[1,0,0,0,0,1]}\n', b"\xff\n"]
    payload = b"".join(lines[:at] + bad + lines[at:])
    if source == "file":
        path = tmp_path / "records.ndjson"
        path.write_bytes(payload)
        p = run_cli(["classify", "--in", str(path)])
    else:  # a strict stdin, as a non-UTF-8 locale gives it, must not raise either
        p = run_cli(["classify"], payload, env_extra={"PYTHONIOENCODING": "utf-8:strict"})
    assert p.returncode == 2
    assert p.stderr == b""
    good = run_cli(["classify"], b"".join(lines)).stdout.splitlines()
    assert p.stdout.splitlines() == good[:at] + [NOT_UTF8] * 2 + good[at:]


def test_text_that_is_utf8_has_no_escaped_byte():
    import lbo.cli as cli

    assert cli._escaped_byte('{"id":"é中\U0001f600","c":[1,0,0,0,0,1]}') is None
    assert cli._escaped_byte(b"ok \x80 \xfe".decode("utf-8", "surrogateescape")) == 0x80


def test_stdin_decodes_like_in(tmp_path):
    # a locale codec on stdin must not change the bytes: both read UTF-8
    payload = '{"id":"é","c":[1,0,0,0,0,1]}\n{"id":"b\\u00e9","c":[2,-2,3,1,0,0]}\n'.encode()
    path = tmp_path / "records.ndjson"
    path.write_bytes(payload)
    latin = {"PYTHONIOENCODING": "latin-1"}
    by_stdin = run_cli(["classify"], payload, env_extra=latin)
    by_file = run_cli(["classify", "--in", str(path)], env_extra=latin)
    assert by_stdin.returncode == by_file.returncode == 0
    assert by_stdin.stdout == by_file.stdout == run_cli(["classify"], payload).stdout
    assert by_stdin.stdout.count(b'"id":"\\u00e9"') == 1
    assert by_stdin.stdout.count(b'"id":"b\\u00e9"') == 1
    # two in-process runs on one real stdin: the first reads it all
    twice = "import lbo.cli as cli; print(cli.main(['classify']), cli.main(['classify']))"
    env = {k: v for k, v in os.environ.items() if not k.startswith("LBO_")}
    p = subprocess.run(
        [sys.executable, "-c", twice], input=payload, capture_output=True, env={**env, **latin}
    )
    assert (p.stdout, p.stderr) == (by_file.stdout + b"0 0\n", b"")


# Rows from the edge generators of the kernel, for the property that every
# batch subcommand gives a row the answer classify gives it.
_BASE_ROWS = (
    [1, 0, 0.6, 0, 0, 0.8],  # neutral
    [2, -2, 3, 1, 0, 0],  # neutral, generic frame
    [1, 0, 0, 0, 0, -1],  # neutral minus, phi = pi
    [2, -2, 2, 1, 1, -2],  # degenerate
    [0, 0, 1.5, 1.5, 0, 0],  # axial and polar parallel
    [0, 0, -2, 2, 0, 0],  # anti-parallel
)
_EDGE_ROWS = st.one_of(
    # scaled rows, magnitudes 1e-300 to 1e150
    st.builds(
        lambda row, e: {"c": [v * 10.0**e for v in row]},
        st.sampled_from(_BASE_ROWS), st.floats(-300, 150),
    ),
    # off-cone rows
    st.builds(lambda c: {"c": c}, st.lists(st.floats(-10, 10), min_size=6, max_size=6)),
    # the edges of the cone band and of the degenerate band
    st.builds(lambda d: {"c": [1, 0, 0, 0, 0, 1 + d]}, st.floats(4e-10, 6e-10)),
    st.builds(lambda t: {"c": [1, 0, 1, 0, 0, t]}, st.floats(-2e-9, 2e-9)),
    # bad-style rows: small split norms apart, under the cone test's floor at 1
    st.builds(
        lambda e, f: {"c": [10.0**e, 0, 0, 0, 0, f * 10.0**e]},
        st.floats(-6, -4), st.floats(0.5, 1),
    ),
    # angles that round to pi/2 (neutral at --tol 1e-300)
    st.builds(lambda t: {"c": [1, 0, 1, 0, 0, t]}, st.floats(1e-30, 1e-17)),
    # zero rows and overflow rows
    st.just({"c": [0, 0, 0, 0, 0, 0]}),
    st.just({"c": [1e200, 0, 0, 0, 0, 1e200]}),
    st.just({"x": [0, 0, 0, 1.4e154], "y": [0, 0, 1.4e154, 0]}),
)


def _answer(command, line) -> tuple:
    """(exit code, error text, in_light_cone, kind) of one output record; the
    kind is Degenerate, Neutral (canonical) or the class's kind."""
    rec = _strict_json(line)
    if "error" in rec:
        code = 4 if rec["error"].startswith("invariant violation: ") else 2
        return code, rec["error"], None, None
    if not rec["in_light_cone"]:
        kind = None
    elif command == "canonical":
        kind = "Degenerate" if "note" in rec else "Neutral"
    else:
        kind = rec["kind"] if command == "stabilizer" else rec["class"]["kind"]
    return 0, None, rec["in_light_cone"], kind


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_EDGE_ROWS, min_size=1, max_size=6), tol=st.sampled_from(["1e-9", "1e-300"]))
@example(rows=[{"c": [7e-5, 0, 0, 0, 0, 6.3e-5]}, {"c": [1, 0, 1, 0, 0, 1e-20]}], tol="1e-300")
@example(rows=[{"c": [7e-5, 0, 0, 0, 0, 6.3e-5]}, {"c": [1e150, 0, 6e149, 0, 0, 8e149]}],
         tol="1e-9")
def test_subcommands_agree_with_classify(rows, tol, tmp_path_factory):
    # metamorphic: one record, one answer in every subcommand.  slice has no
    # frames, so where classify refuses a row at the right angle or finds an
    # invariant violation, slice answers it on the cone from its invariants
    import lbo.cli as cli

    path = tmp_path_factory.mktemp("agree") / "rows.ndjson"
    records = [json.dumps({"id": f"r{i}", **row}) + "\n" for i, row in enumerate(rows)]
    path.write_text("".join(records))
    answers, codes = {}, {}
    for command, args in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        argv = [*args, "--in", str(path), "--tol", tol, "--format", "ndjson"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[command] = cli.main(argv)
        answers[command] = [_answer(command, line) for line in out.getvalue().splitlines()]
        assert len(answers[command]) == len(rows)
        assert codes[command] == max(answer[0] for answer in answers[command])
        violations = [a[1] for a in answers[command] if a[0] == 4]
        assert err.getvalue().splitlines() == violations
    neutral = {"Neutral", "NeutralPlus", "NeutralMinus"}
    for i, want in enumerate(answers["classify"]):
        code, error, on, kind = want
        canonical = answers["canonical"][i]
        assert canonical[:3] == want[:3]
        assert canonical[3] == (kind if kind in (None, "Degenerate") else "Neutral")
        assert answers["stabilizer"][i] == want
        got = answers["slice"][i]
        if code == 4 or code == 2 and "right angle" in error:
            assert got[:3] == (0, None, True) and got[3] in neutral | {"Degenerate"}
        else:
            assert got == want
