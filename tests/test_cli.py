import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

GOLD_OFF_CONE = (
    b'{"id":"gold","in_light_cone":false,"A":0.328125,"B":1.0125,'
    b'"pfaffian":0.39374999999999999,"canonical":null,"class":null,'
    b'"reason":"split norms differ: spatial 0.328125 vs temporal 1.0125"}\n'
)
GOLD_NEUTRAL = (
    b'{"id":"e","in_light_cone":true,"A":1,"B":1,"pfaffian":1,'
    b'"canonical":{"r":1,"phi":0},"class":{"kind":"NeutralPlus","r0":1,"epsilon":1},'
    b'"diagnostics":{"reconstruction_residual":0,"representative_residual":0}}\n'
)

# Frozen from the thread-pool implementation: a generic neutral record and a
# generic degenerate one (axial (1, 2, 2), polar (3, 0, 0) and (2, 1, -2)).
GOLD_PAIR = b'{"id":"n","c":[2,-2,3,1,0,0]}\n{"id":"d","c":[2,-2,2,1,1,-2]}\n'
GOLD_STABILIZER = (
    b'{"id":"n","in_light_cone":true,"kind":"NeutralPlus","families":[{"family":"rotation12",'
    b'"parameter":-0.90000000000000002,"fixing_residual":3.9599683826557206e-16},'
    b'{"family":"boost34","parameter":-0.90000000000000002,'
    b'"fixing_residual":4.4177019029269051e-16},{"family":"reflected_boost34",'
    b'"parameter":-0.90000000000000002,"fixing_residual":4.4177019029269051e-16},'
    b'{"family":"rotation12","parameter":-0.29999999999999999,'
    b'"fixing_residual":2.5774771283283483e-16},{"family":"boost34",'
    b'"parameter":-0.29999999999999999,"fixing_residual":3.7791322414956014e-16},'
    b'{"family":"reflected_boost34","parameter":-0.29999999999999999,'
    b'"fixing_residual":3.7791322414956014e-16},{"family":"rotation12",'
    b'"parameter":0.29999999999999999,"fixing_residual":1.8549918689772906e-16},'
    b'{"family":"boost34","parameter":0.29999999999999999,'
    b'"fixing_residual":3.7921335575229103e-16},{"family":"reflected_boost34",'
    b'"parameter":0.29999999999999999,"fixing_residual":3.7921335575229103e-16},'
    b'{"family":"rotation12","parameter":0.90000000000000002,'
    b'"fixing_residual":4.1869132231567339e-16},{"family":"boost34",'
    b'"parameter":0.90000000000000002,"fixing_residual":5.0471411113383631e-16},'
    b'{"family":"reflected_boost34","parameter":0.90000000000000002,'
    b'"fixing_residual":5.0471411113383631e-16}],"max_residual":5.0471411113383631e-16}\n'
    b'{"id":"d","in_light_cone":true,"kind":"Degenerate",'
    b'"families":[{"family":"null_rotation_a","parameter":-0.90000000000000002,'
    b'"fixing_residual":3.5108334685767017e-16},{"family":"null_rotation_b",'
    b'"parameter":-0.90000000000000002,"fixing_residual":4.1950828177019914e-16},'
    b'{"family":"null_rotation_a","parameter":-0.29999999999999999,'
    b'"fixing_residual":3.0517111990148255e-16},{"family":"null_rotation_b",'
    b'"parameter":-0.29999999999999999,"fixing_residual":2.5772695602081545e-16},'
    b'{"family":"null_rotation_a","parameter":0.29999999999999999,'
    b'"fixing_residual":2.2812914531392959e-16},{"family":"null_rotation_b",'
    b'"parameter":0.29999999999999999,"fixing_residual":2.5772695602081545e-16},'
    b'{"family":"null_rotation_a","parameter":0.90000000000000002,'
    b'"fixing_residual":2.9139682792692303e-16},{"family":"null_rotation_b",'
    b'"parameter":0.90000000000000002,"fixing_residual":4.2919051663548791e-16}],'
    b'"max_residual":4.2919051663548791e-16}\n'
)
GOLD_CANONICAL = (
    b'{"id":"n","in_light_cone":true,"r":3,"phi":1.2309594173407747,"basis":[0,0,1,0,'
    b'0.70710678118654757,-0.70710678118654757,0,0,0.70710678118654757,0.70710678118654757,0,0,'
    b'0,0,0,1],"representative":[1.7320508075688779,0,6.6613381477509392e-16,'
    b'-1.1102230246251565e-16,0,1.7320508075688781],"witness":[-0.57735026918962584,'
    b'0.57735026918962584,0.57735026918962584,0,0,-1.0000000000000002,1.0000000000000002,'
    b'1.0000000000000002,0.81649658092772603,0.40824829046386307,0.40824829046386307,0,0,'
    b'-0.70710678118654768,0.70710678118654768,1.4142135623730951]}\n'
    b'{"id":"d","in_light_cone":true,"r":3,"phi":1.5707963267948966,'
    b'"basis":[0.33333333333333331,0.66666666666666663,0.66666666666666663,0,'
    b'0.66666666666666663,-0.66666666666666663,0.33333333333333331,0,0.66666666666666663,'
    b'0.33333333333333331,-0.66666666666666663,0,0,0,0,1],"representative":null,"witness":null,'
    b'"note":"degenerate orbit: no element of the form r0*(e12 + eps*e34) exists"}\n'
)

# classify --r 1.0 on GOLD_PAIR, frozen from the record-by-record implementation.
GOLD_CLASSIFY = (
    b'{"id":"n","in_light_cone":true,"A":9,"B":9,"pfaffian":3,'
    b'"canonical":{"r":3,"phi":1.2309594173407747},'
    b'"class":{"kind":"NeutralPlus","r0":1.7320508075688772,"epsilon":1},'
    b'"slice":{"r_queried":1,"topology":"Empty","boundary":false},'
    b'"diagnostics":{"reconstruction_residual":0,'
    b'"representative_residual":7.5025670612102912e-16}}\n'
    b'{"id":"d","in_light_cone":true,"A":9,"B":9,"pfaffian":0,'
    b'"canonical":{"r":3,"phi":1.5707963267948966},'
    b'"class":{"kind":"Degenerate","r0":0,"epsilon":null},'
    b'"slice":{"r_queried":1,"topology":"RP3","boundary":false},'
    b'"diagnostics":{"reconstruction_residual":7.4014868308343778e-17,'
    b'"representative_residual":null}}\n'
)

# canonical on parallel and anti-parallel pairs with the polar vector on the
# first axis, where the adapted frame falls back to the second axis; frozen
# from the record-by-record implementation.
PARALLEL_PAIR = b'{"id":"p","c":[0,0,1.5,1.5,0,0]}\n{"id":"q","c":[0,0,-2,2,0,0]}\n'
GOLD_PARALLEL = (
    b'{"id":"p","in_light_cone":true,"r":1.5,"phi":0,'
    b'"basis":[0,0,1,0,0,1,0,0,-1,0,0,0,0,0,0,1],"representative":[1.5,0,0,0,0,1.5],'
    b'"witness":[0,0,-1,0,0,1,0,0,1,0,0,0,0,0,0,1]}\n'
    b'{"id":"q","in_light_cone":true,"r":2,"phi":3.1415926535897931,'
    b'"basis":[0,0,-1,0,0,1,0,0,1,0,0,0,0,0,0,1],'
    b'"representative":[2,0,-1.2246467991473532e-16,3.6739403974420594e-16,0,-2],'
    b'"witness":[1.2246467991473532e-16,0,-1,0,0,1,0,6.123233995736766e-17,1,0,'
    b'1.2246467991473532e-16,0,0,6.123233995736766e-17,0,1]}\n'
)


def run_cli(args, stdin=b"", env_extra=None):
    env = os.environ.copy()
    env.pop("LBO_FORMAT", None)
    env.pop("LBO_R", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "lbo.cli", *args],
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


def test_classify_golden_bytes():
    p = run_cli(["classify"], b'{"id":"gold","c":[0.5,-0.25,0.75,0.125,0.6,0.3]}\n')
    assert p.returncode == 0
    assert p.stdout == GOLD_OFF_CONE
    p = run_cli(["classify"], b'{"id":"e","c":[1,0,0,0,0,1]}\n')
    assert p.returncode == 0
    assert p.stdout == GOLD_NEUTRAL


@pytest.mark.parametrize(
    "command,gold", [("stabilizer", GOLD_STABILIZER), ("canonical", GOLD_CANONICAL)]
)
def test_stabilizer_and_canonical_golden_bytes(command, gold):
    for threads in ("1", "4"):
        p = run_cli([command, "--threads", threads], GOLD_PAIR)
        assert p.returncode == 0
        assert p.stdout == gold

def test_classify_generic_golden_bytes():
    for threads in ("1", "4"):
        p = run_cli(["classify", "--r", "1.0", "--threads", threads], GOLD_PAIR)
        assert p.returncode == 0
        assert p.stdout == GOLD_CLASSIFY


def test_canonical_parallel_golden_bytes():
    p = run_cli(["canonical"], PARALLEL_PAIR)
    assert p.returncode == 0
    assert p.stdout == GOLD_PARALLEL


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
        else:
            rec = {"id": rid, "c": [7e-5, 0, 0, 0, 0, 6.3e-5]}  # classify: invariant violation
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


@pytest.mark.parametrize("args", CHUNK_ARGS)
def test_output_does_not_depend_on_the_chunk(args, monkeypatch):
    import lbo.cli as cli

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    count = cli.CHUNK + 45  # more than one chunk, not a multiple of it
    lines = _chunk_test_lines(count)
    code, batch = _main_in_process(args, "".join(lines))
    # each record alone, bad JSON lines included
    codes, parts = [], []
    for line in lines:
        one_code, one = _main_in_process(args, line)
        codes.append(one_code)
        parts.append(one)
    assert code == max(codes) == (4 if args[0] == "classify" else 2)
    assert batch == "".join(parts)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("args", CHUNK_ARGS)
def test_formatted_output_does_not_depend_on_the_chunk(args, fmt, monkeypatch):
    import lbo.cli as cli

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    args = [*args, "--format", fmt]
    text = "".join(_chunk_test_lines(cli.CHUNK + 45))
    code, batch = _main_in_process(args, text)
    assert code == (4 if args[0] == "classify" else 2)
    # one record per chunk and per stabilizer block
    monkeypatch.setattr(cli, "CHUNK", 1)
    monkeypatch.setattr(cli, "STABILIZER_BLOCK", 1)
    assert _main_in_process(args, text) == (code, batch)


def test_stacked_stabilizer_residuals_are_bit_identical():
    import lbo.cli as cli
    from lbo.minkowski import ToleranceConfig, lorentz_inverse
    from lbo.orbit import OrbitKind, reduce_orbits
    from lbo.stabilizer import fixing_residual, generator_stack

    # neutral of both signs, degenerate and off-cone rows over six decades,
    # more than two stabilizer blocks and not a multiple of one
    rng = np.random.default_rng(3)
    rows = []
    for k in range(2 * cli.STABILIZER_BLOCK + 7):
        a, b = rng.normal(size=3), rng.normal(size=3)
        if k % 4 == 1:
            b = np.cross(a, b)
        if k % 4 != 3:
            b *= np.linalg.norm(a) / np.linalg.norm(b)
        rows.append(np.array([a[2], -a[1], b[0], a[0], b[1], b[2]]) * 10.0 ** (k % 7 - 3))
    W = np.array(rows)
    tol = ToleranceConfig(eps=1e-9)
    batch = reduce_orbits(W, tol)
    records = list(cli._stabilizer_chunk([f"r{i}" for i in range(len(W))], W, tol))
    seen = set()
    for i, (shape, values) in enumerate(records):
        kind = batch.kind[i]
        seen.add(kind)
        if kind is None:
            assert shape is cli._STABILIZER_OFF
            continue
        if kind == OrbitKind.DEGENERATE:
            conj, conj_inv = batch.basis[i], lorentz_inverse(batch.basis[i])
        else:
            conj, conj_inv = lorentz_inverse(batch.witness[i]), batch.witness[i]
        stack, _ = generator_stack(kind)
        expected = fixing_residual(conj @ stack @ conj_inv, W[i])
        assert values[0] == f"r{i}"
        assert np.array_equal(values[1:-1], expected)
        assert values[-1] == max(0.0, *expected)
    assert seen == {None, OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE}


# Golden outputs frozen from the dict-building serialiser that the column
# templates replaced, and the *.table files from the flat table of the same
# records: (output file, input file, arguments, exit code).
# mixed.ndjson holds ids with escapes and non-ASCII characters, a missing id,
# negative-zero coefficients, a right-angle neutral record (an error with
# --tol 1e-300), a decode error, a bad JSON line after a valid first line, a
# non-string id, integral float outputs, an exit-4 record for classify,
# off-cone, zero, vector-pair and array records, and split norms that
# overflow to inf.  slice.ndjson meets the radius 1 in every topology.
GOLDEN = Path(__file__).parent / "golden"
CLASSIFY, SLICE = ["classify", "--r", "1.0"], ["slice", "--r", "1.0"]
JSON, TABLE, TINY_TOL = ["--format", "json"], ["--format", "table"], ["--tol", "1e-300"]
GOLDEN_CASES = [
    ("classify.json", "mixed.ndjson", [*CLASSIFY, *JSON], 4),
    ("canonical.json", "mixed.ndjson", ["canonical", *JSON], 2),
    ("slice.json", "mixed.ndjson", [*SLICE, *JSON], 2),
    ("stabilizer.json", "mixed.ndjson", ["stabilizer", *JSON], 2),
    ("classify.table", "mixed.ndjson", [*CLASSIFY, *TABLE], 4),
    ("canonical.table", "mixed.ndjson", ["canonical", *TABLE], 2),
    ("slice.table", "mixed.ndjson", [*SLICE, *TABLE], 2),
    ("stabilizer.table", "mixed.ndjson", ["stabilizer", *TABLE], 2),
    ("classify.tol300.json", "mixed.ndjson", [*CLASSIFY, *JSON, *TINY_TOL], 2),
    ("canonical.tol300.json", "mixed.ndjson", ["canonical", *JSON, *TINY_TOL], 2),
    ("slice.tol300.json", "mixed.ndjson", [*SLICE, *JSON, *TINY_TOL], 2),
    ("stabilizer.tol300.json", "mixed.ndjson", ["stabilizer", *JSON, *TINY_TOL], 2),
    ("slice-topologies.ndjson", "slice.ndjson", SLICE, 0),
    ("slice-topologies.table", "slice.ndjson", [*SLICE, *TABLE], 0),
]

@pytest.mark.parametrize(
    "output,source,args,code", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_golden_formats(output, source, args, code):
    p = run_cli(args, (GOLDEN / source).read_bytes())
    assert p.returncode == code
    assert p.stdout == (GOLDEN / output).read_bytes()


VERIFY_GOLDEN_CASES = [
    ("verify.samples2500.seed1.txt", ["--samples", "2500", "--seed", "1"]),
    ("verify.samples300.seed2.txt", ["--samples", "300", "--seed", "2"]),
]


@pytest.mark.parametrize(
    "output,args", VERIFY_GOLDEN_CASES, ids=[case[0] for case in VERIFY_GOLDEN_CASES]
)
def test_verify_golden_bytes(output, args):
    # the drawn words and vectors feed every figure, so a changed draw shows here
    p = run_cli(["verify", "--suite", "all", "--tol", "1e-9", *args])
    assert p.returncode == 0
    assert p.stdout == (GOLDEN / output).read_bytes()


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
    # where the Python has it) or a failed int-to-float conversion
    good = '{"id":"a","c":[1,0,0,0,0,1]}\n'
    for digits in (400, 4000, 5000):
        huge = "1" * digits
        for line, error in (
            ('{"id":"huge","c":[%s,0,0,0,0,1]}\n' % huge, '"c" entries must be finite'),
            ('{"id":"huge","x":[1,0,0,%s],"y":[0,1,0,0]}\n' % huge, "vector entries must be finite"),
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


# Lines that each fail alone or decode to something unusual, frozen with the
# outputs below from the line-by-line parser: two bad lines that joined by a
# comma would read as one array, a bad line, a line holding an array of
# records, blank lines, and "c" entries given as a string, a bool and a number
# past the largest double.
EDGE_LINES = (
    b"1,[2\n3]\n"
    b'{"id":"mid" "c":[1,0,0,0,0,1]}\n'
    b'[{"id":"arr1","c":[1,0,0,0,0,1]},{"id":"arr2","x":[1,0,0,1],"y":[0,0,1,0]}]\n'
    b"\n   \n"
    b'{"id":"s1","c":["1",0,0,0,0,1]}\n'
    b'{"id":"t1","c":[true,0,0,0,0,1]}\n'
    b'{"id":"big","c":[1e400,0,0,0,0,1]}\n'
)
EDGE_BATCH = (
    b'{"id":"a","x":[1,0,0,1],"y":[0,1,0,0]}\n' + EDGE_LINES + b'{"id":"z","c":[1,0,0,0,0,1]}\n'
)
GOLD_EDGE_SLICE = (
    b'{"id":"a","in_light_cone":true,"r_queried":1,"class":{"kind":"Degenerate","r0":0,'
    b'"epsilon":null},"topology":"RP3","boundary":false,"in_slice":true}\n'
    b'{"id":null,"error":"bad JSON line: Extra data: line 1 column 2 (char 1)"}\n'
    b'{"id":null,"error":"bad JSON line: Extra data: line 1 column 2 (char 1)"}\n'
    b'{"id":null,"error":"bad JSON line: Expecting \',\' delimiter: line 1 column 13 (char 12)"}\n'
    b'{"id":"arr1","in_light_cone":true,"r_queried":1,"class":{"kind":"NeutralPlus","r0":1,'
    b'"epsilon":1},"topology":"Sphere2","boundary":true,"in_slice":true}\n'
    b'{"id":"arr2","in_light_cone":true,"r_queried":1,"class":{"kind":"Degenerate","r0":0,'
    b'"epsilon":null},"topology":"RP3","boundary":false,"in_slice":true}\n'
    b'{"id":"s1","in_light_cone":true,"r_queried":1,"class":{"kind":"NeutralPlus","r0":1,'
    b'"epsilon":1},"topology":"Sphere2","boundary":true,"in_slice":true}\n'
    b'{"id":"t1","in_light_cone":true,"r_queried":1,"class":{"kind":"NeutralPlus","r0":1,'
    b'"epsilon":1},"topology":"Sphere2","boundary":true,"in_slice":true}\n'
    b'{"id":"big","error":"\\"c\\" entries must be finite"}\n'
    b'{"id":"z","in_light_cone":true,"r_queried":1,"class":{"kind":"NeutralPlus","r0":1,'
    b'"epsilon":1},"topology":"Sphere2","boundary":true,"in_slice":true}\n'
)
# The edge lines six times among 300 records, around the first chunk boundary
# and inside chunks: sha256 of stdout per command, exit code 2 for each.
GOLD_EDGE_DIGESTS = {
    "classify": "df2372cb165805e43b8f735ae4c73b9448e91b46830cf79ac00adf22c4f7872f",
    "canonical": "3a882ba75210643818c412471aadf984919972eda6889ba0d97c30c7fa74f64b",
    "slice": "adf21ff813ea4d82e4a322ec2621b80088a465dc74a32c6b23251a2e5f806232",
    "stabilizer": "ee4138bc96a2b75be56361c453ab48301d7bf78fca6a1f6a6bad4cc0be13c3a4",
}
COMMAND_ARGS = {
    "classify": ["classify", "--r", "1.0"],
    "canonical": ["canonical"],
    "slice": ["slice", "--r", "1.0"],
    "stabilizer": ["stabilizer"],
}


def test_edge_lines_decode_as_alone():
    p = run_cli(COMMAND_ARGS["slice"], EDGE_BATCH)
    assert (p.returncode, p.stderr) == (2, b"")
    assert p.stdout == GOLD_EDGE_SLICE


@pytest.mark.parametrize("command", sorted(GOLD_EDGE_DIGESTS))
def test_edge_lines_among_chunks(command):
    lines = batch_lines(300).splitlines(keepends=True)
    for at in (250, 129, 128, 127, 126, 60):
        lines.insert(at, EDGE_LINES)
    p = run_cli(COMMAND_ARGS[command], b"".join(lines))
    assert (p.returncode, p.stderr) == (2, b"")
    assert hashlib.sha256(p.stdout).hexdigest() == GOLD_EDGE_DIGESTS[command]


def _parsed_alone(lines):
    """What the line-by-line parser gives each line: a document or an error's text."""
    import lbo.cli as cli

    return [
        str(doc) if isinstance(doc, cli._InputError) else doc
        for doc in map(cli._parse_json, lines)
    ]


def _parsed_together(lines):
    import lbo.cli as cli

    return [
        str(doc) if isinstance(doc, cli._InputError) else doc for doc in cli._parse_lines(lines)
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
        # a line of two documents, and brackets nested past _MAX_NESTING
        ["1,2\n", "3\n"],
        ["[" * 20 + "]" * 20 + "\n", "[" * 2000 + "]" * 1999 + "\n"],
    ],
)
def test_chunk_parse_matches_each_line_alone(lines):
    assert _parsed_together(lines) == _parsed_alone(lines)


_FRAGMENTS = st.sampled_from(
    ["{", "}", "[", "]", ",", ":", " ", "1", "null", '"a"', '"]"', '"{"', '"\\""', '"\\\\"',
     '{"id":"x","c":[1,2]}', "[1,[2]]"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_FRAGMENTS, min_size=1, max_size=6).map("".join), min_size=1, max_size=6))
def test_chunk_parse_matches_each_line_alone_on_fragments(texts):
    lines = [text + "\n" for text in texts]
    assert _parsed_together(lines) == _parsed_alone(lines)


def test_records_parse_in_one_pass(monkeypatch):
    import lbo.cli as cli

    lines = batch_lines(cli.CHUNK).decode().splitlines(keepends=True)
    expected = [json.loads(line) for line in lines]
    monkeypatch.setattr(cli, "_parse_json", None)  # no line is parsed alone
    assert cli._parse_lines(lines) == expected


def test_escaped_lines_skip_the_joined_parse(monkeypatch):
    # the bracket test turns down text with a backslash before any joined
    # parse, so such a chunk costs one json.loads per line and no more
    import lbo.cli as cli

    lines = [json.dumps({"id": f"r{k}\u00e9", "c": [1, 0, 0, 0, 0, 1]}) + "\n" for k in range(9)]
    parsed = []
    loads = json.loads
    monkeypatch.setattr(
        cli.json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw)
    )
    assert cli._parse_lines(lines) == [loads(line) for line in lines]
    assert parsed == lines


def _decoded_record_by_record(docs):
    """What _decode_chunk must give for docs, from _decode_record on each alone:
    (id text, message) per bad document and None per good one, the good
    ones' id texts, and their bivectors wedged one row at a time."""
    import lbo.cli as cli

    items, ids, rows = [], [], []
    for doc in docs:
        rid, row = cli._decode_record(doc)
        if isinstance(row, cli._InputError):
            items.append((cli._scalar(rid), str(row)))
            continue
        items.append(None)
        ids.append(cli._scalar(rid))
        rows.append(row if len(row) == 6 else cli.wedge(np.array(row[:4]), np.array(row[4:])))
    return items, ids, np.array(rows, dtype=float).reshape(-1, 6)


def _decoded_by_chunk(docs):
    import lbo.cli as cli

    items, ids, W = cli._decode_chunk(docs)
    items = [item and (item[1][0], str(item[1][1])) for item in items]
    return items, ids, W


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
def test_chunk_decode_matches_each_record_alone(docs):
    with np.errstate(over="ignore", invalid="ignore"):  # wedges of huge entries overflow
        items, ids, W = _decoded_by_chunk(docs)
        want_items, want_ids, want_W = _decoded_record_by_record(docs)
    assert (items, ids) == (want_items, want_ids)
    assert W.shape == want_W.shape
    assert np.array_equal(W.view(np.int64), want_W.view(np.int64))


def test_a_clean_chunk_decodes_without_decode_record(monkeypatch):
    import lbo.cli as cli

    decoded = []
    decode = cli._decode_record
    monkeypatch.setattr(cli, "_decode_record", lambda doc: decoded.append(doc) or decode(doc))
    rng = np.random.default_rng(5)
    coefficients = [{"id": f"c{k}", "c": rng.normal(size=6).tolist()} for k in range(cli.CHUNK)]
    pairs = [{"x": rng.normal(size=4).tolist(), "y": rng.normal(size=4).tolist()}] * 3
    for docs in (coefficients, pairs):
        items, ids, W = cli._decode_chunk(docs)
        assert items == [None] * len(docs) and len(ids) == len(W) == len(docs)
    # a whole run over more than two chunks
    text = "".join(json.dumps(doc) + "\n" for doc in coefficients * 3)
    code, out = _main_in_process(["slice", "--r", "1"], text)
    assert code == 0 and out.count("\n") == 3 * cli.CHUNK
    assert decoded == []
    # one bad record sends its chunk, and only it, through _decode_record
    docs = coefficients[:-1] + [{"id": "bad", "c": [1.0, 2.0]}]
    assert cli._decode_chunk(docs)[0][-1][1][0] == '"bad"'
    assert decoded == docs


class _WatchedStdin(io.StringIO):
    """Input that notes how many lines were written by the time it gives the line after."""

    def __init__(self, text, out, after):
        super().__init__(text)
        self.out, self.after, self.lines, self.written = out, after, 0, None

    def __next__(self):
        if self.lines == self.after:
            self.written = self.out.getvalue().count("\n")
        self.lines += 1
        return super().__next__()


def test_a_chunk_is_written_before_the_next_line_is_read(monkeypatch):
    import lbo.cli as cli

    for name in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(name, raising=False)
    out = io.StringIO()
    stdin = sys.stdin
    try:
        sys.stdin = _WatchedStdin(batch_lines(cli.CHUNK + 5).decode(), out, cli.CHUNK)
        with contextlib.redirect_stdout(out):
            assert cli.main(["slice", "--r", "1.0"]) == 0
        assert sys.stdin.written == cli.CHUNK
    finally:
        sys.stdin = stdin


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("count", [1, 127, 128, 129, 300])
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
    assert out.writes <= -(-count // cli.CHUNK)


def test_unbuffered_stdout_gives_the_same_bytes():
    stdin = batch_lines(300)
    buffered = run_cli(COMMAND_ARGS["slice"], stdin, env_extra={"PYTHONUNBUFFERED": ""})
    unbuffered = run_cli(COMMAND_ARGS["slice"], stdin, env_extra={"PYTHONUNBUFFERED": "1"})
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
    (fed,) = cli._json_reals(np.array([v]))
    for shape in shapes:
        slots = [leaf for _, leaf in shape.columns if type(leaf) is cli._Slot]
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
    import lbo.cli as cli
    from lbo.rslice import SliceTopology

    for kind, text in cli._KIND_TEXT.items():
        assert text == cli._scalar(kind)
    for t, (topology, boundary) in cli._TOPOLOGY_TEXT.items():
        if t is None:  # off the cone
            assert topology is boundary is None
            continue
        assert topology == cli._scalar(t.value)
        assert boundary == cli._scalar(t is SliceTopology.SPHERE_2)
    assert [cli._BOOL_TEXT[b] for b in (False, True)] == [cli._scalar(False), cli._scalar(True)]


# What each command printed, warning on stderr, for a row whose pfaffian overflows.
OVERFLOW = b'{"c":[1e200,0,0,0,0,1e200]}\n'
OVERFLOW_REASON = b'"reason":"split norms differ: spatial inf vs temporal inf"}\n'
GOLD_OVERFLOW = {
    "classify": b'{"id":null,"in_light_cone":false,"A":inf,"B":inf,"pfaffian":inf,'
    b'"canonical":null,"class":null,' + OVERFLOW_REASON,
    "canonical": b'{"id":null,"in_light_cone":false,"r":null,"phi":null,"basis":null,'
    b'"representative":null,"witness":null,' + OVERFLOW_REASON,
    "slice": b'{"id":null,"in_light_cone":false,"r_queried":1,"class":null,"topology":null,'
    b'"in_slice":false,' + OVERFLOW_REASON,
    "stabilizer": b'{"id":null,"in_light_cone":false,"kind":null,"families":null,'
    + OVERFLOW_REASON,
}


@pytest.mark.parametrize("command", sorted(GOLD_OVERFLOW))
def test_overflowing_pfaffian_is_quiet(command):
    args = ["classify"] if command == "classify" else COMMAND_ARGS[command]
    p = run_cli(args, OVERFLOW)
    assert (p.returncode, p.stderr) == (0, b"")
    assert p.stdout == GOLD_OVERFLOW[command]


def test_invariant_violation_is_an_error_record_and_batch_goes_on():
    stdin = (
        b'{"id":"a","c":[1,0,0,0,0,1]}\n'
        b'{"id":"bad","c":[7e-5,0,0,0,0,6.3e-5]}\n'
        b'{"id":"c","c":[1,0,0,0,0,1]}\n'
    )
    p = run_cli(["classify"], stdin)
    assert p.returncode == 4
    lines = p.stdout.splitlines()
    assert [json.loads(line)["id"] for line in lines] == ["a", "bad", "c"]
    assert lines[2] == lines[0].replace(b'"id":"a"', b'"id":"c"')
    bad = json.loads(lines[1])
    assert list(bad) == ["id", "error"]
    assert bad["error"].startswith("invariant violation: ")
    assert p.stderr.decode().splitlines() == [bad["error"]]
    # exit 4 takes precedence over an input error's 2, in either order
    p = run_cli(["classify"], stdin + b'{"id":"short","c":[1,2]}\n')
    assert p.returncode == 4
    assert len(p.stdout.splitlines()) == 4
    p = run_cli(["classify"], b'{"id":"short","c":[1,2]}\n' + stdin)
    assert p.returncode == 4


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
    # the writer prints an overflowed real as inf, which json reads as Infinity;
    # an integral real prints without a fraction, so every number is read as a
    # float, and the one integer leaf, epsilon (+-1), prints the same either way
    ndjson = re.sub(r"(?<=[:,\[])(-?)inf\b", r"\1Infinity", ndjson)
    records = [_table_cells(json.loads(line, parse_int=float)) for line in ndjson.splitlines()]
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
    )
    floor = "split norms at or below the tolerance 1e-09: "
    expected = [
        "zero bivector",
        floor + "spatial 1e-12 vs temporal 1e-12",
        floor + "spatial 1e-20 vs temporal 1e-20",
        "split norms differ: spatial 0.328125 vs temporal 1.0125",
    ]
    for args in (["classify"], ["canonical"], ["slice", "--r", "1"], ["stabilizer"]):
        p = run_cli(args, stdin)
        assert p.returncode == 0
        recs = [json.loads(line) for line in p.stdout.splitlines()]
        assert [rec["in_light_cone"] for rec in recs] == [False] * 4
        assert [rec["reason"] for rec in recs] == expected


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
