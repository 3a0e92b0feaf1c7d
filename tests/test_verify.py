"""lbo.verify's Check records, in process, against verify's golden bytes and exit codes."""
import contextlib
import io
from pathlib import Path

import pytest

import lbo.cli as cli
from lbo import verify
from lbo.minkowski import ToleranceConfig

GOLDEN = Path(__file__).parent / "golden"

CHECKS = [
    ("isometry", "induced metric preserved"),
    ("isometry", "pushforward is a homomorphism"),
    ("isometry", "light cone preserved"),
    ("pfaffian", "invariant under pushforward"),
    ("pfaffian", "equals twice the cosine on the base curve"),
    ("frames", "tangent Gram closed form"),
    ("frames", "orthonormal frame Gram"),
    ("frames", "transported frame parallel"),
    ("stabilizer", "generators fix their base points"),
    ("stabilizer", "null rotations match polynomial form"),
    ("stabilizer", "null rotation families commute"),
    ("stabilizer", "invariant subspace labels"),
    ("slice", "squared minimum matches twice |cos|"),
    ("slice", "empirical minimum within two percent"),
    ("slice", "degenerate radius collapses"),
]


def test_run_gives_the_golden_lines_in_order():
    checks = list(verify.run(verify.SUITES, 300, 2, ToleranceConfig(eps=1e-9)))
    assert [(check.suite, check.name) for check in checks] == CHECKS
    assert all(check.passed == (check.value <= check.threshold) for check in checks)
    lines = "".join(cli._check_line(check) + "\n" for check in checks)
    assert lines == (GOLDEN / "verify.samples300.seed2.txt").read_text()


def test_a_failing_check_prints_fail_and_exits_4(monkeypatch):
    for name in ("LBO_TOL", "LBO_SEED", "LBO_SAMPLES"):
        monkeypatch.delenv(name, raising=False)
    failing = verify.Check("frames", "tangent Gram closed form", 2e-10, 1e-10)
    monkeypatch.setitem(verify.SUITES, "frames", lambda samples, seed, tol: [failing])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--suite", "all", "--samples", "5"])
    assert code == 4
    lines = out.getvalue().splitlines()
    assert len(lines) == len(CHECKS) - 2
    assert lines[5] == (
        "frames     tangent Gram closed form                     FAIL  2.000e-10 <= 1e-10"
    )
    assert [line for line in lines if " FAIL " in line] == [lines[5]]
    assert err.getvalue() == "invariant violation: verification suite failed\n"


@pytest.mark.parametrize("seed", range(6))
def test_every_check_passes_on_every_seed(seed):
    for samples in (1, 50, 129, 300, 2500):
        checks = list(verify.run(verify.SUITES, samples, seed, ToleranceConfig(eps=1e-9)))
        assert [(check.suite, check.name) for check in checks] == CHECKS
        failed = [check for check in checks if not check.passed]
        assert not failed, (seed, samples, failed)
