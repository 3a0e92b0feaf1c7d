"""The stdout bytes of the benchmark workloads, pinned by sha256 prefix.

Every change that keeps output bytes keeps these digests (ROADMAP, "Output
changes").  The corpora come from benchmarks/workloads.py, and each run is
cli.main in this process, so the whole set takes about a second.
"""
import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

_WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"

# (workload, seed, argv or None for the workload's own) -> sha256 prefix of stdout
DIGESTS = {
    ("classify-mixed", 1, None): "46807d81e84ef7f7",
    ("classify-mixed", 2, None): "2529296ba725013f",
    ("stabilizer-mixed", 1, None): "b1feb59ac12aec1c",
    ("stabilizer-mixed", 2, None): "8634183fcf13185c",
    ("slice-pairs", 1, None): "92cc00584d947998",
    ("classify-mixed", 1, ("canonical",)): "d67c7238b15d5140",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("lbo_bench_workloads", _WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize(("name", "seed", "argv"), list(DIGESTS))
def test_workload_stdout_digest(name, seed, argv, workloads, monkeypatch):
    import lbo.cli as cli

    for var in ("LBO_FORMAT", "LBO_R", "LBO_TOL"):
        monkeypatch.delenv(var, raising=False)
    wl = workloads[name]
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(wl.corpus(seed, wl.records).text))
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv or wl.argv))
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest[:16] == DIGESTS[name, seed, argv]
