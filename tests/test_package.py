"""The package's import surface, and the process entry of the CLI."""
import contextlib
import gc
import importlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import lbo
import lbo.cli as cli

# The public names of the package, as its exports have stood since the first release.
PUBLIC = """
    BOOST CanonicalForm DEFAULT_TOL DegenerateOrbitError ETA Family GeneratorKind HAT_DIAG
    InvariantViolationError NULL_BASIS_MATRIX NotInLightConeError OrbitBatch OrbitClass
    OrbitKind PAIRS ParallelFrameReport ROTATION SliceTopology StabilizerElement
    SubspaceLabel TangentFrame ToleranceConfig as_bivector as_vec4 base_point
    basis_bivector boost_matrix canonical_bivector canonical_form canonical_representative
    classify_invariant_subspace critical_rapidity degenerate_base degenerate_invariant_plane
    empirical_min_radius fixing_residual from_null_basis from_vector_pair generator
    hat_inner in_light_cone in_slice is_proper_lorentz lie_generator lie_pushforward_matrix
    lorentz_inverse min_slice_radius minkowski_inner neutral_base neutral_invariant_plane
    normal_directions normal_form_bivector null_basis_vector null_rotation_a
    null_rotation_angles null_rotation_b orbit_class orthonormal_tangent_frame
    parallel_frame_check pfaffian pushforward pushforward_matrix random_generator_word
    random_proper_lorentz reconstruct reduce_orbits rotation_matrix slice_topology
    split_norms stabilizer_element stabilizer_generators stabilizer_sweep_matrix
    surface_point tangent_frame tangent_gram to_null_basis to_vector_pair wedge word_matrix
""".split()


def _python(script: str, *args, stdin: bytes = b"") -> bytes:
    """The stdout of a fresh interpreter running script with args."""
    return subprocess.run(
        [sys.executable, "-c", script, *args], input=stdin, capture_output=True, check=True
    ).stdout


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lbo import *", namespace)
    assert sorted(lbo.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        module = importlib.import_module(f"lbo.{lbo._SUBMODULE[name]}")
        assert namespace[name] is getattr(module, name), name


def test_dir_covers_all():
    assert set(lbo.__all__) <= set(dir(lbo))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        lbo.nope


@pytest.mark.parametrize(
    "first",
    ["import lbo", "import lbo.wedge", "from lbo.wedge import wedge", "import lbo.cli",
     "from lbo import *", "import lbo.verify"],
)
def test_the_package_wedge_is_the_function(first):
    script = (
        f"{first}\nimport importlib, lbo\n"
        "assert lbo.wedge is importlib.import_module('lbo.wedge').wedge, lbo.wedge\n"
        "from lbo import wedge\nassert wedge is lbo.wedge\n"
    )
    _python(script)
    assert lbo.wedge is importlib.import_module("lbo.wedge").wedge


LOADED = """
import contextlib, io, sys
import lbo.cli
with contextlib.redirect_stdout(io.StringIO()):
    lbo.cli.main(sys.argv[1:])
print(" ".join(sorted(name for name in sys.modules if name.startswith("lbo."))))
"""


@pytest.mark.parametrize(
    "args, stabilizer, verify",
    [
        (["classify", "--r", "1.0"], False, False),
        (["canonical"], False, False),
        (["slice", "--r", "1.0"], False, False),
        (["stabilizer"], True, False),
        (["verify", "--suite", "stabilizer"], True, True),
    ],
)
def test_a_subcommand_loads_only_the_modules_it_runs(args, stabilizer, verify):
    records = b'{"id":"n","c":[2,-2,3,1,0,0]}\n{"id":"d","c":[2,-2,2,1,1,-2]}\n'
    loaded = _python(LOADED, *args, stdin=records).split()
    assert b"lbo.orbit" in loaded
    assert (b"lbo.stabilizer" in loaded, b"lbo.verify" in loaded) == (stabilizer, verify)


@pytest.mark.parametrize("args", [["stabilizer"], ["verify", "--suite", "stabilizer"]])
def test_main_leaves_the_collector_as_it_finds_it(args, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"c":[2,-2,3,1,0,0]}\n'))
    state = gc.isenabled(), gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def test_the_process_entry_freezes_the_heap_before_main(monkeypatch):
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(cli, "main", gc.get_freeze_count)
    try:
        assert cli.console() > 0
    finally:
        gc.unfreeze()


def test_every_process_entry_is_the_console():
    # python -m lbo.cli, through runpy as -m runs it, freezes before main prints
    script = (
        "import gc, runpy, sys\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: (print('frozen', file=sys.stderr), freeze())\n"
        "sys.argv = ['lbo', 'verify', '--suite', 'nope']\n"
        "runpy.run_module('lbo.cli', run_name='__main__', alter_sys=True)\n"
    )
    p = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert p.returncode == 3
    assert p.stderr.decode().splitlines()[0] == "frozen"
    assert p.stderr.decode().splitlines()[1].startswith("usage error: argument --suite")
    # the installed lbo command
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'lbo = "lbo.cli:console"' in pyproject.read_text().splitlines()
