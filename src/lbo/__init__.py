"""Light-cone bivector orbits: exterior-square geometry of Minkowski 4-space.

The library studies decomposable-norm bivectors through the induced action
of the proper Lorentz group: canonical-form reduction, orbit classification,
tangent frames on the canonical surface, stabilizer subgroups with their
invariant-subspace lattice, and topology certificates for constant-radius
slices of an orbit.

Each exported name loads its submodule on first use (PEP 562), so a program
that needs only part of the library, such as one lbo subcommand, does not
compile and run the rest.
"""
import importlib

# Loading the submodule lbo.wedge binds the package attribute "wedge" to the
# module, and no later lookup reaches __getattr__; every subcommand loads it
# anyway, so load it here and bind the function over it.
from .wedge import wedge

# The exported names of each submodule.
_EXPORTS = {
    "errors": "DegenerateOrbitError InvariantViolationError NotInLightConeError",
    "minkowski": """
        BOOST DEFAULT_TOL ETA ROTATION GeneratorKind ToleranceConfig as_vec4 boost_matrix
        generator is_proper_lorentz lie_generator lorentz_inverse minkowski_inner
        random_generator_word random_proper_lorentz rotation_matrix word_matrix
    """,
    "orbit": """
        CanonicalForm OrbitBatch OrbitClass OrbitKind ParallelFrameReport TangentFrame
        base_point canonical_bivector canonical_form canonical_representative
        critical_rapidity from_vector_pair normal_directions normal_form_bivector
        orbit_class orthonormal_tangent_frame parallel_frame_check reconstruct
        reduce_orbits surface_point tangent_frame tangent_gram to_vector_pair
    """,
    "rslice": "SliceTopology empirical_min_radius in_slice min_slice_radius slice_topology",
    "stabilizer": """
        Family StabilizerElement SubspaceLabel classify_invariant_subspace degenerate_base
        degenerate_invariant_plane fixing_residual neutral_base neutral_invariant_plane
        null_rotation_a null_rotation_angles null_rotation_b stabilizer_element
        stabilizer_generators stabilizer_sweep_matrix
    """,
    "wedge": """
        HAT_DIAG NULL_BASIS_MATRIX PAIRS as_bivector basis_bivector from_null_basis
        hat_inner in_light_cone lie_pushforward_matrix null_basis_vector pfaffian
        pushforward pushforward_matrix split_norms to_null_basis wedge
    """,
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
