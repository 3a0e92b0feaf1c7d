import numpy as np
import pytest

from conftest import random_degenerate_bivector, random_light_cone_bivector
from lbo.errors import DegenerateOrbitError, NotInLightConeError
from lbo.minkowski import ToleranceConfig, is_proper_lorentz, rotation_matrix
from lbo.orbit import (
    RIGHT_ANGLE,
    OrbitKind,
    base_point,
    canonical_bivector,
    canonical_form,
    canonical_representative,
    from_vector_pair,
    normal_directions,
    normal_form_bivector,
    orbit_class,
    orthonormal_tangent_frame,
    parallel_frame_check,
    reconstruct,
    reduce_orbits,
    surface_point,
    tangent_frame,
    tangent_gram,
    to_vector_pair,
)
from lbo.wedge import (
    HAT_DIAG,
    hat_inner,
    in_light_cone,
    lie_pushforward_matrix,
    light_cone_reason,
    pfaffian,
    pushforward,
    split_norms,
    to_null_basis,
)
from lbo.minkowski import BOOST, ROTATION, GeneratorKind, lie_generator

SQRT_HALF = 0.7071067811865476


def test_vector_pair_round_trip(rng):
    w = rng.normal(size=6)
    a, b = to_vector_pair(w)
    np.testing.assert_allclose(from_vector_pair(a, b), w, atol=0)
    # frozen wiring: coefficients (c12, c13, c14, c23, c24, c34)
    a0, b0 = to_vector_pair([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_allclose(a0, [4.0, -2.0, 1.0], atol=0)
    np.testing.assert_allclose(b0, [3.0, 5.0, 6.0], atol=0)
    # stacks of pairs give one bivector per row, and stacks of bivectors one
    # C-contiguous pair per row
    A, B = rng.normal(size=(2, 5, 3))
    assert np.array_equal(from_vector_pair(A, B), [from_vector_pair(x, y) for x, y in zip(A, B)])
    with pytest.raises(ValueError):
        from_vector_pair(A, B[0])
    Ws = rng.normal(size=(4, 5, 6))
    As, Bs = to_vector_pair(Ws)
    assert As.flags.c_contiguous and Bs.flags.c_contiguous
    assert np.array_equal(from_vector_pair(As, Bs), Ws)
    assert np.array_equal(As[2, 1], to_vector_pair(Ws[2, 1])[0])
    for bad in (Ws[..., :5], 1.0):
        with pytest.raises(ValueError, match="expected 6 bivector coefficients"):
            to_vector_pair(bad)


def test_canonical_bivector_coefficients():
    w = canonical_bivector(2.0, 0.5)
    expected = np.zeros(6)
    expected[0] = 2.0 * np.cos(0.5)
    expected[3] = 2.0 * np.sin(0.5)
    expected[5] = 2.0
    np.testing.assert_allclose(w, expected, atol=0)
    assert in_light_cone(w)
    assert abs(pfaffian(w) - 4.0 * np.cos(0.5)) < 1e-15


def test_base_point_null_coordinates():
    # over the null basis: (1 + cos, 0, sin, cos - 1, 0, -sin)
    for phi in (0.0, 0.7, np.pi / 2, 2.5, np.pi):
        c, s = np.cos(phi), np.sin(phi)
        np.testing.assert_allclose(
            to_null_basis(base_point(phi)),
            [1.0 + c, 0.0, s, c - 1.0, 0.0, -s],
            atol=1e-15,
        )


def test_canonical_form_frozen_example():
    w = from_vector_pair([1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0, 0.0])
    form = canonical_form(w)
    assert abs(form.r - 1.0) < 1e-14
    assert abs(form.phi - np.pi / 3.0) < 1e-14
    assert is_proper_lorentz(form.basis)
    np.testing.assert_allclose(reconstruct(form), w, atol=1e-14)


def test_canonical_form_round_trip(rng):
    for _ in range(300):
        w = random_light_cone_bivector(rng, scale=np.exp(rng.uniform(-2, 2)))
        form = canonical_form(w)
        assert form.r > 0
        assert 0.0 <= form.phi <= np.pi
        assert is_proper_lorentz(form.basis)
        assert np.linalg.norm(reconstruct(form) - w) <= 1e-9 * np.linalg.norm(w)


def test_canonical_form_scale_equivariance(rng):
    w = random_light_cone_bivector(rng)
    f1 = canonical_form(w)
    f2 = canonical_form(3.5 * w)
    assert abs(f2.r - 3.5 * f1.r) < 1e-12
    assert abs(f2.phi - f1.phi) < 1e-12


@pytest.mark.parametrize(
    "w",
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],  # parallel pair, phi = 0
        [1.0, 0.0, 0.0, 0.0, 0.0, -1.0],  # anti-parallel pair, phi = pi
    ],
)
def test_canonical_form_parallel_fallback(w):
    form = canonical_form(w)
    assert is_proper_lorentz(form.basis)
    np.testing.assert_allclose(reconstruct(form), w, atol=1e-14)
    assert abs(form.phi - (0.0 if w[5] > 0 else np.pi)) < 1e-12


def test_canonical_form_rejects_off_cone():
    with pytest.raises(NotInLightConeError):
        canonical_form([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotInLightConeError):
        orbit_class(np.zeros(6))


def test_orbit_class_frozen():
    k = orbit_class([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert (k.kind, k.epsilon) == (OrbitKind.NEUTRAL_PLUS, 1)
    assert abs(k.r0 - 1.0) < 1e-14
    k = orbit_class([1.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    assert (k.kind, k.epsilon) == (OrbitKind.NEUTRAL_MINUS, -1)
    k = orbit_class(base_point(np.pi / 2))
    assert (k.kind, k.r0, k.epsilon) == (OrbitKind.DEGENERATE, 0.0, None)


def test_orbit_class_r0_is_sqrt_pfaffian(rng):
    for _ in range(100):
        w = random_light_cone_bivector(rng)
        k = orbit_class(w)
        pf = pfaffian(w)
        if k.kind == OrbitKind.DEGENERATE:
            assert abs(pf) <= 1e-9 * max(split_norms(w)[0], 1.0)
        else:
            assert abs(k.r0 - np.sqrt(abs(pf))) < 1e-12
            assert k.epsilon == (1 if pf > 0 else -1)


def test_degenerate_band_uses_spatial_scale():
    w = base_point(np.pi / 2) + np.array([2e-10, 0, 0, 0, 0, 0])
    # perturbation pushes the pfaffian off zero but inside the band
    assert orbit_class(w, ToleranceConfig(eps=1e-6)).kind == OrbitKind.DEGENERATE


@pytest.mark.parametrize(
    "b,eps",
    [
        ([0.5, np.sqrt(3.0) / 2.0, 0.0], 1),  # phi = pi/3 branch
        ([-0.5, np.sqrt(3.0) / 2.0, 0.0], -1),  # phi = 2pi/3 branch
    ],
)
def test_canonical_representative_frozen(b, eps):
    w = from_vector_pair([1.0, 0.0, 0.0], b)
    rep, witness = canonical_representative(w)
    expected = np.zeros(6)
    expected[0] = SQRT_HALF
    expected[5] = eps * SQRT_HALF
    np.testing.assert_allclose(rep, expected, atol=1e-12)
    assert is_proper_lorentz(witness)
    np.testing.assert_allclose(pushforward(witness, w), rep, atol=1e-12)


def test_canonical_representative_random(rng):
    for _ in range(100):
        w = random_light_cone_bivector(rng)
        k = orbit_class(w)
        if k.kind == OrbitKind.DEGENERATE:
            continue
        rep, witness = canonical_representative(w)
        np.testing.assert_allclose(
            rep, normal_form_bivector(k.r0, k.epsilon), atol=1e-9 * max(1.0, k.r0)
        )
        assert is_proper_lorentz(witness, ToleranceConfig(eps=1e-6))


def test_canonical_representative_rejects_degenerate(rng):
    with pytest.raises(DegenerateOrbitError):
        canonical_representative(random_degenerate_bivector(rng))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_reduce_orbits_split_norms_match_split_norms(rng):
    # the correctly rounded square of c ends ...04 here, libm pow(c, 2) gives ...037
    first = [0.3, 0.1, 0.2, 0.4, -0.13617704005841821, 0.5]
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(10000, 1))
    W = np.vstack([first, rng.normal(size=(10000, 6)) * scale])
    batch = reduce_orbits(W, frames=False)
    expected = np.array([split_norms(w) for w in W])
    assert np.array_equal(_bits(batch.spatial), _bits(expected[:, 0]))
    assert np.array_equal(_bits(batch.temporal), _bits(expected[:, 1]))


def test_reduce_orbits_rows_match_one_row_calls(rng):
    rows = [random_light_cone_bivector(rng, 10.0 ** rng.uniform(-2, 2)) for _ in range(60)]
    rows += [random_degenerate_bivector(rng, 10.0 ** rng.uniform(-2, 2)) for _ in range(20)]
    rows += [
        [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],  # parallel pair
        [0.0, 0.0, -1.5, 0.0, 0.0, 0.0],  # anti-parallel pair along the first axis
        [0.0, 0.0, 0.0, 1.0, 0.0, 1.0],  # degenerate at exactly pi/2
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # off the cone
        [0.0] * 6,
        [1e200, 0.0, 0.0, 0.0, 0.0, 1e200],  # squares past the largest double
    ]
    W = np.array(rows)
    with np.errstate(over="ignore"):
        batch = reduce_orbits(W)
    fields = ("spatial", "temporal", "pfaffian", "r", "phi", "basis", "r0", "witness", "reduced")
    for i, w in enumerate(W):
        with np.errstate(over="ignore"):
            one = reduce_orbits(w[None])
            assert batch.reason[i] == light_cone_reason(w)
        for name in fields:
            assert np.array_equal(_bits(getattr(batch, name)[i]), _bits(getattr(one, name)[0]))
        assert batch.reason[i] == one.reason[0]
        assert batch.on_cone[i] == (batch.reason[i] is None)
        if not batch.on_cone[i]:
            assert batch.kind[i] is None and not batch.witnessed[i]
            continue
        a, b = to_vector_pair(w)  # the kernel's dots are x @ y row by row
        assert batch.r[i] == np.sqrt(a @ a)
        assert batch.phi[i] == np.arccos(np.clip((a @ b) / (a @ a), -1.0, 1.0))
        form = canonical_form(w)
        assert (form.r, form.phi) == (batch.r[i], batch.phi[i])
        assert np.array_equal(form.basis, batch.basis[i])
        assert orbit_class(w) == batch.orbit_class(i)
        assert batch.witnessed[i] == (batch.kind[i] != OrbitKind.DEGENERATE)
        if batch.witnessed[i]:
            rep, witness = canonical_representative(w)
            assert np.array_equal(rep, batch.reduced[i])
            assert np.array_equal(witness, batch.witness[i])


def test_reduce_orbits_right_angle_row_has_no_witness():
    tiny = ToleranceConfig(eps=1e-300)
    w = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1e-20])  # neutral at this tolerance, phi == pi/2
    batch = reduce_orbits(np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 1.0], w]), tiny)
    assert batch.kind[1] == OrbitKind.NEUTRAL_PLUS and batch.phi[1] == np.pi / 2
    assert list(batch.witnessed) == [True, False]
    assert np.isnan(batch.witness[1]).all() and np.isnan(batch.reduced[1]).all()
    with pytest.raises(ValueError, match=RIGHT_ANGLE):
        canonical_representative(w, tiny)


def test_reduce_orbits_shapes():
    empty = reduce_orbits(np.zeros((0, 6)))
    assert empty.on_cone.shape == (0,) and empty.basis.shape == (0, 4, 4)
    with pytest.raises(ValueError):
        reduce_orbits(np.zeros(6))


def test_tangent_frame_gram_closed_form():
    for phi in np.linspace(0.0, np.pi, 25):
        c = np.cos(phi)
        expected = np.zeros((4, 4))
        expected[0, 0] = -2.0 * c
        expected[1, 1] = 2.0 * c
        expected[2, 3] = expected[3, 2] = 1.0
        np.testing.assert_allclose(tangent_gram(phi), expected, atol=1e-14)


def test_tangent_frame_spans_orbit_directions():
    # the orbit tangent space is the Lie-algebra sweep of the base point
    for phi in (0.3, np.pi / 2, 2.8):
        w0 = base_point(phi)
        sweep = []
        for axis in (1, 2, 3):
            for family in (ROTATION, BOOST):
                sweep.append(lie_pushforward_matrix(lie_generator(GeneratorKind(axis, family))) @ w0)
        sweep = np.column_stack(sweep)
        assert np.linalg.matrix_rank(sweep, tol=1e-10) == 4
        frame = tangent_frame(phi).stack()
        coef, *_ = np.linalg.lstsq(sweep, frame, rcond=None)
        assert np.max(np.abs(sweep @ coef - frame)) < 1e-10


def test_frame_derivative_relations_at_origin():
    # derivatives of the transported frame at the identity are the normal fields
    l_rot = lie_pushforward_matrix(lie_generator(GeneratorKind(2, ROTATION)))
    l_boost = lie_pushforward_matrix(lie_generator(GeneratorKind(2, BOOST)))
    for phi in (0.4, 1.1, 2.0, 3.0):
        fr = tangent_frame(phi)
        n_plus, n_minus = normal_directions(phi)
        np.testing.assert_allclose(l_rot @ fr.x_plus, n_plus, atol=1e-13)
        np.testing.assert_allclose(l_rot @ fr.x_minus, n_minus, atol=1e-13)
        np.testing.assert_allclose(l_boost @ fr.x_plus, n_minus, atol=1e-13)
        np.testing.assert_allclose(l_boost @ fr.x_minus, -n_plus, atol=1e-13)


def test_orthonormal_frame_signature():
    for phi in (0.2, 1.0, 2.0, 3.0):
        x1, x2, y1, y2 = orthonormal_tangent_frame(phi)
        frame = np.column_stack([x1, x2, y1, y2])
        gram = frame.T @ (HAT_DIAG[:, None] * frame)
        np.testing.assert_allclose(gram, np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-12)
        # same span as the plain frame
        plain = tangent_frame(phi).stack()
        coef, *_ = np.linalg.lstsq(plain, frame, rcond=None)
        assert np.max(np.abs(plain @ coef - frame)) < 1e-10


def test_orthonormal_frame_undefined_at_right_angle():
    with pytest.raises(ValueError):
        orthonormal_tangent_frame(np.pi / 2)


def test_surface_point_identity_and_invariants():
    for phi in (0.5, np.pi / 2, 2.6):
        np.testing.assert_allclose(surface_point(phi, 0.0, 0.0), base_point(phi), atol=0)
        for theta, t in ((0.7, -0.4), (2.1, 1.2)):
            w = surface_point(phi, theta, t)
            assert in_light_cone(w)
            assert abs(pfaffian(w) - 2.0 * np.cos(phi)) < 1e-12


@pytest.mark.parametrize("phi", [np.pi / 6, 1.2, 2.0, 2.9])
@pytest.mark.parametrize("theta,t", [(0.0, 0.0), (0.8, -0.5), (2.4, 1.1)])
def test_parallel_frame_check_neutral(phi, theta, t):
    report = parallel_frame_check(phi, theta, t)
    assert not report.degenerate
    assert report.passed
    assert max(report.tangential_residuals.values()) <= 1e-4
    assert max(report.derivative_match_residuals.values()) <= 1e-4
    assert report.y_derivative_norms == {}


@pytest.mark.parametrize("theta,t", [(0.0, 0.0), (0.6, 0.9), (1.9, -1.3)])
def test_parallel_frame_check_degenerate(theta, t):
    report = parallel_frame_check(np.pi / 2, theta, t)
    assert report.degenerate
    assert report.passed
    assert max(report.y_derivative_norms.values()) <= 1e-6
    assert max(report.x_null_defects.values()) <= 1e-6
    assert max(report.x_span_residuals.values()) <= 1e-4
    assert report.derivative_match_residuals == {}


def test_normal_form_bivector_validation():
    with pytest.raises(ValueError):
        normal_form_bivector(1.0, 0)
    np.testing.assert_allclose(
        normal_form_bivector(2.0, -1), [2.0, 0, 0, 0, 0, -2.0], atol=0
    )
