import numpy as np
import pytest

from conftest import random_degenerate_bivector, random_light_cone_bivector
from symbolic import compound, plane
from lbo.errors import DegenerateOrbitError, NotInLightConeError
from lbo.minkowski import ToleranceConfig, boost_matrix, is_proper_lorentz, rotation_matrix
from lbo.orbit import (
    RIGHT_ANGLE,
    OrbitKind,
    base_point,
    canonical_bivector,
    canonical_form,
    canonical_representative,
    critical_rapidity,
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
    NULL_BASIS_MATRIX,
    _compound,
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


def test_reduction_certificate():
    """Proved with sympy over symbols r > 0 and u = tan(phi/2) > 0: the
    second compound of rotation_matrix(2, theta) @ boost_matrix(2, t),
    applied to canonical_bivector(r, phi), is r sqrt|cos phi| (e12 + eps e34),
    with eps the sign of cos phi, in both branches of the reduction: below
    pi/2 at theta = phi/2 and tanh t = tan(phi/2); above it at theta =
    phi/2 + pi/2 and tanh t = cot(phi/2).  (On (0, pi), cos(phi/2) =
    1/sqrt(1 + u**2) and sin(phi/2) = u/sqrt(1 + u**2); cosh t = 1/sqrt(1 -
    tanh(t)**2).)  The symbolic matrices and compound are first checked
    against the library's.  Then the kernel's rule, its theta and
    critical_rapidity(phi) in floating point, is checked at 50 digits on
    2000 angles off a 1e-3 band around pi/2: each entry of the element lies
    within 8 u r m**2 of the exact one, m the witness's largest |entry|."""
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")

    x = sp.symbols("x", real=True)
    for value in (0.3, -1.7):
        rotation = plane(sp.cos(x), sp.sin(x), 0, 2, False).subs(x, value)
        boost = plane(sp.cosh(x), sp.sinh(x), 1, 3, True).subs(x, value)
        assert np.abs(np.array(rotation.evalf(), dtype=float) - rotation_matrix(2, value)).max() <= 1e-16
        assert np.abs(np.array(boost.evalf(), dtype=float) - boost_matrix(2, value)).max() <= 4e-16
    P = np.random.default_rng(0).normal(size=(4, 4))
    assert np.abs(np.array(compound(sp.Matrix(P)).evalf(), dtype=float) - _compound(P)).max() < 1e-14

    u, r, phi = sp.symbols("u r phi", positive=True)
    cos_phi, sin_phi = (1 - u**2) / (1 + u**2), 2 * u / (1 + u**2)
    assert sp.simplify(cos_phi.subs(u, sp.tan(phi / 2)) - sp.cos(phi)) == 0
    assert sp.simplify(sin_phi.subs(u, sp.tan(phi / 2)) - sp.sin(phi)) == 0
    w = r * sp.Matrix([cos_phi, 0, 0, sin_phi, 0, 1])
    at = {u: sp.tan(sp.Rational(7, 20)), r: 3}  # phi = 0.7
    assert np.abs(np.array(w.subs(at).evalf(), dtype=float)[:, 0] - canonical_bivector(3, 0.7)).max() <= 1e-15
    half = sp.sqrt(1 + u**2)  # cos(phi/2) = 1/half, sin(phi/2) = u/half
    # below pi/2, u < 1; above it, u > 1 and cosh t = u/sqrt(u**2 - 1)
    for cos_theta, sin_theta, tanh_t, eps, root in (
        (1 / half, u / half, u, 1, sp.sqrt(1 - u**2)),
        (-u / half, 1 / half, 1 / u, -1, sp.sqrt(u**2 - 1)),
    ):
        cosh_t = 1 / sp.sqrt(1 - tanh_t**2)
        witness = plane(cos_theta, sin_theta, 0, 2, False) * plane(cosh_t, tanh_t * cosh_t, 1, 3, True)
        r0 = r * root / half  # positive, with the square of r sqrt|cos phi|
        assert sp.simplify(r0**2 - r**2 * eps * cos_phi) == 0
        residual = compound(witness) * w - r0 * sp.Matrix([1, 0, 0, 0, 0, eps])
        assert residual.applyfunc(sp.simplify) == sp.zeros(6, 1)

    unit = np.spacing(1.0) / 2
    angles = np.linspace(0.0, np.pi, 2004)[1:-1]
    angles = angles[np.abs(angles - np.pi / 2) > 1e-3]
    assert len(angles) == 2000
    with mpmath.workdps(50):
        for angle in angles:
            theta = 0.5 * angle if angle < np.pi / 2 else 0.5 * angle + np.pi / 2
            witness = rotation_matrix(2, theta) @ boost_matrix(2, critical_rapidity(angle))
            m = np.abs(witness).max()
            cos_angle = mpmath.cos(mpmath.mpf(angle))
            for scale in (0.02, 1.0, 3.7):
                element = _compound(witness) @ canonical_bivector(scale, angle)
                r0 = scale * mpmath.sqrt(abs(cos_angle))
                exact = [r0, 0, 0, 0, 0, r0 if cos_angle > 0 else -r0]
                error = max(abs(mpmath.mpf(float(e)) - x) for e, x in zip(element, exact))
                # the worst on this grid is 4.3 u r m**2
                assert error <= 8 * unit * scale * m * m, (angle, scale, float(error))


def test_reduction_rapidity_landau_lifshitz_oracle():
    """An oracle for the reduction rapidity that shares nothing with the
    kernel's reduction: Landau and Lifshitz, The Classical Theory of Fields,
    section 25, problem 1.  Proved with sympy over symbols: reading the time
    planes as E = (c14, c24, c34) and the spatial planes as B = (c23, -c13,
    c12), the b and a of to_vector_pair, the split norms are E**2 and B**2
    and the pfaffian is E.B, so the light cone is E**2 = B**2.  For
    base_point(phi), E**2 = B**2, E x B = 2 sin(phi) e2 and E**2 + B**2 = 4,
    so the boost of boost_matrix(2, t) runs along E x B, and after it E' x B'
    = 2 (sin phi cosh 2t - sinh 2t) e2 = 2 cosh 2t (sin phi - tanh 2t) e2,
    which vanishes exactly where tanh 2t = sin phi: the frame where E is
    parallel to B.  Landau and Lifshitz find its velocity v from v/(1 + v**2)
    = |E x B|/(E**2 + B**2) = sin(phi)/2; the roots are tan(phi/2) and its
    reciprocal, and the smaller, (1 - |cos phi|)/sin phi, is tan(phi/2) below
    pi/2 and cot(phi/2) above, critical_rapidity's two branches.  Then
    critical_rapidity(phi) is checked against atanh((1 - |cos phi|)/sin phi)
    at 50 digits on 2000 angles on both sides of pi/2, off a 1e-3 band around
    it, to within 1 + condition ulps."""
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")

    def fields(w):  # (E, B) of a bivector (c12, c13, c14, c23, c24, c34)
        return sp.Matrix([w[2], w[4], w[5]]), sp.Matrix([w[3], -w[1], w[0]])

    c = sp.Matrix(sp.symbols("c12 c13 c14 c23 c24 c34", real=True))
    E, B = fields(c)
    assert sp.expand(B.dot(B) - (c[0] ** 2 + c[1] ** 2 + c[3] ** 2)) == 0  # spatial
    assert sp.expand(E.dot(E) - (c[2] ** 2 + c[4] ** 2 + c[5] ** 2)) == 0  # temporal
    assert sp.expand(E.dot(B) - (c[0] * c[5] - c[1] * c[4] + c[2] * c[3])) == 0
    # the symbols stand for the library's split norms, pfaffian, vector pair and base point
    row = np.random.default_rng(3).normal(size=6)
    e, b = (np.array(v.subs(dict(zip(c, row))), dtype=float)[:, 0] for v in (E, B))
    assert np.abs(np.array(split_norms(row)) - [b @ b, e @ e]).max() <= 1e-14
    assert abs(pfaffian(row) - e @ b) <= 1e-14
    axial, polar = to_vector_pair(row)
    assert np.array_equal(axial, b) and np.array_equal(polar, e)

    phi, t = sp.symbols("phi t", real=True)
    w = sp.sqrt(2) * sp.Matrix([sp.cos(phi), 0, 0, sp.sin(phi), 0, 1])
    moved = compound(plane(sp.cosh(t), sp.sinh(t), 1, 3, True)) * w
    numeric = _compound(boost_matrix(2, -0.8)) @ base_point(2.2)
    assert np.abs(np.array(moved.subs({t: -0.8, phi: 2.2}).evalf(), dtype=float)[:, 0] - numeric).max() <= 1e-15

    E, B = fields(w)
    assert sp.simplify(E.dot(E) - B.dot(B)) == 0
    assert sp.simplify(E.dot(E) + B.dot(B)) == 4
    assert E.cross(B).applyfunc(sp.simplify) == sp.Matrix([0, 2 * sp.sin(phi), 0])
    E, B = fields(moved)
    cross = E.cross(B).applyfunc(sp.simplify)
    assert cross[0] == 0 and cross[2] == 0
    assert sp.simplify(cross[1] - 2 * (sp.sin(phi) * sp.cosh(2 * t) - sp.sinh(2 * t))) == 0
    assert sp.simplify(cross[1] - 2 * sp.cosh(2 * t) * (sp.sin(phi) - sp.tanh(2 * t))) == 0
    assert sp.cosh(2 * t).is_positive

    u, v = sp.symbols("u v", positive=True)  # u = tan(phi/2) on (0, pi)
    cos_phi, sin_phi = (1 - u**2) / (1 + u**2), 2 * u / (1 + u**2)
    assert sp.simplify(cos_phi.subs(u, sp.tan(phi / 2)) - sp.cos(phi)) == 0
    assert sp.simplify(sin_phi.subs(u, sp.tan(phi / 2)) - sp.sin(phi)) == 0
    assert set(sp.solve(v / (1 + v**2) - sin_phi / 2, v)) == {u, 1 / u}
    # below pi/2, u < 1 and |cos phi| = cos phi; above it, u > 1 and |cos phi| = -cos phi
    assert sp.simplify((1 - cos_phi) / sin_phi - u) == 0
    assert sp.simplify((1 + cos_phi) / sin_phi - 1 / u) == 0
    assert sp.simplify((2 * v / (1 + v**2)).subs(v, u) - sin_phi) == 0  # tanh 2t = sin phi

    angles = np.linspace(0.0, np.pi, 2004)[1:-1]
    angles = angles[np.abs(angles - np.pi / 2) > 1e-3]
    assert len(angles) == 2000 and (angles > np.pi / 2).sum() == 1000
    with mpmath.workdps(50):
        for angle in angles:
            x = mpmath.mpf(angle)
            velocity = (1 - abs(mpmath.cos(x))) / mpmath.sin(x)
            exact = mpmath.atanh(velocity)
            # a rounding of the velocity grows by the condition number of atanh there;
            # the worst on this grid is 0.82 (1 + condition)
            condition = velocity / ((1 - velocity**2) * exact)
            ulps = abs(critical_rapidity(angle) - exact) / np.spacing(float(exact))
            assert ulps <= 1 + condition, (angle, float(ulps), float(condition))


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


def test_tangent_gram_certificate():
    """Proved with sympy over a symbolic phi: with NULL_BASIS_MATRIX's exact
    sqrt(2)/2 entries, the tangent frame's Gram matrix under HAT_DIAG is
    diag(-2cos phi, 2cos phi) + [[0, 1], [1, 0]], of signature (2, 2) away
    from pi/2 and rank 2 at it.  The numeric frame and Gram matrix are then
    checked against the proved ones at 50 digits."""
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    phi = sp.symbols("phi", real=True)
    c, s = sp.cos(phi), sp.sin(phi)
    # the null basis: entries 0 and +-sqrt(2)/2, each within an ulp
    signs = np.round(NULL_BASIS_MATRIX * np.sqrt(2.0))
    assert np.abs(NULL_BASIS_MATRIX - signs * SQRT_HALF).max() <= np.spacing(SQRT_HALF)
    null_basis = sp.sqrt(2) / 2 * sp.Matrix(signs.astype(int))
    # the null-basis weights of x_plus, x_minus, y_plus and y_minus
    weights = sp.Matrix([
        [s, 0, -c, 0, 0, -1], [0, 0, -1, s, 0, c], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0],
    ]).T
    frame = null_basis * weights
    gram = (frame.T * sp.diag(*HAT_DIAG.astype(int).tolist()) * frame).applyfunc(sp.simplify)
    expected = sp.diag(-2 * c, 2 * c, sp.Matrix([[0, 1], [1, 0]]))
    assert (gram - expected).applyfunc(sp.simplify) == sp.zeros(4, 4)
    # the x block's entries have opposite signs where cos phi != 0; the y
    # block's eigenvalues are +-1; so two of each sign, and rank 2 at pi/2
    assert sp.Matrix([[0, 1], [1, 0]]).eigenvals() == {1: 1, -1: 1}
    assert sp.solveset(c, phi, sp.Interval(0, sp.pi)) == sp.FiniteSet(sp.pi / 2)
    assert gram.subs(phi, sp.pi / 2).rank() == 2

    numeric_frame = sp.lambdify(phi, frame, "mpmath")
    numeric_gram = sp.lambdify(phi, gram, "mpmath")
    with mpmath.workdps(50):
        for angle in np.linspace(0.0, np.pi, 49):
            want_frame = np.array(numeric_frame(mpmath.mpf(angle)).tolist(), dtype=float)
            want_gram = np.array(numeric_gram(mpmath.mpf(angle)).tolist(), dtype=float)
            # entries of size at most 2, each a few roundings from its exact value
            assert np.abs(tangent_frame(angle).stack() - want_frame).max() <= 4 * np.spacing(1.0)
            assert np.abs(tangent_gram(angle) - want_gram).max() <= 8 * np.spacing(2.0)


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


def _frame_residuals(report):
    """Every residual of a ParallelFrameReport, over all five of its fields."""
    fields = (report.tangential_residuals, report.derivative_match_residuals,
              report.y_derivative_norms, report.x_null_defects, report.x_span_residuals)
    return [value for field in fields for value in field.values()]


@pytest.mark.parametrize("phi", [np.pi / 6, 1.2, 2.0, 2.9])
@pytest.mark.parametrize("theta,t", [(0.0, 0.0), (0.8, -0.5), (2.4, 1.1)])
def test_parallel_frame_check_neutral(phi, theta, t):
    report = parallel_frame_check(phi, theta, t)
    assert not report.degenerate
    assert report.passed
    assert max(report.tangential_residuals.values()) <= 1e-4
    assert max(report.derivative_match_residuals.values()) <= 1e-4
    assert report.y_derivative_norms == {}
    assert max(_frame_residuals(report)) <= 1e-13  # exact derivatives, no truncation error


@pytest.mark.parametrize("theta,t", [(0.0, 0.0), (0.6, 0.9), (1.9, -1.3)])
def test_parallel_frame_check_degenerate(theta, t):
    report = parallel_frame_check(np.pi / 2, theta, t)
    assert report.degenerate
    assert report.passed
    assert max(report.y_derivative_norms.values()) <= 1e-6
    assert max(report.x_null_defects.values()) <= 1e-6
    assert max(report.x_span_residuals.values()) <= 1e-4
    assert report.derivative_match_residuals == {}
    assert max(_frame_residuals(report)) <= 1e-13  # exact derivatives, no truncation error


def test_normal_form_bivector_validation():
    with pytest.raises(ValueError):
        normal_form_bivector(1.0, 0)
    np.testing.assert_allclose(
        normal_form_bivector(2.0, -1), [2.0, 0, 0, 0, 0, -2.0], atol=0
    )
