import functools

import numpy as np
import pytest

from conftest import dot, matmul, random_light_cone_bivector
from lbo.errors import InvariantViolationError
from lbo.minkowski import (
    BOOST, ROTATION, GeneratorKind, ToleranceConfig, boost_matrix, is_proper_lorentz,
    lie_generator, lorentz_inverse, random_proper_lorentz,
)
from lbo.orbit import OrbitKind, orbit_class, reduce_orbits, tangent_frame
from lbo.stabilizer import (
    STACK_PARAMETERS,
    Family,
    SubspaceLabel,
    classify_invariant_subspace,
    degenerate_base,
    degenerate_invariant_plane,
    fixing_residual,
    generator_stack,
    neutral_base,
    neutral_invariant_plane,
    null_rotation_a,
    null_rotation_angles,
    null_rotation_b,
    stabilizer_element,
    stabilizer_generators,
    stabilizer_residuals,
    stabilizer_sweep_matrix,
)
from lbo.wedge import PAIRS, _compound, basis_bivector, hat_inner

PARAMS = (-1.3, -0.5, 0.2, 0.8, 1.7)


@pytest.mark.parametrize("t", PARAMS)
@pytest.mark.parametrize("epsilon", [1, -1])
def test_neutral_families_fix_base(t, epsilon):
    w = neutral_base(1.7, epsilon)
    for elem in stabilizer_generators(OrbitKind.NEUTRAL_PLUS, t):
        assert fixing_residual(elem.matrix, w) <= 1e-12


@pytest.mark.parametrize("t", PARAMS)
def test_degenerate_families_fix_base(t):
    w = degenerate_base()
    for fam in (
        Family.NULL_ROTATION_A,
        Family.NULL_ROTATION_B,
    ):
        assert fixing_residual(stabilizer_element(fam, t).matrix, w) <= 1e-12
    x = np.tanh(t)
    for m in (null_rotation_a(x), null_rotation_b(x)):
        assert fixing_residual(m, w) <= 1e-12


@pytest.mark.parametrize("t", PARAMS)
def test_polynomial_form_matches_composition(t):
    x = np.tanh(t)
    np.testing.assert_allclose(
        stabilizer_element(Family.NULL_ROTATION_A, t).matrix, null_rotation_a(x), atol=1e-13
    )
    np.testing.assert_allclose(
        stabilizer_element(Family.NULL_ROTATION_B, t).matrix, null_rotation_b(x), atol=1e-13
    )


@pytest.mark.parametrize(
    "kind", [OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE]
)
def test_generator_stack_is_cached_read_only_and_ordered(kind):
    stack, labels = generator_stack(kind)
    assert generator_stack(kind)[0] is stack
    assert stack.shape == ((8 if kind == OrbitKind.DEGENERATE else 12), 4, 4)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 2.0
    elems = [e for t in STACK_PARAMETERS for e in stabilizer_generators(kind, t)]
    assert labels == tuple((e.family, e.parameter) for e in elems)
    for m, e in zip(stack, elems):
        assert np.array_equal(m, e.matrix)


def test_neutral_kinds_share_stack_and_labels():
    (plus, plus_labels), (minus, minus_labels) = (
        generator_stack(kind) for kind in (OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS)
    )
    assert np.array_equal(plus, minus)
    assert plus_labels == minus_labels
    assert not plus.flags.writeable and not minus.flags.writeable


@pytest.mark.parametrize("kind", [OrbitKind.NEUTRAL_PLUS, OrbitKind.DEGENERATE])
def test_stacked_fixing_residual_is_bit_identical(kind, rng):
    stack, _ = generator_stack(kind)
    for _ in range(25):
        conj = random_proper_lorentz(rng, 4)
        mats = conj @ stack @ lorentz_inverse(conj)
        w = random_light_cone_bivector(rng, scale=rng.uniform(0.1, 10.0))
        stacked = fixing_residual(mats, w)
        assert stacked.shape == (len(stack),)
        for k, m in enumerate(stack):
            single = conj @ m @ lorentz_inverse(conj)
            assert np.array_equal(mats[k], single)
            assert stacked[k] == fixing_residual(single, w)
            # reference: the one-matrix residual, every sum left to right
            d = matmul(_compound(single), w) - w
            assert fixing_residual(single, w) == np.sqrt(dot(d, d)) / np.sqrt(dot(w, w))



def test_fixing_residual_refuses_a_bivector_stack(rng):
    stack, _ = generator_stack(OrbitKind.NEUTRAL_PLUS)
    W = np.array([random_light_cone_bivector(rng) for _ in range(3)])
    for P in (stack, stack[0]):
        with pytest.raises(ValueError):
            fixing_residual(P, W)
    # a P that is not a 4x4 matrix or an (n, 4, 4) stack, even with 16k entries
    for P in (np.eye(4).reshape(2, 8), np.ones(32), np.broadcast_to(np.eye(4), (2, 3, 4, 4))):
        with pytest.raises(ValueError, match="4x4"):
            fixing_residual(P, W[0])


def test_stabilizer_residuals_take_the_rows_with_frames():
    # exactly isotropic rows: neutral of both signs, degenerate, a neutral row
    # at the right angle (no witness at this tolerance); then an off-cone row
    rows = [[2.0, -2.0, 3.0, 1.0, 0, 0], [0.25, -0.25, -0.375, 0.125, 0, 0]]
    rows += [[30.0, 0, 0, 0, 0, 30.0]]
    rows += [[0, 0, 0, 1.0, 0, 1.0], [2.0, -2.0, 2.0, 1.0, 1.0, -2.0]]
    rows += [[1.0, 0, 1.0, 0, 0, 1e-20], [1.0, 2.0, 0, 0, 0, 1.0]]
    W = np.array(rows)
    b = reduce_orbits(W, ToleranceConfig(eps=1e-300))
    (degenerate, dres), (neutral, nres) = stabilizer_residuals(b, W)
    assert degenerate.tolist() == [3, 4] and dres.shape == (2, 8)
    assert neutral.tolist() == [0, 1, 2] and nres.shape == (3, 12)
    assert [b.epsilon[i] for i in neutral] == [1, -1, 1]
    assert np.all(dres < 1e-14)
    witness_max = np.abs(b.witness[neutral]).max(axis=(1, 2))
    assert np.all(nres < 1e-14 * np.maximum(1.0, witness_max)[:, None] ** 4)


def test_null_rotation_angle_identities():
    for t in PARAMS:
        theta, s = null_rotation_angles(t)
        assert abs(np.exp(s) - np.cos(theta)) < 1e-14
        assert abs(np.sinh(t) - np.sin(theta) * np.cosh(t)) < 1e-13


def test_null_rotations_commute_and_add(rng):
    for _ in range(10):
        x, y = rng.uniform(-1.5, 1.5, size=2)
        a_x, b_y = null_rotation_a(x), null_rotation_b(y)
        np.testing.assert_allclose(a_x @ b_y, b_y @ a_x, atol=1e-13)
        np.testing.assert_allclose(null_rotation_a(x) @ null_rotation_a(y), null_rotation_a(x + y), atol=1e-13)
        np.testing.assert_allclose(null_rotation_b(x) @ null_rotation_b(y), null_rotation_b(x + y), atol=1e-13)


def test_null_rotations_are_proper():
    for x in (-2.0, -0.4, 0.9, 3.0):
        assert is_proper_lorentz(null_rotation_a(x))
        assert is_proper_lorentz(null_rotation_b(x))


def test_axis2_boost_scales_degenerate_base():
    w = degenerate_base()
    for s in (-1.0, 0.3, 1.4):
        np.testing.assert_allclose(
            _compound(boost_matrix(2, s)) @ w, np.exp(-s) * w, atol=1e-13
        )


def test_sweep_matrix_frozen_determinants():
    _, det = stabilizer_sweep_matrix(1.0, 2.0, 3.0, 4.0)
    assert det == -500.0
    _, det = stabilizer_sweep_matrix(1.0, 0.0, 0.0, 0.0)
    assert det == -1.0
    # both invariant-plane patterns (a, b) = +/-(d, c) degenerate the sweep
    _, det = stabilizer_sweep_matrix(1.0, 1.0, 1.0, 1.0)
    assert det == 0.0
    _, det = stabilizer_sweep_matrix(2.0, 3.0, -3.0, -2.0)
    assert det == 0.0


def test_sweep_determinant_matches_closed_form(rng):
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        m, det = stabilizer_sweep_matrix(a, b, c, d)
        assert abs(np.linalg.det(m) - det) < 1e-10 * max(1.0, abs(det))


def test_invariant_planes_are_isotropic_and_complementary():
    wp = neutral_invariant_plane(1)
    wm = neutral_invariant_plane(-1)
    for plane in (wp, wm):
        for k in range(2):
            assert abs(hat_inner(plane[:, k], plane[:, k])) < 1e-14
    assert np.linalg.matrix_rank(np.hstack([wp, wm]), tol=1e-10) == 4
    with pytest.raises(ValueError):
        neutral_invariant_plane(0)


def test_degenerate_plane_is_gram_kernel():
    from lbo.orbit import tangent_gram

    plane = degenerate_invariant_plane()
    fr = tangent_frame(np.pi / 2)
    np.testing.assert_allclose(plane[:, 0], fr.x_plus, atol=0)
    np.testing.assert_allclose(plane[:, 1], fr.x_minus, atol=0)
    g = tangent_gram(np.pi / 2)
    # kernel of the rank-2 Gram: the two x coordinates
    np.testing.assert_allclose(g @ np.array([1.0, 0, 0, 0]), np.zeros(4), atol=1e-14)
    np.testing.assert_allclose(g @ np.array([0, 1.0, 0, 0]), np.zeros(4), atol=1e-14)
    for k in range(2):
        assert abs(hat_inner(plane[:, k], plane[:, k])) < 1e-14


def neutral_cases():
    wp = neutral_invariant_plane(1)
    wm = neutral_invariant_plane(-1)
    e = np.eye(6)
    whole = [e[:, 1], e[:, 2], e[:, 3], e[:, 4]]
    mixed = wp[:, 0] + wm[:, 1]
    return [
        ([wp[:, 0], wp[:, 1]], SubspaceLabel.W_PLUS),
        ([wp[:, 0] + wp[:, 1], wp[:, 0] - 2.0 * wp[:, 1]], SubspaceLabel.W_PLUS),
        ([wm[:, 0], wm[:, 1]], SubspaceLabel.W_MINUS),
        ([3.0 * wm[:, 1], wm[:, 0] + wm[:, 1]], SubspaceLabel.W_MINUS),
        (whole, SubspaceLabel.WHOLE),
        ([wp[:, 0]], SubspaceLabel.NOT_INVARIANT),
        ([mixed], SubspaceLabel.NOT_INVARIANT),
        ([wp[:, 0], wm[:, 0]], SubspaceLabel.NOT_INVARIANT),
        ([wp[:, 0], wp[:, 1], wm[:, 0]], SubspaceLabel.NOT_INVARIANT),
        ([e[:, 1], e[:, 2]], SubspaceLabel.NOT_INVARIANT),
    ]


def degenerate_cases():
    fr = tangent_frame(np.pi / 2)
    k0, k1 = fr.x_plus, fr.x_minus
    return [
        ([k0], SubspaceLabel.LINE_IN_W_ZERO),
        ([k1], SubspaceLabel.LINE_IN_W_ZERO),
        ([k0 + 2.0 * k1], SubspaceLabel.LINE_IN_W_ZERO),
        ([k0, k1], SubspaceLabel.W_ZERO),
        ([k0 + k1, k0 - k1], SubspaceLabel.W_ZERO),
        ([k0, k1, fr.y_plus], SubspaceLabel.CONTAINS_W_ZERO),
        ([k0, k1, fr.y_minus], SubspaceLabel.CONTAINS_W_ZERO),
        ([k0, k1, fr.y_plus + 2.0 * fr.y_minus], SubspaceLabel.CONTAINS_W_ZERO),
        ([k0, k1, fr.y_plus, fr.y_minus], SubspaceLabel.WHOLE),
        ([fr.y_plus], SubspaceLabel.NOT_INVARIANT),
        ([k0, fr.y_plus], SubspaceLabel.NOT_INVARIANT),
        ([k0 + fr.y_minus], SubspaceLabel.NOT_INVARIANT),
    ]


@pytest.mark.parametrize("span,expected", neutral_cases())
def test_classify_neutral_lattice(span, expected):
    assert classify_invariant_subspace(OrbitKind.NEUTRAL_PLUS, span) is expected
    assert classify_invariant_subspace(OrbitKind.NEUTRAL_MINUS, span) is expected


@pytest.mark.parametrize("span,expected", degenerate_cases())
def test_classify_degenerate_lattice(span, expected):
    assert classify_invariant_subspace(OrbitKind.DEGENERATE, span) is expected


def test_reflected_boosts_push_forward_like_boosts():
    # why the neutral invariance samples need no separate reflected pass
    stack, labels = generator_stack(OrbitKind.NEUTRAL_PLUS)
    compounds = _compound(stack)
    boosts = {t: k for k, (fam, t) in enumerate(labels) if fam is Family.BOOST_34}
    reflected = [(k, t) for k, (fam, t) in enumerate(labels) if fam is Family.REFLECTED_BOOST_34]
    assert sorted(t for _, t in reflected) == sorted(STACK_PARAMETERS)
    for k, t in reflected:
        assert np.array_equal(stack[k], -stack[boosts[t]])
        assert np.array_equal(compounds[k], compounds[boosts[t]])


def test_classify_accepts_orbit_class(rng):
    wp = neutral_invariant_plane(1)
    klass = orbit_class([1.0, 0, 0, 0, 0, 1.0])
    got = classify_invariant_subspace(klass, [wp[:, 0], wp[:, 1]])
    assert got is SubspaceLabel.W_PLUS


def test_classify_input_validation():
    e = np.eye(6)
    with pytest.raises(ValueError):
        # c12 direction is normal, not tangent, at the reduced element
        classify_invariant_subspace(OrbitKind.NEUTRAL_PLUS, [e[:, 0]])
    with pytest.raises(ValueError):
        classify_invariant_subspace(OrbitKind.NEUTRAL_PLUS, [e[:, 1], 2.0 * e[:, 1]])
    with pytest.raises(ValueError):
        classify_invariant_subspace(OrbitKind.NEUTRAL_PLUS, [])
    with pytest.raises(ValueError):
        classify_invariant_subspace("Spinny", [e[:, 1]])
    with pytest.raises(ValueError):
        classify_invariant_subspace(
            OrbitKind.NEUTRAL_PLUS, [e[:, k] for k in range(5)]
        )


def test_stabilizer_generators_by_kind():
    fams = {e.family for e in stabilizer_generators(OrbitKind.NEUTRAL_MINUS, 0.5)}
    assert fams == {Family.ROTATION_12, Family.BOOST_34, Family.REFLECTED_BOOST_34}
    fams = {e.family for e in stabilizer_generators(OrbitKind.DEGENERATE, 0.5)}
    assert fams == {Family.NULL_ROTATION_A, Family.NULL_ROTATION_B}


def test_fixing_residual_detects_motion():
    w = neutral_base(1.0, 1)
    assert fixing_residual(np.eye(4), w) == 0.0
    assert fixing_residual(boost_matrix(2, 0.5), w) > 0.1


def _minor_compound(P):
    """The second compound of a 4x4 matrix of any ring's entries, as nested lists."""
    return [[P[k, i] * P[l, j] - P[k, j] * P[l, i] for i, j in PAIRS] for k, l in PAIRS]


def test_stabilizer_certificate():
    """Proved with sympy over symbolic parameters: the neutral families fix
    r0*(e12 + eps*e34) and the null rotations fix the degenerate base exactly,
    and the two null-rotation families commute.  So in the carried residual
    |C(F) (C(S) - I) v| / |w| the factor (C(S) - I) v vanishes exactly, and a
    residual is rounding alone.  The numeric families are then checked
    against the proved ones."""
    sp = pytest.importorskip("sympy")
    t, x, y, r0 = sp.symbols("t x y r0", real=True)
    exact = functools.partial(sp.Matrix.applyfunc, f=sp.nsimplify)
    # the symbolic compound is _compound's formula
    P = random_proper_lorentz(np.random.default_rng(5), 4)
    assert np.array_equal(np.array(_minor_compound(P)), _compound(P))

    def family(axis, kind):  # exp(t X) of the family's Lie generator
        m = (t * exact(sp.Matrix(lie_generator(GeneratorKind(axis, kind))))).exp()
        return m.applyfunc(lambda entry: sp.simplify(entry.rewrite(sp.cos)))

    def fixes(S, v):
        return sp.simplify(sp.Matrix(_minor_compound(S)) * v - v) == sp.zeros(6, 1)

    e12, e34 = (exact(sp.Matrix(basis_bivector(*p))) for p in ((1, 2), (3, 4)))
    rotation, boost = family(1, ROTATION), family(1, BOOST)
    for eps in (1, -1):
        base = r0 * (e12 + eps * e34)
        assert exact(sp.Matrix(neutral_base(1.0, eps))) == base.subs(r0, 1)
        assert all(fixes(S, base) for S in (rotation, boost, -boost))
        assert not fixes(family(2, BOOST), base)  # the proof can fail

    a, b = (exact(sp.Matrix(f(x))) for f in (null_rotation_a, null_rotation_b))
    half_pi = sp.pi / 2
    degenerate = sp.sqrt(2) * (
        sp.cos(half_pi) * e12 + sp.sin(half_pi) * exact(sp.Matrix(basis_bivector(2, 3))) + e34
    )
    assert fixes(a, degenerate) and fixes(b, degenerate)
    assert sp.expand(a * b.subs(x, y) - b.subs(x, y) * a) == sp.zeros(4, 4)

    # the numeric base points and generator stacks are the proved ones, rounded
    np.testing.assert_allclose(degenerate_base(), np.array(degenerate, dtype=float)[:, 0],
                               rtol=1e-15, atol=1e-16)
    for kind, fams in (
        (OrbitKind.NEUTRAL_PLUS, {Family.ROTATION_12: rotation, Family.BOOST_34: boost,
                                  Family.REFLECTED_BOOST_34: -boost}),
        (OrbitKind.DEGENERATE, {Family.NULL_ROTATION_A: a, Family.NULL_ROTATION_B: b}),
    ):
        stack, labels = generator_stack(kind)
        for m, (fam, p) in zip(stack, labels):
            param = x if kind == OrbitKind.DEGENERATE else t
            value = np.tanh(p) if kind == OrbitKind.DEGENERATE else p
            want = np.array(fams[fam].subs(param, value).evalf(30), dtype=float)
            np.testing.assert_allclose(m, want, rtol=1e-14, atol=1e-15)


def test_sweep_determinant_certificate(rng):
    """Proved with sympy over symbols: the sweep matrix is linear in (a, b, c,
    d), and its determinant is -((a-d)^2 + (b-c)^2)((a+d)^2 + (b+c)^2), which
    vanishes exactly on the invariant planes (a, b) = +/-(d, c).  The returned
    closed form is then checked against the proved one at 50 digits."""
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    a, b, c, d = symbols = sp.symbols("a b c d", real=True)
    # the matrix of each unit weight, and the symbolic matrix they span
    units = [stabilizer_sweep_matrix(*row)[0] for row in np.eye(4)]
    assert all(set(np.unique(m)) <= {-1.0, 0.0, 1.0} for m in units)
    M = sum((s * sp.Matrix(m.astype(int)) for s, m in zip(symbols, units)), sp.zeros(4, 4))
    closed = -((a - d) ** 2 + (b - c) ** 2) * ((a + d) ** 2 + (b + c) ** 2)
    assert sp.expand(M.det() - closed) == 0
    for plane in ({a: d, b: c}, {a: -d, b: -c}):
        assert closed.subs(plane) == 0
    exact = sp.lambdify(symbols, closed, "mpmath")

    grid = [*rng.normal(size=(40, 4)), *np.array(np.meshgrid(*[[-1.5, 0.0, 2.0]] * 4)).reshape(4, -1).T]
    with mpmath.workdps(50):
        for v in grid:
            m, det = stabilizer_sweep_matrix(*v)
            assert np.array_equal(m, sum(x * u for x, u in zip(v, units)))  # linear, exactly
            want = exact(*map(mpmath.mpf, v.tolist()))
            # rounding of sums of squares and their product, against their size
            (p, q, r, s) = np.abs(v)
            scale = ((p + s) ** 2 + (q + r) ** 2) ** 2
            assert abs(det - want) <= 8 * np.finfo(float).eps * scale, (v, det, float(want))
