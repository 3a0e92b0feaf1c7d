from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_light_cone_bivector
from lbo.errors import NotInLightConeError
from lbo.minkowski import (
    BOOST,
    ROTATION,
    GeneratorKind,
    boost_matrix,
    generator,
    lie_generator,
    random_proper_lorentz,
)
from lbo.orbit import orbit_class
from lbo.wedge import (
    HAT_DIAG,
    NULL_BASIS_MATRIX,
    PAIRS,
    _compound,
    _split_norms_rows,
    basis_bivector,
    from_null_basis,
    hat_inner,
    in_light_cone,
    light_cone_reason,
    lie_pushforward_matrix,
    null_basis_vector,
    pfaffian,
    pushforward,
    pushforward_matrix,
    split_norms,
    to_null_basis,
    wedge,
)


def test_wedge_of_coordinate_planes():
    e = np.eye(4)
    for k, (i, j) in enumerate(PAIRS):
        expected = np.zeros(6)
        expected[k] = 1.0
        np.testing.assert_allclose(wedge(e[i], e[j]), expected, atol=0)
        np.testing.assert_allclose(basis_bivector(i + 1, j + 1), expected, atol=0)


def test_wedge_antisymmetric_and_bilinear(rng):
    x, y, z = rng.normal(size=(3, 4))
    np.testing.assert_allclose(wedge(x, y), -wedge(y, x), atol=0)
    np.testing.assert_allclose(
        wedge(x, 2.0 * y + z), 2.0 * wedge(x, y) + wedge(x, z), atol=1e-12
    )
    np.testing.assert_allclose(wedge(x, x), np.zeros(6), atol=0)



@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_stacked_wedge_is_bit_identical(scale, rng):
    X = rng.normal(size=(300, 4)) * scale
    Y = rng.normal(size=(300, 4)) * rng.uniform(0.5, 2.0, size=(300, 1))
    stacked = wedge(X, Y)
    assert stacked.shape == (300, 6)
    for x, y, row in zip(X.tolist(), Y.tolist(), stacked):
        # the definition on Python floats: two rounded products, one rounded difference
        expected = [x[i] * y[j] - x[j] * y[i] for i, j in PAIRS]
        assert np.array_equal(row, expected)
        assert np.array_equal(wedge(x, y), expected)
    nested = wedge(X.reshape(20, 15, 4), Y.reshape(20, 15, 4))
    assert np.array_equal(nested, stacked.reshape(20, 15, 6))
    with pytest.raises(ValueError):
        wedge(X, Y[:-1])
    with pytest.raises(ValueError):
        wedge(X[:, :3], Y[:, :3])

def test_basis_bivector_sign_flip_and_errors():
    np.testing.assert_allclose(basis_bivector(3, 1), -basis_bivector(1, 3), atol=0)
    with pytest.raises(ValueError):
        basis_bivector(2, 2)
    with pytest.raises(ValueError):
        basis_bivector(0, 1)


def test_hat_inner_diagonal():
    e = np.eye(6)
    signs = [hat_inner(e[k], e[k]) for k in range(6)]
    assert signs == [1.0, 1.0, -1.0, 1.0, -1.0, -1.0]
    np.testing.assert_allclose(HAT_DIAG, signs, atol=0)


def test_split_norms_frozen():
    spatial, temporal = split_norms([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert spatial == 1.0 + 4.0 + 16.0
    assert temporal == 9.0 + 25.0 + 36.0
    # squares or sums past the largest double give inf, squares below the
    # smallest give subnormals or 0: the bits of the elementwise products, row
    # by row and in one stack alike
    rows = np.array([
        [1e200, 0.0, 0.0, 0.0, 0.0, -1e200],  # the squares overflow
        [1e154, 1e154, 1.0, 1e154, 0.0, 0.0],  # finite squares, their sum overflows
        [1.7e308, 1e-320, 1e-160, 0.0, 1.0, 1.3e154],
        [1e-160, 3e-162, 0.0, 0.0, 1e-170, 2.5e-161],  # subnormal squares
        [1e-200, 0.0, 1e-320, 5e-324, 0.0, 1e-300],  # the squares underflow to 0
    ])
    with np.errstate(over="ignore"):
        want = [(w[0] * w[0] + w[1] * w[1] + w[3] * w[3], w[2] * w[2] + w[4] * w[4] + w[5] * w[5])
                for w in rows]
        got = [split_norms(w) for w in rows]
        stacked = np.column_stack(_split_norms_rows(rows))
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert np.array_equal(stacked.view(np.int64), np.array(want).view(np.int64))
    assert got[0] == (np.inf, np.inf) and got[1][0] == np.inf and got[4] == (0.0, 0.0)
    assert 0.0 < got[3][0] < 2.3e-308 and 0.0 < got[3][1] < 2.3e-308


def test_split_norm_squares_are_correctly_rounded(rng):
    # libm pow(x, 2) rounds this entry's square the other way
    xs = np.concatenate(
        [[-0.13617704005841821], rng.normal(size=6000) * 10.0 ** rng.uniform(-3, 3, size=6000)]
    )
    W = np.zeros((len(xs), 6))
    W[np.arange(len(xs)), np.arange(len(xs)) % 6] = xs  # one square per row, in every column
    spatial, temporal = _split_norms_rows(W)
    for x, s, t in zip(xs.tolist(), spatial.tolist(), temporal.tolist()):
        assert min(s, t) == 0.0 and max(s, t) == float(Fraction(x) ** 2)


_ENTRY = st.just(0.0) | st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, min_size=6, max_size=6), st.integers(-60, 60))
@example([84.99816651843486, 0.0, 0.0, 0.0, 0.0, 0.0], 3)  # an entry of classify-mixed
def test_split_norms_scale_exactly_by_powers_of_two(row, k):
    # every square and sum stays normal, so scaling by 2**k is exact throughout
    W = np.array([row])
    scaled = np.column_stack(_split_norms_rows(W * 2.0**k))
    assert np.array_equal(scaled, 4.0**k * np.column_stack(_split_norms_rows(W)))


def test_hat_norm_is_split_difference(rng):
    for _ in range(30):
        w = rng.normal(size=6)
        spatial, temporal = split_norms(w)
        assert abs(hat_inner(w, w) - (spatial - temporal)) < 1e-12


def test_pfaffian_frozen_and_plucker(rng):
    assert pfaffian([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == 1 * 6 - 2 * 5 + 3 * 4
    # simple bivectors satisfy the quadric identity exactly
    for _ in range(50):
        x, y = rng.normal(size=(2, 4))
        assert abs(pfaffian(wedge(x, y))) < 1e-12 * (1 + x @ x) * (1 + y @ y)


def test_in_light_cone_band():
    assert in_light_cone([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert not in_light_cone(np.zeros(6))
    assert not in_light_cone([1.0, 0, 0, 0, 0, 0])
    base = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    inside = base.copy()
    inside[5] = np.sqrt(1.0 + 0.4e-9)
    assert in_light_cone(inside)
    outside = base.copy()
    outside[5] = np.sqrt(1.0 + 4e-9)
    assert not in_light_cone(outside)
    # scale-free: the band is relative, so a small light-cone bivector is on the cone
    assert in_light_cone(1e-6 * base)
    assert light_cone_reason(1e-6 * base) is None
    # until its squares leave the normal range, where no relative comparison is left
    assert light_cone_reason(1e-160 * base) == (
        "split norms underflow the double range: spatial 9.99989e-321 vs temporal 9.99989e-321"
    )
    assert light_cone_reason(np.zeros(6)) == "zero bivector"
    assert light_cone_reason(outside).startswith("split norms differ")
    assert light_cone_reason(inside) is None
    # NaN never lands on the cone
    assert not in_light_cone(np.full(6, np.nan))


def test_split_norms_past_the_double_range_are_off_the_cone():
    # eps times an infinite norm is inf, so no bound on the norms' distance holds
    rows = {
        "spatial inf vs temporal 0": [0, 0, 0, 1e155, 0, 0],
        "spatial 0 vs temporal inf": wedge([0, 0, 0, 1.4e154], [0, 0, 1.4e154, 0]),
    }
    for norms, w in rows.items():
        assert not in_light_cone(w)
        assert light_cone_reason(w) == f"split norms are not finite: {norms}"
        with pytest.raises(NotInLightConeError):
            orbit_class(w)


def test_pushforward_preserves_inner_and_cone(rng):
    for _ in range(40):
        p = random_proper_lorentz(rng, 3)
        u, v = rng.normal(size=(2, 6))
        scale = 1.0 + np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(hat_inner(pushforward(p, u), pushforward(p, v)) - hat_inner(u, v)) < 1e-10 * scale
        w = random_light_cone_bivector(rng)
        assert in_light_cone(pushforward(p, w))


def test_pushforward_matrix_is_homomorphism(rng):
    p = random_proper_lorentz(rng, 3)
    q = random_proper_lorentz(rng, 3)
    np.testing.assert_allclose(
        pushforward_matrix(p) @ pushforward_matrix(q),
        pushforward_matrix(p @ q),
        atol=1e-12,
    )
    np.testing.assert_allclose(pushforward_matrix(np.eye(4)), np.eye(6), atol=0)


def test_pushforward_rejects_non_lorentz():
    with pytest.raises(ValueError):
        pushforward_matrix(2.0 * np.eye(4))
    with pytest.raises(ValueError):
        pushforward(np.diag([-1.0, 1.0, 1.0, 1.0]), np.zeros(6))


def test_pushforward_is_wedge_equivariant(rng):
    for _ in range(20):
        p = random_proper_lorentz(rng, 3)
        x, y = rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            pushforward(p, wedge(x, y)), wedge(p @ x, p @ y), atol=1e-10
        )


def test_lie_pushforward_is_derivative():
    h = 1e-5
    for axis in (1, 2, 3):
        for family in (ROTATION, BOOST):
            plus = generator(GeneratorKind(axis, family, h))
            minus = generator(GeneratorKind(axis, family, -h))
            fd = (pushforward_matrix(plus) - pushforward_matrix(minus)) / (2 * h)
            lp = lie_pushforward_matrix(lie_generator(GeneratorKind(axis, family)))
            np.testing.assert_allclose(fd, lp, atol=1e-8)


def test_lie_pushforward_leibniz(rng):
    x = rng.normal(size=(4, 4))
    u, v = rng.normal(size=(2, 4))
    np.testing.assert_allclose(
        lie_pushforward_matrix(x) @ wedge(u, v),
        wedge(x @ u, v) + wedge(u, x @ v),
        atol=1e-12,
    )
    with pytest.raises(ValueError):
        lie_pushforward_matrix(np.eye(3))


def test_null_basis_is_orthogonal_and_round_trips(rng):
    np.testing.assert_allclose(
        NULL_BASIS_MATRIX.T @ NULL_BASIS_MATRIX, np.eye(6), atol=1e-15
    )
    w = rng.normal(size=6)
    np.testing.assert_allclose(from_null_basis(to_null_basis(w)), w, atol=1e-14)


def test_null_basis_entries_are_correctly_rounded():
    sp = pytest.importorskip("sympy")
    half_root = float(sp.sqrt(2) / 2)
    entries = NULL_BASIS_MATRIX[NULL_BASIS_MATRIX != 0]
    assert len(entries) == 12
    assert set(np.abs(entries).tolist()) == {half_root}


def test_null_basis_vectors_are_isotropic():
    for sign in (1, -1):
        for i in (1, 2, 3):
            v = null_basis_vector(sign, i)
            assert abs(hat_inner(v, v)) < 1e-15
    with pytest.raises(ValueError):
        null_basis_vector(0, 1)
    with pytest.raises(ValueError):
        null_basis_vector(1, 4)


def test_hat_metric_in_null_coordinates():
    # the induced metric pairs the two halves: off-diagonal blocks diag(1, 1, -1)
    m = NULL_BASIS_MATRIX
    gram = m.T @ (HAT_DIAG[:, None] * m)
    expected = np.zeros((6, 6))
    d = np.diag([1.0, 1.0, -1.0])
    expected[:3, 3:] = d
    expected[3:, :3] = d
    np.testing.assert_allclose(gram, expected, atol=1e-15)


# Bit-identity of the stacked kernels.  Pitfalls met while writing them:
# - numpy hands a matmul, a 1-D dot and np.linalg.norm to BLAS, whose kernel
#   the CPU selects (OPENBLAS_CORETYPE=Haswell moved 12 pins of an earlier
#   version of the code), so every product is minkowski._matmul's
#   left-to-right sum;
# - np.einsum and (d * d).sum(1) round differently from a sum in a written
#   order: they differed from the 1-D np.linalg.norm in the last bits for
#   about 15-23% of single norms.


def _compound_loop(P):
    """Reference: the minor-by-minor loop that the gathered _compound replaced."""
    m = np.empty((6, 6))
    for row, (k, l) in enumerate(PAIRS):
        for col, (i, j) in enumerate(PAIRS):
            m[row, col] = P[k, i] * P[l, j] - P[k, j] * P[l, i]
    return m


def _lorentz_stack(rng, count=40):
    mats = [random_proper_lorentz(rng, 4) for _ in range(count)]
    for t in (6.0, 15.0, -25.0):  # large rapidities
        boost = boost_matrix(2, t)
        mats.append(random_proper_lorentz(rng, 2) @ boost @ random_proper_lorentz(rng, 2))
    return np.array(mats)


def test_gathered_compound_matches_loop_single(rng):
    for P in _lorentz_stack(rng):
        m = _compound(P)
        assert m.shape == (6, 6)
        assert np.array_equal(m, _compound_loop(P))
    P = random_proper_lorentz(rng, 3).T  # a non-contiguous view
    assert np.array_equal(_compound(P), _compound_loop(P))


def test_gathered_compound_matches_loop_stacked(rng):
    stack = _lorentz_stack(rng)
    m = _compound(stack)
    assert m.shape == (len(stack), 6, 6)
    for k, P in enumerate(stack):
        assert np.array_equal(m[k], _compound_loop(P))
    nested = _compound(stack.reshape(-1, 1, 4, 4))
    assert nested.shape == (len(stack), 1, 6, 6)
    assert np.array_equal(nested[:, 0], m)
