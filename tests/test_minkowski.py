import numpy as np
import pytest

from lbo.minkowski import (
    BOOST,
    ETA,
    ROTATION,
    GeneratorKind,
    ToleranceConfig,
    boost_matrix,
    generator,
    is_proper_lorentz,
    lie_generator,
    lorentz_inverse,
    minkowski_inner,
    random_generator_word,
    random_proper_lorentz,
    rotation_matrix,
    word_matrix,
)


def expm_series(x, order=20):
    # truncated exponential series; independent oracle for the generator map
    term = np.eye(4)
    acc = np.eye(4)
    for k in range(1, order + 1):
        term = term @ x / k
        acc = acc + term
    return acc


COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def test_inner_signature():
    e = np.eye(4)
    assert minkowski_inner(e[0], e[0]) == 1.0
    assert minkowski_inner(e[3], e[3]) == -1.0
    assert minkowski_inner(e[0], e[3]) == 0.0
    assert minkowski_inner([1, 2, 3, 4], [4, 3, 2, 1]) == 4 + 6 + 6 - 4


def test_inner_rejects_bad_shape():
    with pytest.raises(ValueError):
        minkowski_inner([1, 2, 3], [1, 2, 3, 4])


def test_rotation_quarter_turn_frozen():
    expected = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(rotation_matrix(1, np.pi / 2), expected, atol=1e-15)


def test_boost_unit_rapidity_frozen():
    m = boost_matrix(3, 1.0)
    expected = np.eye(4)
    expected[0, 0] = expected[3, 3] = COSH1
    expected[0, 3] = expected[3, 0] = SINH1
    np.testing.assert_allclose(m, expected, atol=1e-15)


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("family", [ROTATION, BOOST])
@pytest.mark.parametrize("param", [-1.1, -0.3, 0.0, 0.4, 0.9])
def test_generator_matches_series_exponential(axis, family, param):
    kind = GeneratorKind(axis, family, param)
    x = lie_generator(kind)
    np.testing.assert_allclose(generator(kind), expm_series(param * x), atol=1e-13)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_one_parameter_group_law(axis):
    np.testing.assert_allclose(
        rotation_matrix(axis, 0.3) @ rotation_matrix(axis, 0.5),
        rotation_matrix(axis, 0.8),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        boost_matrix(axis, 0.7) @ boost_matrix(axis, -0.2),
        boost_matrix(axis, 0.5),
        atol=1e-14,
    )


def test_lie_generator_is_derivative_at_zero():
    h = 1e-6
    for axis in (1, 2, 3):
        for family in (ROTATION, BOOST):
            kind = GeneratorKind(axis, family)
            fd = (
                generator(GeneratorKind(axis, family, h))
                - generator(GeneratorKind(axis, family, -h))
            ) / (2 * h)
            np.testing.assert_allclose(fd, lie_generator(kind), atol=1e-9)


def test_generators_are_proper(rng):
    for axis in (1, 2, 3):
        assert is_proper_lorentz(rotation_matrix(axis, rng.uniform(-3, 3)))
        assert is_proper_lorentz(boost_matrix(axis, rng.uniform(-2, 2)))


def test_random_words_are_proper(rng):
    for _ in range(50):
        assert is_proper_lorentz(random_proper_lorentz(rng, 4))


def test_improper_and_non_lorentz_rejected():
    assert not is_proper_lorentz(ETA)  # determinant -1
    assert not is_proper_lorentz(np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert not is_proper_lorentz(1.5 * np.eye(4))
    assert not is_proper_lorentz(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        is_proper_lorentz(np.eye(3))


def test_lorentz_inverse_matches_solve(rng):
    for _ in range(20):
        p = random_proper_lorentz(rng, 3)
        np.testing.assert_allclose(lorentz_inverse(p), np.linalg.inv(p), atol=1e-10)
        np.testing.assert_allclose(p @ lorentz_inverse(p), np.eye(4), atol=1e-12)


def test_lorentz_inverse_is_exact(rng):
    # ETA P^T ETA is P^T with the signs eta_i eta_j: no entry is rounded
    stack = np.array([random_proper_lorentz(rng, 3) for _ in range(10)])
    signs = np.outer(np.diag(ETA), np.diag(ETA))
    for P in (stack[0], stack):
        inverse = lorentz_inverse(P)
        assert inverse.shape == P.shape
        assert np.array_equal(lorentz_inverse(inverse).view(np.int64), P.view(np.int64))
        assert np.array_equal(inverse.view(np.int64), (P.swapaxes(-1, -2) * signs).view(np.int64))
        assert np.array_equal(np.abs(inverse), np.abs(P.swapaxes(-1, -2)))


def test_word_matrix_orders_left_first():
    word = [GeneratorKind(1, ROTATION, 0.4), GeneratorKind(2, BOOST, 0.6)]
    np.testing.assert_allclose(
        word_matrix(word), generator(word[0]) @ generator(word[1]), atol=0
    )


def test_random_word_reproducible_and_bounded():
    w1 = random_generator_word(np.random.default_rng(5), 16)
    w2 = random_generator_word(np.random.default_rng(5), 16)
    assert w1 == w2
    for kind in w1:
        if kind.family == ROTATION:
            assert -np.pi <= kind.parameter <= np.pi
        else:
            assert -1.0 <= kind.parameter <= 1.0
    with pytest.raises(ValueError):
        random_generator_word(np.random.default_rng(0), 0)


def test_kind_validation():
    with pytest.raises(ValueError):
        GeneratorKind(0, ROTATION)
    with pytest.raises(ValueError):
        GeneratorKind(4, BOOST)
    with pytest.raises(ValueError):
        GeneratorKind(1, "twist")


def test_tolerance_validation():
    for bad in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError):
            ToleranceConfig(eps=bad)
    assert ToleranceConfig(eps=1e-6).eps == 1e-6
