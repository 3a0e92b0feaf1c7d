"""Minkowski 4-space with signature (+, +, +, -) and its proper isometry group.

Vectors are length-4 numpy arrays over the fixed basis (e1, e2, e3, e4),
where e1..e3 are space-like and e4 is time-like.  The inner product is

    <x, y> = x1*y1 + x2*y2 + x3*y3 - x4*y4.

The proper Lorentz group is generated by six one-parameter families: three
plane rotations (axes 1..3 pick the plane) and three boosts (axes pick which
space direction pairs with time).  Random group elements are products of
generator words, reproducible from an explicit numpy Generator.  Words
are drawn a stacked pass of samples at a time, with one rng.random call per
pass that draws what the pass's samples drawn one at a time would, on any
bit generator; a sampler that also needs normals draws them from a second
generator of its own, as lbo.verify's suites do.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ETA = np.diag([1.0, 1.0, 1.0, -1.0])

ROTATION = "rotation"
BOOST = "boost"

# 0-based index pairs (i, j) of the plane each family acts on, by [boost][axis - 1]:
# rotation k turns inside a purely spatial plane, boost k mixes one spatial
# axis with time.  _PLANE_ENTRIES holds the flat offsets of the entries
# (i, i), (j, j), (i, j) and (j, i) of a row-major 4x4 matrix.
_PLANES = (((0, 1), (0, 2), (1, 2)), ((2, 3), (1, 3), (0, 3)))
_PLANE_ENTRIES = np.array(
    [[(5 * i, 5 * j, 4 * i + j, 4 * j + i) for i, j in row] for row in _PLANES]
)

# Rows per stacked pass over sampled group elements (verify's isometry and
# pfaffian suites, empirical_min_radius); it bounds the peak memory of a run.
SAMPLE_BLOCK = 128


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical comparison tolerance used across the package.

    eps: the comparison tolerance, positive and finite.  Quantities x, y >= 0
    that scale with the input agree when |x - y| <= eps * max(x, y), with no
    floor; dimensionless ones (a cosine, a Gram defect) are compared with eps.
    """

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (0 < self.eps < np.inf):
            raise ValueError(f"tolerance must be positive and finite, got {self.eps!r}")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class GeneratorKind:
    """One generator of the proper Lorentz group: (axis, family, parameter)."""

    axis: int
    family: str
    parameter: float = 0.0

    def __post_init__(self) -> None:
        if self.axis not in (1, 2, 3):
            raise ValueError(f"axis must be 1, 2 or 3, got {self.axis!r}")
        if self.family not in (ROTATION, BOOST):
            raise ValueError(f"family must be {ROTATION!r} or {BOOST!r}, got {self.family!r}")


def as_vec4(x) -> np.ndarray:
    """Coerce to a float vector of length 4."""
    v = np.asarray(x, dtype=float)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {v.shape}")
    return v


def minkowski_inner(x, y) -> float:
    """Inner product with signs (+, +, +, -)."""
    x = as_vec4(x)
    y = as_vec4(y)
    return float(x[0] * y[0] + x[1] * y[1] + x[2] * y[2] - x[3] * y[3])


def _matmul(A, B) -> np.ndarray:
    """A @ B for broadcast (..., n, k) and (..., k, m) stacks, as explicit products.

    Entry (i, j) is A[i, 0] B[0, j] + A[i, 1] B[1, j] + ... summed left to
    right: correctly rounded products and sums in the order written, so its
    bits do not depend on the CPU or on a BLAS kernel, and a matrix of a
    stack has the bits of its own call.  Every matrix product, pushforward
    and dot that the library prints goes through it.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    out = A[..., :, 0, None] * B[..., None, 0, :]
    for k in range(1, A.shape[-1]):
        out += A[..., :, k, None] * B[..., None, k, :]
    return out


def _plane_matrices(boost, axis, parameter) -> np.ndarray:
    """Rotation (boost false) or boost matrices of broadcast arrays: a (..., 4, 4) stack.

    The only code that writes a generator matrix.  Each entry has the bits of
    its own one-entry call: cos, sin, cosh and sinh are elementwise.
    """
    boost, axis, p = np.broadcast_arrays(
        np.asarray(boost, dtype=bool), np.asarray(axis), np.asarray(parameter, dtype=float)
    )
    if not ((axis == 1) | (axis == 2) | (axis == 3)).all():
        raise ValueError(f"axis must be 1, 2 or 3, got {axis.tolist()!r}")
    c, s = np.empty(p.shape), np.empty(p.shape)
    c[~boost], s[~boost] = np.cos(p[~boost]), np.sin(p[~boost])
    c[boost], s[boost] = np.cosh(p[boost]), np.sinh(p[boost])
    m = np.zeros(p.shape + (16,))
    m[..., ::5] = 1.0
    # flat offsets into m: each matrix's entries, past the 16 of each matrix before it
    entries = _PLANE_ENTRIES[boost.astype(int), axis.astype(int) - 1]
    entries += 16 * np.arange(p.size).reshape(p.shape + (1,))
    np.put(m, entries, np.stack([c, c, np.where(boost, s, -s), s], axis=-1))
    return m.reshape(p.shape + (4, 4))


def generator(kind: GeneratorKind) -> np.ndarray:
    """Matrix of one generator family member at its parameter value."""
    return _plane_matrices(kind.family == BOOST, kind.axis, kind.parameter)


def rotation_matrix(axis, angle) -> np.ndarray:
    """Rotation in the plane of axis; arrays of axis and angle give one matrix per entry."""
    return _plane_matrices(False, axis, angle)


def boost_matrix(axis, rapidity) -> np.ndarray:
    """Boost along axis; arrays of axis and rapidity give one matrix per entry."""
    return _plane_matrices(True, axis, rapidity)


def lie_generator(kind: GeneratorKind) -> np.ndarray:
    """Derivative of the family at parameter 0; ignores kind.parameter."""
    i, j = _PLANES[kind.family == BOOST][kind.axis - 1]
    x = np.zeros((4, 4))
    x[i, j] = 1.0 if kind.family == BOOST else -1.0
    x[j, i] = 1.0
    return x


def is_proper_lorentz(P, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff P preserves the metric (max-norm residual <= eps) and det P = 1."""
    P = np.asarray(P, dtype=float)
    if P.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        return False
    gram_defect = np.max(np.abs(P.T @ ETA @ P - ETA))
    return gram_defect <= tol.eps and abs(np.linalg.det(P) - 1.0) <= tol.eps


# Entry (i, j) is eta_i eta_j: the signs that ETA P^T ETA gives the transpose.
_SIGN_MASK = np.outer(np.diag(ETA), np.diag(ETA))


def lorentz_inverse(P) -> np.ndarray:
    """Inverse of a metric-preserving matrix (or a (..., 4, 4) stack): ETA P^T ETA,
    the transpose with the signs of _SIGN_MASK, so each entry is exact."""
    P = np.asarray(P, dtype=float)
    return P.swapaxes(-1, -2) * _SIGN_MASK


def _draw_pass(rng: np.random.Generator, count: int, lengths) -> list[np.ndarray]:
    """count samples of one word per entry of lengths, from one rng.random call.

    Entry j of the list is the (count, lengths[j], 3) array of word j's
    (boost, axis, parameter) letters.  Each letter maps its three uniforms u in [0, 1) to
    the axis 1 + floor(3 u0), a boost where u1 < 0.5, and the parameter
    low + (high - low) u2, as rng.uniform computes it: a rapidity in [-1, 1)
    or a rotation angle in [-pi, pi).  random fills its array in order, so a
    pass draws what its samples drawn one at a time would, on any bit
    generator.
    """
    u = rng.random((count, sum(lengths), 3))
    boost = u[..., 1] < 0.5
    low, span = np.where(boost, -1.0, -np.pi), np.where(boost, 2.0, 2.0 * np.pi)
    letters = np.stack([boost, 1.0 + np.floor(3.0 * u[..., 0]), low + span * u[..., 2]], axis=-1)
    return np.split(letters, np.cumsum(lengths)[:-1], axis=1)


def _draw_word(rng: np.random.Generator, word_length: int) -> list[tuple]:
    """One random word as (boost, axis, parameter) letters: a one-sample _draw_pass."""
    if word_length < 1:
        raise ValueError("word_length must be at least 1")
    (letters,) = _draw_pass(rng, 1, (word_length,))
    return [(boost == 1.0, int(axis), p) for boost, axis, p in letters[0].tolist()]


def _word_matrices(words) -> np.ndarray:
    """(n, 4, 4) products of n equal-length words of (boost, axis, parameter) letters.

    words is an (n, length, 3) array, as _draw_pass returns it, or nested
    lists of letters.  Left factor first, stacked from the identity one
    letter at a time: each product has the bits of its own word.
    """
    letters = np.asarray(words, dtype=float).reshape(len(words), -1, 3)
    factors = _plane_matrices(letters[..., 0], letters[..., 1], letters[..., 2])
    m = np.tile(np.eye(4), (len(words), 1, 1))
    for k in range(factors.shape[1]):
        m = _matmul(m, factors[:, k])
    return m


def random_generator_word(rng: np.random.Generator, word_length: int) -> list[GeneratorKind]:
    """Draw word_length generators; rotation angles in [-pi, pi], rapidities in [-1, 1]."""
    return [
        GeneratorKind(axis, BOOST if boost else ROTATION, p)
        for boost, axis, p in _draw_word(rng, word_length)
    ]


def word_matrix(word) -> np.ndarray:
    """Product of the generator matrices of a word, left factor first."""
    return _word_matrices([[(k.family == BOOST, k.axis, k.parameter) for k in word]])[0]


def random_proper_lorentz(rng: np.random.Generator, word_length: int = 3) -> np.ndarray:
    """A reproducible group element: the matrix of a random generator word."""
    return _word_matrices([_draw_word(rng, word_length)])[0]
