"""Minkowski 4-space with signature (+, +, +, -) and its proper isometry group.

Vectors are length-4 numpy arrays over the fixed basis (e1, e2, e3, e4),
where e1..e3 are space-like and e4 is time-like.  The inner product is

    <x, y> = x1*y1 + x2*y2 + x3*y3 - x4*y4.

The proper Lorentz group is generated by six one-parameter families: three
plane rotations (axes 1..3 pick the plane) and three boosts (axes pick which
space direction pairs with time).  Random group elements are products of
generator words, reproducible from an explicit numpy Generator (PCG64).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ETA = np.diag([1.0, 1.0, 1.0, -1.0])

ROTATION = "rotation"
BOOST = "boost"

# 0-based index pairs of the plane each family acts on.  Rotation k turns
# inside a purely spatial plane; boost k mixes one spatial axis with time.
_ROTATION_PLANES = {1: (0, 1), 2: (0, 2), 3: (1, 2)}
_BOOST_PLANES = {1: (2, 3), 2: (1, 3), 3: (0, 3)}


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical comparison tolerance used across the package.

    eps: the comparison tolerance, used both as an absolute floor and as a
    relative bound; positive and finite.
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


def generator(kind: GeneratorKind) -> np.ndarray:
    """Matrix of one generator family member at its parameter value."""
    m = np.eye(4)
    p = float(kind.parameter)
    if kind.family == ROTATION:
        i, j = _ROTATION_PLANES[kind.axis]
        c, s = np.cos(p), np.sin(p)
        m[i, i] = c
        m[i, j] = -s
        m[j, i] = s
        m[j, j] = c
    else:
        i, j = _BOOST_PLANES[kind.axis]
        c, s = np.cosh(p), np.sinh(p)
        m[i, i] = c
        m[i, j] = s
        m[j, i] = s
        m[j, j] = c
    return m


def rotation_matrix(axis: int, angle: float) -> np.ndarray:
    return generator(GeneratorKind(axis, ROTATION, angle))


def boost_matrix(axis: int, rapidity: float) -> np.ndarray:
    return generator(GeneratorKind(axis, BOOST, rapidity))


def lie_generator(kind: GeneratorKind) -> np.ndarray:
    """Derivative of the family at parameter 0; ignores kind.parameter."""
    x = np.zeros((4, 4))
    if kind.family == ROTATION:
        i, j = _ROTATION_PLANES[kind.axis]
        x[i, j] = -1.0
        x[j, i] = 1.0
    else:
        i, j = _BOOST_PLANES[kind.axis]
        x[i, j] = 1.0
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


def lorentz_inverse(P) -> np.ndarray:
    """Inverse of a metric-preserving matrix (or a (..., 4, 4) stack), without a linear solve."""
    P = np.asarray(P, dtype=float)
    return ETA @ P.swapaxes(-1, -2) @ ETA


def random_generator_word(rng: np.random.Generator, word_length: int) -> list[GeneratorKind]:
    """Draw word_length generators; rotation angles in [-pi, pi], rapidities in [-1, 1]."""
    if word_length < 1:
        raise ValueError("word_length must be at least 1")
    word = []
    for _ in range(word_length):
        axis = int(rng.integers(1, 4))
        family = ROTATION if rng.integers(2) == 0 else BOOST
        if family == ROTATION:
            p = rng.uniform(-np.pi, np.pi)
        else:
            p = rng.uniform(-1.0, 1.0)
        word.append(GeneratorKind(axis, family, float(p)))
    return word


def word_matrix(word) -> np.ndarray:
    """Product of the generator matrices of a word, left factor first."""
    m = np.eye(4)
    for kind in word:
        m = m @ generator(kind)
    return m


def random_proper_lorentz(rng: np.random.Generator, word_length: int = 3) -> np.ndarray:
    """A reproducible group element: the matrix of a random generator word."""
    return word_matrix(random_generator_word(rng, word_length))
