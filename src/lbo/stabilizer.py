"""Stabilizer subgroups of the light-cone orbits and their invariant subspaces.

The fully reduced neutral element r0 * (e1^e2 +/- e3^e4) is fixed by the
rotation in the 1-2 plane, the boost along the third axis, and the negative
of that boost (still proper in dimension four).  The tangent space at the
reduced element splits under this group into two invariant planes, mixed-half
sums and differences of null-basis vectors; nothing smaller is invariant.

A degenerate base point is fixed instead by two commuting one-parameter
families of null rotations.  Each is assembled from a boost, a compensating
rotation with angle arcsin(tanh t), and a scaling correction boost with
rapidity -log(cosh t); after the substitution x = tanh t the family becomes
polynomial in x.  Here the tangent space contains a distinguished isotropic
plane (the kernel of the induced metric): the invariant subspaces are exactly
the lines inside it, the plane itself, and anything containing it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvariantViolationError
from .minkowski import (
    BOOST, ROTATION, GeneratorKind, _matmul, boost_matrix, lie_generator, lorentz_inverse,
    rotation_matrix,
)
from .orbit import (
    OrbitClass, OrbitKind, base_point, canonical_bivector, normal_form_bivector, tangent_frame,
)
from .wedge import _compound, _row_norms, as_bivector, from_null_basis, lie_pushforward_matrix

# Span-comparison ceiling for subspace membership and equality tests.
_SPAN_TOL = 1e-8


class Family(Enum):
    """Stabilizer generator families."""

    ROTATION_12 = "rotation12"
    BOOST_34 = "boost34"
    REFLECTED_BOOST_34 = "reflected_boost34"
    NULL_ROTATION_A = "null_rotation_a"
    NULL_ROTATION_B = "null_rotation_b"


_NEUTRAL_FAMILIES = (Family.ROTATION_12, Family.BOOST_34, Family.REFLECTED_BOOST_34)
_DEGENERATE_FAMILIES = (Family.NULL_ROTATION_A, Family.NULL_ROTATION_B)


@dataclass(frozen=True)
class StabilizerElement:
    matrix: np.ndarray
    family: Family
    parameter: float


def neutral_base(r0: float = 1.0, epsilon: int = 1) -> np.ndarray:
    """The reduced neutral element the neutral families fix."""
    return normal_form_bivector(r0, epsilon)


def degenerate_base() -> np.ndarray:
    """The degenerate base point sqrt2 * (e2^e3 + e3^e4)."""
    return base_point(np.pi / 2)


def null_rotation_angles(t: float) -> tuple[float, float]:
    """Compensating rotation angle and scaling rapidity for a null rotation.

    Returns (arcsin(tanh t), -log(cosh t)); the pair satisfies
    exp(s) = cos(theta) and sinh(t) = sin(theta) * cosh(t).
    """
    return float(np.arcsin(np.tanh(t))), float(-np.log(np.cosh(t)))


def null_rotation_a(x: float) -> np.ndarray:
    """Polynomial form of the first null-rotation family, parameter x in (-1, 1) unconstrained.

    Quadratic in x and equal to the composed form at x = tanh t; acts on the
    coordinates (1, 2, 4) and fixes the third axis.
    """
    h = 0.5 * x * x
    return np.array(
        [
            [1.0, x, 0.0, x],
            [-x, 1.0 - h, 0.0, -h],
            [0.0, 0.0, 1.0, 0.0],
            [x, h, 0.0, 1.0 + h],
        ]
    )


def null_rotation_b(x: float) -> np.ndarray:
    """Polynomial form of the second null-rotation family; acts on coordinates (2, 3, 4)."""
    h = 0.5 * x * x
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 - h, -x, -h],
            [0.0, x, 1.0, x],
            [0.0, h, x, 1.0 + h],
        ]
    )


def stabilizer_element(family: Family, parameter: float) -> StabilizerElement:
    """Build one stabilizer group element of the given family."""
    t = float(parameter)
    if family is Family.ROTATION_12:
        m = rotation_matrix(1, t)
    elif family is Family.BOOST_34:
        m = boost_matrix(1, t)
    elif family is Family.REFLECTED_BOOST_34:
        m = -boost_matrix(1, t)
    elif family is Family.NULL_ROTATION_A:
        theta, s = null_rotation_angles(t)
        m = _matmul(_matmul(boost_matrix(3, t), rotation_matrix(1, -theta)), boost_matrix(2, s))
    elif family is Family.NULL_ROTATION_B:
        theta, s = null_rotation_angles(t)
        m = _matmul(_matmul(boost_matrix(1, t), rotation_matrix(3, theta)), boost_matrix(2, s))
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown family {family!r}")
    return StabilizerElement(matrix=m, family=family, parameter=t)


def stabilizer_generators(kind: str, parameter: float) -> list[StabilizerElement]:
    """All generator families fixing the base point of the given orbit kind, at one parameter."""
    fams = _DEGENERATE_FAMILIES if kind == OrbitKind.DEGENERATE else _NEUTRAL_FAMILIES
    return [stabilizer_element(f, parameter) for f in fams]


# Parameters of the generator stacks, in stacking order.
STACK_PARAMETERS = (-0.9, -0.3, 0.3, 0.9)


@functools.cache
def generator_stack(kind: str) -> tuple[np.ndarray, tuple]:
    """stabilizer_generators(kind, t) for every t in STACK_PARAMETERS, as one array.

    Returns (stack, labels): a read-only (n, 4, 4) array (12 neutral or 8
    degenerate matrices) and the (family, parameter) pair of each.  Built on
    first use of each kind; the two neutral kinds get equal stacks and labels,
    built separately.
    """
    elems = [e for t in STACK_PARAMETERS for e in stabilizer_generators(kind, t)]
    stack = np.array([e.matrix for e in elems])
    stack.flags.writeable = False
    return stack, tuple((e.family, e.parameter) for e in elems)


def fixing_residual(P, w) -> float | np.ndarray:
    """Relative residual of the pushforward of w by P against w itself.

    P is an (n, 4, 4) stack (returns n residuals) or one 4x4 matrix, taken as
    a stack of one (returns a float); any other shape is a ValueError.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim not in (2, 3) or P.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or an (n, 4, 4) stack, got shape {P.shape}")
    w = as_bivector(w)[None]
    d = _matmul(_compound(P.reshape(-1, 4, 4)), w[..., None])[..., 0] - w
    res = _row_norms(d) / _row_norms(w)
    return float(res[0]) if P.ndim == 2 else res


@functools.cache
def _moved_stack(kind: str) -> np.ndarray:
    """_compound(S) - I for each S of generator_stack(kind), as one read-only
    (6, 6 n) array: entry (k, n j + s) is entry (j, k) of matrix s, so that
    _matmul(v, it) holds each (_compound(S) - I) v of a row v, as (6, n)."""
    moved = _compound(generator_stack(kind)[0]) - np.eye(6)
    moved = moved.transpose(2, 1, 0).reshape(6, -1)
    moved.flags.writeable = False
    return moved


def stabilizer_residuals(b, W) -> list:
    """[(rows, residuals), ...] for b = reduce_orbits(W): degenerate rows, then
    witnessed neutral ones, and for each generator_stack matrix S the residual
    fixing_residual(F S F^-1, w) reassociated as |C(F) (C(S) - I) v| / |w|,
    C = _compound, where the row's frame F takes its base point v (normal
    form, reduced element) to w.  S fixes v exactly, so only rounding is
    left.  Each row has the bits of its own one-row call.  The rows' products
    are (m, 6, n) stacks, with the n generators along the last axis, so each
    of _matmul's elementwise steps runs over long rows.
    """
    degenerate, neutral = np.flatnonzero(b.on_cone & (b.epsilon == 0)), np.flatnonzero(b.witnessed)
    out = []
    for rows, kind, frame, v in (
        (degenerate, OrbitKind.DEGENERATE, b.basis[degenerate],
         canonical_bivector(b.r[degenerate], b.phi[degenerate])),
        (neutral, OrbitKind.NEUTRAL_PLUS, lorentz_inverse(b.witness[neutral]), b.reduced[neutral]),
    ):
        moved = _moved_stack(kind)
        u = _matmul(v, moved).reshape(len(v), 6, moved.shape[1] // 6)  # (m, 6, n)
        d = _matmul(_compound(frame), u).swapaxes(1, 2)  # (m, n, 6)
        out.append((rows, _row_norms(d) / _row_norms(W[rows])[:, None]))
    return out


def stabilizer_sweep_matrix(a: float, b: float, c: float, d: float):
    """Matrix whose columns sweep a tangent vector through the neutral stabilizer.

    A tangent vector with null-basis weights (a, b, c, d) on the four tangent
    directions meets the rotation and boost families along the columns of the
    returned matrix; its determinant has the closed form
    -((a-d)^2 + (b-c)^2) * ((a+d)^2 + (b+c)^2), so the sweep degenerates
    exactly on the two invariant planes (a, b) = +/- (d, c).
    Returns (matrix, determinant_closed_form).
    """
    m = np.array(
        [
            [a, d, -c, -b],
            [b, c, d, a],
            [c, b, a, d],
            [d, a, -b, -c],
        ],
        dtype=float,
    )
    det = -(((a - d) ** 2 + (b - c) ** 2) * ((a + d) ** 2 + (b + c) ** 2))
    return m, float(det)


def neutral_invariant_plane(sign: int) -> np.ndarray:
    """Basis (6x2, lexicographic coordinates) of one invariant plane at the neutral base.

    The +1 plane is spanned by the mixed-half sums of the second and third
    null pairs, the -1 plane by their differences.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = np.eye(6)
    # null-basis coordinate order: (+1, +2, +3, -1, -2, -3)
    v1 = e[1] + sign * e[5]  # E(+,2) + sign * E(-,3)
    v2 = e[4] + sign * e[2]  # E(-,2) + sign * E(+,3)
    return np.column_stack([from_null_basis(v1), from_null_basis(v2)])


def degenerate_invariant_plane() -> np.ndarray:
    """Basis (6x2) of the isotropic kernel plane at the degenerate base."""
    fr = tangent_frame(np.pi / 2)
    return np.column_stack([fr.x_plus, fr.x_minus])


class SubspaceLabel(Enum):
    WHOLE = "Whole"
    W_PLUS = "WPlus"
    W_MINUS = "WMinus"
    W_ZERO = "W0"
    CONTAINS_W_ZERO = "ContainsW0"
    LINE_IN_W_ZERO = "LineInW0"
    NOT_INVARIANT = "NotInvariant"


def _tangent_basis(kind: str) -> np.ndarray:
    if kind == OrbitKind.DEGENERATE:
        frame = tangent_frame(np.pi / 2).stack()
    else:
        # tangent space at the reduced neutral element: the four coordinates
        # complementary to the fixed planes, i.e. c12 = c34 = 0
        frame = np.eye(6)[:, [1, 2, 3, 4]]
    q, _ = np.linalg.qr(frame)
    return q


def _orthonormal_span(span) -> np.ndarray:
    cols = [as_bivector(v) for v in span]
    if not cols:
        raise ValueError("span must contain at least one vector")
    s = np.column_stack(cols)
    q, r = np.linalg.qr(s)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.max(np.abs(s)))
    if not np.all(keep):
        raise ValueError("span vectors are linearly dependent")
    return q[:, : s.shape[1]]


def _contained(inner: np.ndarray, outer: np.ndarray) -> bool:
    res = inner - outer @ (outer.T @ inner)
    return float(np.max(np.abs(res))) <= _SPAN_TOL


def _same_span(p: np.ndarray, q: np.ndarray) -> bool:
    return p.shape[1] == q.shape[1] and _contained(p, q) and _contained(q, p)


def _action_samples(kind: str) -> list[np.ndarray]:
    """Pushforwards of the generator stack and of the family derivatives at parameter 0.

    A reflected boost pushes forward exactly like its boost (negation leaves
    every 2x2 minor unchanged), so the neutral stack repeats those samples.
    """
    if kind == OrbitKind.DEGENERATE:
        derivatives = (
            lie_generator(GeneratorKind(3, BOOST)) - lie_generator(GeneratorKind(1, ROTATION)),
            lie_generator(GeneratorKind(1, BOOST)) + lie_generator(GeneratorKind(3, ROTATION)),
        )
    else:
        derivatives = (
            lie_generator(GeneratorKind(1, ROTATION)),
            lie_generator(GeneratorKind(1, BOOST)),
        )
    return [*_compound(generator_stack(kind)[0]), *map(lie_pushforward_matrix, derivatives)]


def classify_invariant_subspace(kind: str | OrbitClass, span) -> SubspaceLabel:
    """Label a tangent subspace at the base point of the given orbit kind.

    The span must consist of vectors tangent to the orbit at the base point
    (the reduced neutral element, or the degenerate base).  Invariance is
    decided by sampled group elements of every stabilizer family together
    with the family derivatives at parameter 0; invariant subspaces are then
    matched against the known lattice.  A subspace that samples as invariant
    but matches nothing in the lattice signals a structural bug and raises
    InvariantViolationError.
    """
    if isinstance(kind, OrbitClass):
        kind = kind.kind
    if kind not in (OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE):
        raise ValueError(f"unknown orbit kind {kind!r}")

    basis = _orthonormal_span(span)
    dim = basis.shape[1]
    if dim > 4:
        raise ValueError("tangent spaces are four-dimensional")
    tangent = _tangent_basis(kind)
    if not _contained(basis, tangent):
        raise ValueError("span is not tangent to the orbit at the base point")

    for m in _action_samples(kind):
        image = m @ basis
        if float(np.max(np.abs(image - basis @ (basis.T @ image)))) > _SPAN_TOL * max(
            1.0, float(np.max(np.abs(image)))
        ):
            return SubspaceLabel.NOT_INVARIANT

    if dim == 4:
        return SubspaceLabel.WHOLE
    if kind == OrbitKind.DEGENERATE:
        kernel, _ = np.linalg.qr(degenerate_invariant_plane())
        kernel = kernel[:, :2]
        if dim == 1 and _contained(basis, kernel):
            return SubspaceLabel.LINE_IN_W_ZERO
        if dim == 2 and _same_span(basis, kernel):
            return SubspaceLabel.W_ZERO
        if dim == 3 and _contained(kernel, basis):
            return SubspaceLabel.CONTAINS_W_ZERO
        raise InvariantViolationError(
            "invariant subspace outside the degenerate lattice (dimension "
            f"{dim}); the lattice admits only the kernel plane, its lines, and its extensions"
        )
    if dim == 2:
        plus, _ = np.linalg.qr(neutral_invariant_plane(1))
        minus, _ = np.linalg.qr(neutral_invariant_plane(-1))
        if _same_span(basis, plus[:, :2]):
            return SubspaceLabel.W_PLUS
        if _same_span(basis, minus[:, :2]):
            return SubspaceLabel.W_MINUS
    raise InvariantViolationError(
        f"invariant subspace of dimension {dim} outside the neutral lattice; "
        "only the two mixed-half planes and the whole tangent space are invariant"
    )
