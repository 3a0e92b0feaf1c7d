"""Orbit geometry of light-cone bivectors under the proper Lorentz group.

Every light-cone bivector splits into a pair of 3-vectors of equal length: an
axial vector collecting the spatial-plane coefficients and a polar vector
collecting the time-plane coefficients.  Rotating the spatial frame so the
polar vector becomes the third axis and the axial vector lies in the 1-3
plane reduces the bivector to the one-angle normal form

    r * (cos(phi) e1^e2 + sin(phi) e2^e3 + e3^e4),    r > 0, phi in [0, pi].

The sign of the pfaffian then splits the light cone into three orbit types:
two open families of "neutral" orbits (pfaffian positive or negative), each
containing exactly one fully reduced element r0 * (e1^e2 +/- e3^e4), and the
borderline "degenerate" family (pfaffian zero) which contains no such element
and is scaled into itself by boosts.

The module also carries the tangent frame of the orbit surface along the
angle/rapidity coordinate lines, which is where the degenerate family shows
its rank-2 induced metric.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateOrbitError, NotInLightConeError
from .minkowski import (
    BOOST, DEFAULT_TOL, ROTATION, GeneratorKind, ToleranceConfig, _matmul, boost_matrix,
    lie_generator, rotation_matrix,
)
from .wedge import (
    HAT_DIAG,
    _compound,
    _cone_reason,
    _row_norms,
    _rows_dot,
    as_bivector,
    basis_bivector,
    from_null_basis,
    hat_inner,
    lie_pushforward_matrix,
    pfaffian,
)

# Residual ceilings for the transported-frame checks.  The first bounds both
# tangential components and derivative-field matches; the second bounds
# quantities that vanish identically rather than merely tangentially.
PARALLEL_RESIDUAL_TOL = 1e-4
NULL_RESIDUAL_TOL = 1e-6

_HALF_PI = np.pi / 2


def to_vector_pair(w) -> tuple[np.ndarray, np.ndarray]:
    """Split a bivector into its axial and polar 3-vectors; a (..., 6) stack
    gives two C-contiguous (..., 3) stacks.

    The axial vector a reads the spatial-plane coefficients with the cyclic
    orientation (a1, a2, a3) = (c23, -c13, c12); the polar vector b is the
    time column (c14, c24, c34).  On the light cone |a| = |b| != 0.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (6,):
        raise ValueError(f"expected 6 bivector coefficients, got shape {w.shape}")
    a = np.stack([w[..., 3], -w[..., 1], w[..., 0]], axis=-1)
    b = np.stack([w[..., 2], w[..., 4], w[..., 5]], axis=-1)
    return a, b


def from_vector_pair(a, b) -> np.ndarray:
    """Inverse of to_vector_pair; two (..., 3) stacks of one shape give (..., 6)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != (3,) or b.shape != a.shape:
        raise ValueError("expected two 3-vectors or two (..., 3) stacks of one shape")
    return np.stack([a[..., 2], -a[..., 1], b[..., 0], a[..., 0], b[..., 1], b[..., 2]], axis=-1)


# The coordinate planes of the normal forms.
_E12, _E23, _E34 = basis_bivector(1, 2), basis_bivector(2, 3), basis_bivector(3, 4)


def canonical_bivector(r, phi) -> np.ndarray:
    """r * (cos(phi) e1^e2 + sin(phi) e2^e3 + e3^e4); arrays of r and phi give one row each."""
    r = np.asarray(r, dtype=float)[..., None]
    phi = np.asarray(phi, dtype=float)[..., None]
    return r * (np.cos(phi) * _E12 + np.sin(phi) * _E23 + _E34)


def base_point(phi: float) -> np.ndarray:
    """Normal form scaled so both split norms equal 2; base point for frames below."""
    return canonical_bivector(np.sqrt(2.0), phi)


def normal_form_bivector(r0, epsilon) -> np.ndarray:
    """The fully reduced element r0 * (e1^e2 + epsilon * e3^e4) of a neutral orbit.

    Arrays of r0 and epsilon give one row each.
    """
    epsilon = np.asarray(epsilon)
    if not np.all((epsilon == 1) | (epsilon == -1)):
        raise ValueError("epsilon must be +1 or -1")
    r0 = np.asarray(r0, dtype=float)[..., None]
    return r0 * (_E12 + epsilon[..., None] * _E34)


@dataclass(frozen=True)
class CanonicalForm:
    """Scale r, angle phi and the adapted basis realising the normal form.

    The basis is a proper Lorentz matrix whose columns are the adapted frame;
    pushing canonical_bivector(r, phi) forward through it reproduces the
    original bivector.
    """

    r: float
    phi: float
    basis: np.ndarray


class OrbitKind:
    """Orbit type labels; plain strings so they serialise directly."""

    NEUTRAL_PLUS = "NeutralPlus"
    NEUTRAL_MINUS = "NeutralMinus"
    DEGENERATE = "Degenerate"


# Kinds by epsilon + 2 on the cone, and 0 off it; one index reads a whole column.
_KIND_BY_CODE = np.array(
    [None, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE, OrbitKind.NEUTRAL_PLUS], dtype=object
)


@dataclass(frozen=True)
class OrbitClass:
    """Orbit type with its invariants: reduced scale r0 and sign epsilon."""

    kind: str
    r0: float
    epsilon: int | None


class OrbitBatch(NamedTuple):
    """What reduce_orbits finds for each row of an (n, 6) batch of bivectors.

    Every row: spatial and temporal split norms, pfaffian, and reason (why the
    row is off the light cone, None on it; on_cone is the mask of None).
    Rows on the cone: r, phi and basis of canonical_form; kind, r0 and
    epsilon of orbit_class (epsilon 0 for degenerate rows, kind None off the
    cone).  Neutral rows whose angle does not round to pi/2 (the mask
    witnessed): witness and reduced element of canonical_representative.
    Entries a row does not have, or that reduce_orbits was asked not to
    compute, are NaN.
    """

    spatial: np.ndarray
    temporal: np.ndarray
    pfaffian: np.ndarray
    reason: tuple
    on_cone: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    basis: np.ndarray
    kind: tuple
    r0: np.ndarray
    epsilon: np.ndarray
    witnessed: np.ndarray
    witness: np.ndarray
    reduced: np.ndarray

    def canonical_form(self, i: int) -> CanonicalForm:
        return CanonicalForm(r=float(self.r[i]), phi=float(self.phi[i]), basis=self.basis[i])

    def orbit_class(self, i: int) -> OrbitClass:
        return OrbitClass(self.kind[i], float(self.r0[i]), int(self.epsilon[i]) or None)


# Cyclic successors of the three axes, for cross products of stacks.
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.cross of two (m, 3) stacks, bit for bit (entry i is x_j y_k - x_k y_j
    for the cyclic successors j, k of i), without its per-call axis handling."""
    return x[:, _NEXT] * y[:, _AFTER] - x[:, _AFTER] * y[:, _NEXT]


def _adapted_frames(w: np.ndarray):
    """r, phi and adapted basis of (m, 6) light-cone rows (see canonical_form),
    then along and size: the axial vector's component along u3 and the norm
    of its part off u3, whose arctan2 is phi."""
    a, b = to_vector_pair(w)
    u3 = b / _row_norms(b)[:, None]
    along = _rows_dot(a, u3)
    perp = a - along[:, None] * u3
    # scaled exactly, by a power of two, so that no square of a tiny perp underflows
    q = np.abs(perp)  # the max column by column, which is faster than over axis 1
    e = np.frexp(np.maximum(np.maximum(q[:, 0], q[:, 1]), q[:, 2]))[1]
    perp = np.ldexp(perp, -e[:, None])
    first = _row_norms(perp)
    perp -= _rows_dot(perp, u3)[:, None] * u3
    size = _row_norms(perp)
    parallel = ~(size > 0.5 * first)
    if parallel.any():
        u3p = u3[parallel]
        axis = np.eye(3)[np.abs(u3p).argmin(axis=1)]
        perp[parallel] = axis - _rows_dot(axis, u3p)[:, None] * u3p
        size[parallel] = 0.0
    u1 = perp / _row_norms(perp)[:, None]
    basis = np.zeros((len(w), 4, 4))
    basis[:, :3, :3] = np.stack([u1, _cross(u3, u1), u3], axis=2)
    basis[:, 3, 3] = 1.0
    size = np.ldexp(size, e)
    return _row_norms(a), np.arctan2(size, along), basis, along, size


def _witnesses(r, along, size, basis) -> np.ndarray:
    """canonical_representative's witness R B F^-1 of each row, from its frame.

    R turns the 1-3 plane by theta, B boosts along the second axis at the
    critical rapidity t, and F is the adapted basis, so F^-1 is F^T.  With
    chi = |along| / r = |cos phi| and sigma = size / r = sin phi, the roots
    h = sqrt((1 + chi) / 2) and k = sigma / sqrt(2 (1 + chi)) are cos(phi/2)
    and sin(phi/2) below the right angle and swap above it.  So (cos theta,
    sin theta) is (h, k) where along > 0 and (-h, k) otherwise, and with q =
    sqrt(chi), cosh t = h / q and sinh t = k / q: square roots and quotients
    of ratios, which do not overflow at any finite r, and no transcendental
    function.  The rows of R B F^T are written out, without their zero
    products.
    """
    chi, sigma = np.abs(along) / r, size / r
    h = np.sqrt((1.0 + chi) / 2.0)
    k = sigma / np.sqrt(2.0 * (1.0 + chi))
    q = np.sqrt(chi)
    cos = np.where(along > 0, h, -h)[:, None]
    cosh, sinh, sin = h / q, k / q, k[:, None]
    u1, u2, u3 = basis[:, :3, 0], basis[:, :3, 1], basis[:, :3, 2]
    witness = np.zeros((len(r), 4, 4))
    witness[:, 0, :3] = cos * u1 - sin * u3
    witness[:, 1, :3] = cosh[:, None] * u2
    witness[:, 1, 3] = sinh
    witness[:, 2, :3] = sin * u1 + cos * u3
    witness[:, 3, :3] = sinh[:, None] * u2
    witness[:, 3, 3] = cosh
    return witness


def reduce_orbits(W, tol: ToleranceConfig = DEFAULT_TOL, *, frames: bool = True) -> OrbitBatch:
    """canonical_form, orbit_class and canonical_representative of each row of an (n, 6) array.

    Off-cone rows get their reason, and neutral rows whose angle rounds to
    pi/2 get no witness, instead of an exception, so one row never stops the
    others.  With frames=False only the split norms, pfaffian, reason and
    class are computed.  Each row gets the bits the scalar functions give it
    alone (they call this with n = 1), on every CPU: every step is an
    elementwise operation in the order the source writes it, so dot products
    and pushforwards are _matmul's left-to-right sums, never BLAS or sums
    over an axis; the squares of the split norms are elementwise products;
    and the witness takes square roots, not transcendental functions.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != 6:
        raise ValueError(f"expected an (n, 6) array of bivectors, got shape {W.shape}")
    n = len(W)
    spatial, temporal, on, reason = _cone_reason(W, tol)
    pf = pfaffian(W)
    degenerate = np.abs(pf) <= tol.eps * spatial
    epsilon = np.zeros(n, dtype=int)
    epsilon[on & ~degenerate] = np.where(pf[on & ~degenerate] > 0, 1, -1)
    r0 = np.full(n, np.nan)
    r0[on] = np.where(degenerate[on], 0.0, np.sqrt(np.abs(pf[on])))
    kind = tuple(_KIND_BY_CODE[np.where(on, epsilon + 2, 0)].tolist())

    r, phi = np.full(n, np.nan), np.full(n, np.nan)
    basis, witness = np.full((n, 4, 4), np.nan), np.full((n, 4, 4), np.nan)
    reduced = np.full((n, 6), np.nan)
    witnessed = np.zeros(n, dtype=bool)
    if frames:
        r[on], phi[on], basis[on], along, size = _adapted_frames(W[on])
        witnessed = (epsilon != 0) & (phi != _HALF_PI)
        # the reduction of canonical_representative, row by row
        kept = witnessed[on]  # the witnessed rows among those on the cone
        witness[witnessed] = _witnesses(r[witnessed], along[kept], size[kept], basis[witnessed])
        rotated = _matmul(_compound(witness[witnessed]), W[witnessed][:, :, None])
        reduced[witnessed] = rotated[..., 0]
    return OrbitBatch(
        spatial, temporal, pf, reason, on, r, phi, basis, kind, r0, epsilon,
        witnessed, witness, reduced,
    )


def _reduce_one(w, tol: ToleranceConfig, caller: str, frames: bool = True) -> OrbitBatch:
    batch = reduce_orbits(as_bivector(w)[None], tol, frames=frames)
    if not batch.on_cone[0]:
        raise NotInLightConeError(f"{caller} requires a light-cone bivector")
    return batch


def canonical_form(w, tol: ToleranceConfig = DEFAULT_TOL) -> CanonicalForm:
    """Reduce a light-cone bivector to the one-angle normal form.

    The adapted spatial frame is (u1, u2 = u3 x u1, u3): u3 is the polar
    direction, and u1 that of the part of the axial vector a perpendicular
    to it, orthogonalised against u3 twice (Gram-Schmidt); phi =
    arctan2(|that part|, a . u3) lies in [0, pi].  A row whose second pass
    keeps at most half of the first is parallel (phi 0 or pi), and its u1 is
    the coordinate axis least along u3, orthogonalised against it; any such
    choice yields the same normal form.  No step reads the tolerance.
    """
    return _reduce_one(w, tol, "canonical_form").canonical_form(0)


def reconstruct(form) -> np.ndarray:
    """Push the normal form back through the adapted basis.

    form is a CanonicalForm, or an OrbitBatch for one reconstruction per row.
    Only the normal form's nonzero entries, c12, c23 and c34, are multiplied,
    and their products summed left to right.
    """
    normal = canonical_bivector(form.r, form.phi)
    C = _compound(form.basis)
    return (C[..., 0] * normal[..., 0, None] + C[..., 3] * normal[..., 3, None]
            + C[..., 5] * normal[..., 5, None])


def orbit_class(w, tol: ToleranceConfig = DEFAULT_TOL) -> OrbitClass:
    """Classify by the pfaffian: sign picks the neutral family, zero is degenerate.

    The degenerate band is |pfaffian| <= eps * spatial_norm, relative as
    both scale with the square of the input; for neutral orbits
    r0 = sqrt(|pfaffian|) is the scale of the reduced element.
    """
    return _reduce_one(w, tol, "orbit_class", frames=False).orbit_class(0)


# Why a neutral bivector at the right angle has no reduced element.
RIGHT_ANGLE = "no finite minimising rapidity at the right angle phi = pi/2"


def critical_rapidity(phi: float) -> float:
    """Rapidity of the reduction boost, where the surface sweep reaches its minimal radius.

    Uses tan of the half angle below the right angle and its reciprocal
    above; symmetric under phi -> pi - phi.  Undefined at the right angle,
    where the minimising rapidity runs away to infinity.
    """
    if not 0.0 <= phi <= np.pi:
        raise ValueError("phi must lie in [0, pi]")
    if phi == _HALF_PI:
        raise ValueError(RIGHT_ANGLE)
    half = np.tan(0.5 * phi)
    return float(np.arctanh(half if phi < _HALF_PI else 1.0 / half))


def canonical_representative(
    w, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Carry a neutral bivector to its reduced element; returns (element, witness).

    After the basis reduction, a rotation in the 1-3 plane by half the angle
    composed with a boost along the second axis whose rapidity has hyperbolic
    tangent tan(phi/2) kills the e2^e3 and e1^e4 components.  Past the right
    angle the roles of sine and cosine swap: the rotation gains a quarter
    turn and the rapidity uses the cotangent, as in critical_rapidity; a phi
    that rounds to the right angle raises ValueError.  The witness is the
    accumulated Lorentz matrix, so pushing w through it yields the returned
    element r0 * (e1^e2 + epsilon * e3^e4).  Its cosines and hyperbolic
    cosines are square roots of ratios of the frame's lengths (see
    _witnesses), and the pushforward is _matmul's left-to-right sums, so
    its bits are the same on every CPU.
    """
    batch = _reduce_one(w, tol, "canonical_representative")
    if batch.kind[0] == OrbitKind.DEGENERATE:
        raise DegenerateOrbitError("degenerate orbits contain no fully reduced element")
    if not batch.witnessed[0]:
        raise ValueError(RIGHT_ANGLE)
    return batch.reduced[0], batch.witness[0]


# --- tangent frames along the normal-form curve ---------------------------


@dataclass(frozen=True)
class TangentFrame:
    """Frame (x_plus, x_minus, y_plus, y_minus) spanning the orbit tangent space."""

    x_plus: np.ndarray
    x_minus: np.ndarray
    y_plus: np.ndarray
    y_minus: np.ndarray
    base_point: np.ndarray

    def stack(self) -> np.ndarray:
        """6x4 matrix with the frame fields as columns."""
        return np.column_stack([self.x_plus, self.x_minus, self.y_plus, self.y_minus])


def tangent_frame(phi: float) -> TangentFrame:
    """Tangent frame of the orbit at base_point(phi), in lexicographic coordinates.

    Written over the null basis the four fields are sparse: the x fields mix
    the first and third null pairs with weights (sin, -cos) plus a fixed unit
    leg in the opposite half, and the y fields are single null vectors.
    """
    c, s = np.cos(phi), np.sin(phi)
    x_plus = from_null_basis(np.array([s, 0.0, -c, 0.0, 0.0, -1.0]))
    x_minus = from_null_basis(np.array([0.0, 0.0, -1.0, s, 0.0, c]))
    y_plus = from_null_basis(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    y_minus = from_null_basis(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
    return TangentFrame(x_plus, x_minus, y_plus, y_minus, base_point(phi))


def normal_directions(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The two normal fields closing the derivative system of the x fields."""
    c, s = np.cos(phi), np.sin(phi)
    n_plus = from_null_basis(np.array([-c, 0.0, -s, 1.0, 0.0, 0.0]))
    n_minus = from_null_basis(np.array([-1.0, 0.0, 0.0, -c, 0.0, s]))
    return n_plus, n_minus


def tangent_gram(phi: float) -> np.ndarray:
    """Induced-metric Gram matrix of the tangent frame at base_point(phi).

    Diagonal on the x block with entries -2cos(phi) and +2cos(phi), hyperbolic
    on the y block; signature (2, 2) away from the right angle, rank 2 at it.
    """
    frame = tangent_frame(phi).stack()
    return _matmul(frame.T, HAT_DIAG[:, None] * frame)


def orthonormal_tangent_frame(phi: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Pseudo-orthonormal tangent frame (x1, x2, y1, y2) with square norms (+1, -1, +1, -1).

    Only defined away from the right angle, where the x block of the Gram
    matrix is invertible; inside the cutoff band a ValueError is raised.
    """
    c, s = np.cos(phi), np.sin(phi)
    if abs(c) <= tol.eps:
        raise ValueError("orthonormal frame undefined where the x block degenerates")
    w12 = basis_bivector(1, 2)
    w14 = basis_bivector(1, 4)
    w23 = basis_bivector(2, 3)
    w34 = basis_bivector(3, 4)
    x1 = (c * s * w12 - (1.0 + c * c) * w23 - s * w34) / (2.0 * c)
    x2 = (c * s * w12 - 2.0 * c * w14 + s * s * w23 + s * w34) / (2.0 * c)
    y1 = basis_bivector(1, 3)
    y2 = -basis_bivector(2, 4)
    return x1, x2, y1, y2


def surface_point(phi: float, theta: float, t: float) -> np.ndarray:
    """Image of base_point(phi) under the 1-3 plane rotation and axis-2 boost.

    The sweep over (theta, t) fills out the two-parameter surface inside the
    orbit on which the reduction of canonical_representative takes place.
    """
    return _surface_matrix(theta, t) @ base_point(phi)


def _surface_matrix(theta: float, t: float) -> np.ndarray:
    return _compound(rotation_matrix(2, theta) @ boost_matrix(2, t))


@dataclass(frozen=True)
class ParallelFrameReport:
    """Residual summary of the transported-frame derivative checks.

    Neutral branch: tangential_residuals holds the tangential component norms
    of the eight derivative fields, derivative_match_residuals the distance of
    the x-field derivatives from the transported normal fields.  Degenerate
    branch: y_derivative_norms must vanish, x_null_defects are the induced
    square norms of the x-field derivatives, x_span_residuals their distance
    from the span of the transported x fields, and tangential_residuals holds
    the projections onto the y block (the only block with invertible Gram).
    """

    phi: float
    theta: float
    t: float
    degenerate: bool
    tangential_residuals: dict
    derivative_match_residuals: dict
    y_derivative_norms: dict
    x_null_defects: dict
    x_span_residuals: dict
    passed: bool


def parallel_frame_check(
    phi: float, theta: float, t: float, tol: ToleranceConfig = DEFAULT_TOL
) -> ParallelFrameReport:
    """Verify the transported tangent frame is parallel along the surface sweep.

    The frame fields' derivatives are exact: the surface matrix M has
    dM/dtheta = L_rot M and dM/dt = M L_boost, with L the bivector action of
    an axis-2 generator.  In the neutral branch their tangential parts must
    vanish and the x-field derivatives must coincide with the transported
    normal fields.  At the right angle the normal fields fold into the x
    block, so instead the x derivatives must be isotropic and lie in the
    transported x span while the y fields stay constant.
    """
    frame0 = tangent_frame(phi).stack()
    m_center = _surface_matrix(theta, t)
    moved = m_center @ frame0
    d_theta = lie_pushforward_matrix(lie_generator(GeneratorKind(2, ROTATION))) @ moved
    d_t = m_center @ lie_pushforward_matrix(lie_generator(GeneratorKind(2, BOOST))) @ frame0

    names = ("x_plus", "x_minus", "y_plus", "y_minus")
    deriv = {}
    for k, name in enumerate(names):
        deriv[f"{name}/theta"] = d_theta[:, k]
        deriv[f"{name}/t"] = d_t[:, k]

    degenerate = abs(np.cos(phi)) <= tol.eps
    tangential: dict = {}
    match: dict = {}
    y_norms: dict = {}
    x_null: dict = {}
    x_span: dict = {}

    if not degenerate:
        gram = moved.T @ (HAT_DIAG[:, None] * moved)
        for key, v in deriv.items():
            beta = np.linalg.solve(gram, moved.T @ (HAT_DIAG * v))
            tangential[key] = float(np.linalg.norm(moved @ beta))
        n_plus, n_minus = normal_directions(phi)
        moved_np = m_center @ n_plus
        moved_nm = m_center @ n_minus
        match["x_plus/theta"] = float(np.linalg.norm(deriv["x_plus/theta"] - moved_np))
        match["x_minus/theta"] = float(np.linalg.norm(deriv["x_minus/theta"] - moved_nm))
        match["x_plus/t"] = float(np.linalg.norm(deriv["x_plus/t"] - moved_nm))
        match["x_minus/t"] = float(np.linalg.norm(deriv["x_minus/t"] + moved_np))
        passed = (
            max(tangential.values()) <= PARALLEL_RESIDUAL_TOL
            and max(match.values()) <= PARALLEL_RESIDUAL_TOL
        )
    else:
        y_block = moved[:, 2:4]
        gram_y = y_block.T @ (HAT_DIAG[:, None] * y_block)
        x_block = moved[:, 0:2]
        for key in ("y_plus/theta", "y_plus/t", "y_minus/theta", "y_minus/t"):
            y_norms[key] = float(np.linalg.norm(deriv[key]))
        for key in ("x_plus/theta", "x_plus/t", "x_minus/theta", "x_minus/t"):
            v = deriv[key]
            beta = np.linalg.solve(gram_y, y_block.T @ (HAT_DIAG * v))
            tangential[key] = float(np.linalg.norm(y_block @ beta))
            x_null[key] = float(abs(hat_inner(v, v)))
            coef, *_ = np.linalg.lstsq(x_block, v, rcond=None)
            x_span[key] = float(np.linalg.norm(x_block @ coef - v))
        passed = (
            max(y_norms.values()) <= NULL_RESIDUAL_TOL
            and max(x_null.values()) <= NULL_RESIDUAL_TOL
            and max(x_span.values()) <= PARALLEL_RESIDUAL_TOL
            and max(tangential.values()) <= PARALLEL_RESIDUAL_TOL
        )

    return ParallelFrameReport(
        phi=phi,
        theta=theta,
        t=t,
        degenerate=degenerate,
        tangential_residuals=tangential,
        derivative_match_residuals=match,
        y_derivative_norms=y_norms,
        x_null_defects=x_null,
        x_span_residuals=x_span,
        passed=passed,
    )
