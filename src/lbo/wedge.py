"""Exterior square of Minkowski 4-space.

A bivector is stored as six coefficients over the coordinate 2-forms
e_i ^ e_j in lexicographic order:

    (c12, c13, c14, c23, c24, c34).

The inner product induced from the base metric is diagonal in this basis with
signs (+, +, -, +, -, -): planes spanned by two spatial axes are space-like,
planes containing the time axis are time-like, so the signature is (3, 3).

A linear map of the base space pushes forward to the exterior square through
its 2x2 minors; for proper Lorentz maps the pushforward is an isometry of the
induced metric and preserves the pfaffian c12*c34 - c13*c24 + c14*c23.

The null basis pairs each space-like plane with its time-like complement into
self-dual (+) and anti-self-dual (-) combinations, e.g. (e1^e2 +/- e3^e4)/sqrt2.
All six null-basis vectors are isotropic for the induced metric, which makes
the light cone and its tangent spaces easy to coordinatise.
"""
from __future__ import annotations

import numpy as np

from .minkowski import DEFAULT_TOL, ToleranceConfig, _matmul, is_proper_lorentz

# Lexicographic 0-based index pairs for the six coordinate planes.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}
# First and second index of each pair, for gathers over stacks.
_K, _L = (np.array([pair[n] for pair in PAIRS]) for n in (0, 1))

# Diagonal of the induced metric over (c12, c13, c14, c23, c24, c34).
HAT_DIAG = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def as_bivector(w) -> np.ndarray:
    v = np.asarray(w, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"expected 6 bivector coefficients, got shape {v.shape}")
    return v


def wedge(x, y) -> np.ndarray:
    """Coefficients of x ^ y; two (..., 4) stacks give (..., 6), one wedge per row.

    Each coefficient is x_i*y_j - x_j*y_i, two roundings of products and one
    of their difference, so a row of a stack has the bits of its own wedge.
    Products past the largest double are inf (and a difference of two of
    them nan) without a warning, as in pfaffian.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.shape[-1:] != (4,):
        raise ValueError("wedge expects two 4-vectors or two (..., 4) stacks of one shape")
    with np.errstate(over="ignore", invalid="ignore"):
        return x[..., _K] * y[..., _L] - x[..., _L] * y[..., _K]


def basis_bivector(i: int, j: int) -> np.ndarray:
    """Coefficient vector of e_i ^ e_j for 1-based i != j (sign flips if i > j)."""
    if i == j or not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError(f"need distinct indices in 1..4, got ({i}, {j})")
    sign = 1.0
    if i > j:
        i, j = j, i
        sign = -1.0
    out = np.zeros(6)
    out[_PAIR_INDEX[(i - 1, j - 1)]] = sign
    return out


def hat_inner(u, v) -> float:
    """Induced inner product of two bivectors."""
    u = as_bivector(u)
    v = as_bivector(v)
    return float(np.sum(HAT_DIAG * u * v))


def split_norms(w) -> tuple[float, float]:
    """Squared coefficient norms of the spatial-plane and time-plane parts.

    Returns (spatial, temporal) where spatial covers (c12, c13, c23) and
    temporal covers (c14, c24, c34).  Their difference is the induced
    square norm of w, and they agree exactly on the light cone.
    """
    spatial, temporal = _split_norms_rows(as_bivector(w)[None])
    return float(spatial[0]), float(temporal[0])


def _split_norms_rows(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The split norms of each row of an (n, 6) array; split_norms is its one-row case.

    Each square is a correctly rounded product, so scaling a row by 2**k
    scales both norms by 4**k exactly while no square or sum leaves the
    normal range.  A square or sum past the largest double is inf without
    a warning.
    """
    with np.errstate(over="ignore"):
        sq = W * W
        return sq[:, 0] + sq[:, 1] + sq[:, 3], sq[:, 2] + sq[:, 4] + sq[:, 5]


_UNDERFLOW = "split norms underflow the double range"  # no bits left to compare


def _cone_reason(W: np.ndarray, tol: ToleranceConfig) -> tuple:
    """Light-cone verdicts of an (n, 6) array: (spatial, temporal, on, reason),
    the split norms, the mask of rows on the cone and why each is off it.

    On the cone the two norms are finite and agree to eps times the larger,
    a normal double.  Only six zero entries are the zero bivector.  The
    verdicts are array comparisons; only rows off the cone get a text.
    """
    spatial, temporal = _split_norms_rows(W)
    larger = np.maximum(spatial, temporal)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and eps times a huge norm
        apart = ~(np.abs(spatial - temporal) <= tol.eps * larger)
    unbounded = ~(np.isfinite(spatial) & np.isfinite(temporal))
    underflow = larger < np.finfo(float).tiny  # the zero rows among them
    off = unbounded | underflow | apart
    reason = [None] * len(off)
    for i in np.flatnonzero(off).tolist():
        norms = f"spatial {float(spatial[i]):.6g} vs temporal {float(temporal[i]):.6g}"
        reason[i] = (
            "zero bivector" if not W[i].any()
            else f"split norms are not finite: {norms}" if unbounded[i]
            else f"{_UNDERFLOW}: {norms}" if underflow[i]
            else f"split norms differ: {norms}"
        )
    return spatial, temporal, ~off, tuple(reason)


def light_cone_reason(w, tol: ToleranceConfig = DEFAULT_TOL) -> str | None:
    """Why w is off the light cone, or None when it is on it.

    On the cone the split norms are finite and normal, and agree relatively.
    """
    return _cone_reason(as_bivector(w)[None], tol)[3][0]


def in_light_cone(w, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff w is isotropic and nonzero: its split norms are finite, agree and are normal."""
    return light_cone_reason(w, tol) is None


def pfaffian(w):
    """The degree-2 invariant c12*c34 - c13*c24 + c14*c23.

    Twice the wedge of w with itself against the volume form; invariant under
    every determinant-1 pushforward, so constant on orbits.  An (n, 6) stack
    gives an (n,) array.  Products past the largest double are inf (and a
    difference of two of them nan) without a warning.
    """
    w = np.asarray(w, dtype=float)
    if not (w.ndim == 2 and w.shape[1] == 6):
        w = as_bivector(w)
    c12, c13, c14, c23, c24, c34 = w.T  # scalars for one row, columns for a stack
    with np.errstate(over="ignore", invalid="ignore"):
        pf = c12 * c34 - c13 * c24 + c14 * c23
    return pf if w.ndim == 2 else float(pf)


def _rows_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (..., k) stacks: _matmul's one-row case,
    x0*y0 + x1*y1 + ... left to right."""
    return _matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a (..., k) stack: the root of its _rows_dot."""
    return np.sqrt(_rows_dot(x, x))


# Flat offsets into a row-major 4x4 matrix of the minor factors P[k,i], P[l,j],
# P[k,j], P[l,i] for row (k,l) and column (i,j) of the second compound.
_MINOR_FACTORS = np.stack(
    [4 * _K[:, None] + _K, 4 * _L[:, None] + _L, 4 * _K[:, None] + _L, 4 * _L[:, None] + _K]
)


def _compound(P) -> np.ndarray:
    """Second compound of a (..., 4, 4) stack: entry ((k,l),(i,j)) is P[k,i]P[l,j] - P[k,j]P[l,i].

    The minor factors are gathered a pair at a time and multiplied in place,
    so a stack holds at most three (..., 6, 6) arrays at once; each entry
    still takes two rounded products and their rounded difference.
    The library pushes its own matrices forward as _matmul(_compound(P), w):
    they are Lorentz by construction, and the check in pushforward costs
    more than the product (and, being absolute, rejects exact boosts at
    large rapidity).  pushforward and pushforward_matrix are the validated
    entry points for matrices from outside.
    """
    P = np.asarray(P, dtype=float)
    f = P.reshape(P.shape[:-2] + (16,))
    minors = f[..., _MINOR_FACTORS[0]]
    minors *= f[..., _MINOR_FACTORS[1]]
    crossed = f[..., _MINOR_FACTORS[2]]
    crossed *= f[..., _MINOR_FACTORS[3]]
    minors -= crossed
    return minors


def pushforward_matrix(P, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """6x6 matrix of the induced action of a proper Lorentz matrix on bivectors."""
    P = np.asarray(P, dtype=float)
    if not is_proper_lorentz(P, tol):
        raise ValueError("pushforward requires a proper Lorentz matrix")
    return _compound(P)


def pushforward(P, w, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Apply the induced action of P to a bivector."""
    return _matmul(pushforward_matrix(P, tol), as_bivector(w)[:, None])[:, 0]


def lie_pushforward_matrix(X) -> np.ndarray:
    """Induced action of a Lie algebra element: derivative at 0 of the pushforward.

    Acts on a decomposable x ^ y as (Xx) ^ y + x ^ (Xy); columns here are that
    rule applied to the coordinate planes.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    eye = np.eye(4)
    m = np.empty((6, 6))
    for col, (i, j) in enumerate(PAIRS):
        m[:, col] = wedge(X[:, i], eye[:, j]) + wedge(eye[:, i], X[:, j])
    return m


def _null_basis_matrix() -> np.ndarray:
    s = np.sqrt(0.5)  # sqrt(2)/2 correctly rounded; 1/sqrt(2.0) is an ulp below it
    cols = [
        basis_bivector(1, 2) + basis_bivector(3, 4),  # self-dual partners of e1^e2
        basis_bivector(1, 3) + basis_bivector(4, 2),
        basis_bivector(1, 4) + basis_bivector(2, 3),
        basis_bivector(1, 2) - basis_bivector(3, 4),  # anti-self-dual partners
        basis_bivector(1, 3) - basis_bivector(4, 2),
        basis_bivector(1, 4) - basis_bivector(2, 3),
    ]
    return s * np.column_stack(cols)


# Columns: the three self-dual then the three anti-self-dual null combinations.
NULL_BASIS_MATRIX = _null_basis_matrix()


def null_basis_vector(sign: int, i: int) -> np.ndarray:
    """Lexicographic coefficients of one null-basis vector; sign +1/-1, i in 1..3."""
    if sign not in (1, -1) or i not in (1, 2, 3):
        raise ValueError("sign must be +1/-1 and i in 1..3")
    col = (0 if sign == 1 else 3) + (i - 1)
    return NULL_BASIS_MATRIX[:, col].copy()


def to_null_basis(w) -> np.ndarray:
    """Coefficients of w over the null basis (columns of NULL_BASIS_MATRIX)."""
    return NULL_BASIS_MATRIX.T @ as_bivector(w)


def from_null_basis(w) -> np.ndarray:
    """Inverse of to_null_basis up to rounding: the basis matrix's entries are
    sqrt(2)/2 rounded to a double, so it is orthogonal only to within rounding."""
    v = np.asarray(w, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"expected 6 null-basis coefficients, got shape {v.shape}")
    return NULL_BASIS_MATRIX @ v
