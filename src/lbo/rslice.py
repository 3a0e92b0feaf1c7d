"""Radius slices of the light-cone orbits and their topology certificates.

Fixing the common split norm sqrt(spatial) = r cuts each orbit along a
compact slice.  Along the reduction surface the radius dips to a minimum
sqrt(2 |cos phi|) (for the sqrt2-normalised base point), reached exactly at
the reduced element; a neutral orbit therefore misses slices below r0, meets
the slice at r0 in a two-sphere, and meets every larger slice in a copy of
real projective 3-space.  Degenerate orbits are scaled into themselves by a
boost, so every positive radius meets them in the projective-space pattern.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .minkowski import (
    DEFAULT_TOL,
    SAMPLE_BLOCK,
    ToleranceConfig,
    _draw_pass,
    _word_matrices,
    boost_matrix,
    rotation_matrix,
)
from .orbit import (
    _HALF_PI,
    OrbitBatch,
    OrbitClass,
    OrbitKind,
    _reduce_one,
    base_point,
    critical_rapidity,
)
from .wedge import _compound, _cone_reason, _split_norms_rows, as_bivector


class SliceTopology(Enum):
    EMPTY = "Empty"
    SPHERE_2 = "Sphere2"
    RP3 = "RP3"


def min_slice_radius(phi: float) -> float:
    """Minimal radius along the orbit of base_point(phi); simplifies to sqrt(2 |cos phi|)."""
    if not 0.0 <= phi <= np.pi:
        raise ValueError("phi must lie in [0, pi]")
    if phi == _HALF_PI:
        return 0.0
    t = critical_rapidity(phi)
    if phi < _HALF_PI:
        return float(np.sqrt(2.0) * np.cos(0.5 * phi) / np.cosh(t))
    return float(np.sqrt(2.0) * np.sin(0.5 * phi) / np.cosh(t))


def _check_radius(r) -> None:
    """A slice radius must be positive and finite."""
    if not 0 < r < np.inf:
        raise ValueError(f"slice radius must be positive and finite, got {r!r}")


def in_slice(w, r: float, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff w is a light-cone bivector whose split norm matches r*r relatively."""
    _check_radius(r)
    spatial, temporal = _split_norms_rows(as_bivector(w)[None])
    on, _ = _cone_reason(spatial, temporal, tol)
    return bool(on[0]) and bool(_on_radius(float(spatial[0]), r, tol))


def _on_radius(spatial, r: float, tol: ToleranceConfig):
    """in_slice for a light-cone bivector with split norm spatial (or an array of them).
    No finite split norm lies on a radius whose square overflows (quietly) to inf."""
    with np.errstate(over="ignore"):
        square = r * r
        return (abs(spatial - square) <= tol.eps * r * r) & (square < np.inf)


# Topologies by the code slice_topology computes for a neutral row.
_NEUTRAL_TOPOLOGY = (SliceTopology.EMPTY, SliceTopology.SPHERE_2, SliceTopology.RP3)


def slice_topology(
    klass: OrbitClass | OrbitBatch, r: float, tol: ToleranceConfig = DEFAULT_TOL
) -> SliceTopology | list:
    """Topology certificate of the radius-r slice of an orbit.

    Neutral orbits: empty below r0, a two-sphere inside the band
    |r - r0| <= eps * max(r0, 1), projective 3-space above.  Degenerate
    orbits meet every positive radius in projective 3-space.  klass is an
    OrbitClass, or an OrbitBatch for a list with the topology of each row
    (None for rows off the cone), each row compared as one alone.
    """
    _check_radius(r)
    one = isinstance(klass, OrbitClass)
    kinds = (klass.kind,) if one else klass.kind
    r0 = np.array([klass.r0]) if one else klass.r0
    band = tol.eps * np.maximum(r0, 1.0)
    code = np.where(np.abs(r - r0) <= band, 1, np.where(r < r0, 0, 2)).tolist()
    topologies = [
        None if kind is None
        else SliceTopology.RP3 if kind == OrbitKind.DEGENERATE
        else _NEUTRAL_TOPOLOGY[c]
        for kind, c in zip(kinds, code)
    ]
    return topologies[0] if one else topologies


def empirical_min_radius(
    w, samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Running minimum of the slice radius over sampled points of the orbit of w.

    Combines three deterministic-given-seed searches: a grid over the
    two-parameter reduction surface through w (grid density grows with
    samples and always contains the identity), a deep one-sided rapidity
    sweep that chases the shrinking radius of degenerate orbits, and random
    generator-word pushforwards of w itself.  Each search runs as stacked
    passes of SAMPLE_BLOCK group elements (one _compound and one
    _split_norms_rows per pass, and for the words one _draw_pass, whose one
    rng.random call draws what its words drawn one at a time would); every
    point gets the bits of its own one-matrix pushforward, so the minimum
    does not depend on the blocks.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    w = as_bivector(w)
    batch = _reduce_one(w, tol, "empirical_min_radius")
    scaled = (batch.r[0] / np.sqrt(2.0)) * base_point(batch.phi[0])

    def least_radius(P, v) -> float:
        return float(np.sqrt(_split_norms_rows(_compound(P) @ v)[0]).min())

    best = float(np.sqrt(batch.spatial[0]))

    n = max(40, int(np.sqrt(samples)))
    if n % 2 == 0:
        n += 1  # odd count keeps 0 on the rapidity grid
    # grid point k is rotation k // n after boost k % n; each block gathers
    # from the n distinct matrices of each kind
    rotations = rotation_matrix(2, np.linspace(0.0, np.pi, n))
    boosts = boost_matrix(2, np.linspace(-2.5, 2.5, n))
    for lo in range(0, n * n, SAMPLE_BLOCK):
        k = np.arange(lo, min(lo + SAMPLE_BLOCK, n * n))
        best = min(best, least_radius(rotations[k // n] @ boosts[k % n], scaled))

    sweep = np.linspace(0.0, 10.0, 1001)
    for lo in range(0, len(sweep), SAMPLE_BLOCK):
        best = min(best, least_radius(boost_matrix(2, sweep[lo : lo + SAMPLE_BLOCK]), scaled))

    rng = np.random.default_rng(seed)
    for lo in range(0, samples, SAMPLE_BLOCK):
        (words,) = _draw_pass(rng, min(SAMPLE_BLOCK, samples - lo), (4,))
        best = min(best, least_radius(_word_matrices(words), w))
    return best
