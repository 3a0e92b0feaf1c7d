"""Invariant suites behind ``lbo verify``: the paper's exact claims as checks.

Each suite takes (samples, seed, tol) and returns its Check records, whose
value is the worst defect seen (or 1.0 for a verdict that failed); run
yields the checks of the named suites in order.  The isometry and pfaffian
suites evaluate SAMPLE_BLOCK samples per stacked pass, each with the bits of
its own one-sample evaluation.  A pass draws its words with one rng.random
call and its normals with one standard_normal call on a second generator of
the suite's own, so it draws what its samples drawn one at a time would, on
any bit generator.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .minkowski import SAMPLE_BLOCK, ToleranceConfig, _draw_pass, _word_matrices
from .orbit import (
    OrbitKind,
    base_point,
    from_vector_pair,
    orbit_class,
    orthonormal_tangent_frame,
    parallel_frame_check,
    reduce_orbits,
    tangent_frame,
    tangent_gram,
)
from .rslice import empirical_min_radius, min_slice_radius
from .stabilizer import (
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
    null_rotation_b,
    stabilizer_element,
)
from .wedge import HAT_DIAG, _compound, _row_norms, _rows_dot, pfaffian


class Check(NamedTuple):
    """One check of a suite: the worst defect it saw against its threshold."""

    suite: str
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def null_rotation_defect(ts) -> float:
    """Worst entry of each null rotation at rapidity t minus its polynomial form at tanh(t)."""
    forms = ((Family.NULL_ROTATION_A, null_rotation_a), (Family.NULL_ROTATION_B, null_rotation_b))
    return max(
        float(np.max(np.abs(stabilizer_element(family, t).matrix - form(np.tanh(t)))))
        for t in ts
        for family, form in forms
    )


def commutator_defect(pairs) -> float:
    """Worst entry of [null_rotation_a(x), null_rotation_b(y)] over the (x, y) pairs."""
    return max(
        float(np.max(np.abs(a @ b - b @ a)))
        for a, b in ((null_rotation_a(x), null_rotation_b(y)) for x, y in pairs)
    )


def min_radius_defect(phis) -> float:
    """Worst |min_slice_radius(phi)**2 - 2|cos phi|| over the angles phis."""
    return max(abs(min_slice_radius(phi) ** 2 - 2.0 * abs(np.cos(phi))) for phi in phis)


def _pushed(C, X) -> np.ndarray:
    """Each row of an (m, 6) stack times its own matrix of an (m, 6, 6) stack of compounds."""
    return (C @ X[:, :, None])[:, :, 0]


def _suite_isometry(samples, seed, tol):
    rng, normals = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0, 1])
    worst_inner = worst_homo = worst_cone = 0.0
    for lo in range(0, samples, SAMPLE_BLOCK):
        m = min(SAMPLE_BLOCK, samples - lo)
        p_words, q_words = _draw_pass(rng, m, (4, 3))
        p, q = _word_matrices(p_words), _word_matrices(q_words)
        cp = _compound(p)
        # each sample's u and v (6 each), then its a and b (3 each)
        vectors = normals.standard_normal((m, 18))
        u, v, a, b = map(np.ascontiguousarray, np.split(vectors, [6, 12, 15], axis=1))
        scale = 1.0 + _row_norms(u) * _row_norms(v)
        inner = np.sum(HAT_DIAG * _pushed(cp, u) * _pushed(cp, v), axis=1)
        inner = np.abs(inner - np.sum(HAT_DIAG * u * v, axis=1)) / scale
        worst_inner = max(worst_inner, float(inner.max()))
        homo = np.abs(cp @ _compound(q) - _compound(p @ q))
        worst_homo = max(worst_homo, float(homo.max()))
        b *= (_row_norms(a) / _row_norms(b))[:, None]
        if not reduce_orbits(_pushed(cp, from_vector_pair(a, b)), tol, frames=False).on_cone.all():
            worst_cone = 1.0
    return [
        Check("isometry", "induced metric preserved", worst_inner, 1e-8),
        Check("isometry", "pushforward is a homomorphism", worst_homo, 1e-8),
        Check("isometry", "light cone preserved", worst_cone, 0.5),
    ]


def _suite_pfaffian(samples, seed, tol):
    rng, normals = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1, 1])
    worst_inv = 0.0
    for lo in range(0, samples, SAMPLE_BLOCK):
        m = min(SAMPLE_BLOCK, samples - lo)
        (words,) = _draw_pass(rng, m, (4,))
        u = normals.standard_normal((m, 6))
        inv = np.abs(pfaffian(_pushed(_compound(_word_matrices(words)), u)) - pfaffian(u))
        worst_inv = max(worst_inv, float((inv / (1.0 + _rows_dot(u, u))).max()))
    phi = np.linspace(0.0, np.pi, 41)
    worst_angle = float(np.abs(pfaffian(base_point(phi)) - 2.0 * np.cos(phi)).max())
    return [
        Check("pfaffian", "invariant under pushforward", worst_inv, 1e-8),
        Check("pfaffian", "equals twice the cosine on the base curve", worst_angle, 1e-12),
    ]


def _suite_frames(samples, seed, tol):
    worst_gram = worst_ortho = 0.0
    for phi in np.linspace(0.0, np.pi, 21):
        c = np.cos(phi)
        expected = np.array([[-2.0 * c, 0, 0, 0], [0, 2.0 * c, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        worst_gram = max(worst_gram, float(np.max(np.abs(tangent_gram(phi) - expected))))
    for phi in (0.2, 1.0, 2.2, 3.0):
        fr = np.column_stack(orthonormal_tangent_frame(phi, tol))
        g = fr.T @ (HAT_DIAG[:, None] * fr)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(g - np.diag([1.0, -1.0, 1.0, -1.0])))))
    parallel = all(
        parallel_frame_check(phi, theta, t, tol).passed
        for phi, theta, t in ((np.pi / 5, 0.3, 0.4), (np.pi / 2, 0.2, -0.3), (2.4, -0.5, 0.6))
    )
    return [
        Check("frames", "tangent Gram closed form", worst_gram, 1e-10),
        Check("frames", "orthonormal frame Gram", worst_ortho, 1e-10),
        Check("frames", "transported frame parallel", 0.0 if parallel else 1.0, 0.5),
    ]


def _suite_stabilizer(samples, seed, tol):
    neutral, _ = generator_stack(OrbitKind.NEUTRAL_PLUS)
    degenerate, _ = generator_stack(OrbitKind.DEGENERATE)
    worst_fix = max(
        fixing_residual(neutral, neutral_base(1.0, 1)).max(),
        fixing_residual(neutral, neutral_base(2.5, -1)).max(),
        fixing_residual(degenerate, degenerate_base()).max(),
    )
    fr = tangent_frame(np.pi / 2)
    # a list, not all() over a generator: every case is evaluated
    labels = [
        classify_invariant_subspace(kind, span) is label
        for kind, span, label in (
            (OrbitKind.NEUTRAL_PLUS, list(neutral_invariant_plane(1).T), SubspaceLabel.W_PLUS),
            (OrbitKind.NEUTRAL_PLUS, list(neutral_invariant_plane(-1).T), SubspaceLabel.W_MINUS),
            (OrbitKind.DEGENERATE, list(degenerate_invariant_plane().T), SubspaceLabel.W_ZERO),
            (OrbitKind.DEGENERATE, [fr.x_plus, fr.y_plus], SubspaceLabel.NOT_INVARIANT),
        )
    ]
    polynomial = null_rotation_defect((-1.5, -0.4, 0.6, 2.0))
    commutator = commutator_defect(itertools.product((-0.7, 0.3, 0.9), (-0.5, 0.8)))
    return [
        Check("stabilizer", "generators fix their base points", worst_fix, 1e-10),
        Check("stabilizer", "null rotations match polynomial form", polynomial, 1e-10),
        Check("stabilizer", "null rotation families commute", commutator, 1e-12),
        Check("stabilizer", "invariant subspace labels", 0.0 if all(labels) else 1.0, 0.5),
    ]


def _suite_slice(samples, seed, tol):
    identity = min_radius_defect(np.linspace(0.0, np.pi, 201))
    w = base_point(np.pi / 3)
    r0 = orbit_class(w, tol).r0
    emp = empirical_min_radius(w, max(200, samples // 4), seed, tol)
    emp_d = empirical_min_radius(base_point(np.pi / 2), max(200, samples // 4), seed, tol)
    return [
        Check("slice", "squared minimum matches twice |cos|", identity, 1e-12),
        Check("slice", "empirical minimum within two percent", abs(emp - r0) / r0, 0.02),
        Check("slice", "degenerate radius collapses", emp_d, 1e-3),
    ]


SUITES = {
    "isometry": _suite_isometry,
    "pfaffian": _suite_pfaffian,
    "frames": _suite_frames,
    "stabilizer": _suite_stabilizer,
    "slice": _suite_slice,
}


def run(names, samples: int, seed: int, tol: ToleranceConfig):
    """Yield the checks of the named suites: suite by suite, each in its own order."""
    for name in names:
        yield from SUITES[name](samples, seed, tol)
