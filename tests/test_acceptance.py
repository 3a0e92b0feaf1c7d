"""Acceptance gate: one test per contract criterion, each recording a
PASS/FAIL line that the conftest summary hook prints after the run."""
import json
import subprocess
import sys
import time

import numpy as np

from conftest import record_criterion, random_light_cone_bivector
from lbo.minkowski import (
    BOOST,
    ROTATION,
    GeneratorKind,
    boost_matrix,
    lie_generator,
    random_proper_lorentz,
    rotation_matrix,
)
from lbo.orbit import (
    OrbitKind,
    base_point,
    canonical_form,
    canonical_representative,
    normal_directions,
    normal_form_bivector,
    orbit_class,
    orthonormal_tangent_frame,
    parallel_frame_check,
    reconstruct,
    surface_point,
    tangent_frame,
    tangent_gram,
)
from lbo.rslice import empirical_min_radius
from lbo.stabilizer import (
    SubspaceLabel,
    classify_invariant_subspace,
    degenerate_base,
    fixing_residual,
    neutral_base,
    neutral_invariant_plane,
    stabilizer_generators,
    stabilizer_sweep_matrix,
)
from lbo.verify import commutator_defect, min_radius_defect, null_rotation_defect
from lbo.wedge import (
    HAT_DIAG,
    NULL_BASIS_MATRIX,
    _compound,
    hat_inner,
    in_light_cone,
    lie_pushforward_matrix,
    to_null_basis,
)


def test_criterion_1_isometry():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    cone_ok = True
    for _ in range(200):
        p = random_proper_lorentz(rng, 4)
        u, v = rng.normal(size=(2, 6))
        scale = 1.0 + np.linalg.norm(u) * np.linalg.norm(v)
        worst = max(
            worst, abs(hat_inner(_compound(p) @ u, _compound(p) @ v) - hat_inner(u, v)) / scale
        )
        w = random_light_cone_bivector(rng)
        cone_ok = cone_ok and in_light_cone(_compound(p) @ w)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and cone_ok and elapsed < 1.0
    assert record_criterion(
        "1 induced action is an isometry preserving the light cone",
        ok,
        f"max defect {worst:.2e}, {elapsed:.2f}s",
    )


def null_action_rotation(axis, th):
    c, s = np.cos(th), np.sin(th)
    m = np.eye(6)
    if axis == 1:
        m[1:3, 1:3] = [[c, -s], [s, c]]
        m[4:6, 4:6] = [[c, s], [-s, c]]
    elif axis == 2:
        m[np.ix_([0, 2], [0, 2])] = [[c, s], [-s, c]]
        m[np.ix_([3, 5], [3, 5])] = [[c, -s], [s, c]]
    else:
        m[0:2, 0:2] = [[c, -s], [s, c]]
        m[3:5, 3:5] = [[c, -s], [s, c]]
    return m


def null_action_boost(axis, t):
    ch, sh = np.cosh(t), np.sinh(t)
    m = np.eye(6)
    if axis == 1:
        m[1, 1] = m[2, 2] = m[4, 4] = m[5, 5] = ch
        m[1, 5] = m[5, 1] = m[2, 4] = m[4, 2] = sh
    elif axis == 2:
        m[0, 0] = m[2, 2] = m[3, 3] = m[5, 5] = ch
        m[0, 5] = m[5, 0] = m[2, 3] = m[3, 2] = sh
    else:
        m[0, 0] = m[1, 1] = m[3, 3] = m[4, 4] = ch
        m[1, 3] = m[3, 1] = sh
        m[0, 4] = m[4, 0] = -sh
    return m


def surface_null_expected(phi, th, t):
    c, s = np.cos(phi), np.sin(phi)
    ct, st = np.cos(th), np.sin(th)
    ch, sh = np.cosh(t), np.sinh(t)
    p0 = ch * (1 + c) - sh * s
    p2 = ch * s + sh * (c - 1)
    m0 = sh * s + ch * (c - 1)
    m2 = sh * (1 + c) - ch * s
    return np.array(
        [ct * p0 + st * p2, 0.0, -st * p0 + ct * p2, ct * m0 - st * m2, 0.0, st * m0 + ct * m2]
    )


def test_criterion_2_equation_replay():
    start = time.perf_counter()
    m = NULL_BASIS_MATRIX
    worst = 0.0
    # generator actions over the null basis
    for axis in (1, 2, 3):
        for p in (-1.2, -0.4, 0.3, 1.0):
            got = m.T @ _compound(rotation_matrix(axis, p)) @ m
            worst = max(worst, np.max(np.abs(got - null_action_rotation(axis, p))))
            got = m.T @ _compound(boost_matrix(axis, p)) @ m
            worst = max(worst, np.max(np.abs(got - null_action_boost(axis, p))))
    # canonical surface expansion in null coordinates
    for phi in np.linspace(0.0, np.pi, 9):
        for th in (0.0, 0.6, 1.9):
            for t in (-1.1, 0.0, 0.8):
                got = to_null_basis(surface_point(phi, th, t))
                worst = max(worst, np.max(np.abs(got - surface_null_expected(phi, th, t))))
    # transported-frame derivative relations, boost factor made explicit
    l_rot = lie_pushforward_matrix(lie_generator(GeneratorKind(2, ROTATION)))
    l_boost = lie_pushforward_matrix(lie_generator(GeneratorKind(2, BOOST)))
    for phi in (0.0, 0.5, np.pi / 2, 2.2, np.pi):
        fr = tangent_frame(phi)
        n_plus, n_minus = normal_directions(phi)
        for t in (-1.5, 0.0, 0.9):
            cb = _compound(boost_matrix(2, t))
            worst = max(
                worst,
                np.max(np.abs(l_rot @ (cb @ fr.x_plus) - cb @ n_plus)),
                np.max(np.abs(l_rot @ (cb @ fr.x_minus) - cb @ n_minus)),
                np.max(np.abs(l_boost @ fr.x_plus - n_minus)),
                np.max(np.abs(l_boost @ fr.x_minus + n_plus)),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert record_criterion(
        "2 displayed action, surface and derivative equations replay",
        ok,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_round_trip_and_angle_invariance():
    rng = np.random.default_rng(1)
    worst_rt = 0.0
    for _ in range(1000):
        w = random_light_cone_bivector(rng, scale=np.exp(rng.uniform(-3, 3)))
        form = canonical_form(w)
        worst_rt = max(
            worst_rt, np.linalg.norm(reconstruct(form) - w) / np.linalg.norm(w)
        )
    # the angle is a frame invariant: random spatial rotations leave it fixed
    w = random_light_cone_bivector(rng)
    phi0 = canonical_form(w).phi
    worst_phi = 0.0
    for _ in range(100):
        u = np.eye(4)
        for axis in (1, 2, 3):
            u = u @ rotation_matrix(axis, rng.uniform(-np.pi, np.pi))
        moved = _compound(u) @ w
        worst_phi = max(worst_phi, abs(canonical_form(moved).phi - phi0))
    ok = worst_rt <= 1e-9 and worst_phi <= 1e-10
    assert record_criterion(
        "3 canonical form round-trips and its angle is rotation invariant",
        ok,
        f"round-trip {worst_rt:.2e}, angle drift {worst_phi:.2e}",
    )


def test_criterion_4_reduction_uniqueness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        w = random_light_cone_bivector(rng)
        k = orbit_class(w)
        if k.kind == OrbitKind.DEGENERATE:
            continue
        rep, _ = canonical_representative(w)
        worst = max(
            worst,
            np.max(np.abs(rep - normal_form_bivector(k.r0, k.epsilon))) / max(k.r0, 1.0),
        )
    # sweep the whole reduction surface: every cell matching the reduced
    # pattern must report the same scale and sign, from a single basin
    phi = np.pi / 3
    w0 = base_point(phi)
    k = orbit_class(w0)
    thetas = np.linspace(0.0, np.pi, 400)
    ts = np.linspace(-5.0, 5.0, 400)
    boosted = np.column_stack([_compound(boost_matrix(2, t)) @ w0 for t in ts])
    found = []
    for i, th in enumerate(thetas):
        cells = _compound(rotation_matrix(2, th)) @ boosted
        off = np.max(np.abs(cells[[1, 2, 3, 4], :]), axis=0)
        scale = np.max(np.abs(cells), axis=0)
        hits = np.where(off <= 0.05 * scale)[0]
        for idx in hits:
            r_hat = abs(cells[0, idx])
            eps_hat = 1 if cells[0, idx] * cells[5, idx] > 0 else -1
            found.append((i, idx, r_hat, eps_hat))
    found = np.array(found)
    unique_ok = len(found) > 0
    if unique_ok:
        unique_ok = (
            np.all(found[:, 3] == k.epsilon)
            and np.all(np.abs(found[:, 2] - k.r0) <= 0.01 * k.r0)
            # contiguous cluster, not a second basin elsewhere on the surface
            and found[:, 0].max() - found[:, 0].min() <= 30
            and found[:, 1].max() - found[:, 1].min() <= 30
        )
    ok = worst <= 1e-10 and unique_ok
    assert record_criterion(
        "4 reduced element is unique: sweep finds a single scale and sign",
        ok,
        f"rep residual {worst:.2e}, {len(found)} matching cells",
    )


def test_criterion_5_tangent_signatures():
    ok = True
    detail = ""
    for phi in np.linspace(0.0, np.pi, 41):
        g = tangent_gram(phi)
        eig = np.linalg.eigvalsh(g)
        if abs(np.cos(phi)) > 1e-12:
            ok = ok and (eig < -1e-12).sum() == 2 and (eig > 1e-12).sum() == 2
        else:
            ok = ok and (np.abs(eig) < 1e-12).sum() == 2
            # kernel is exactly the isotropic x block
            ok = ok and np.allclose(g[:, :2], 0.0, atol=1e-14)
    for phi in (0.3, 1.2, 2.1, 2.9):
        frame = np.column_stack(orthonormal_tangent_frame(phi))
        gram = frame.T @ (HAT_DIAG[:, None] * frame)
        defect = np.max(np.abs(gram - np.diag([1.0, -1.0, 1.0, -1.0])))
        ok = ok and defect <= 1e-10
    try:
        orthonormal_tangent_frame(np.pi / 2)
        ok = False
        detail = "no error at the degenerate angle"
    except ValueError:
        pass
    assert record_criterion(
        "5 tangent metric has signature (2,2), collapsing to rank 2", ok, detail
    )


def test_criterion_6_parallel_frames():
    worst_neutral = 0.0
    ok = True
    for phi in (np.pi / 6, np.pi / 3, 2.0, 2.8):
        for theta, t in ((0.0, 0.0), (0.7, -0.4), (2.3, 1.1)):
            rep = parallel_frame_check(phi, theta, t)
            ok = ok and rep.passed and not rep.degenerate
            worst_neutral = max(
                worst_neutral,
                max(rep.tangential_residuals.values()),
                max(rep.derivative_match_residuals.values()),
            )
    worst_deg = 0.0
    worst_deg_span = 0.0
    for theta, t in ((0.0, 0.0), (0.9, 0.6), (1.7, -1.2)):
        rep = parallel_frame_check(np.pi / 2, theta, t)
        ok = ok and rep.passed and rep.degenerate
        worst_deg = max(
            worst_deg,
            max(rep.y_derivative_norms.values()),
            max(rep.x_null_defects.values()),
        )
        worst_deg_span = max(worst_deg_span, max(rep.x_span_residuals.values()))
    ok = ok and worst_neutral <= 1e-4 and worst_deg <= 1e-6 and worst_deg_span <= 1e-4
    assert record_criterion(
        "6 transported frames stay parallel in both branches",
        ok,
        f"neutral {worst_neutral:.2e}, degenerate {worst_deg:.2e}/{worst_deg_span:.2e}",
    )


def test_criterion_7_stabilizer_suite():
    ok = True
    worst_fix = 0.0
    ts = (-1.1, -0.4, 0.5, 1.3)
    for t in ts:
        for eps in (1, -1):
            for elem in stabilizer_generators(OrbitKind.NEUTRAL_PLUS, t):
                worst_fix = max(worst_fix, fixing_residual(elem.matrix, neutral_base(2.0, eps)))
        for elem in stabilizer_generators(OrbitKind.DEGENERATE, t):
            worst_fix = max(worst_fix, fixing_residual(elem.matrix, degenerate_base()))
    worst_fix = max(worst_fix, null_rotation_defect(ts))
    ok = ok and worst_fix <= 1e-10
    ok = ok and commutator_defect([(-0.8, 0.5), (0.3, 1.1)]) <= 1e-12
    # sweep determinant closed form
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        mat, det = stabilizer_sweep_matrix(a, b, c, d)
        ok = ok and abs(np.linalg.det(mat) - det) <= 1e-10 * max(1.0, abs(det))
    _, det = stabilizer_sweep_matrix(1.0, 2.0, 3.0, 4.0)
    ok = ok and det == -500.0

    # enumerated invariant-subspace lattice, both orbit kinds
    wp = neutral_invariant_plane(1)
    wm = neutral_invariant_plane(-1)
    e = np.eye(6)
    fr = tangent_frame(np.pi / 2)
    k0, k1 = fr.x_plus, fr.x_minus
    cases = [
        (OrbitKind.NEUTRAL_PLUS, [wp[:, 0], wp[:, 1]], SubspaceLabel.W_PLUS),
        (OrbitKind.NEUTRAL_PLUS, [wp[:, 0] - wp[:, 1], wp[:, 1]], SubspaceLabel.W_PLUS),
        (OrbitKind.NEUTRAL_MINUS, [wp[:, 0], wp[:, 1]], SubspaceLabel.W_PLUS),
        (OrbitKind.NEUTRAL_PLUS, [wm[:, 0], wm[:, 1]], SubspaceLabel.W_MINUS),
        (OrbitKind.NEUTRAL_PLUS, [wm[:, 0] + 2 * wm[:, 1], wm[:, 0]], SubspaceLabel.W_MINUS),
        (OrbitKind.NEUTRAL_PLUS, [e[:, 1], e[:, 2], e[:, 3], e[:, 4]], SubspaceLabel.WHOLE),
        (OrbitKind.NEUTRAL_PLUS, [wp[:, 0], wp[:, 1], wm[:, 0], wm[:, 1]], SubspaceLabel.WHOLE),
        (OrbitKind.NEUTRAL_PLUS, [wp[:, 0]], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.NEUTRAL_PLUS, [wm[:, 1]], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.NEUTRAL_PLUS, [wp[:, 0] + wm[:, 0]], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.NEUTRAL_PLUS, [wp[:, 0], wm[:, 0]], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.NEUTRAL_PLUS, [e[:, 1], e[:, 3]], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.NEUTRAL_PLUS, [wp[:, 0], wp[:, 1], wm[:, 0]], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.DEGENERATE, [k0], SubspaceLabel.LINE_IN_W_ZERO),
        (OrbitKind.DEGENERATE, [k1], SubspaceLabel.LINE_IN_W_ZERO),
        (OrbitKind.DEGENERATE, [k0 - 3.0 * k1], SubspaceLabel.LINE_IN_W_ZERO),
        (OrbitKind.DEGENERATE, [k0, k1], SubspaceLabel.W_ZERO),
        (OrbitKind.DEGENERATE, [k0 + k1, k0 - k1], SubspaceLabel.W_ZERO),
        (OrbitKind.DEGENERATE, [k0, k1, fr.y_plus], SubspaceLabel.CONTAINS_W_ZERO),
        (OrbitKind.DEGENERATE, [k0, k1, fr.y_minus], SubspaceLabel.CONTAINS_W_ZERO),
        (OrbitKind.DEGENERATE, [k0, k1, fr.y_plus - fr.y_minus], SubspaceLabel.CONTAINS_W_ZERO),
        (OrbitKind.DEGENERATE, [k0, k1, fr.y_plus, fr.y_minus], SubspaceLabel.WHOLE),
        (OrbitKind.DEGENERATE, [fr.y_plus], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.DEGENERATE, [k0, fr.y_plus], SubspaceLabel.NOT_INVARIANT),
        (OrbitKind.DEGENERATE, [k0 + fr.y_plus], SubspaceLabel.NOT_INVARIANT),
    ]
    n_checked = 0
    for kind, span, expected in cases:
        got = classify_invariant_subspace(kind, span)
        ok = ok and got is expected
        n_checked += 1
    ok = ok and n_checked >= 20

    # the two stabilizer directions are linearly independent in the Lie algebra
    l1 = lie_generator(GeneratorKind(1, ROTATION)).ravel()
    l2 = lie_generator(GeneratorKind(1, BOOST)).ravel()
    ok = ok and np.linalg.matrix_rank(np.vstack([l1, l2])) == 2
    x_a = lie_generator(GeneratorKind(3, BOOST)) - lie_generator(GeneratorKind(1, ROTATION))
    x_b = lie_generator(GeneratorKind(1, BOOST)) + lie_generator(GeneratorKind(3, ROTATION))
    ok = ok and np.linalg.matrix_rank(np.vstack([x_a.ravel(), x_b.ravel()])) == 2
    # the two invariant planes intersect trivially
    ok = ok and np.linalg.matrix_rank(np.hstack([wp, wm]), tol=1e-10) == 4
    assert record_criterion(
        "7 stabilizer generators, sweep determinant and subspace lattice",
        ok,
        f"{n_checked} subspaces, fix residual {worst_fix:.2e}",
    )


def test_criterion_8_slice_suite():
    start = time.perf_counter()
    worst_id = min_radius_defect(np.linspace(0.0, np.pi, 1001))
    ok = worst_id <= 1e-12
    details = [f"identity {worst_id:.2e}"]
    for phi in (0.0, np.pi / 6, np.pi / 3):
        w = base_point(phi)
        r0 = orbit_class(w).r0
        emp = empirical_min_radius(w, samples=2000, seed=5)
        ok = ok and (r0 - 1e-9) <= emp <= 1.02 * r0
        details.append(f"phi={phi:.3f}: {emp / r0 - 1.0:.1e}")
    emp_deg = empirical_min_radius(base_point(np.pi / 2), samples=2000, seed=5)
    ok = ok and emp_deg < 1e-3
    details.append(f"degenerate {emp_deg:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert record_criterion(
        "8 slice radius certificate and empirical minimum",
        ok,
        ", ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_9_cli_determinism():
    rng = np.random.default_rng(7)
    lines = []
    for k in range(50):
        kind = k % 5
        if kind in (0, 4):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            b *= np.linalg.norm(a) / np.linalg.norm(b)
            sign = -1.0 if kind == 4 else 1.0
            c = [sign * v for v in (a[2], -a[1], b[0], a[0], b[1], b[2])]
            lines.append(json.dumps({"id": f"r{k}", "c": [float(v) for v in c]}))
        elif kind == 1:
            x = [float(v) for v in rng.normal(size=4)]
            y = [float(v) for v in rng.normal(size=4)]
            lines.append(json.dumps({"id": f"v{k}", "x": x, "y": y}))
        elif kind == 2:
            a = rng.normal(size=3)
            b = np.cross(a, rng.normal(size=3))
            b *= np.linalg.norm(a) / np.linalg.norm(b)
            c = (a[2], -a[1], b[0], a[0], b[1], b[2])
            lines.append(json.dumps({"id": f"d{k}", "c": [float(v) for v in c]}))
        else:
            lines.append(json.dumps({"id": f"g{k}", "c": [float(v) for v in rng.normal(size=6)]}))
    payload = ("\n".join(lines) + "\n").encode()

    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "lbo.cli", "classify", "--r", "1.3", *extra],
            input=payload,
            capture_output=True,
        )

    one = run()
    two = run()
    threaded = run("--threads", "4")
    ok = (
        one.returncode == two.returncode == threaded.returncode == 0
        and one.stdout == two.stdout
        and one.stdout == threaded.stdout
        and len(one.stdout.splitlines()) == 50
    )
    assert record_criterion(
        "9 batch reports are byte-identical across runs and thread counts",
        ok,
        f"{len(one.stdout)} bytes",
    )
