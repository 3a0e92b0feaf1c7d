import numpy as np
import pytest

from conftest import random_degenerate_bivector, random_light_cone_bivector
from symbolic import compound, plane
from lbo.errors import NotInLightConeError
from lbo.minkowski import ToleranceConfig, boost_matrix, rotation_matrix
from lbo.orbit import base_point, orbit_class
from lbo.rslice import (
    SliceTopology,
    critical_rapidity,
    empirical_min_radius,
    in_slice,
    min_slice_radius,
    slice_topology,
)
from lbo.wedge import _compound, in_light_cone, split_norms

ATANH_TAN_PI6 = 0.6584789484624084


def test_critical_rapidity_frozen_and_symmetric():
    assert abs(critical_rapidity(np.pi / 3) - ATANH_TAN_PI6) < 1e-13
    assert critical_rapidity(0.0) == 0.0
    for phi in (0.3, 0.9, 1.4):
        assert abs(critical_rapidity(phi) - critical_rapidity(np.pi - phi)) < 1e-10


def test_critical_rapidity_certificate():
    """tanh t = tan(phi/2) if and only if tanh 2t = sin phi, for phi in (0, pi/2),
    proved with sympy; then critical_rapidity against atanh(tan(phi/2)) at 50 digits."""
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    from sympy.calculus.util import function_range

    phi, t, x = sp.symbols("phi t x", real=True)
    g = 2 * x / (1 + x**2)  # both sides are g of something in (-1, 1)
    assert sp.simplify(sp.expand_trig(sp.tanh(2 * t)) - g.subs(x, sp.tanh(t))) == 0
    assert sp.simplify(g.subs(x, sp.tan(phi / 2)) - sp.sin(phi)) == 0
    assert function_range(sp.tanh(t), t, sp.S.Reals) == sp.Interval.open(-1, 1)
    assert function_range(sp.tan(phi / 2), phi, sp.Interval.open(0, sp.pi / 2)) == sp.Interval.open(0, 1)
    # g is strictly increasing on (-1, 1), so one-to-one there: g(tanh t) = g(tan(phi/2))
    # holds exactly when tanh t = tan(phi/2)
    increasing = sp.solve_univariate_inequality(sp.diff(g, x) > 0, x, relational=False)
    assert increasing == sp.Interval.open(-1, 1)

    with mpmath.workdps(50):
        for angle in np.linspace(0.0, np.pi / 2, 202)[1:-1]:
            half_tan = mpmath.tan(mpmath.mpf(angle) / 2)
            exact = mpmath.atanh(half_tan)
            # a rounding of tan(phi/2) grows by the condition number of atanh there
            condition = half_tan / ((1 - half_tan**2) * exact)
            ulps = abs(critical_rapidity(angle) - exact) / np.spacing(float(exact))
            assert ulps <= 1 + condition, (angle, float(ulps), float(condition))


def test_sweep_minimum_certificate():
    """Proved with sympy over symbols: the spatial split norm of
    _compound(rotation_matrix(2, theta) @ boost_matrix(2, t)) @ base_point(phi)
    is 2 cosh 2t - 2 sin(phi) sinh 2t, free of theta.  Its t-derivative is
    4 cosh 2t (tanh 2t - sin phi), so it vanishes exactly where tanh 2t =
    sin phi, which both branches of critical_rapidity meet: tanh t =
    tan(phi/2) below pi/2 and cot(phi/2) above.  The value there is
    2|cos phi|, and the second derivative is 4 times the value, so positive:
    the point is the minimum.  min_slice_radius's closed form squares to
    2|cos phi| in both branches.  Then min_slice_radius(phi)**2 is checked
    against 2|cos phi| at 50 digits on 2000 angles off a 1e-3 band around pi/2."""
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")

    theta, t, phi = sp.symbols("theta t phi", real=True)
    sweep = plane(sp.cos(theta), sp.sin(theta), 0, 2, False) * plane(sp.cosh(t), sp.sinh(t), 1, 3, True)
    w = compound(sweep) * sp.sqrt(2) * sp.Matrix([sp.cos(phi), 0, 0, sp.sin(phi), 0, 1])
    # the symbols stand for the library's matrices, compound and base point
    numeric = _compound(rotation_matrix(2, 0.4) @ boost_matrix(2, -0.9)) @ base_point(2.2)
    at = {theta: 0.4, t: -0.9, phi: 2.2}
    assert np.abs(np.array(w.subs(at).evalf(), dtype=float)[:, 0] - numeric).max() <= 1e-15

    closed = 2 * sp.cosh(2 * t) - 2 * sp.sin(phi) * sp.sinh(2 * t)
    assert theta not in closed.free_symbols
    assert sp.simplify(w[0] ** 2 + w[1] ** 2 + w[3] ** 2 - closed) == 0  # c12, c13, c23
    slope = sp.diff(closed, t)
    assert sp.simplify(slope - 4 * sp.cosh(2 * t) * (sp.tanh(2 * t) - sp.sin(phi))) == 0
    assert sp.cosh(2 * t).is_positive
    x = sp.symbols("x", real=True)
    g = 2 * x / (1 + x**2)  # tanh 2t = g(tanh t)
    assert sp.simplify(sp.expand_trig(sp.tanh(2 * t)) - g.subs(x, sp.tanh(t))) == 0
    for tanh_t in (sp.tan(phi / 2), sp.cot(phi / 2)):
        assert sp.simplify(g.subs(x, tanh_t) - sp.sin(phi)) == 0
    value = closed.subs(t, sp.atanh(sp.sin(phi)) / 2)
    assert sp.simplify(value - 2 * sp.Abs(sp.cos(phi))) == 0
    assert sp.simplify(sp.diff(closed, t, 2) - 4 * closed) == 0
    # min_slice_radius is sqrt(2) cos(phi/2) / cosh t below pi/2 and
    # sqrt(2) sin(phi/2) / cosh t above, with 1/cosh(t)**2 = 1 - tanh(t)**2
    u = sp.symbols("u", positive=True)  # tan(phi/2); cos phi = (1 - u**2) / (1 + u**2)
    cos_phi = (1 - u**2) / (1 + u**2)
    assert sp.simplify(2 / (1 + u**2) * (1 - u**2) - 2 * cos_phi) == 0
    assert sp.simplify(2 * u**2 / (1 + u**2) * (1 - 1 / u**2) + 2 * cos_phi) == 0

    unit = np.spacing(1.0) / 2
    angles = np.linspace(0.0, np.pi, 2004)[1:-1]
    angles = angles[np.abs(angles - np.pi / 2) > 1e-3]
    assert len(angles) == 2000
    with mpmath.workdps(50):
        for angle in angles:
            exact = 2 * abs(mpmath.cos(mpmath.mpf(angle)))
            error = abs(mpmath.mpf(min_slice_radius(angle)) ** 2 - exact) / exact
            # a rounding of tan(phi/2) grows by about |tan phi| through atanh and
            # cosh; the worst on this grid is 5.3 u (1 + |tan phi|), 113 u at the
            # band's edge
            assert error <= 8 * unit * (1 + abs(np.tan(angle))), (angle, float(error / unit))


def test_critical_rapidity_errors():
    with pytest.raises(ValueError):
        critical_rapidity(np.pi / 2)
    with pytest.raises(ValueError):
        critical_rapidity(-0.1)
    with pytest.raises(ValueError):
        critical_rapidity(np.pi + 0.1)


def test_min_slice_radius_identity():
    assert abs(min_slice_radius(0.0) - np.sqrt(2.0)) < 1e-15
    assert abs(min_slice_radius(np.pi / 3) - 1.0) < 1e-14
    assert min_slice_radius(np.pi / 2) == 0.0
    for phi in np.linspace(0.0, np.pi, 401):
        assert abs(min_slice_radius(phi) ** 2 - 2.0 * abs(np.cos(phi))) < 1e-12


def test_min_radius_matches_orbit_invariant(rng):
    # sqrt(|pfaffian|) of the base point equals the closed-form minimum
    for phi in (0.2, 1.1, 2.2, 3.0):
        k = orbit_class(base_point(phi))
        assert abs(min_slice_radius(phi) - k.r0) < 1e-12


# Rows off the light cone: zero, NaN, infinite, overflowing squares, split
# norms that differ (relatively, at a magnitude of 1e-4 too), and split norms
# that underflow the double range.
OFF_CONE = [
    [0.0] * 6,
    [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
    [np.nan, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, np.nan],
    [np.nan] * 6,
    [np.inf, 0, 0, 0, 0, np.inf],
    [1.0, 0, 0, 0, 0, 0],
    [1.0, 0, 0, 0, 0, 1.0 + 1e-6],
    [7e-5, 0, 0, 0, 0, 6.3e-5],
    [1e-160, 0, 0, 0, 0, 1e-160],
]


def reference_in_slice(w, r, tol=ToleranceConfig()):
    """in_slice as two cone verdicts and two split-norm passes."""
    return in_light_cone(w, tol) and abs(split_norms(w)[0] - r * r) <= tol.eps * r * r


def test_in_slice(rng):
    w = base_point(1.0)  # squared radius 2
    assert in_slice(w, np.sqrt(2.0))
    assert type(in_slice(w, np.sqrt(2.0))) is bool  # a numpy radius too
    assert not in_slice(w, 1.4)
    assert not in_slice([1.0, 0, 0, 0, 0, 0], 1.0)  # off the cone
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            in_slice(w, bad)
    with pytest.raises(ValueError):
        in_slice([1.0, 0, 0, 0, 0], 1.0)
    rows = [*OFF_CONE, [1e200, 0, 0, 0, 0, 1e200], w, 2.5 * base_point(0.4)]
    rows += [random_light_cone_bivector(rng) for _ in range(20)]
    for row in rows:
        radius = np.sqrt(split_norms(row)[0])
        for r in (1.0, np.sqrt(2.0), radius if 0 < radius < np.inf else 1.0, 1e-3):
            for tol in (ToleranceConfig(), ToleranceConfig(eps=1e-3)):
                assert in_slice(row, r, tol) is bool(reference_in_slice(row, r, tol))


def test_in_slice_is_false_where_the_radius_square_overflows():
    # past r = 1.34e154 the square is inf, and no finite split norm equals it
    for r in (1.35e154, 1e200, 1.7e308):
        assert in_slice([1.0, 0, 0, 0, 0, 1.0], r) is False
        assert in_slice([1e150, 0, 0, 0, 0, 1e150], r) is False
    # a numpy radius overflows without a warning
    for r in (np.finfo(float).max, np.float64(1e200)):
        assert in_slice([1.0, 0, 0, 0, 0, 1.0], r) is False
        assert in_slice([1e150, 0, 0, 0, 0, 1e150], r) is False
    assert in_slice([1e150, 0, 0, 0, 0, 1e150], 1e150) is True
    assert in_slice([1e154, 0, 0, 0, 0, 1e154], 1e154) is True  # a square of 1e308 is finite


def test_slice_topology_neutral_bands():
    k = orbit_class(base_point(np.pi / 3))  # r0 = 1
    assert slice_topology(k, 0.5) is SliceTopology.EMPTY
    assert slice_topology(k, 2.0) is SliceTopology.RP3
    assert slice_topology(k, 1.0) is SliceTopology.SPHERE_2
    band = ToleranceConfig(eps=1e-3)
    assert slice_topology(k, 1.0005, band) is SliceTopology.SPHERE_2
    assert slice_topology(k, 1.002, band) is SliceTopology.RP3
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            slice_topology(k, bad)


def test_slice_topology_degenerate_everywhere(rng):
    k = orbit_class(random_degenerate_bivector(rng))
    for r in (1e-3, 0.5, 1.0, 100.0):
        assert slice_topology(k, r) is SliceTopology.RP3


@pytest.mark.parametrize("phi", [0.0, np.pi / 6, np.pi / 3])
def test_empirical_min_radius_brackets_certificate(phi):
    w = base_point(phi)
    r0 = orbit_class(w).r0
    emp = empirical_min_radius(w, samples=300, seed=11)
    assert emp >= r0 - 1e-9
    assert emp <= 1.02 * r0


def test_empirical_min_radius_degenerate_collapses():
    emp = empirical_min_radius(base_point(np.pi / 2), samples=300, seed=11)
    assert emp < 1e-3


def test_empirical_min_radius_deterministic(rng):
    w = random_light_cone_bivector(rng)
    a = empirical_min_radius(w, samples=150, seed=3)
    b = empirical_min_radius(w, samples=150, seed=3)
    assert a == b


def test_empirical_min_radius_validation(rng):
    with pytest.raises(ValueError):
        empirical_min_radius(base_point(0.3), samples=0, seed=0)
    with pytest.raises(ValueError, match="samples must be positive"):
        empirical_min_radius([1.0, 0, 0, 0, 0, 0], samples=0, seed=0)
    with pytest.raises(ValueError, match="expected 6 bivector coefficients"):
        empirical_min_radius([1.0, 0, 0, 0, 0], samples=10, seed=0)
    for row in OFF_CONE:
        with pytest.raises(NotInLightConeError) as info:
            empirical_min_radius(row, samples=10, seed=0)
        assert str(info.value) == "empirical_min_radius requires a light-cone bivector"
    # an OFF_CONE row that a looser tolerance puts on the cone
    assert empirical_min_radius([1.0, 0, 0, 0, 0, 1.0 + 1e-6], 10, 0, ToleranceConfig(eps=1e-3)) > 0
