"""The stacked group-element paths against scalar references, bit for bit.

The references are the one-letter, one-sample and one-point loops the
library ran before its stacked passes: a pass of samples drawn with three
numpy calls per letter and one normal call per sample (where the library
decodes a whole pass of raw PCG64 output as arrays), a generator matrix
written from an identity per letter, a word product taken letter by letter,
the isometry and pfaffian suites of `verify`, empirical_min_radius and its
grid's repeated rotation and boost stacks, the closed-form cross product the
adapted frames used before np.cross, and reduce_orbits' per-row light-cone
test and critical rapidities.  Both sides run under the same numpy, so they
must agree exactly (never allclose), including across the edges of the
SAMPLE_BLOCK passes.
"""
import numpy as np
import pytest

import lbo.rslice
from lbo.minkowski import (
    BOOST,
    ROTATION,
    SAMPLE_BLOCK,
    DEFAULT_TOL,
    GeneratorKind,
    _draw_pass,
    _draw_word,
    boost_matrix,
    generator,
    random_generator_word,
    random_proper_lorentz,
    rotation_matrix,
    word_matrix,
)
from lbo.minkowski import ToleranceConfig, lorentz_inverse
from lbo.orbit import _HALF_PI, OrbitKind, base_point, canonical_form, reduce_orbits
from lbo.rslice import empirical_min_radius
from lbo.verify import _suite_isometry, _suite_pfaffian
from lbo.wedge import _compound, _split_norms_rows, hat_inner, in_light_cone, pfaffian, split_norms
from conftest import random_degenerate_bivector, random_light_cone_bivector

_ROTATION_PLANES = {1: (0, 1), 2: (0, 2), 3: (1, 2)}
_BOOST_PLANES = {1: (2, 3), 2: (1, 3), 3: (0, 3)}


def reference_generator(kind):
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


def reference_word(rng, word_length):
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


def reference_letters(rng, word_length):
    return [(k.family == BOOST, k.axis, k.parameter) for k in reference_word(rng, word_length)]


def reference_pass(rng, count, lengths, normals):
    """Per sample: one word per entry of lengths, then normal(size=normals) if normals."""
    words, vectors = [[] for _ in lengths], []
    for _ in range(count):
        for drawn, length in zip(words, lengths):
            drawn.append(reference_letters(rng, length))
        if normals:
            vectors.append(rng.normal(size=normals))
    return [np.array(w, dtype=float) for w in words], np.array(vectors).reshape(count, normals)


def reference_word_matrix(word):
    m = np.eye(4)
    for kind in word:
        m = m @ reference_generator(kind)
    return m


def reference_random_proper_lorentz(rng, word_length):
    return reference_word_matrix(reference_word(rng, word_length))


def reference_isometry(samples, seed, tol):
    rng = np.random.default_rng([seed, 0])
    worst_inner = worst_homo = worst_cone = 0.0
    for _ in range(samples):
        p = reference_random_proper_lorentz(rng, 4)
        q = reference_random_proper_lorentz(rng, 3)
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        scale = 1.0 + float(np.linalg.norm(u) * np.linalg.norm(v))
        worst_inner = max(
            worst_inner,
            abs(hat_inner(_compound(p) @ u, _compound(p) @ v) - hat_inner(u, v)) / scale,
        )
        worst_homo = max(
            worst_homo, float(np.max(np.abs(_compound(p) @ _compound(q) - _compound(p @ q))))
        )
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        b *= np.linalg.norm(a) / np.linalg.norm(b)
        wl = np.array([a[2], -a[1], b[0], a[0], b[1], b[2]])
        if not in_light_cone(_compound(p) @ wl, tol):
            worst_cone = 1.0
    return [worst_inner, worst_homo, worst_cone]


def reference_pfaffian(samples, seed):
    rng = np.random.default_rng([seed, 1])
    worst_inv = worst_angle = 0.0
    for _ in range(samples):
        p = reference_random_proper_lorentz(rng, 4)
        u = rng.normal(size=6)
        worst_inv = max(worst_inv, abs(pfaffian(_compound(p) @ u) - pfaffian(u)) / (1.0 + u @ u))
    for phi in np.linspace(0.0, np.pi, 41):
        worst_angle = max(worst_angle, abs(pfaffian(base_point(phi)) - 2.0 * np.cos(phi)))
    return [worst_inv, worst_angle]


def reference_empirical_min_radius(w, samples, seed, tol=DEFAULT_TOL):
    form = canonical_form(w, tol)
    scaled = (form.r / np.sqrt(2.0)) * base_point(form.phi)
    best = float(np.sqrt(split_norms(w)[0]))
    n = max(40, int(np.sqrt(samples)))
    if n % 2 == 0:
        n += 1
    for theta in np.linspace(0.0, np.pi, n):
        rot = reference_generator(GeneratorKind(2, ROTATION, theta))
        for t in np.linspace(-2.5, 2.5, n):
            c = _compound(rot @ reference_generator(GeneratorKind(2, BOOST, t))) @ scaled
            best = min(best, float(np.sqrt(split_norms(c)[0])))
    for t in np.linspace(0.0, 10.0, 1001):
        c = _compound(reference_generator(GeneratorKind(2, BOOST, t))) @ scaled
        best = min(best, float(np.sqrt(split_norms(c)[0])))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        c = _compound(reference_random_proper_lorentz(rng, 4)) @ w
        best = min(best, float(np.sqrt(split_norms(c)[0])))
    return best


def reference_cross(x, y):
    """The closed-form cross product the adapted frames used before np.cross."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


def test_np_cross_matches_the_closed_form():
    rng = np.random.default_rng(17)
    n = 20000
    x = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
    y = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
    y[::7] = x[::7] * rng.uniform(-3, 3, size=(len(x[::7]), 1))  # parallel
    x[1::5, rng.integers(0, 3)] = 0.0
    y[2::5, rng.integers(0, 3)] = -0.0
    x[3::11] = rng.normal(size=(len(x[3::11]), 3)) * 1e-310  # subnormal
    edges = np.array(
        [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1e150, -1e150, 1e-150], [5e-324, 1.0, -5e-324]]
    )
    x = np.concatenate([x, edges, edges])
    y = np.concatenate([y, edges[::-1], edges])
    assert same_bits(np.cross(x, y), reference_cross(x, y))


def test_np_cross_matches_the_closed_form_off_the_finite_numbers():
    values = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, 1e300]
    rows = np.array(
        [[a, b, c] for a in values for b in values for c in (np.nan, 0.0, np.inf)]
    )
    x, y = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = np.cross(x, y), reference_cross(x, y)
    assert np.array_equal(got, want, equal_nan=True)


def test_plane_matrices_match_the_reference(rng):
    axes = rng.integers(1, 4, size=(5, 40))
    angles, rapidities = rng.uniform(-np.pi, np.pi, size=(5, 20)), rng.normal(size=(5, 20))
    params = np.concatenate([angles, rapidities], axis=1)
    params[0, :3] = [0.0, -0.0, 30.0]
    for family, build in ((ROTATION, rotation_matrix), (BOOST, boost_matrix)):
        stack = build(axes, params)
        assert stack.shape == (5, 40, 4, 4)
        for idx in np.ndindex(axes.shape):
            one = build(int(axes[idx]), float(params[idx]))
            kind = GeneratorKind(int(axes[idx]), family, float(params[idx]))
            assert same_bits(one, reference_generator(kind))
            assert same_bits(generator(kind), one)
            assert same_bits(stack[idx], one)
        # a scalar axis broadcasts against an array of parameters
        assert same_bits(build(2, params[1]), [build(2, p) for p in params[1]])


def test_plane_matrices_reject_bad_axes():
    for bad in (0, 4, [1, 2, 5]):
        with pytest.raises(ValueError, match="axis must be 1, 2 or 3"):
            rotation_matrix(bad, 0.3)
        with pytest.raises(ValueError, match="axis must be 1, 2 or 3"):
            boost_matrix(bad, 0.3)


def pcg64_half_used(seed):
    bits = np.random.PCG64(seed)
    np.random.Generator(bits).integers(7)  # one 32-bit draw buffers the other half
    assert bits.state["has_uint32"] == 1
    return bits


def pcg64_zero_at(seed, ahead):
    """A PCG64 whose raw output number ahead (from 0) is 0."""
    bits = np.random.PCG64(seed)
    state = bits.state
    k = seed + 1
    state["state"]["state"] = (k << 64) | k  # the output of a state with equal halves is 0
    bits.state = state
    bits.advance(-1 - ahead)
    check = np.random.PCG64(seed)
    check.state = bits.state
    assert check.random_raw(ahead + 1)[ahead] == 0
    return bits


def pcg64_zero_in_sample(seed, sample, lengths, normals):
    """A PCG64 whose pass of reference_pass draws meets a zero low word in sample `sample`.

    A normal takes a varying count of raw outputs, so the zero is placed
    further ahead, one output at a time, until numpy's own calls meet it
    under a letter of that sample.
    """
    width = 2 * sum(lengths)
    start = sample * (width + normals)
    for ahead in range(start, start + 1000):
        bits = pcg64_zero_at(seed, ahead)
        probe = np.random.Generator(np.random.PCG64())
        probe.bit_generator.state = bits.state
        reference_pass(probe, sample, lengths, normals)
        if (probe.bit_generator.random_raw(width)[::2] == 0).any():
            return bits
    raise AssertionError("no zero low word found in the sample")


BIT_GENERATORS = {
    "mt19937": np.random.MT19937,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
    "pcg64-half-used": pcg64_half_used,
    # numpy redraws an axis whose low word is 0, so the word takes numpy's calls
    "pcg64-zero-first-axis": lambda seed: pcg64_zero_at(seed, 0),
    "pcg64-zero-third-axis": lambda seed: pcg64_zero_at(seed, 4),
    "pcg64-zero-parameter": lambda seed: pcg64_zero_at(seed, 1),
}


def test_draw_word_matches_numpy_calls():
    for seed in range(200):
        rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in range(1, 10):
            assert _draw_word(rng, length) == reference_letters(want, length)
            # the next draw shows the streams are still aligned
            assert rng.normal() == want.normal()
            # an odd count of 32-bit draws leaves half a raw output buffered
            k = (seed + length) % 3
            assert rng.integers(7, size=k).tolist() == want.integers(7, size=k).tolist()
            assert (rng.normal(size=k) == want.normal(size=k)).all()


@pytest.mark.parametrize("name", BIT_GENERATORS)
def test_draw_word_matches_numpy_calls_on_other_streams(name):
    make = BIT_GENERATORS[name]
    for seed in range(20):
        for length in (1, 3, 4):
            rng, want = np.random.Generator(make(seed)), np.random.Generator(make(seed))
            assert _draw_word(rng, length) == reference_letters(want, length)
            assert rng.normal() == want.normal()


class RawBitsOnly:
    """An rng with a bit generator and none of numpy's calls."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator


def test_draw_word_decodes_raw_pcg64_output():
    for seed in range(20):
        rng = RawBitsOnly(np.random.PCG64(seed))
        want = np.random.default_rng(seed)
        assert _draw_word(rng, 9) == reference_letters(want, 9)
        assert np.random.Generator(rng.bit_generator).normal() == want.normal()


def stream_state(bits):
    """bits.state as plain values, without a spent 32-bit half: a bit generator keeps
    the last one it buffered in "uinteger" after using it, and reads it again only
    while "has_uint32" is set."""

    def plain(x):
        if isinstance(x, dict):
            return {key: plain(value) for key, value in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    state = plain(bits.state)
    if not state.get("has_uint32", 1):
        state["uinteger"] = None
    return state


def assert_same_pass(got, want):
    (letters, vectors), (want_letters, want_vectors) = got, want
    assert len(letters) == len(want_letters)
    for drawn, expected in zip(letters, want_letters):
        assert drawn.shape == expected.shape and same_bits(drawn, expected)
    assert vectors.shape == want_vectors.shape and same_bits(vectors, want_vectors)


@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1])
@pytest.mark.parametrize("lengths,normals", [((4,), 0), ((4, 3), 0), ((4,), 6), ((4, 3), 18)])
@pytest.mark.parametrize("name", ["pcg64", *BIT_GENERATORS, "pcg64-zero-mid-pass"])
def test_draw_pass_matches_numpy_calls(name, lengths, normals, count):
    for seed in range(2):
        if name == "pcg64":
            bits = np.random.PCG64(seed)
        elif name == "pcg64-zero-mid-pass":
            bits = pcg64_zero_in_sample(seed, min(37, count - 1), lengths, normals)
        else:
            bits = BIT_GENERATORS[name](seed)
        want = np.random.Generator(type(bits)())
        want.bit_generator.state = bits.state
        rng = np.random.Generator(bits)
        assert_same_pass(
            _draw_pass(rng, count, lengths, normals), reference_pass(want, count, lengths, normals)
        )
        # the stream is where numpy's calls leave it
        assert stream_state(rng.bit_generator) == stream_state(want.bit_generator)
        assert rng.normal() == want.normal()


class RawBitsAndNormals(RawBitsOnly):
    """An rng with a bit generator and normal, but no integers or uniform."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.normal = np.random.Generator(bit_generator).normal


@pytest.mark.parametrize("normals", [0, 6, 18])
def test_draw_pass_decodes_raw_pcg64_output(normals):
    # numpy's per-letter calls give the same letters; without them, only the decode can
    for seed in range(5):
        rng, want = RawBitsAndNormals(np.random.PCG64(seed)), np.random.default_rng(seed)
        for count in (1, SAMPLE_BLOCK + 1):
            got = _draw_pass(rng, count, (4, 3), normals)
            assert_same_pass(got, reference_pass(want, count, (4, 3), normals))
        assert rng.normal() == want.normal()


def test_sampling_suites_decode_raw_pcg64_output(monkeypatch):
    samples = SAMPLE_BLOCK + 1
    want = (
        _suite_isometry(samples, 3, DEFAULT_TOL),
        _suite_pfaffian(samples, 3, DEFAULT_TOL),
        empirical_min_radius(base_point(1.0), samples, 3),
    )
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: RawBitsAndNormals(np.random.PCG64(seed))
    )
    got = (
        _suite_isometry(samples, 3, DEFAULT_TOL),
        _suite_pfaffian(samples, 3, DEFAULT_TOL),
        empirical_min_radius(base_point(1.0), samples, 3),
    )
    assert got == want


def test_words_match_the_reference():
    for seed in range(5):
        for length in (1, 3, 4, 9):
            assert random_generator_word(np.random.default_rng(seed), length) == reference_word(
                np.random.default_rng(seed), length
            )
            got = random_proper_lorentz(np.random.default_rng(seed), length)
            want = reference_random_proper_lorentz(np.random.default_rng(seed), length)
            assert same_bits(got, want)
            word = reference_word(np.random.default_rng(seed + 10), length)
            assert same_bits(word_matrix(word), reference_word_matrix(word))
    assert same_bits(word_matrix([]), np.eye(4))


@pytest.mark.parametrize("samples", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 300])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_suites_match_the_per_sample_loops(seed, samples):
    isometry = [check.value for check in _suite_isometry(samples, seed, DEFAULT_TOL)]
    assert isometry == reference_isometry(samples, seed, DEFAULT_TOL)
    pfaff = [check.value for check in _suite_pfaffian(samples, seed, DEFAULT_TOL)]
    assert pfaff == reference_pfaffian(samples, seed)


@pytest.mark.parametrize("pushed", [False, True])
@pytest.mark.parametrize("phi,seed", [(0.0, 0), (np.pi / 3, 1), (np.pi / 2, 2), (2.5, 3)])
def test_empirical_min_radius_matches_the_per_point_loops(phi, seed, pushed):
    # a normal form, or another point of its orbit; at phi = 2.5 the latter's
    # minimum comes from the grid, not the sweep
    w = 1.7 * base_point(phi)
    if pushed:
        w = _compound(reference_random_proper_lorentz(np.random.default_rng(9), 3)) @ w
    samples = 2 * SAMPLE_BLOCK + 44
    want = reference_empirical_min_radius(w, samples, seed)
    assert empirical_min_radius(w, samples, seed) == want


def test_empirical_min_radius_pushes_w_through_each_word(monkeypatch):
    # the grid or the sweep always gives the minimum, so compare the word pass's rows
    passes = []

    def spy(x):
        passes.append(np.array(x))
        return _split_norms_rows(x)

    monkeypatch.setattr(lbo.rslice, "_split_norms_rows", spy)
    w = _compound(reference_random_proper_lorentz(np.random.default_rng(9), 3)) @ base_point(1.0)
    samples, seed = 2 * SAMPLE_BLOCK + 44, 5
    empirical_min_radius(w, samples, seed)
    # the 41 x 41 grid's and the 1001-point sweep's passes come first
    grid_and_sweep = -(-41 * 41 // SAMPLE_BLOCK) - (-1001 // SAMPLE_BLOCK)
    assert len(passes) == grid_and_sweep + 3
    rng = np.random.default_rng(seed)
    want = [_compound(reference_random_proper_lorentz(rng, 4)) @ w for _ in range(samples)]
    assert same_bits(np.concatenate(passes[grid_and_sweep:]), want)


def test_empirical_min_radius_grid_gathers_the_repeated_stacks(monkeypatch):
    # the grid's surfaces, gathered from n rotations and n boosts, against the
    # n * n of each that np.repeat and np.tile made, block by block
    surfaces = []

    def spy(P):
        surfaces.append(np.array(P))
        return _compound(P)

    monkeypatch.setattr(lbo.rslice, "_compound", spy)
    for samples in (1, 2000, 3000):
        surfaces.clear()
        empirical_min_radius(base_point(1.0), samples, 0)
        n = max(40, int(np.sqrt(samples)))
        n += 1 - n % 2  # odd, as the grid makes it
        thetas = np.repeat(np.linspace(0.0, np.pi, n), n)
        ts = np.tile(np.linspace(-2.5, 2.5, n), n)
        for k, lo in enumerate(range(0, n * n, SAMPLE_BLOCK)):
            block = slice(lo, lo + SAMPLE_BLOCK)
            want = rotation_matrix(2, thetas[block]) @ boost_matrix(2, ts[block])
            assert surfaces[k].shape == want.shape and same_bits(surfaces[k], want)


def reference_cone_reason(spatial, temporal, tol):
    """The light-cone test reduce_orbits ran on each row before its array verdicts."""
    if spatial == 0.0 and temporal == 0.0:
        return "zero bivector"
    if not (np.isfinite(spatial) and np.isfinite(temporal)):
        return f"split norms are not finite: spatial {spatial:.6g} vs temporal {temporal:.6g}"
    if not abs(spatial - temporal) <= tol.eps * max(spatial, temporal, 1.0):
        return f"split norms differ: spatial {spatial:.6g} vs temporal {temporal:.6g}"
    if spatial <= tol.eps:
        return (
            f"split norms at or below the tolerance {tol.eps:.6g}: "
            f"spatial {spatial:.6g} vs temporal {temporal:.6g}"
        )
    return None


def reference_critical_rapidity(phi):
    if phi < _HALF_PI:
        return float(np.arctanh(np.tan(0.5 * phi)))
    return float(np.arctanh(1.0 / np.tan(0.5 * phi)))


_KIND_BY_SIGN = {1: OrbitKind.NEUTRAL_PLUS, -1: OrbitKind.NEUTRAL_MINUS, 0: OrbitKind.DEGENERATE}


def reference_verdicts(W, tol):
    """reason, on_cone, kind, epsilon, witness and reduced of reduce_orbits as its
    per-row loops gave them; the frames come from reduce_orbits itself."""
    spatial, temporal = _split_norms_rows(W)
    reason = tuple(
        reference_cone_reason(s, t, tol) for s, t in zip(spatial.tolist(), temporal.tolist())
    )
    on = np.array([x is None for x in reason], dtype=bool)
    pf = pfaffian(W)
    degenerate = np.abs(pf) <= tol.eps * np.maximum(spatial, 1.0)
    epsilon = np.zeros(len(W), dtype=int)
    epsilon[on & ~degenerate] = np.where(pf[on & ~degenerate] > 0, 1, -1)
    kind = tuple(_KIND_BY_SIGN[e] if o else None for e, o in zip(epsilon.tolist(), on.tolist()))
    frames = reduce_orbits(W, tol)
    witnessed = (epsilon != 0) & (frames.phi != _HALF_PI)
    witness, reduced = np.full((len(W), 4, 4), np.nan), np.full((len(W), 6), np.nan)
    p = frames.phi[witnessed]
    theta = np.where(p < _HALF_PI, 0.5 * p, 0.5 * p + _HALF_PI)
    t = [reference_critical_rapidity(x) for x in p.tolist()]
    rotation_boost = rotation_matrix(2, theta) @ boost_matrix(2, t)
    witness[witnessed] = rotation_boost @ lorentz_inverse(frames.basis[witnessed])
    reduced[witnessed] = (_compound(witness[witnessed]) @ W[witnessed][:, :, None])[:, :, 0]
    return reason, on, kind, epsilon, witness, reduced


def verdict_rows(rng, eps):
    """Random, zero, signed-zero, subnormal, nan, inf and band-edge rows."""
    rows = [random_light_cone_bivector(rng, 10.0 ** rng.uniform(-12, 150)) for _ in range(40)]
    rows += [random_degenerate_bivector(rng, 10.0 ** rng.uniform(-12, 150)) for _ in range(20)]
    rows += list(rng.normal(size=(20, 6)))
    rows += [np.zeros(6), -np.zeros(6), np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0])]
    rows += [base_point(phi) for phi in (0.0, np.pi / 3, _HALF_PI, 2.0, np.pi)]
    rows += [w * 1e-310 for w in rows[:3]] + [np.array([5e-324, 0, 0, 0, 0, 5e-324])]
    for bad in (np.nan, np.inf, -np.inf):
        rows += [np.array([bad, 0, 0, 0, 0, 1.0]), np.full(6, bad)]
    rows.append(np.array([1e200, 0, 0, 0, 0, 1e200]))  # norms overflow: inf - inf
    w = random_light_cone_bivector(rng)
    spatial = split_norms(w)[0]
    for k in (-2, -1, 0, 1, 2):
        # temporal norm around the relative bound, by a few ulps at the tiny eps
        stretch = 1.0 + k * max(eps, 2.0 ** -52) / 2.0
        rows.append(np.array([w[0], w[1], w[2] * stretch, w[3], w[4] * stretch, w[5] * stretch]))
        # spatial norm around eps
        rows.append(w * np.sqrt(eps * (1.0 + k * 1e-6) / spatial))
        # pfaffian around the degenerate band
        rows.append(base_point(_HALF_PI - k * eps))
    return np.array(rows)


@pytest.mark.parametrize("eps", [1e-9, 1e-300])
def test_reduce_orbits_verdicts_match_the_per_row_loops(eps):
    tol = ToleranceConfig(eps=eps)
    W = verdict_rows(np.random.default_rng(21), eps)
    with np.errstate(over="ignore", invalid="ignore"):  # nan and inf rows
        batch = reduce_orbits(W, tol)
        reason, on, kind, epsilon, witness, reduced = reference_verdicts(W, tol)
    assert batch.reason == reason
    assert np.array_equal(batch.on_cone, on)
    assert batch.kind == kind
    assert np.array_equal(batch.epsilon, epsilon)
    assert same_bits(batch.witness, witness)
    assert same_bits(batch.reduced, reduced)
    # every verdict and every reason appears, and witnessed rows among them
    kinds = {None, OrbitKind.NEUTRAL_PLUS, OrbitKind.NEUTRAL_MINUS, OrbitKind.DEGENERATE}
    assert set(kind) == kinds
    assert {r.split(":")[0][:22] for r in reason if r} == {
        "zero bivector", "split norms are not fi", "split norms differ", "split norms at or belo"
    }
    assert batch.witnessed.sum() >= 10
