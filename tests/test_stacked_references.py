"""The stacked group-element paths against scalar references, bit for bit.

The references are the one-letter, one-sample and one-point loops the
library ran before its stacked passes: a pass of samples drawn with three
numpy calls per letter and one normal call per sample (where the library
decodes a whole pass of raw PCG64 output as arrays), a generator matrix
written from an identity per letter, a word product taken letter by letter,
the isometry and pfaffian suites of `verify`, empirical_min_radius, and the
closed-form cross product the adapted frames used before np.cross.  Both
sides run under the same numpy, so they must agree exactly (never allclose),
including across the edges of the SAMPLE_BLOCK passes.
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
from lbo.orbit import base_point, canonical_form
from lbo.rslice import empirical_min_radius
from lbo.verify import _suite_isometry, _suite_pfaffian
from lbo.wedge import _compound, _split_norms_rows, hat_inner, in_light_cone, pfaffian, split_norms

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
