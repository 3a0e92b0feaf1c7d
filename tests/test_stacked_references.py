"""The stacked group-element paths against scalar references, bit for bit.

The references are the one-letter, one-sample and one-point loops the
library ran before its stacked passes: a pass of samples drawn with one
rng.random(3) call per letter, mapped with Python floats (where the library
makes one rng.random call per pass, on any bit generator), the normals of
the sampling suites drawn sample by sample from each suite's second
generator, a generator matrix written from an identity per letter, a word
product taken letter by letter, the isometry and pfaffian suites of
`verify`, empirical_min_radius and its grid's repeated rotation and boost
stacks, the closed-form cross product (for orbit._cross, which builds the
adapted frames' second axis, and np.cross), and reduce_orbits' per-row
light-cone test and witnesses.  Every matrix product of the library and of
the references is a dot summed left to right (lbo.minkowski._matmul, and
conftest.dot in Python floats), never a BLAS call, so both sides give the
same bits under any numpy and any BLAS kernel.  They must agree exactly
(never allclose), including across the edges of the SAMPLE_BLOCK passes.
"""
import math

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
from lbo.minkowski import ToleranceConfig
from lbo.orbit import (
    _HALF_PI, OrbitKind, _adapted_frames, _cross, base_point, canonical_form, reduce_orbits,
)
from lbo.rslice import empirical_min_radius
from lbo.verify import _suite_isometry, _suite_pfaffian
from lbo.wedge import _compound, _split_norms_rows, hat_inner, in_light_cone, pfaffian, split_norms
from conftest import dot, matmul, random_degenerate_bivector, random_light_cone_bivector

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
    """Per letter, three uniforms: the axis, the family and the parameter."""
    word = []
    for _ in range(word_length):
        u0, u1, u2 = rng.random(3).tolist()
        if u1 < 0.5:
            family, low, high = BOOST, -1.0, 1.0
        else:
            family, low, high = ROTATION, -math.pi, math.pi
        word.append(GeneratorKind(1 + math.floor(3 * u0), family, low + (high - low) * u2))
    return word


def reference_letters(rng, word_length):
    return [(k.family == BOOST, k.axis, k.parameter) for k in reference_word(rng, word_length)]


def reference_pass(rng, count, lengths):
    """Per sample: one word per entry of lengths."""
    words = [[] for _ in lengths]
    for _ in range(count):
        for drawn, length in zip(words, lengths):
            drawn.append(reference_letters(rng, length))
    return [np.array(w, dtype=float).reshape(count, length, 3) for w, length in zip(words, lengths)]


def reference_word_matrix(word):
    m = np.eye(4)
    for kind in word:
        m = matmul(m, reference_generator(kind))
    return m


def reference_random_proper_lorentz(rng, word_length):
    return reference_word_matrix(reference_word(rng, word_length))


def reference_isometry(samples, seed, tol):
    rng, normals = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0, 1])
    worst_inner = worst_homo = worst_cone = 0.0
    for _ in range(samples):
        p = reference_random_proper_lorentz(rng, 4)
        q = reference_random_proper_lorentz(rng, 3)
        u = normals.standard_normal(6)
        v = normals.standard_normal(6)
        scale = 1.0 + np.sqrt(dot(u, u)) * np.sqrt(dot(v, v))
        cp = _compound(p)
        worst_inner = max(
            worst_inner, abs(hat_inner(matmul(cp, u), matmul(cp, v)) - hat_inner(u, v)) / scale
        )
        homo = np.abs(matmul(cp, _compound(q)) - _compound(matmul(p, q)))
        worst_homo = max(worst_homo, float(np.max(homo)))
        a = normals.standard_normal(3)
        b = normals.standard_normal(3)
        b *= np.sqrt(dot(a, a)) / np.sqrt(dot(b, b))
        wl = np.array([a[2], -a[1], b[0], a[0], b[1], b[2]])
        if not in_light_cone(matmul(cp, wl), tol):
            worst_cone = 1.0
    return [worst_inner, worst_homo, worst_cone]


def reference_pfaffian(samples, seed):
    rng, normals = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1, 1])
    worst_inv = worst_angle = 0.0
    for _ in range(samples):
        p = reference_random_proper_lorentz(rng, 4)
        u = normals.standard_normal(6)
        inv = abs(pfaffian(matmul(_compound(p), u)) - pfaffian(u))
        worst_inv = max(worst_inv, inv / (1.0 + dot(u, u)))
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
            surface = matmul(rot, reference_generator(GeneratorKind(2, BOOST, t)))
            c = matmul(_compound(surface), scaled)
            best = min(best, float(np.sqrt(split_norms(c)[0])))
    for t in np.linspace(0.0, 10.0, 1001):
        c = matmul(_compound(reference_generator(GeneratorKind(2, BOOST, t))), scaled)
        best = min(best, float(np.sqrt(split_norms(c)[0])))
    rng = np.random.default_rng([seed, 2])
    for _ in range(samples):
        c = matmul(_compound(reference_random_proper_lorentz(rng, 4)), w)
        best = min(best, float(np.sqrt(split_norms(c)[0])))
    return best


def reference_cross(x, y):
    """The closed-form cross product: entry i is x_j y_k - x_k y_j for the cyclic
    successors j, k of i."""
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
    want = reference_cross(x, y)
    assert same_bits(_cross(x, y), want) and same_bits(np.cross(x, y), want)


def test_np_cross_matches_the_closed_form_off_the_finite_numbers():
    values = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, 1e300]
    rows = np.array(
        [[a, b, c] for a in values for b in values for c in (np.nan, 0.0, np.inf)]
    )
    x, y = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
    with np.errstate(invalid="ignore", over="ignore"):
        ours, want, numpy = _cross(x, y), reference_cross(x, y), np.cross(x, y)
    # bit for bit off the NaNs, whose payloads and signs numpy does not promise
    number = ~np.isnan(want)
    for cross in (ours, numpy):
        assert np.array_equal(cross, want, equal_nan=True)
        assert same_bits(cross[number], want[number])


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
    """A PCG64 whose raw output number ahead (from 0) is 0, so that uniform is 0.0."""
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


# the uniform that each stream draws as 0.0: (u0, u1, u2) of a letter are its
# axis, family and parameter
ZERO_AT = {
    "pcg64-zero-first-axis": 0,
    "pcg64-zero-family": 1,
    "pcg64-zero-parameter": 2,
    "pcg64-zero-third-axis": 6,
}

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "mt19937": np.random.MT19937,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
    "pcg64-half-used": pcg64_half_used,
    **{name: lambda seed, ahead=ahead: pcg64_zero_at(seed, ahead) for name, ahead in ZERO_AT.items()},
}


def assert_low_end(letter, uniform):
    """A letter whose uniform number `uniform` (0 axis, 1 family, 2 parameter) was 0.0."""
    boost, axis, parameter = letter
    if uniform == 0:
        assert axis == 1.0
    elif uniform == 1:
        assert boost
    else:
        assert parameter == (-1.0 if boost else -np.pi)


def test_draw_word_matches_the_per_letter_draws():
    for seed in range(200):
        rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in range(1, 10):
            assert _draw_word(rng, length) == reference_letters(want, length)
            # the next draw shows the streams are still aligned
            assert rng.random() == want.random()


@pytest.mark.parametrize("name", BIT_GENERATORS)
def test_draw_word_matches_the_per_letter_draws_on_other_streams(name):
    make = BIT_GENERATORS[name]
    for seed in range(20):
        for length in (1, 3, 4):
            rng, want = np.random.Generator(make(seed)), np.random.Generator(make(seed))
            word = _draw_word(rng, length)
            assert word == reference_letters(want, length)
            assert rng.random() == want.random()
            if ZERO_AT.get(name, 3 * length) < 3 * length:
                letter, uniform = divmod(ZERO_AT[name], 3)
                assert_low_end(word[letter], uniform)


@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1])
@pytest.mark.parametrize("lengths", [(1,), (4,), (4, 3)])
@pytest.mark.parametrize("name", [*BIT_GENERATORS, "pcg64-zero-mid-pass"])
def test_draw_pass_matches_the_per_letter_draws(name, lengths, count):
    # pcg64-zero-mid-pass draws 0.0 as the parameter of the last letter of
    # sample 37, or of the last sample of a shorter pass
    sample, width = min(37, count - 1), 3 * sum(lengths)
    for seed in range(2):
        if name == "pcg64-zero-mid-pass":
            bits = pcg64_zero_at(seed, width * (sample + 1) - 1)
        else:
            bits = BIT_GENERATORS[name](seed)
        want = np.random.Generator(type(bits)())
        want.bit_generator.state = bits.state
        rng = np.random.Generator(bits)
        letters, want_letters = _draw_pass(rng, count, lengths), reference_pass(want, count, lengths)
        assert len(letters) == len(want_letters)
        for drawn, expected in zip(letters, want_letters):
            assert drawn.shape == expected.shape and same_bits(drawn, expected)
        if name == "pcg64-zero-mid-pass":
            assert_low_end(letters[-1][sample, -1].tolist(), 2)
        # the stream is where the per-letter draws leave it
        np.testing.assert_equal(rng.bit_generator.state, want.bit_generator.state)


class Uniforms:
    """An rng whose random fills its array with one value."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def test_draw_pass_keeps_its_ranges():
    (letters,) = _draw_pass(np.random.default_rng(8), 2000, (3,))
    boost, axis, p = letters[..., 0] == 1.0, letters[..., 1], letters[..., 2]
    assert set(axis.ravel().tolist()) == {1.0, 2.0, 3.0}
    assert boost.any() and not boost.all()
    assert ((-1.0 < p[boost]) & (p[boost] < 1.0)).all()
    assert ((-np.pi < p[~boost]) & (p[~boost] < np.pi)).all()
    # the ends of [0, 1): the largest uniform, 1 - 2**-53, keeps the axis at 3
    # and the angle below pi
    for u, want_axis in ((0.0, 1.0), (1.0 - 2.0**-53, 3.0)):
        (ends,) = _draw_pass(Uniforms(u), 1, (1,))
        boosted = u < 0.5
        low, high = (-1.0, 1.0) if boosted else (-np.pi, np.pi)
        assert ends[0, 0, 0] == boosted and ends[0, 0, 1] == want_axis
        assert low <= ends[0, 0, 2] < high


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


def other_streams(monkeypatch, name):
    """Every default_rng, the suites' and the references', on the bit generator `name`."""
    make = BIT_GENERATORS[name]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: np.random.Generator(make(seed)))


@pytest.mark.parametrize("samples", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 300])
@pytest.mark.parametrize("name", ["mt19937", "philox", "sfc64", "pcg64-half-used"])
def test_stacked_suites_match_the_per_sample_loops_on_other_streams(monkeypatch, name, samples):
    other_streams(monkeypatch, name)
    isometry = [check.value for check in _suite_isometry(samples, 3, DEFAULT_TOL)]
    assert isometry == reference_isometry(samples, 3, DEFAULT_TOL)
    pfaff = [check.value for check in _suite_pfaffian(samples, 3, DEFAULT_TOL)]
    assert pfaff == reference_pfaffian(samples, 3)


@pytest.mark.parametrize("pushed", [False, True])
@pytest.mark.parametrize("phi,seed", [(0.0, 0), (np.pi / 3, 1), (np.pi / 2, 2), (2.5, 3)])
def test_empirical_min_radius_matches_the_per_point_loops(phi, seed, pushed):
    # a normal form, or another point of its orbit; at phi = 2.5 the latter's
    # minimum comes from the grid, not the sweep
    w = 1.7 * base_point(phi)
    if pushed:
        w = matmul(_compound(reference_random_proper_lorentz(np.random.default_rng(9), 3)), w)
    samples = 2 * SAMPLE_BLOCK + 44
    want = reference_empirical_min_radius(w, samples, seed)
    assert empirical_min_radius(w, samples, seed) == want


def assert_pushes_w_through_each_word(monkeypatch, seed):
    # the grid or the sweep always gives the minimum, so compare the word pass's rows
    passes = []

    def spy(x):
        passes.append(np.array(x))
        return _split_norms_rows(x)

    monkeypatch.setattr(lbo.rslice, "_split_norms_rows", spy)
    P = reference_random_proper_lorentz(np.random.default_rng(9), 3)
    w = matmul(_compound(P), base_point(1.0))
    samples = 2 * SAMPLE_BLOCK + 44
    empirical_min_radius(w, samples, seed)
    # the 41 x 41 grid's and the 1001-point sweep's passes come first
    grid_and_sweep = -(-41 * 41 // SAMPLE_BLOCK) - (-1001 // SAMPLE_BLOCK)
    assert len(passes) == grid_and_sweep + 3
    rng = np.random.default_rng([seed, 2])
    want = [matmul(_compound(reference_random_proper_lorentz(rng, 4)), w) for _ in range(samples)]
    assert same_bits(np.concatenate(passes[grid_and_sweep:]), want)
    # a stream of its own: the first word is not the isometry suite's first word
    isometry = reference_random_proper_lorentz(np.random.default_rng([seed, 0]), 4)
    assert not same_bits(passes[grid_and_sweep][0], matmul(_compound(isometry), w))


def test_empirical_min_radius_pushes_w_through_each_word(monkeypatch):
    assert_pushes_w_through_each_word(monkeypatch, 5)


@pytest.mark.parametrize("name", ["mt19937", "philox", "sfc64", "pcg64-half-used"])
def test_empirical_min_radius_pushes_w_through_each_word_on_other_streams(monkeypatch, name):
    other_streams(monkeypatch, name)
    assert_pushes_w_through_each_word(monkeypatch, 5)


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
            want = np.array([matmul(rotation_matrix(2, theta), boost_matrix(2, t))
                             for theta, t in zip(thetas[block], ts[block])])
            assert surfaces[k].shape == want.shape and same_bits(surfaces[k], want)


def reference_cone_reason(w, spatial, temporal, tol):
    """The light-cone test of one row w with split norms spatial and temporal:
    relative, with no floor, down to the smallest normal double."""
    norms = f"spatial {spatial:.6g} vs temporal {temporal:.6g}"
    if not any(w):
        return "zero bivector"
    if not (np.isfinite(spatial) and np.isfinite(temporal)):
        return f"split norms are not finite: {norms}"
    if max(spatial, temporal) < np.finfo(float).tiny:
        return f"split norms underflow the double range: {norms}"
    if not abs(spatial - temporal) <= tol.eps * max(spatial, temporal):
        return f"split norms differ: {norms}"
    return None


def reference_witness(w):
    """The witness of one row, in Python floats, from the r, basis, along and
    size of its own frame: the rows of R B F^T written out, with (cos theta,
    sin theta) = (+/-h, k) and (cosh t, sinh t) = (h, k) / sqrt(chi)."""
    r, _, basis, along, size = (x[0] for x in _adapted_frames(w[None]))
    r, along, size = float(r), float(along), float(size)
    chi = abs(along) / r
    h, k = math.sqrt((1.0 + chi) / 2.0), size / r / math.sqrt(2.0 * (1.0 + chi))
    cos, cosh, sinh = h if along > 0 else -h, h / math.sqrt(chi), k / math.sqrt(chi)
    u1, u2, u3 = basis[:3, 0].tolist(), basis[:3, 1].tolist(), basis[:3, 2].tolist()
    return np.array([
        [*(cos * x - k * z for x, z in zip(u1, u3)), 0.0],
        [*(cosh * y for y in u2), sinh],
        [*(k * x + cos * z for x, z in zip(u1, u3)), 0.0],
        [*(sinh * y for y in u2), cosh],
    ])


_KIND_BY_SIGN = {1: OrbitKind.NEUTRAL_PLUS, -1: OrbitKind.NEUTRAL_MINUS, 0: OrbitKind.DEGENERATE}


def reference_verdicts(W, tol):
    """reason, on_cone, kind, epsilon, witness and reduced of reduce_orbits as its
    per-row loops gave them; the frames come from reduce_orbits itself."""
    spatial, temporal = _split_norms_rows(W)
    reason = tuple(
        reference_cone_reason(w, s, t, tol)
        for w, s, t in zip(W.tolist(), spatial.tolist(), temporal.tolist())
    )
    on = np.array([x is None for x in reason], dtype=bool)
    pf = pfaffian(W)
    degenerate = np.abs(pf) <= tol.eps * spatial
    epsilon = np.zeros(len(W), dtype=int)
    epsilon[on & ~degenerate] = np.where(pf[on & ~degenerate] > 0, 1, -1)
    kind = tuple(_KIND_BY_SIGN[e] if o else None for e, o in zip(epsilon.tolist(), on.tolist()))
    frames = reduce_orbits(W, tol)
    witnessed = (epsilon != 0) & (frames.phi != _HALF_PI)
    witness, reduced = np.full((len(W), 4, 4), np.nan), np.full((len(W), 6), np.nan)
    for i in np.flatnonzero(witnessed):
        witness[i] = reference_witness(W[i])
        reduced[i] = matmul(_compound(witness[i]), W[i])
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
        # larger split norm around the smallest normal double
        rows.append(w * np.sqrt(np.finfo(float).tiny * (1.0 + k * 1e-6) / spatial))
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
        "zero bivector", "split norms are not fi", "split norms differ", "split norms underflow "
    }
    assert batch.witnessed.sum() >= 10
