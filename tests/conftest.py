import numpy as np
import pytest
from hypothesis import strategies as st

from lbo import from_vector_pair
from lbo.minkowski import rotation_matrix
from lbo.orbit import canonical_bivector
from lbo.wedge import _compound


def dot(x, y) -> float:
    """The dot product of two vectors in Python floats, summed left to right:
    the reference for lbo.minkowski._matmul, and so for every dot and pushforward."""
    x, y = np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()
    total = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        total += a * b
    return total


def matmul(A, B) -> np.ndarray:
    """A @ B for one matrix and one matrix or vector, each entry a dot."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if B.ndim == 1:
        return np.array([dot(row, B) for row in A])
    return np.array([[dot(row, col) for col in B.T] for row in A])


def random_light_cone_bivector(rng, scale=1.0):
    """Random isotropic bivector: equal-length axial and polar vectors."""
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    b *= np.linalg.norm(a) / np.linalg.norm(b)
    return scale * from_vector_pair(a, b)


def random_degenerate_bivector(rng, scale=1.0):
    """Light-cone bivector with orthogonal vector pair, hence zero pfaffian."""
    a = rng.normal(size=3)
    b = np.cross(a, rng.normal(size=3))
    b *= np.linalg.norm(a) / np.linalg.norm(b)
    return scale * from_vector_pair(a, b)


@st.composite
def rotated_normal_forms(draw, k_min=-14):
    """(phi, w): w = Λ(R) canonical_bivector(2**k, phi), R a product of three
    rotation_matrix rotations, k in [k_min, 500] and phi log-uniform in
    [1e-300, pi) or within 1 of pi."""
    R = np.eye(4)
    for _ in range(3):
        R = R @ rotation_matrix(draw(st.integers(1, 3)), draw(st.floats(-np.pi, np.pi)))
    k = draw(st.integers(k_min, 500))
    phi = draw(st.one_of(
        st.floats(np.log(1e-300), np.log(np.pi)).map(np.exp),
        st.floats(np.log(1e-17), 0.0).map(lambda x: np.pi - np.exp(x)),
    ))
    phi = min(max(phi, 1e-300), np.nextafter(np.pi, 0.0))
    return phi, _compound(R) @ canonical_bivector(2.0**k, phi)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Acceptance tests push one line per criterion here; the summary hook prints
# them after the run so the pass/fail ledger survives pytest's capture.
ACCEPTANCE_LINES = []


def record_criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"{status}  {name}{suffix}")
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
