"""Symbolic matrices for the sympy certificates, imported the way tests import conftest.

Each helper imports sympy itself, so a test without sympy still skips.
"""
import pytest

from lbo.wedge import PAIRS


def plane(c, s, i, j, boost):
    """The symbolic rotation (boost false) or boost of the i-j plane with cos c and sin s (or cosh, sinh)."""
    sp = pytest.importorskip("sympy")
    m = sp.eye(4)
    m[i, i] = m[j, j] = c
    m[i, j], m[j, i] = (s, s) if boost else (-s, s)
    return m


def compound(m):
    """Second compound of a symbolic 4x4 matrix: entry ((k,l),(i,j)) is the 2x2 minor of rows k, l and columns i, j."""
    sp = pytest.importorskip("sympy")
    return sp.Matrix(6, 6, lambda a, b: m.extract(list(PAIRS[a]), list(PAIRS[b])).det())
