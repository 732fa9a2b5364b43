"""The one eigensolver, `dense_eigenvalues`: known spectra, the symmetry
and finiteness checks, and its copy-free path to LAPACK."""

import math
import tracemalloc

import numpy as np
import pytest

from zdgspectra import eig
from zdgspectra.eig import dense_eigenvalues


def test_known_2x2():
    # [[0,1],[1,0]] has eigenvalues -1, 1
    assert dense_eigenvalues([[0, 1], [1, 0]]) == pytest.approx([-1.0, 1.0])


def test_known_3x3_path():
    # path P_3 adjacency: eigenvalues -sqrt(2), 0, sqrt(2)
    vals = dense_eigenvalues([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert vals == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-10)


def test_diagonal_passthrough():
    vals = dense_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert vals == pytest.approx([-1.0, 2.0, 3.0])


def test_empty_and_single():
    assert dense_eigenvalues(np.zeros((0, 0))) == []
    assert dense_eigenvalues([[5.0]]) == [5.0]


def test_values_ascending():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12))
    a = a + a.T
    vals = dense_eigenvalues(a)
    assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_asymmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        dense_eigenvalues([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="square"):
        dense_eigenvalues([[1.0, 2.0, 3.0]])


def test_non_finite_rejected():
    # a NaN fails the exact-symmetry test and then passes the tolerance
    # test (nan > tol is False), so only an explicit check refuses it
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dense_eigenvalues([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        dense_eigenvalues([[math.nan]])


def test_backend_is_reported():
    assert eig.BACKEND == "lapack"


def test_input_not_mutated():
    # an exactly symmetric float64 input reaches LAPACK uncopied
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    before = a.copy()
    dense_eigenvalues(a)
    assert np.array_equal(a, before)


def test_dense_symmetric_input_is_bit_identical_to_eigvalsh():
    rng = np.random.default_rng(17)
    for n in (1, 4, 30):
        a = rng.normal(size=(n, n))
        a = a + a.T
        assert dense_eigenvalues(a) == np.linalg.eigvalsh(a).tolist()


def test_dense_small_asymmetry_is_symmetrised():
    # eigvalsh reads the lower triangle: unsymmetrised it would see 0.5 + 1e-13
    b = np.array([[0.0, 0.5], [0.5 + 1e-13, 0.0]])
    vals = dense_eigenvalues(b)
    assert vals == np.linalg.eigvalsh((b + b.T) / 2).tolist()
    assert vals != np.linalg.eigvalsh(b).tolist()


def test_dense_large_asymmetry_rejected():
    b = np.array([[0.0, 0.5], [0.5 + 1e-11, 0.0]])
    with pytest.raises(ValueError, match="not symmetric within 1e-12"):
        dense_eigenvalues(b)
    with pytest.raises(ValueError, match="square"):
        dense_eigenvalues(np.zeros((2, 3)))


def test_dense_symmetric_input_is_not_copied():
    m = 1500
    a = np.random.default_rng(19).normal(size=(m, m))
    a = a + a.T
    tracemalloc.start()
    try:
        dense_eigenvalues(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the exact-symmetry check's bool temporary is m*m bytes, 0.125 * m*m*8
    assert peak <= 0.25 * m * m * 8
