"""Jacobi eigensolver: known spectra, numpy oracle, direct off-norm; the
LAPACK entry's symmetry check and its copy-free path."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgspectra import eig
from zdgspectra.eig import (
    JacobiConvergenceError,
    dense_eigenvalues,
    jacobi_eigen,
    jacobi_eigen_system,
)


def test_known_2x2():
    # [[0,1],[1,0]] has eigenvalues -1, 1
    assert jacobi_eigen([[0, 1], [1, 0]]) == pytest.approx([-1.0, 1.0])


def test_known_3x3_path():
    # path P_3 adjacency: eigenvalues -sqrt(2), 0, sqrt(2)
    vals = jacobi_eigen([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert vals == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-10)


def test_diagonal_passthrough():
    vals = jacobi_eigen(np.diag([3.0, -1.0, 2.0]))
    assert vals == pytest.approx([-1.0, 2.0, 3.0])


def test_empty_and_single():
    assert jacobi_eigen(np.zeros((0, 0))) == []
    assert jacobi_eigen([[5.0]]) == [5.0]


def test_values_ascending():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12))
    a = a + a.T
    vals = jacobi_eigen(a)
    assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_asymmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigen([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="square"):
        jacobi_eigen([[1.0, 2.0, 3.0]])


def test_nonconvergence_raises():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 30))
    a = a + a.T
    with pytest.raises(JacobiConvergenceError) as exc:
        jacobi_eigen(a, max_sweeps=1)
    assert exc.value.residual > exc.value.threshold
    assert exc.value.sweeps == 1


def test_eigen_system_residuals():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9, 16):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        vals, vecs = jacobi_eigen_system(a)
        # columns are orthonormal eigenvectors
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-9)
        for k in range(n):
            r = a @ vecs[:, k] - vals[k] * vecs[:, k]
            assert float(np.abs(r).max()) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_against_numpy_oracle(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-4, 5, size=(n, n)).astype(float)
    a = (a + a.T) / 2
    ours = np.array(jacobi_eigen(a))
    ref = np.linalg.eigvalsh(a)
    assert float(np.abs(ours - ref).max()) < 1e-8


def test_backend_is_reported():
    assert eig.BACKEND == "lapack"


def test_input_not_mutated():
    # an exactly symmetric float64 input reaches the solvers uncopied, so
    # Jacobi's in-place rotations must run on a copy of their own
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    before = a.copy()
    for solve in (jacobi_eigen, jacobi_eigen_system, dense_eigenvalues):
        solve(a)
        assert np.array_equal(a, before), solve.__name__


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


def test_python_kernel_off_norm_is_direct():
    """With a large diagonal and tiny off-diagonal entries, the off-norm
    Jacobi tests for convergence must be the direct one: computing it as
    sum(a*a) - sum(diag^2) cancels to 0 or to noise far above the truth."""
    rng = np.random.default_rng(5)
    n = 5
    off = rng.normal(scale=1e-8, size=(n, n))
    a = (off + off.T) / 2
    np.fill_diagonal(a, rng.uniform(5e2, 2e3, size=n))
    mask = ~np.eye(n, dtype=bool)
    direct = math.sqrt(float((a[mask] ** 2).sum()))
    reported = eig._off_norm(a)
    assert reported == pytest.approx(direct, rel=1e-12, abs=0.0)
