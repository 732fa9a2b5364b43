"""Symmetric eigensolvers: LAPACK for the pipeline, Jacobi for the toolbox.

`dense_eigenvalues` hands a symmetric matrix to LAPACK through
`numpy.linalg.eigvalsh`.  Both routes of the pipeline use it: spectrum
assembly on the order-m quotient matrices and `spectra.brute_spectrum`,
the oracle, on the full matrix of a graph.  An exactly symmetric float64
matrix goes to LAPACK as the caller's own array, with no copy; eigvalsh
never writes to its input.  Only a matrix asymmetric within SYMMETRY_TOL
is symmetrised into a new array.

`jacobi_eigen` and `jacobi_eigen_system` are a pure-Python cyclic Jacobi
solver for the small matrices of the combination and shift identities,
and the independent cross-check of the LAPACK quotient solves in the
tests.  Jacobi rotates a copy of its input in place, with a fixed
row-cyclic rotation order.  Convergence is declared when the off-diagonal
Frobenius norm falls to 1e-10 * (1 + ||M||_F); at most 100 full sweeps
are attempted and a non-converged run raises with the residual attached.
"""
from __future__ import annotations

import numpy as np

from ._jacobi_py import jacobi_sweeps as _jacobi_sweeps

# the solver behind both pipeline routes, reported by the benchmark
BACKEND = "lapack"

SYMMETRY_TOL = 1e-12
OFF_TOL_FACTOR = 1e-10
MAX_SWEEPS = 100

_EMPTY = np.zeros((1, 1))


class JacobiConvergenceError(RuntimeError):
    """Sweep budget exhausted before the off-diagonal norm reached target."""

    def __init__(self, residual, threshold, sweeps):
        self.residual = residual
        self.threshold = threshold
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi sweep did not converge: off-diagonal norm {residual:.3e} "
            f"above threshold {threshold:.3e} after {sweeps} sweeps"
        )


def _prepare(m):
    """m as a float64 square matrix, symmetric to the last bit.

    An exactly symmetric float64 input comes back as the caller's own
    array, uncopied; only an input asymmetric within SYMMETRY_TOL pays for
    |A - A^T| and (A + A^T) / 2."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a square matrix is required")
    if np.array_equal(a, a.T):
        return a
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_TOL:g}")
    return (a + a.T) / 2.0


def _solve(m, with_vectors, max_sweeps):
    a = np.array(_prepare(m), order="C")  # rotated in place: our own copy
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    off_tol = OFF_TOL_FACTOR * (1.0 + float(np.sqrt((a * a).sum())))
    v = np.eye(n) if with_vectors else _EMPTY
    sweeps, off = _jacobi_sweeps(a, v, off_tol, max_sweeps, with_vectors)
    if off > off_tol:
        raise JacobiConvergenceError(off, off_tol, sweeps)
    vals = np.diagonal(a).copy()
    order = np.argsort(vals, kind="stable")
    if with_vectors:
        return vals[order], v[:, order]
    return vals[order], None


def dense_eigenvalues(m) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK (eigvalsh),
    which reads the matrix without writing to it."""
    return [float(x) for x in np.linalg.eigvalsh(_prepare(m))]


def jacobi_eigen(m, max_sweeps: int = MAX_SWEEPS) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, as a plain list."""
    vals, _ = _solve(m, False, max_sweeps)
    return [float(x) for x in vals]


def jacobi_eigen_system(m, max_sweeps: int = MAX_SWEEPS):
    """(eigenvalues, eigenvectors): ascending values, orthonormal columns."""
    vals, vecs = _solve(m, True, max_sweeps)
    return vals, vecs
