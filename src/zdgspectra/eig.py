"""Symmetric eigensolvers: LAPACK for the pipeline, Jacobi for the toolbox.

`dense_eigenvalues` hands a symmetric matrix to LAPACK through
`numpy.linalg.eigvalsh`.  Both routes of the pipeline use it: spectrum
assembly on the order-m quotient matrices and `spectra.brute_spectrum`,
the oracle, on the full matrix of a graph.  An exactly symmetric float64
matrix goes to LAPACK as the caller's own array, with no copy; eigvalsh
never writes to its input.  Only a matrix asymmetric within SYMMETRY_TOL
is symmetrised into a new array.

`jacobi_eigen_system` is a pure-Python cyclic Jacobi solver for the small
matrices of the combination and shift identities, and the independent
cross-check of the LAPACK quotient solves in the tests; `jacobi_eigen`
returns its eigenvalues as a list.  Jacobi rotates a copy of its input in
place, with a fixed row-cyclic rotation order, and accumulates the
rotations into the eigenvectors.  Convergence is declared when the
off-diagonal Frobenius norm falls to 1e-10 * (1 + ||M||_F); at most 100
full sweeps are attempted and a non-converged run raises with the
residual attached.
"""
from __future__ import annotations

import math

import numpy as np

# the solver behind both pipeline routes, reported by the benchmark
BACKEND = "lapack"

SYMMETRY_TOL = 1e-12
OFF_TOL_FACTOR = 1e-10
MAX_SWEEPS = 100


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


def dense_eigenvalues(m) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK (eigvalsh),
    which reads the matrix without writing to it."""
    return np.linalg.eigvalsh(_prepare(m)).tolist()


def _off_norm(a):
    # sum the off-diagonal squares directly: sum(a*a) - sum(diag^2) cancels
    # catastrophically once the off-diagonal part is small next to the diagonal
    off = a[~np.eye(a.shape[0], dtype=bool)]
    return math.sqrt(float(np.dot(off, off)))


def jacobi_eigen(m, max_sweeps: int = MAX_SWEEPS) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, as a plain list."""
    return jacobi_eigen_system(m, max_sweeps)[0].tolist()


def jacobi_eigen_system(m, max_sweeps: int = MAX_SWEEPS):
    """(eigenvalues, eigenvectors): ascending values, orthonormal columns.

    Runs full row-cyclic sweeps of (p, q) rotations on a copy of m until
    the off-diagonal Frobenius norm drops to the threshold, accumulating
    the rotations into the eigenvector matrix."""
    a = np.array(_prepare(m))  # rotated in place: our own copy
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    off_tol = OFF_TOL_FACTOR * (1.0 + float(np.sqrt((a * a).sum())))
    v = np.eye(n)
    sweeps = 0
    while (off := _off_norm(a)) > off_tol:
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(off, off_tol, sweeps)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                # when the pivot is negligible next to the diagonal gap the
                # angle is apq/diff to machine precision; this branch also
                # keeps tau*tau below overflow in the general formula
                if abs(diff) + 100.0 * abs(apq) == abs(diff):
                    t = apq / diff
                else:
                    tau = diff / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # A <- J^T A J for the (p, q) rotation J, and V <- V J
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        sweeps += 1
    vals = np.diagonal(a)
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]
