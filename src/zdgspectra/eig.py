"""The package's one symmetric eigensolver: LAPACK through numpy.

`dense_eigenvalues` hands a symmetric matrix to LAPACK through
`numpy.linalg.eigvalsh`.  Both routes of the pipeline use it: spectrum
assembly on the order-m quotient matrices and `spectra.brute_spectrum`,
the oracle, on the full matrix of a graph; so do the combination and
shift identities of `spectra`.  An exactly symmetric float64 matrix goes
to LAPACK as the caller's own array, with no copy; eigvalsh never writes
to its input.  Only a matrix asymmetric within SYMMETRY_TOL is
symmetrised into a new array, and a matrix with a NaN or infinite entry
is refused.
"""
from __future__ import annotations

import numpy as np

# the solver behind both pipeline routes, reported by the benchmark
BACKEND = "lapack"

SYMMETRY_TOL = 1e-12


def _prepare(m):
    """m as a finite float64 square matrix, symmetric to the last bit.

    An exactly symmetric float64 input comes back as the caller's own
    array, uncopied; only an input asymmetric within SYMMETRY_TOL pays for
    |A - A^T| and (A + A^T) / 2."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a square matrix is required")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if np.array_equal(a, a.T):
        return a
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_TOL:g}")
    return (a + a.T) / 2.0


def dense_eigenvalues(m) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK (eigvalsh),
    which reads the matrix without writing to it."""
    return np.linalg.eigvalsh(_prepare(m)).tolist()
