"""The package's one symmetric eigensolver: LAPACK through numpy.

`dense_eigenvalues` hands a symmetric matrix to LAPACK through
`numpy.linalg.eigvalsh`.  Both routes of the pipeline use it: spectrum
assembly on the order-m quotient matrices and `spectra.brute_spectrum`,
the oracle, on the full matrix of a graph.  Each builds its matrix
exactly symmetric, and that matrix goes to LAPACK as the caller's own
array, with no copy; eigvalsh never writes to its input.  A matrix that
is not symmetric to the last bit, or has a NaN or infinite entry, is
refused.
"""
from __future__ import annotations

import numpy as np

# the solver behind both pipeline routes, reported by the benchmark
BACKEND = "lapack"


def _prepare(m):
    """m as a finite float64 square matrix, symmetric to the last bit: an
    exactly symmetric float64 input comes back as the caller's own array,
    uncopied."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a square matrix is required")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def dense_eigenvalues(m) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK (eigvalsh),
    which reads the matrix without writing to it."""
    return np.linalg.eigvalsh(_prepare(m)).tolist()
