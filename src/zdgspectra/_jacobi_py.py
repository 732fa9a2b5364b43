"""Pure-Python cyclic Jacobi kernel behind `eig.jacobi_eigen`.

Row-cyclic (p, q) rotations with numpy slice updates doing the row and
column work.  It serves the small matrices of the combination and shift
identities and the tests' cross-check of the LAPACK quotient solves.
"""
from __future__ import annotations

import math

import numpy as np


def _off_norm(a):
    # sum the off-diagonal squares directly: sum(a*a) - sum(diag^2) cancels
    # catastrophically once the off-diagonal part is small next to the diagonal
    off = a[~np.eye(a.shape[0], dtype=bool)]
    return math.sqrt(float(np.dot(off, off)))


def jacobi_sweeps(a, v, off_tol, max_sweeps, with_vectors):
    """Diagonalize the symmetric matrix a in place.

    Runs full row-cyclic sweeps of (p, q) rotations until the off-diagonal
    Frobenius norm drops to off_tol or max_sweeps is hit.  When
    with_vectors is set, v accumulates the rotations so its columns end up
    as eigenvectors.  Returns (sweeps_done, final_off_norm).
    """
    n = a.shape[0]
    sweeps = 0
    while True:
        off = _off_norm(a)
        if off <= off_tol or sweeps >= max_sweeps:
            return sweeps, off
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
                # A <- J^T A J for the (p, q) rotation J
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                if with_vectors:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = c * vp - s * vq
                    v[:, q] = s * vp + c * vq
        sweeps += 1
