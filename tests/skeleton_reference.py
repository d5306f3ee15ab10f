"""Column interpolative decompositions, as references.

``latticefmm.skeleton.interpolative_decomposition`` computes the ID with
its own pivoted Householder QR in numpy, so the solver needs no scipy.
``reference_id`` is the ID it replaced, computed by scipy's
``qr(pivoting=True)`` (LAPACK ``dgeqp3``) with the same rank rule; the tests
compare the two.  ``householder_id`` is the numpy loop as first written,
with fancy-indexed pivot swaps and ``np.outer`` updates: its output is
the one the operator chains were built from, and the tests pin
``interpolative_decomposition`` to it bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr, solve_triangular


def reference_id(a: np.ndarray, eps: float):
    """Column ID: a ~= a[:, idx] @ t with relative Frobenius error <= eps.

    Rank is chosen as the smallest k whose pivoted-QR trailing block
    satisfies ||R[k:, k:]||_F <= eps ||a||_F.  Returns (idx, t) with
    t[:, idx] the identity.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if n == 0 or m == 0:
        return np.empty(0, dtype=np.int64), np.zeros((0, n))
    _, r, perm = qr(a, mode="economic", pivoting=True)
    # ||R[k:, k:]||_F^2 telescopes over rows: row i of R lives in columns
    # >= i, so the trailing norm is a suffix sum of squared row norms.
    row_sq = np.einsum("ij,ij->i", r, r)
    suffix = np.concatenate([np.cumsum(row_sq[::-1])[::-1], [0.0]])
    thresh = eps * eps * suffix[0]
    k = int(np.argmax(suffix <= thresh))
    t = np.zeros((k, n))
    t[np.arange(k), perm[:k]] = 1.0
    if 0 < k < n:
        t[:, perm[k:]] = solve_triangular(r[:k, :k], r[:k, k:], lower=False)
    return perm[:k].astype(np.int64).copy(), t


def householder_id(a: np.ndarray, eps: float):
    """``skeleton.interpolative_decomposition`` as first written: the same
    pivoted Householder QR, stopped at the same rank, step by step."""
    r = np.array(a, dtype=np.float64)
    m, n = r.shape
    perm = np.arange(n)
    thresh = eps * eps * np.einsum("ij,ij->", r, r)
    k = 0
    while k < min(m, n):
        sub = r[k:, k:]
        col_sq = np.einsum("ij,ij->j", sub, sub)
        if col_sq.sum() <= thresh:
            break
        j = k + int(np.argmax(col_sq))
        r[:, [k, j]] = r[:, [j, k]]
        perm[[k, j]] = perm[[j, k]]
        norm = np.sqrt(col_sq[j - k])
        alpha = -norm if r[k, k] >= 0 else norm
        v = r[k:, k].copy()
        v[0] -= alpha
        rest = r[k:, k + 1 :]
        rest -= np.outer(v * (2.0 / (v @ v)), v @ rest)
        r[k, k] = alpha
        r[k + 1 :, k] = 0.0
        k += 1
    t = np.zeros((k, n))
    t[np.arange(k), perm[:k]] = 1.0
    if 0 < k < n:
        x = r[:k, k:].copy()
        for i in range(k - 1, -1, -1):
            x[i] -= r[i, i + 1 : k] @ x[i + 1 :]
            x[i] /= r[i, i]
        t[:, perm[k:]] = x
    return perm[:k].copy(), t
