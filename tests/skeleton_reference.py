"""Column interpolative decomposition by LAPACK's pivoted QR, as a reference.

``latticefmm.skeleton.interpolative_decomposition`` computes the same ID
with its own pivoted Householder QR in numpy, so the solver needs no
scipy.  This is the ID it replaced, computed by scipy's ``qr(pivoting=True)``
(LAPACK ``dgeqp3``) with the same rank rule; the tests compare the two.
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
