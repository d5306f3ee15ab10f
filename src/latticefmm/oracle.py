"""O(N^2) direct summation: the reference the fast summation is checked
against, and the sum ``defect.apply_S`` uses for a few charges.

It is deliberately simple and deterministic.  ``direct_sum`` computes
each potential as an exactly rounded sum (``math.fsum``) of its N kernel
terms, so results are independent of summation order and reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .green import phi


def direct_sum(points, charges, targets=None):
    """u_i = sum_j phi(t_i - m_j) q_j by brute force.

    targets defaults to the source points themselves.  Self-terms cost
    phi(0) = 0, so no exclusion is needed.
    """
    pts = np.asarray(points, dtype=np.int64)
    q = np.asarray(charges, dtype=np.float64)
    if pts.shape[0] != q.shape[0]:
        raise ValueError("points and charges length mismatch")
    tgt = pts if targets is None else np.asarray(targets, dtype=np.int64)
    out = np.empty(tgt.shape[0])
    for i, (tx, ty) in enumerate(tgt):
        vals = phi(tx - pts[:, 0], ty - pts[:, 1])
        out[i] = math.fsum(vals * q)
    return out
