"""O(N^2) direct summation: the reference the fast summation, and the
defect solver's FFT and window sums, are checked against.

It is deliberately simple and deterministic.  ``direct_sum`` computes
each potential as an exactly rounded sum (``math.fsum``) of its N kernel
terms, so results are independent of summation order and reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .config import check_charges
from .green import lattice_points, lattice_targets, phi


def direct_sum(points, charges, targets=None):
    """u_i = sum_j phi(t_i - m_j) q_j by brute force.

    targets defaults to the source points themselves.  Self-terms cost
    phi(0) = 0, so no exclusion is needed.  Raises ValueError for a
    non-integer coordinate or one outside int64, targets that are neither
    (M, 2) nor one (2,) point, and charges outside ``check_charges``.
    """
    pts = lattice_points(points, "points")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) integer array")
    q = check_charges(charges, pts.shape[0])
    tgt = pts if targets is None else lattice_targets(targets)
    out = np.empty(tgt.shape[0])
    for i, (tx, ty) in enumerate(tgt):
        vals = phi(tx - pts[:, 0], ty - pts[:, 1])
        out[i] = math.fsum(vals * q)
    return out
