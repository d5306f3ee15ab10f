"""Dense references for the fast summation, and the scaling-slope fit.

``direct_near_field`` sums one leaf's near field box by box through the
definitional lists of ``tree_reference``; ``dense_solve_truncated`` is a
windowed convolution with an explicitly assembled kernel matrix.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from latticefmm.skeleton import kernel_matrix
from latticefmm.tree import QuadTree

from tree_reference import box_by_id, locate_id, neighbor_ids

DENSE_SOLVE_MAX_UNKNOWNS = 3000


def direct_near_field(tree: QuadTree, box_id: int, charges):
    """Near-field partial potentials for one leaf box.

    Returns (point_indices, partial_u): the box's points (original indexing)
    and the directly summed contribution of sources in the box itself and
    its neighbor leaves.
    """
    box = box_by_id(tree, box_id)
    if box.level != tree.L:
        raise ValueError("near field is defined on leaf boxes")
    q = np.asarray(charges, dtype=np.float64)
    t_idx = box.point_index
    t_pts = tree.points[t_idx]
    u = np.zeros(len(t_idx))
    level, rx, ry = locate_id(tree, box_id)
    for sid in [box_id] + neighbor_ids(level, rx, ry):
        s_idx = box_by_id(tree, sid).point_index
        if s_idx.size == 0:
            continue
        u += kernel_matrix(t_pts, tree.points[s_idx]) @ q[s_idx]
    return t_idx, u


def dense_solve_truncated(rhs: Mapping, window_radius: int) -> dict:
    """Free-space convolution u = phi * f restricted to a square window.

    rhs maps lattice points (tuples) to charges.  The window is the square
    of max-norm radius window_radius around the rounded centroid of the
    rhs support; all support points must fall inside it.  Desk-scale only:
    the dense kernel matrix is assembled explicitly, so the window is
    capped at 3000 unknowns.
    """
    if not rhs:
        return {}
    support = np.array(sorted(rhs.keys()), dtype=np.int64)
    center = np.round(support.mean(axis=0)).astype(np.int64)
    r = int(window_radius)
    n_side = 2 * r + 1
    if n_side * n_side > DENSE_SOLVE_MAX_UNKNOWNS:
        raise ValueError(
            f"window of {n_side * n_side} unknowns exceeds the "
            f"{DENSE_SOLVE_MAX_UNKNOWNS} dense-solve cap"
        )
    if np.any(np.abs(support - center) > r):
        raise ValueError("rhs support extends outside the window")
    xs = np.arange(center[0] - r, center[0] + r + 1)
    ys = np.arange(center[1] - r, center[1] + r + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    window = np.column_stack([gx.ravel(), gy.ravel()])
    f = np.zeros(window.shape[0])
    pos = {(int(x), int(y)): i for i, (x, y) in enumerate(window)}
    for p, val in rhs.items():
        f[pos[(int(p[0]), int(p[1]))]] = val
    u = kernel_matrix(window, window) @ f
    return {(int(x), int(y)): float(v) for (x, y), v in zip(window, u)}


def estimate_complexity(runs) -> dict:
    """Least-squares slope of log wall-time against log problem size.

    runs: iterable of (n_source, wall_time) pairs from geometrically
    increasing problem sizes; at least 3 are required.
    """
    data = sorted((int(n), float(t)) for n, t in runs)
    if len(data) < 3:
        raise ValueError("insufficient data points: need at least 3 runs")
    n = np.array([d[0] for d in data], dtype=float)
    t = np.array([d[1] for d in data], dtype=float)
    if np.any(n <= 0) or np.any(t <= 0):
        raise ValueError("sizes and timings must be positive")
    slope, intercept = np.polyfit(np.log(n), np.log(t), 1)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "runs": data,
    }
