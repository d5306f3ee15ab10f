"""Node-space formulation of the defect solve, as an independent reference.

With u = v - S(B v + mu), the unknown mu on the defect nodes solves

    mu + B S mu = -B S B v,

applied matrix-free: every GMRES product sums S exactly by
``oracle.direct_sum`` and applies B by its bar formula through node-keyed
dicts.  It shares no kernel code with ``solve_defect``, which solves the
equivalent bar-space system from a phi window.

``exact_rcond`` is the 1-norm reciprocal condition number that
``solve_defect``'s guard computes, from scipy's inverse.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, inv
from scipy.sparse.linalg import LinearOperator, gmres

from latticefmm.defect import apply_B
from latticefmm.oracle import direct_sum


def node_space_solve(spec, far, tol=1e-8, queries=None, max_iter=200) -> dict:
    """Potential at the queries (default: the defect nodes), as a dict."""
    c1, c2 = float(far[0]), float(far[1])
    query_nodes = list(spec.nodes) if queries is None else [tuple(p) for p in queries]
    nodes = spec.nodes
    node_arr = np.array(nodes, dtype=np.int64)
    bv = apply_B(spec, {p: c1 * p[0] + c2 * p[1] for p in nodes})
    bv_vec = np.array([bv[p] for p in nodes])

    def b_of_s(charge_vec):
        s_vals = direct_sum(node_arr, charge_vec)
        img = apply_B(spec, {p: s_vals[i] for i, p in enumerate(nodes)})
        return np.array([img[p] for p in nodes])

    op = LinearOperator(
        (len(nodes), len(nodes)), matvec=lambda mu: mu + b_of_s(mu), dtype=np.float64
    )
    mu, info = gmres(
        op,
        -b_of_s(bv_vec),
        rtol=tol,
        atol=0.0,
        restart=min(len(nodes), max_iter),
        maxiter=max_iter,
    )
    if info != 0:
        raise RuntimeError("node-space reference did not converge")
    correction = direct_sum(
        node_arr, bv_vec + mu, targets=np.array(query_nodes, dtype=np.int64)
    )
    return {
        p: c1 * p[0] + c2 * p[1] - correction[i] for i, p in enumerate(query_nodes)
    }


def exact_rcond(mat) -> float:
    """1 / (||mat||_1 ||mat^-1||_1); 0 for an exactly singular mat."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)  # ill-conditioned
        try:
            mat_inv = inv(mat, check_finite=False)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            return 0.0
    return 1.0 / (np.abs(mat).sum(axis=0).max() * np.abs(mat_inv).sum(axis=0).max())
