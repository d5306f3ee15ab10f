"""Node-space formulation of the defect solve, as an independent reference.

With u = v - S(B v + mu), the unknown mu on the defect nodes solves

    mu + B S mu = -B S B v,

applied matrix-free: every GMRES product sums S by ``apply_S`` and applies
B by its bar formula through node-keyed dicts.  It shares no assembly code
with ``solve_defect``, which solves the equivalent bar-space system.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from latticefmm.config import DEFAULT_EPS
from latticefmm.defect import apply_B, apply_S


def node_space_solve(
    spec, far, tol=1e-8, queries=None, eps=DEFAULT_EPS, max_iter=200
) -> dict:
    """Potential at the queries (default: the defect nodes), as a dict."""
    c1, c2 = float(far[0]), float(far[1])
    query_nodes = list(spec.nodes) if queries is None else [tuple(p) for p in queries]
    nodes = spec.nodes
    node_arr = np.array(nodes, dtype=np.int64)
    bv = apply_B(spec, {p: c1 * p[0] + c2 * p[1] for p in nodes})
    bv_vec = np.array([bv[p] for p in nodes])

    def b_of_s(charge_vec):
        s_vals = apply_S(node_arr, charge_vec, node_arr, eps=eps)
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
    correction = apply_S(
        node_arr, bv_vec + mu, np.array(query_nodes, dtype=np.int64), eps=eps
    )
    return {
        p: c1 * p[0] + c2 * p[1] - correction[i] for i, p in enumerate(query_nodes)
    }
