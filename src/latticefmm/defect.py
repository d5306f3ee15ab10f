"""Solver for locally perturbed lattices.

The perfect-lattice equation A u = 0 is modified by a local operator B that
encodes bar (edge) conductivity changes: removals, strengthenings, or added
links.  Given a discrete-harmonic far field v (here linear, v = c1 m1 +
c2 m2), the perturbed problem

    (A + B) u = 0,   u -> v at infinity,

reduces to a small dense system on the affected nodes.  Writing u = v + S w
with S the free-space solution operator (convolution with the Green
function) and using A S w = w for finitely supported w, one gets
w = -(B v + mu) where mu solves

    mu + B S mu = -B S B v      (unknown mu supported on the defect set).

The system is applied matrix-free: each Krylov iteration evaluates S by
fast (or, at desk scale, direct) summation and B by its bar formula.  The
potential is then recovered anywhere as u = v - S(B v + mu).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .config import DEFAULT_EPS
from .fmm import fmm_apply
from .green import GreensTable, default_table
from .oracle import direct_sum

# Below this many charges, S is summed directly instead of via the FMM.
DIRECT_S_THRESHOLD = 600

_UNIT_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class DefectSpec:
    """Bar modifications: (node_a, node_b, delta_conductivity) triples.

    A unit bar (|a-b|_1 = 1) exists in the perfect lattice with
    conductivity 1, so delta >= -1, with -1 meaning full removal.  Longer
    links do not pre-exist, so their delta must be nonnegative.  Repeated
    pairs accumulate.  Every delta must be finite.  A region that the
    removed bars cut off from the rest of the lattice has an undetermined
    potential, and is rejected as disconnected.
    """

    def __init__(self, bars):
        combined: dict[tuple, float] = {}
        for a, b, dc in bars:
            a = (int(a[0]), int(a[1]))
            b = (int(b[0]), int(b[1]))
            if a == b:
                raise ValueError(f"bar endpoints coincide: {a}")
            key = (a, b) if a <= b else (b, a)
            combined[key] = combined.get(key, 0.0) + float(dc)
        self.bars = [(a, b, dc) for (a, b), dc in sorted(combined.items())]
        removed = set()
        added: dict[tuple, list] = {}
        for a, b, dc in self.bars:
            if not math.isfinite(dc):
                raise ValueError(f"bar {a}-{b}: delta {dc} is not finite")
            unit = abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            if unit:
                if dc < -1.0:
                    raise ValueError(
                        f"bar {a}-{b}: delta {dc} below full removal (-1)"
                    )
                if dc == -1.0:
                    removed.add((a, b))
            elif dc < 0.0:
                raise ValueError(
                    f"added link {a}-{b} must have nonnegative delta, got {dc}"
                )
            elif dc > 0.0:
                added.setdefault(a, []).append(b)
                added.setdefault(b, []).append(a)
        _reject_islands(removed, added)
        self.nodes = sorted({p for a, b, _ in self.bars for p in (a, b)})
        self._node_pos = {p: i for i, p in enumerate(self.nodes)}

    def __len__(self) -> int:
        return len(self.bars)


def _reject_islands(removed: set, added: dict) -> None:
    """Raise ValueError if some nodes form a finite component of the lattice
    without the ``removed`` bars (sorted node pairs) plus the ``added`` links.

    An island must be cut off by removed bars, so it holds an endpoint of
    one.  An island of n nodes is cut off by at least 4 sqrt(n) bars (the
    lattice isoperimetric inequality), so a search from an endpoint that
    reaches more than len(removed)**2 / 16 nodes has left every island.
    """
    max_island = len(removed) ** 2 // 16
    unbounded: set = set()
    for start in sorted({p for bar in removed for p in bar}):
        seen = {start}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            if p in unbounded or len(seen) > max_island:
                unbounded |= seen
                break
            steps = [(p[0] + dx, p[1] + dy) for dx, dy in _UNIT_STEPS]
            for q in steps + added.get(p, []):
                bar = (p, q) if p <= q else (q, p)
                if q not in seen and bar not in removed:
                    seen.add(q)
                    queue.append(q)
        else:
            raise ValueError(
                f"node {start} lies in a disconnected region of size {len(seen)}"
            )


def apply_B(spec: DefectSpec, w) -> dict:
    """(B w)(a) = sum over bars at a of delta_c (w(a) - w(b)); zero elsewhere.

    w maps lattice nodes to values and must cover every bar endpoint.
    """
    out = {p: 0.0 for p in spec.nodes}
    for a, b, dc in spec.bars:
        try:
            wa, wb = w[a], w[b]
        except KeyError as missing:
            raise KeyError(f"w is missing node {missing.args[0]}") from None
        out[a] += dc * (wa - wb)
        out[b] += dc * (wb - wa)
    return out


def apply_S(
    points,
    charges,
    targets,
    eps: float = DEFAULT_EPS,
    table: GreensTable | None = None,
) -> np.ndarray:
    """[S q](t) = sum_j phi(t - m_j) q_j at the requested targets."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] == 0:
        return np.zeros(np.asarray(targets).shape[0])
    if table is None:
        table = default_table()
    if pts.shape[0] <= DIRECT_S_THRESHOLD:
        return direct_sum(pts, charges, targets=targets, table=table)
    return fmm_apply(pts, charges, targets=targets, eps=eps, table=table)


def _far_field_values(far, nodes) -> dict:
    c1, c2 = float(far[0]), float(far[1])
    return {p: c1 * p[0] + c2 * p[1] for p in nodes}


def solve_defect(
    spec: DefectSpec,
    far,
    tol: float = 1e-8,
    queries=None,
    eps: float = DEFAULT_EPS,
    table: GreensTable | None = None,
    max_iter: int = 200,
) -> dict:
    """Potential of the perturbed lattice at the queried nodes.

    far = (c1, c2) defines the linear far field v.  The reduced system is
    solved by unrestarted GMRES to relative residual tol; all queried
    nodes are then evaluated in one S application.
    """
    if not (math.isfinite(far[0]) and math.isfinite(far[1])):
        raise ValueError(f"far field must be finite, got {tuple(far)}")
    if tol < 10 * eps:
        raise ValueError(f"tol {tol} must be at least 10x the summation eps {eps}")
    if table is None:
        table = default_table()
    if queries is None:
        query_nodes = list(spec.nodes)
    else:
        query_nodes = [(int(p[0]), int(p[1])) for p in queries]
    if len(spec) == 0:
        vals = _far_field_values(far, query_nodes)
        return {p: vals[p] for p in query_nodes}

    nodes = spec.nodes
    node_arr = np.array(nodes, dtype=np.int64)
    v = _far_field_values(far, nodes)
    bv = apply_B(spec, v)
    bv_vec = np.array([bv[p] for p in nodes])

    def b_of_s(charge_vec: np.ndarray) -> np.ndarray:
        s_vals = apply_S(node_arr, charge_vec, node_arr, eps=eps, table=table)
        s_map = {p: s_vals[i] for i, p in enumerate(nodes)}
        img = apply_B(spec, s_map)
        return np.array([img[p] for p in nodes])

    rhs = -b_of_s(bv_vec)
    op = LinearOperator(
        (len(nodes), len(nodes)),
        matvec=lambda mu: mu + b_of_s(mu),
        dtype=np.float64,
    )
    mu, info = gmres(
        op,
        rhs,
        rtol=tol,
        atol=0.0,
        restart=min(len(nodes), max_iter),
        maxiter=max_iter,
    )
    if info != 0:
        raise RuntimeError(
            "defect solve did not converge; the modification may be "
            "singular (e.g. a disconnected region)"
        )

    w = bv_vec + mu  # u = v - S(Bv + mu)
    q_arr = np.array(query_nodes, dtype=np.int64) if query_nodes else node_arr
    correction = apply_S(node_arr, w, q_arr, eps=eps, table=table)
    v_query = _far_field_values(far, query_nodes)
    return {
        p: v_query[p] - correction[i] for i, p in enumerate(query_nodes)
    }
