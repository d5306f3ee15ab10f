"""Five-pass fast summation of u = phi * q over scattered lattice charges.

The work is O(N_source): an upward pass compresses charges into per-box
outgoing expansions (leaf T_ofs, then T_ofo up the tree), interaction-list
translations turn outgoing into incoming expansions (T_ifo), and a downward
pass broadcasts and expands them back to point potentials (T_ifi, then
T_tfi), with directly summed near-field corrections from the Green table.

Only occupied boxes are touched; all per-level work is batched into dense
matrix products over Morton-sorted arrays.
"""

from __future__ import annotations

import time

import numpy as np

from .config import DEFAULT_EPS, DEFAULT_NLEAF, DEFAULT_PROXY_PER_EDGE, check_eps
from .green import GreensTable, default_table
from .skeleton import kernel_matrix, shared_chain
from .tree import INTERACTION_OFFSETS, QuadTree, build_tree, morton_key

# Largest number of merged points solved by a single dense product when the
# tree is too shallow for any interaction list to exist.
_DENSE_FALLBACK_LIMIT = 1 << 20

_NEAR_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))

# valid[d][py][px]: whether interaction offset d applies to a box whose
# rank coordinates have parity (px, py) (parents must end up adjacent).
_OFFSET_PARITY_VALID = np.array(
    [
        [
            [
                -1 <= (px + dx) // 2 <= 1 and -1 <= (py + dy) // 2 <= 1
                for px in (0, 1)
            ]
            for py in (0, 1)
        ]
        for dx, dy in INTERACTION_OFFSETS
    ]
)


def _leaf_side_cap(table: GreensTable) -> int:
    # Near-field displacements must stay inside the table: keep the leaf
    # side at most R_table/3, rounded down to a power of two.
    third = max(table.radius // 3, 1)
    return 1 << (third.bit_length() - 1)


def _merge_targets(points, charges, targets):
    """Union source and extra target points; extra rows carry zero charge."""
    pts = np.asarray(points, dtype=np.int64)
    q = np.asarray(charges, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (N, 2) integer array")
    if pts.shape[0] != q.shape[0]:
        raise ValueError("points and charges length mismatch")
    if not np.all(np.isfinite(q)):
        raise ValueError("charges must be finite")
    if targets is None:
        return pts, q, None
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1, 2)
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValueError("duplicate lattice points")
    stacked = np.vstack([pts, tgt])
    all_pts, inverse = np.unique(stacked, axis=0, return_inverse=True)
    q_full = np.zeros(all_pts.shape[0])
    np.add.at(q_full, inverse[: pts.shape[0]], q)
    return all_pts, q_full, inverse[pts.shape[0] :]


class FmmRun:
    """One assembled solve: tree + operators + bookkeeping counters."""

    def __init__(
        self,
        tree: QuadTree,
        eps: float,
        table: GreensTable,
        per_edge: int = DEFAULT_PROXY_PER_EDGE,
    ):
        self.tree = tree
        self.eps = eps
        self.table = table
        self.per_edge = per_edge
        self.leaf_side = tree.side_of(tree.L)
        self.chain = None
        if tree.L >= 2:
            self.chain = shared_chain(eps, self.leaf_side, table, per_edge)
            self.chain.ensure(tree.side_of(2))
        self.near_pairs = 0
        self.leaf_ofs_entries = 0

    def _ops(self, level: int):
        return self.chain.ops[self.tree.side_of(level)]

    # -- passes ----------------------------------------------------------

    def _leaf_geometry(self):
        tree = self.tree
        lvl = tree.L
        counts = np.diff(tree.ptr[lvl])
        slot_of_point = np.repeat(np.arange(len(counts)), counts)
        rx, ry = tree.coords[lvl]
        s = self.leaf_side
        local = tree.rel_sorted - np.column_stack([rx, ry])[slot_of_point] * s
        lin = local[:, 0] * s + local[:, 1]
        return counts, slot_of_point, lin

    def _upward(self, q_sorted, slot_of_point, lin):
        tree = self.tree
        interp = self._ops(tree.L).skeleton.interp
        k = interp.shape[0]
        n_leaves = len(tree.codes[tree.L])
        outgoing = {tree.L: np.zeros((n_leaves, k))}
        # Pass 1: scatter charges onto the dense leaf stencil, one GEMM per
        # chunk of leaves.
        s2 = self.leaf_side * self.leaf_side
        ptr = tree.ptr[tree.L]
        chunk = max(1, (1 << 22) // max(s2, 1))
        for lo in range(0, n_leaves, chunk):
            hi = min(lo + chunk, n_leaves)
            plo, phi_ = ptr[lo], ptr[hi]
            dense = np.zeros(((hi - lo), s2))
            np.add.at(
                dense,
                (slot_of_point[plo:phi_] - lo, lin[plo:phi_]),
                q_sorted[plo:phi_],
            )
            outgoing[tree.L][lo:hi] = dense @ interp.T
        self.leaf_ofs_entries += int(k) * int(len(q_sorted))
        # Pass 2: merge children upward.
        for lvl in range(tree.L - 1, 1, -1):
            ops_parent = self._ops(lvl)
            t_ofo = ops_parent.t_ofo
            kp = ops_parent.skeleton.rank
            up = np.zeros((len(tree.codes[lvl]), kp))
            child_codes = tree.codes[lvl + 1]
            quad = (child_codes & 3).astype(np.int64)
            child_out = outgoing[lvl + 1]
            parents = tree.parent_index[lvl + 1]
            for qd in range(4):
                mask = quad == qd
                if np.any(mask):
                    up[parents[mask]] += child_out[mask] @ t_ofo[qd].T
            outgoing[lvl] = up
        return outgoing

    def _interactions(self, outgoing):
        tree = self.tree
        incoming = {}
        for lvl in range(2, tree.L + 1):
            ops = self._ops(lvl)
            side_boxes = 1 << lvl
            codes = tree.codes[lvl]
            rx, ry = tree.coords[lvl]
            parity_x = (rx & 1).astype(np.int64)
            parity_y = (ry & 1).astype(np.int64)
            inc = np.zeros_like(outgoing[lvl])
            for d, (dx, dy) in enumerate(INTERACTION_OFFSETS):
                valid = _OFFSET_PARITY_VALID[d][parity_y, parity_x]
                sx = rx + dx
                sy = ry + dy
                valid &= (sx >= 0) & (sx < side_boxes) & (sy >= 0) & (sy < side_boxes)
                if not np.any(valid):
                    continue
                keys = morton_key(sx[valid], sy[valid])
                j = np.searchsorted(codes, keys)
                j[j >= len(codes)] = 0
                found = codes[j] == keys
                if not np.any(found):
                    continue
                rows = np.flatnonzero(valid)[found]
                inc[rows] += outgoing[lvl][j[found]] @ ops.t_ifo[d].T
            incoming[lvl] = inc
            if lvl > 2:
                del outgoing[lvl]
        return incoming

    def _downward(self, incoming):
        tree = self.tree
        for lvl in range(2, tree.L):
            t_ofo = self._ops(lvl).t_ofo
            child_codes = tree.codes[lvl + 1]
            quad = (child_codes & 3).astype(np.int64)
            parents = tree.parent_index[lvl + 1]
            for qd in range(4):
                mask = quad == qd
                if np.any(mask):
                    # T_ifi is T_ofo transposed; row-vector form keeps it direct.
                    incoming[lvl + 1][mask] += incoming[lvl][parents[mask]] @ t_ofo[qd]
            del incoming[lvl]
        return incoming[tree.L]

    def _expand_to_points(self, inc_leaf, slot_of_point, lin):
        interp = self._ops(self.tree.L).skeleton.interp
        return np.einsum("ij,ji->i", inc_leaf[slot_of_point], interp[:, lin])

    def _near_field(self, q_sorted, counts, slot_of_point):
        tree = self.tree
        lvl = tree.L
        codes = tree.codes[lvl]
        rx, ry = tree.coords[lvl]
        side_boxes = 1 << lvl
        ptr = tree.ptr[lvl]
        n_pts = len(q_sorted)
        u = np.zeros(n_pts)
        grid = self.table.dense_grid()
        radius = self.table.radius
        if lvl > 0 and 2 * self.leaf_side - 1 > radius:
            raise AssertionError("near-field displacement would exceed the table")
        starts = ptr[:-1]
        for dx, dy in _NEAR_OFFSETS:
            sx = rx + dx
            sy = ry + dy
            valid = (sx >= 0) & (sx < side_boxes) & (sy >= 0) & (sy < side_boxes)
            if not np.any(valid):
                continue
            keys = morton_key(sx[valid], sy[valid])
            j = np.searchsorted(codes, keys)
            j[j >= len(codes)] = 0
            found = codes[j] == keys
            if not np.any(found):
                continue
            t_slots = np.flatnonzero(valid)[found]
            s_slots = j[found]
            ct = counts[t_slots]
            cs = counts[s_slots]
            tot = ct * cs
            self.near_pairs += int(tot.sum())
            # Expand ragged block pairs in bounded chunks.
            block_end = np.cumsum(tot)
            chunk = 1 << 22
            lo_b = 0
            while lo_b < len(tot):
                prev = block_end[lo_b] - tot[lo_b]
                hi_b = int(np.searchsorted(block_end, prev + chunk, side="right"))
                hi_b = min(max(hi_b, lo_b + 1), len(tot))
                sel = slice(lo_b, hi_b)
                tot_sel = tot[sel]
                base = np.cumsum(tot_sel) - tot_sel
                blk = np.repeat(np.arange(hi_b - lo_b), tot_sel)
                r = np.arange(int(tot_sel.sum())) - base[blk]
                cs_blk = cs[sel][blk]
                p = starts[t_slots[sel]][blk] + r // cs_blk
                qdx = starts[s_slots[sel]][blk] + r % cs_blk
                du = tree.rel_sorted[p] - tree.rel_sorted[qdx]
                vals = grid[du[:, 0] + radius, du[:, 1] + radius] * q_sorted[qdx]
                u += np.bincount(p, weights=vals, minlength=n_pts)
                lo_b = hi_b
        return u

    def apply(self, q_full) -> np.ndarray:
        tree = self.tree
        q_sorted = np.asarray(q_full, dtype=np.float64)[tree.order]
        counts, slot_of_point, lin = self._leaf_geometry()
        if tree.L >= 2:
            outgoing = self._upward(q_sorted, slot_of_point, lin)
            incoming = self._interactions(outgoing)
            inc_leaf = self._downward(incoming)
            u_sorted = self._expand_to_points(inc_leaf, slot_of_point, lin)
        else:
            u_sorted = np.zeros(len(q_sorted))
        u_sorted += self._near_field(q_sorted, counts, slot_of_point)
        out = np.empty_like(u_sorted)
        out[tree.order] = u_sorted
        return out

    def stored_operator_entries(self) -> int:
        """Operator data instantiated for this problem (O(N_source)).

        Counts the per-point leaf interpolation columns and the near-field
        pair interactions.  The model-box translation operators are shared
        process-wide across problems (see ``shared_operator_entries``) and
        are not attributed to any single run.
        """
        return self.leaf_ofs_entries + self.near_pairs

    def shared_operator_entries(self) -> int:
        return self.chain.stored_entries() if self.chain is not None else 0


def fmm_apply(
    points,
    charges,
    targets=None,
    eps: float = DEFAULT_EPS,
    nleaf: int = DEFAULT_NLEAF,
    table: GreensTable | None = None,
    per_edge: int = DEFAULT_PROXY_PER_EDGE,
    stats: dict | None = None,
):
    """Potentials u_i = sum_j phi(m_i - m_j) q_j.

    Evaluated at the source points by default; pass ``targets`` for other
    evaluation points (they are added as zero-charge nodes, and coinciding
    source/target points are fine).  ``stats``, if given, is filled with
    run counters (tree depth, stored operator entries, wall time).

    Raises ValueError for eps outside ``config.EPS_RANGE``, non-finite
    charges, duplicate sources, or a coordinate extent above 2**31.
    """
    t0 = time.perf_counter()
    check_eps(eps)
    if table is None:
        table = default_table()
    all_pts, q_full, tgt_rows = _merge_targets(points, charges, targets)
    tree = build_tree(all_pts, nleaf=nleaf, max_leaf_side=_leaf_side_cap(table))
    if tree.L < 2:
        # No interaction lists exist this shallow; the domain is tiny, so
        # sum directly.
        if all_pts.shape[0] > _DENSE_FALLBACK_LIMIT:
            raise ValueError("dense fallback too large")
        u_all = kernel_matrix(all_pts, all_pts, table) @ q_full
        run = None
    else:
        run = FmmRun(tree, eps, table, per_edge)
        u_all = run.apply(q_full)
    if stats is not None:
        stats["n_source"] = int(np.asarray(points).shape[0])
        stats["n_points"] = int(all_pts.shape[0])
        stats["levels"] = tree.L + 1
        stats["root_side"] = tree.root_side
        stats["op_entries"] = (
            run.stored_operator_entries()
            if run is not None
            else all_pts.shape[0] ** 2
        )
        stats["shared_op_entries"] = (
            run.shared_operator_entries() if run is not None else 0
        )
        stats["wall_time"] = time.perf_counter() - t0
    if tgt_rows is None:
        return u_all
    return u_all[tgt_rows]


def solve(points, charges, eps: float = DEFAULT_EPS, nleaf: int = DEFAULT_NLEAF):
    """Library entry point: potentials at the source points."""
    return fmm_apply(points, charges, eps=eps, nleaf=nleaf)


def direct_near_field(tree: QuadTree, box_id: int, charges, table=None):
    """Near-field partial potentials for one leaf box (debug/validation).

    Returns (point_indices, partial_u): the box's points (original indexing)
    and the directly summed contribution of sources in the box itself and
    its neighbor leaves.
    """
    if table is None:
        table = default_table()
    box = tree.box_by_id(box_id)
    if box.level != tree.L:
        raise ValueError("near field is defined on leaf boxes")
    q = np.asarray(charges, dtype=np.float64)
    t_idx = box.point_index
    t_pts = tree.points[t_idx]
    u = np.zeros(len(t_idx))
    level, rx, ry = tree.locate_id(box_id)
    near_ids = [box_id] + tree.neighbor_ids(level, rx, ry)
    for sid in near_ids:
        s_idx = tree.box_by_id(sid).point_index
        if s_idx.size == 0:
            continue
        s_pts = tree.points[s_idx]
        u += kernel_matrix(t_pts, s_pts, table) @ q[s_idx]
    return t_idx, u


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
