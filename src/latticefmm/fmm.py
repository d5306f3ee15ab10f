"""Five-pass fast summation of u = phi * q over scattered lattice charges.

The work is O(N_source): an upward pass compresses charges into per-box
outgoing expansions (leaf T_ofs, then T_ofo up the tree), interaction-list
translations turn outgoing into incoming expansions (T_ifo), and a downward
pass broadcasts and expands them back to point potentials (T_ifi, then
T_tfi), with directly summed near-field corrections from the Green table.

The near field (each leaf against itself and its eight neighbours) takes
one of two paths per leaf pair, chosen by occupancy.  A pair whose point
counts satisfy ct * cs >= s^2 (s the leaf side) is a stencil product: both
leaves are scattered onto the dense s x s stencil and one s^2 x s^2 block
of phi per neighbour offset is applied to all such pairs in one GEMM.
Every other pair is expanded point pair by point pair and summed from the
table.  A block costs about s^4 multiply-adds and a point pair about s^2
flop-equivalents, so the paths break even near ct * cs = s^2.

Only occupied boxes are touched; all per-level work is batched into dense
matrix products over Morton-sorted arrays.
"""

from __future__ import annotations

import time

import numpy as np

from .config import DEFAULT_EPS, DEFAULT_NLEAF, check_eps
from .green import GreensTable, default_table
from .skeleton import shared_chain
from .tree import (
    INTERACTION_OFFSETS,
    OFFSET_PARITY_VALID,
    QuadTree,
    build_tree,
    morton_key,
)

_NEAR_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))

# Largest leaf side, however wide the table: each near-field stencil block
# has s^4 entries, and the leaf ID takes all s^2 positions as candidates.
_MAX_LEAF_SIDE = 8


def _leaf_side_cap(table: GreensTable) -> int:
    # Near-field displacements must stay inside the table: keep the leaf
    # side at most R_table/3, rounded down to a power of two.
    third = max(table.radius // 3, 1)
    return min(1 << (third.bit_length() - 1), _MAX_LEAF_SIDE)


def _shifted_slots(tree: QuadTree, level: int, dx: int, dy: int, mask=True):
    """Boxes at ``level`` (within ``mask``) whose (dx, dy) neighbour box is
    occupied: their slots and the neighbour's slots."""
    codes = tree.codes[level]
    rx, ry = tree.coords[level]
    side_boxes = 1 << level
    sx = rx + dx
    sy = ry + dy
    valid = mask & (sx >= 0) & (sx < side_boxes) & (sy >= 0) & (sy < side_boxes)
    keys = morton_key(sx[valid], sy[valid])
    j = np.searchsorted(codes, keys)
    j[j >= len(codes)] = 0
    found = codes[j] == keys
    return np.flatnonzero(valid)[found], j[found]


def lattice_points(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError unless every coordinate is
    an integer (so NaN, inf and 0.5 are rejected, not truncated)."""
    raw = np.asarray(values)
    # NaN and inf cast to arbitrary integers; the comparison rejects them.
    with np.errstate(invalid="ignore"):
        pts = raw.astype(np.int64, copy=False)
    if not np.array_equal(pts, raw):
        raise ValueError(f"{what} must have integer coordinates")
    return pts


def _merge_targets(points, charges, targets):
    """Union source and extra target points; extra rows carry zero charge."""
    pts = lattice_points(points, "points")
    q = np.asarray(charges, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (N, 2) integer array")
    if pts.shape[0] != q.shape[0]:
        raise ValueError("points and charges length mismatch")
    if not np.all(np.isfinite(q)):
        raise ValueError("charges must be finite")
    if targets is None:
        return pts, q, None
    tgt = lattice_points(targets, "targets").reshape(-1, 2)
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValueError("duplicate lattice points")
    stacked = np.vstack([pts, tgt])
    all_pts, inverse = np.unique(stacked, axis=0, return_inverse=True)
    q_full = np.zeros(all_pts.shape[0])
    np.add.at(q_full, inverse[: pts.shape[0]], q)
    return all_pts, q_full, inverse[pts.shape[0] :]


class FmmRun:
    """One assembled solve: tree + operators + bookkeeping counters.

    A tree under two levels has no interaction lists: every leaf neighbours
    every other, so ``apply`` sums the near field alone and no operator
    chain is fetched.
    """

    def __init__(self, tree: QuadTree, eps: float, table: GreensTable):
        self.tree = tree
        self.eps = eps
        self.table = table
        self.leaf_side = tree.side_of(tree.L)
        self.chain = None
        if tree.L >= 2:
            self.chain = shared_chain(eps, self.leaf_side, table)
            self.chain.ensure(tree.side_of(2))
        self.times: dict[str, float] = {}
        self.near_pairs = 0
        self.near_gemm_blocks = 0
        self.near_ragged_pairs = 0
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
            rx, ry = tree.coords[lvl]
            parity_x = (rx & 1).astype(np.int64)
            parity_y = (ry & 1).astype(np.int64)
            inc = np.zeros_like(outgoing[lvl])
            for d, (dx, dy) in enumerate(INTERACTION_OFFSETS):
                mask = OFFSET_PARITY_VALID[d][parity_y, parity_x]
                rows, j = _shifted_slots(tree, lvl, dx, dy, mask)
                if len(rows):
                    inc[rows] += outgoing[lvl][j] @ ops.t_ifo[d].T
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

    def _near_field(self, q_sorted, counts, slot_of_point, lin):
        tree = self.tree
        ptr = tree.ptr[tree.L]
        n_pts = len(q_sorted)
        u = np.zeros(n_pts)
        grid = self.table.dense_grid()
        radius = self.table.radius
        s = self.leaf_side
        if 2 * s - 1 > radius:
            raise AssertionError("near-field displacement would exceed the table")
        starts = ptr[:-1]
        stencil_pairs = []
        for dx, dy in _NEAR_OFFSETS:
            t_slots, s_slots = _shifted_slots(tree, tree.L, dx, dy)
            if not len(t_slots):
                continue
            ct = counts[t_slots]
            cs = counts[s_slots]
            tot = ct * cs
            self.near_pairs += int(tot.sum())
            # Well-filled pairs go to the stencil GEMMs (see module docstring).
            gemm = tot >= s * s
            if np.any(gemm):
                stencil_pairs.append((dx, dy, t_slots[gemm], s_slots[gemm]))
                self.near_gemm_blocks += int(np.count_nonzero(gemm))
            ragged = ~gemm
            t_slots, s_slots, cs, tot = t_slots[ragged], s_slots[ragged], cs[ragged], tot[ragged]
            self.near_ragged_pairs += int(tot.sum())
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
        if stencil_pairs:
            u += self._near_stencil(q_sorted, slot_of_point, lin, stencil_pairs)
        return u

    def _near_stencil(self, q_sorted, slot_of_point, lin, stencil_pairs):
        """Near field of well-filled leaf pairs as one GEMM per offset.

        Only leaves that take part in some pair are scattered onto the
        dense s x s stencil.  Block K_d[i, j] = phi(loc_i - loc_j - s*d)
        maps source stencil charges to target stencil potentials.
        """
        s = self.leaf_side
        radius = self.table.radius
        grid = self.table.dense_grid()
        used = np.unique(
            np.concatenate([np.concatenate(p[2:]) for p in stencil_pairs])
        )
        row = np.full(len(self.tree.codes[self.tree.L]), -1)
        row[used] = np.arange(len(used))
        pt_row = row[slot_of_point]
        scattered = np.flatnonzero(pt_row >= 0)
        qd = np.zeros((len(used), s * s))
        qd[pt_row[scattered], lin[scattered]] = q_sorted[scattered]
        ud = np.zeros_like(qd)
        loc = np.arange(s * s)
        ddx = (loc // s)[:, None] - (loc // s)[None, :] + radius
        ddy = (loc % s)[:, None] - (loc % s)[None, :] + radius
        for dx, dy, t_slots, s_slots in stencil_pairs:
            k_d = grid[ddx - s * dx, ddy - s * dy]
            # Each target has one neighbour per offset: rows are distinct.
            ud[row[t_slots]] += qd[row[s_slots]] @ k_d.T
        u = np.zeros(len(q_sorted))
        u[scattered] = ud[pt_row[scattered], lin[scattered]]
        return u

    def apply(self, q_full) -> np.ndarray:
        tree = self.tree
        clock = time.perf_counter
        q_sorted = np.asarray(q_full, dtype=np.float64)[tree.order]
        counts, slot_of_point, lin = self._leaf_geometry()
        t0 = clock()
        if self.chain is None:
            t1 = t2 = t3 = t0
            u_sorted = np.zeros(len(q_sorted))
        else:
            outgoing = self._upward(q_sorted, slot_of_point, lin)
            t1 = clock()
            incoming = self._interactions(outgoing)
            t2 = clock()
            inc_leaf = self._downward(incoming)
            u_sorted = self._expand_to_points(inc_leaf, slot_of_point, lin)
            t3 = clock()
        u_sorted += self._near_field(q_sorted, counts, slot_of_point, lin)
        t4 = clock()
        self.times = {
            "t_upward": t1 - t0,
            "t_ifo": t2 - t1,
            "t_downward": t3 - t2,
            "t_near": t4 - t3,
        }
        out = np.empty_like(u_sorted)
        out[tree.order] = u_sorted
        return out

    def counters(self) -> dict:
        """Operator entries, per-pass seconds and near-field work of the
        last ``apply``.

        ``op_entries`` is the operator data instantiated for this problem
        (O(N_source)): the per-point leaf interpolation columns and the
        near-field pair interactions.  The model-box translation operators
        are shared process-wide across problems and are counted apart, as
        ``shared_op_entries`` (0 for a tree under two levels, which uses none).
        """
        return {
            "op_entries": self.leaf_ofs_entries + self.near_pairs,
            "shared_op_entries": 0 if self.chain is None else self.chain.stored_entries(),
            **self.times,
            "near_pairs": self.near_pairs,
            "near_gemm_blocks": self.near_gemm_blocks,
            "near_ragged_pairs": self.near_ragged_pairs,
        }


def fmm_apply(
    points,
    charges,
    targets=None,
    eps: float = DEFAULT_EPS,
    nleaf: int = DEFAULT_NLEAF,
    table: GreensTable | None = None,
    stats: dict | None = None,
):
    """Potentials u_i = sum_j phi(m_i - m_j) q_j.

    Evaluated at the source points by default; pass ``targets`` for other
    evaluation points (they are added as zero-charge nodes, and coinciding
    source/target points are fine).  ``stats``, if given, is filled with
    run counters: tree depth, stored operator entries, wall time, seconds
    per pass (``t_tree``, ``t_upward``, ``t_ifo``, ``t_downward``,
    ``t_near``) and near-field work (``near_pairs`` point pairs, of which
    ``near_ragged_pairs`` were summed pair by pair and the rest in
    ``near_gemm_blocks`` stencil block products).

    Raises ValueError for eps outside ``config.EPS_RANGE``, non-finite
    charges, non-integer coordinates, duplicate sources, or a coordinate
    extent above 2**31.
    """
    clock = time.perf_counter
    t0 = clock()
    check_eps(eps)
    if table is None:
        table = default_table()
    all_pts, q_full, tgt_rows = _merge_targets(points, charges, targets)
    t1 = clock()
    tree = build_tree(all_pts, nleaf=nleaf, max_leaf_side=_leaf_side_cap(table))
    t_tree = clock() - t1
    run = FmmRun(tree, eps, table)
    u_all = run.apply(q_full)
    if stats is not None:
        stats["n_source"] = int(np.asarray(points).shape[0])
        stats["n_points"] = int(all_pts.shape[0])
        stats["levels"] = tree.L + 1
        stats["root_side"] = tree.root_side
        stats["t_tree"] = t_tree
        stats.update(run.counters())
        stats["wall_time"] = clock() - t0
    if tgt_rows is None:
        return u_all
    return u_all[tgt_rows]
