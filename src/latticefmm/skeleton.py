"""Skeletonization of far-field interactions and the five translation operators.

Everything is built on origin-anchored *model boxes*, one per box side, and
reused across the tree by translation invariance:

* a leaf model box of side s takes all s^2 lattice positions as candidates,
  so the T_ofs of a leaf's points is the restriction of the ID to their
  columns;
* a parent model box takes the union of its four children's skeletons,
  shifted into the quadrants, as candidates;
* candidates are compressed against a proxy surface - lattice points on
  the boundary of the concentric square three times the box side - by an
  interpolative decomposition (ID) at tolerance eps.  The ID is a
  Householder QR with column pivoting written in numpy, stopped at the
  first rank whose trailing block is within eps of the whole matrix in
  Frobenius norm; the matrices are at most ~156 x 200, so numpy's own
  BLAS suffices and the FMM path loads no second linear-algebra library.

The ID of a level yields simultaneously the skeleton, the
outgoing-from-outgoing blocks (T_ofo, parent from children: as the
candidates are the children's skeletons in quadrant order, T_ofo[q] is the
q-th block of columns of the ID, held as a view of it) and, by kernel
symmetry, the incoming-from-incoming blocks (T_ifi = T_ofo^T).  The
outgoing-to-incoming operators (T_ifo) are dense kernel matrices between
skeleton points of interaction-list-separated model boxes, one per
distinct offset; a level that runs T_ifo on a dense box grid also gets
them as eight blocks, one per neighbouring parent, each mapping that
parent's four children to a parent's four.  The unit expansions of a
model box's positions are one table per side.  The T_ifo operators and
the tables are built for the sides a tree uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_EPS
from .green import lattice_points, phi
from .tree import INTERACTION_OFFSETS

# Proxy lattice points per edge of the proxy square.
_PROXY_PER_EDGE = 40

# Largest side whose model box takes all its s^2 lattice positions as
# candidates: a chain serving leaves of a larger side is anchored at it.
MAX_ANCHOR_SIDE = 8


def interpolative_decomposition(a: np.ndarray, eps: float):
    """Column ID: a ~= a[:, idx] @ t with relative Frobenius error <= eps.

    Computed by Householder QR with column pivoting (Businger-Golub) on a
    working copy of a, stopped early: the rank is the smallest k whose
    trailing block satisfies ||R[k:, k:]||_F <= eps ||a||_F.  Then
    t = [I, R11^-1 R12] in pivot order, by back substitution.  Returns
    (idx, t) with t[:, idx] the identity; an empty or zero a gives rank 0.
    """
    r = np.array(a, dtype=np.float64)
    m, n = r.shape
    perm = np.arange(n)
    thresh = eps * eps * np.einsum("ij,ij->", r, r)
    update = np.empty_like(r)  # the rank-1 update of each step, in its corner
    k = 0
    while k < min(m, n):
        # Before step k the trailing block is r[k:, k:] itself, so its
        # column norms - the pivot choice and the stopping test - are
        # exact, not downdated: downdating cancels far above eps^2.
        sub = r[k:, k:]
        col_sq = np.einsum("ij,ij->j", sub, sub)
        if col_sq.sum() <= thresh:
            break
        j = k + int(np.argmax(col_sq))
        if j != k:
            col = r[:, k].copy()
            r[:, k] = r[:, j]
            r[:, j] = col
            perm[k], perm[j] = perm[j], perm[k]
        # Reflect rows k: so column k becomes (alpha, 0, ..., 0).  The
        # update's entries are single products, as np.outer forms them.
        norm = np.sqrt(col_sq[j - k])
        alpha = -norm if r[k, k] >= 0 else norm
        v = r[k:, k].copy()
        v[0] -= alpha
        rest = r[k:, k + 1 :]
        outer = update[: m - k, : n - k - 1]
        np.einsum("i,j->ij", v * (2.0 / (v @ v)), v @ rest, out=outer)
        rest -= outer
        r[k, k] = alpha
        r[k + 1 :, k] = 0.0
        k += 1
    t = np.zeros((k, n))
    t[np.arange(k), perm[:k]] = 1.0
    if 0 < k < n:
        x = r[:k, k:].copy()  # R11 x = R12, one row of x at a time
        for i in range(k - 1, -1, -1):
            x[i] -= r[i, i + 1 : k] @ x[i + 1 :]
            x[i] /= r[i, i]
        t[:, perm[k:]] = x
    return perm[:k].copy(), t


def proxy_points(side: int) -> np.ndarray:
    """Lattice points on the boundary of [-side, 2*side]^2.

    Up to _PROXY_PER_EDGE positions per edge, equispaced then snapped to the
    lattice (so kernel entries stay table-resolvable); corners dedupe.
    """
    lo, hi = -side, 2 * side
    n = max(min(_PROXY_PER_EDGE, 3 * side + 1), 2)
    ticks = np.round(np.linspace(lo, hi, n)).astype(np.int64)  # ascending
    # Deduplicated by neighbour, not np.unique: its first call imports
    # numpy.ma (10-20 ms of a cold start).
    ticks = ticks[np.append(True, ticks[1:] != ticks[:-1])]
    pts = set()
    for t in ticks:
        t = int(t)
        pts.update(((t, lo), (t, hi), (lo, t), (hi, t)))
    return np.array(sorted(pts), dtype=np.int64)


def dense_candidates(side: int) -> np.ndarray:
    g = np.arange(side)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]).astype(np.int64)


def kernel_matrix(targets, sources) -> np.ndarray:
    """phi(t_i - s_j) for integer point sets; ValueError for a non-integer
    coordinate or one outside int64."""
    t = lattice_points(targets, "targets")
    s = lattice_points(sources, "sources")
    return phi(t[:, None, 0] - s[None, :, 0], t[:, None, 1] - s[None, :, 1])


@dataclass
class LevelSkeleton:
    """Skeleton of the model box [0, side)^2 and the ID that produced it."""

    side: int
    points: np.ndarray  # (k, 2) skeleton positions, box-anchored
    interp: np.ndarray  # (k, n_candidates) ID interpolation matrix

    @property
    def rank(self) -> int:
        return self.points.shape[0]


def _quadrant_shifts(side: int):
    h = side // 2
    return ((0, 0), (h, 0), (0, h), (h, h))


def build_level_skeleton(
    side: int, eps: float = DEFAULT_EPS, child: LevelSkeleton | None = None
) -> LevelSkeleton:
    """Skeletonize one model box; pass the child level's skeleton to move up."""
    if child is None:
        cand = dense_candidates(side)
    else:
        if 2 * child.side != side:
            raise ValueError(f"child side {child.side} does not halve {side}")
        cand = np.concatenate(
            [child.points + np.array(s) for s in _quadrant_shifts(side)]
        )
    a = kernel_matrix(proxy_points(side), cand)
    idx, t = interpolative_decomposition(a, eps)
    return LevelSkeleton(side=side, points=cand[idx], interp=t)


def build_t_ifo(skel: LevelSkeleton) -> np.ndarray:
    """(K_ifo, k, k) outgoing->incoming kernel blocks, one per offset.

    Entry [d, i, j] = phi(z_i - z_j - side*delta_d): the potential at
    skeleton point i of the target box induced by a unit charge at
    skeleton point j of the box offset by delta_d box sides.
    """
    z = skel.points
    k = skel.rank
    out = np.empty((len(INTERACTION_OFFSETS), k, k))
    dx = z[:, None, 0] - z[None, :, 0]
    dy = z[:, None, 1] - z[None, :, 1]
    # The offsets are closed under negation and phi(-m) == phi(m) exactly,
    # so the block of -delta is the transpose of the block of delta: one
    # phi call fills the blocks of the offsets that come before their
    # negations.
    neg = [INTERACTION_OFFSETS.index((-ox, -oy)) for ox, oy in INTERACTION_OFFSETS]
    own = [d for d in range(len(INTERACTION_OFFSETS)) if neg[d] > d]
    off = np.array([INTERACTION_OFFSETS[d] for d in own]) * skel.side
    out[own] = phi(dx - off[:, 0, None, None], dy - off[:, 1, None, None])
    for d in range(len(INTERACTION_OFFSETS)):
        if neg[d] < d:
            out[d] = out[neg[d]].T
    return out


#: The offsets D of a parent's eight neighbours, in the order of
#: ``build_t_ifo_grid``'s stack.
GRID_PARENT_OFFSETS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


def build_t_ifo_grid(t_ifo: np.ndarray) -> np.ndarray:
    """(8, 4 k, 4 k) T_ifo from the four children of a neighbouring parent
    to a parent's four children, one block W_D per parent offset D of
    ``GRID_PARENT_OFFSETS``, for levels whose boxes all sit on one dense
    grid.

    Row q_s * k + j of W_D is skeleton entry j of the source child in
    quadrant q_s (x bit q_s & 1, y bit q_s >> 1); column q_t * k + i is
    entry i of the incoming expansion of the target child in quadrant q_t.
    Block (q_s, q_t) is t_ifo[d]^T for the child offset d = 2 D + q_s - q_t,
    and zero where |d|_inf <= 1: the parents of an interaction pair are
    colleagues, so the other child pairs are exactly the interaction list.
    D = 0 joins only colleagues and is not stored.
    """
    k = t_ifo.shape[1]
    w = np.zeros((len(GRID_PARENT_OFFSETS), 4 * k, 4 * k))
    for n, (dx, dy) in enumerate(GRID_PARENT_OFFSETS):
        for q_s in range(4):
            for q_t in range(4):
                d = (2 * dx + (q_s & 1) - (q_t & 1), 2 * dy + (q_s >> 1) - (q_t >> 1))
                if max(abs(d[0]), abs(d[1])) > 1:
                    w[n, q_s * k : (q_s + 1) * k, q_t * k : (q_t + 1) * k] = t_ifo[INTERACTION_OFFSETS.index(d)].T
    return w


@dataclass
class LevelOperators:
    skeleton: LevelSkeleton
    t_ofo: np.ndarray | None = None  # (4, k, k_child) view of interp; None at the leaf
    _t_ifo: np.ndarray | None = None  # (K_ifo, k, k), see ``build_t_ifo``
    _t_ifo_grid: np.ndarray | None = None  # (8, 4 k, 4 k), see ``build_t_ifo_grid``
    _unit_table: np.ndarray | None = None  # see ``OperatorChain.unit_table``

    @property
    def t_ifo(self) -> np.ndarray:
        """``build_t_ifo`` of this level, built on first use."""
        if self._t_ifo is None:
            self._t_ifo = build_t_ifo(self.skeleton)
        return self._t_ifo

    @property
    def t_ifo_grid(self) -> np.ndarray:
        """``build_t_ifo_grid`` of this level, built on first use."""
        if self._t_ifo_grid is None:
            self._t_ifo_grid = build_t_ifo_grid(self.t_ifo)
        return self._t_ifo_grid


class OperatorChain:
    """Model-box operators for the sides of one tree family, shared across runs.

    A chain serves the trees of one leaf side.  It is anchored at side
    min(leaf_side, ``MAX_ANCHOR_SIDE``), whose skeleton uses dense
    candidates and supplies T_ofs/T_tfi, or under larger leaves the unit
    expansions their points start from; every coarser side is built on its
    child's skeleton.  ops[side] holds the skeleton and - above the leaf -
    the T_ofo blocks mapping side/2 skeletons up, a view of the
    interpolation matrix, not a copy.  T_ifi blocks are the transposes of
    T_ofo and are not stored either.  A side's T_ifo stack, grid T_ifo and
    table of unit expansions are built on first use, so a side that only
    carries the skeletons up (those below the leaves of a larger side)
    holds none of them.
    """

    def __init__(self, eps: float, leaf_side: int):
        self.eps = float(eps)
        self.leaf_side = int(leaf_side)
        self.anchor = min(self.leaf_side, MAX_ANCHOR_SIDE)
        self.ops: dict[int, LevelOperators] = {}

    def ensure(self, top_side: int) -> None:
        """Extend the chain to cover sides anchor..top_side."""
        side = self.anchor
        child_ops = None
        while side <= top_side:
            cur = self.ops.get(side)
            if cur is None:
                child_skel = child_ops.skeleton if child_ops is not None else None
                skel = build_level_skeleton(side, self.eps, child=child_skel)
                cur = LevelOperators(skeleton=skel)
                if child_skel is not None:
                    # The candidates are the children's skeletons in quadrant
                    # order, so T_ofo[q] is interp's q-th block of columns.
                    cur.t_ofo = skel.interp.reshape(skel.rank, 4, child_skel.rank).transpose(1, 0, 2)
                self.ops[side] = cur
            child_ops = cur
            side *= 2

    def unit_table(self, side: int) -> np.ndarray:
        """(side^2, k) unit expansions of the model box of ``side``: row
        x * side + y is the outgoing expansion of a unit charge at position
        (x, y) of the box.  At the anchor side it is the interpolation
        matrix transposed; above it, each quadrant's rows are the side/2
        table's times T_ofo.  Built on first use, with the tables of the sides
        below, and kept."""
        op = self.ops[side]
        if op._unit_table is None:
            if side == self.anchor:
                op._unit_table = np.ascontiguousarray(op.skeleton.interp.T)
            else:
                child = self.unit_table(side // 2)
                h = side // 2
                table = np.empty((side * side, op.t_ofo.shape[1]))
                quads = table.reshape(2, h, 2, h, -1)  # (x bit, x, y bit, y)
                for qd in range(4):
                    quads[qd & 1, :, qd >> 1] = (child @ op.t_ofo[qd].T).reshape(h, h, -1)
                op._unit_table = table
        return op._unit_table

    def stored_entries(self) -> int:
        """Entries of every array the chain holds: each side's skeleton
        (points and interpolation matrix, of which T_ofo is a view), and
        its T_ifo stack, grid T_ifo and table of unit expansions once
        built."""
        total = 0
        for op in self.ops.values():
            skel = op.skeleton
            for a in (skel.points, skel.interp, op._t_ifo, op._t_ifo_grid, op._unit_table):
                if a is not None:
                    total += a.size
        return total


_chain_memo: dict[tuple, OperatorChain] = {}


def shared_chain(eps: float, leaf_side: int) -> OperatorChain:
    """Process-wide memo of operator chains, one per (eps, leaf side).
    Model boxes are tree-agnostic: the chains of one eps and anchor side
    share one dict of operators, so each side is built once."""
    key = (float(eps), int(leaf_side))
    chain = _chain_memo.get(key)
    if chain is None:
        chain = OperatorChain(eps, leaf_side)
        for other in _chain_memo.values():
            if (other.eps, other.anchor) == (chain.eps, chain.anchor):
                chain.ops = other.ops
                break
        _chain_memo[key] = chain
    return chain


def shared_entries() -> int:
    """Entries of every array the process's operator chains hold
    (``OperatorChain.stored_entries``), each shared dict of operators
    counted once."""
    return sum({id(chain.ops): chain.stored_entries() for chain in _chain_memo.values()}.values())
