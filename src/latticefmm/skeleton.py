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
  interpolative decomposition (ID) at tolerance eps.

The ID of a level yields simultaneously the skeleton, the
outgoing-from-outgoing blocks (T_ofo, parent from children) and, by kernel
symmetry, the incoming-from-incoming blocks (T_ifi = T_ofo^T).  The
outgoing-to-incoming operators (T_ifo) are dense kernel matrices between
skeleton points of interaction-list-separated model boxes, one per
distinct offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular

from .green import phi
from .tree import INTERACTION_OFFSETS

# Proxy lattice points per edge of the proxy square.
_PROXY_PER_EDGE = 40


def interpolative_decomposition(a: np.ndarray, eps: float):
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


def proxy_points(side: int) -> np.ndarray:
    """Lattice points on the boundary of [-side, 2*side]^2.

    Up to _PROXY_PER_EDGE positions per edge, equispaced then snapped to the
    lattice (so kernel entries stay table-resolvable); corners dedupe.
    """
    lo, hi = -side, 2 * side
    n = max(min(_PROXY_PER_EDGE, 3 * side + 1), 2)
    ticks = np.unique(np.round(np.linspace(lo, hi, n)).astype(np.int64))
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
    """phi(t_i - s_j) for integer point sets."""
    t = np.asarray(targets, dtype=np.int64)
    s = np.asarray(sources, dtype=np.int64)
    return phi(t[:, None, 0] - s[None, :, 0], t[:, None, 1] - s[None, :, 1])


@dataclass
class LevelSkeleton:
    """Skeleton of the model box [0, side)^2 and the ID that produced it."""

    side: int
    points: np.ndarray  # (k, 2) skeleton positions, box-anchored
    interp: np.ndarray  # (k, n_candidates) ID interpolation matrix
    candidates: np.ndarray  # (n_candidates, 2)

    @property
    def rank(self) -> int:
        return self.points.shape[0]


def _quadrant_shifts(side: int):
    h = side // 2
    return ((0, 0), (h, 0), (0, h), (h, h))


def build_level_skeleton(
    side: int, eps: float = 1e-10, child: LevelSkeleton | None = None
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
    return LevelSkeleton(side=side, points=cand[idx], interp=t, candidates=cand)


def build_t_ofo(parent: LevelSkeleton, child: LevelSkeleton) -> np.ndarray:
    """(4, k_parent, k_child) blocks mapping child outgoing to parent outgoing."""
    kc = child.rank
    if parent.candidates.shape[0] != 4 * kc:
        raise ValueError(
            f"block-size mismatch: parent has {parent.candidates.shape[0]} "
            f"candidates, children supply {4 * kc}"
        )
    return np.stack([parent.interp[:, q * kc : (q + 1) * kc] for q in range(4)])


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
    for d, (ox, oy) in enumerate(INTERACTION_OFFSETS):
        out[d] = phi(dx - skel.side * ox, dy - skel.side * oy)
    return out


@dataclass
class LevelOperators:
    skeleton: LevelSkeleton
    t_ifo: np.ndarray  # (K_ifo, k, k)
    t_ofo: np.ndarray | None = None  # (4, k, k_child); None at the deepest level


class OperatorChain:
    """Model-box operators for the sides of one tree family, shared across runs.

    A chain is anchored at its leaf side (whose skeleton uses dense
    candidates and supplies T_ofs/T_tfi); every coarser side is built on
    its child's skeleton.  ops[side] holds the skeleton, the T_ifo stack,
    and - above the leaf - the T_ofo blocks mapping side/2 skeletons up.
    T_ifi blocks are the transposes of T_ofo.
    """

    def __init__(self, eps: float, leaf_side: int):
        self.eps = float(eps)
        self.leaf_side = int(leaf_side)
        self.ops: dict[int, LevelOperators] = {}

    def ensure(self, top_side: int) -> None:
        """Extend the chain to cover sides leaf_side..top_side."""
        side = self.leaf_side
        child_ops = None
        while side <= top_side:
            cur = self.ops.get(side)
            if cur is None:
                child_skel = child_ops.skeleton if child_ops is not None else None
                skel = build_level_skeleton(side, self.eps, child=child_skel)
                cur = LevelOperators(skeleton=skel, t_ifo=build_t_ifo(skel))
                if child_skel is not None:
                    cur.t_ofo = build_t_ofo(skel, child_skel)
                self.ops[side] = cur
            child_ops = cur
            side *= 2

    def stored_entries(self) -> int:
        total = 0
        for op in self.ops.values():
            total += op.skeleton.interp.size + op.t_ifo.size
            if op.t_ofo is not None:
                total += 2 * op.t_ofo.size  # ofo and its ifi transpose
        return total


_chain_memo: dict[tuple, OperatorChain] = {}


def shared_chain(eps: float, leaf_side: int) -> OperatorChain:
    """Process-wide memo of operator chains (model boxes are tree-agnostic)."""
    key = (float(eps), int(leaf_side))
    chain = _chain_memo.get(key)
    if chain is None:
        chain = OperatorChain(eps, leaf_side)
        _chain_memo[key] = chain
    return chain
