"""Uniform quadtree over lattice points, and the interaction-list offsets.

Within a level, boxes follow Morton order with x varying fastest: the four
children of a box come in the order (0,0), (1,0), (0,1), (1,1) of (dx, dy).
Only occupied boxes are materialized, in per-level arrays.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_NLEAF, check_nleaf

# Largest root side: Morton keys interleave two coordinates into a signed
# 64-bit integer, so each relative coordinate must fit in 31 bits.
MAX_ROOT_SIDE = 1 << 31


def check_extent(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum corner and side of the smallest square covering the (N, 2)
    int64 points; ValueError for a side above MAX_ROOT_SIDE."""
    x, y = pts[:, 0], pts[:, 1]
    # Column by column: a reduction over axis 0 of an (N, 2) array runs
    # its inner loop over two elements and is ~15x slower.
    lo = np.array([x.min(), y.min()])
    extent = max(int(x.max()) - int(lo[0]), int(y.max()) - int(lo[1])) + 1
    if extent > MAX_ROOT_SIDE:
        raise ValueError(f"coordinate extent {extent} exceeds 2**31")
    return lo, extent


def _part1by1(v):
    v = np.asarray(v, dtype=np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact1by1(v):
    v = np.asarray(v, dtype=np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def morton_key(rx, ry):
    """Interleave box coordinates: x in even bits, y in odd bits."""
    return (_part1by1(rx) | (_part1by1(ry) << np.uint64(1))).astype(np.int64)


def morton_decode(key):
    k = np.asarray(key, dtype=np.uint64)
    return (
        _compact1by1(k).astype(np.int64),
        _compact1by1(k >> np.uint64(1)).astype(np.int64),
    )


def _parents_adjacent(parity: int, delta: int) -> bool:
    # Along one axis: a box with rank coordinate parity `parity` and the box
    # `delta` boxes away have parents at most one box apart.
    return -1 <= (parity + delta) // 2 <= 1


def _enumerate_interaction_offsets():
    # delta = sigma_coord - tau_coord (in box units) such that some parity
    # placement makes the parents adjacent while the boxes are not.
    offs = set()
    for px in (0, 1):
        for py in (0, 1):
            for dx in range(-3, 4):
                for dy in range(-3, 4):
                    if max(abs(dx), abs(dy)) < 2:
                        continue
                    if _parents_adjacent(px, dx) and _parents_adjacent(py, dy):
                        offs.add((dx, dy))
    return tuple(sorted(offs))


#: All distinct interaction-list offsets (row-major over (dx, dy)).
INTERACTION_OFFSETS = _enumerate_interaction_offsets()

# Most points of a box that the ``max_leaf_side`` rule does not refine
# further: below such a box the tree would only resolve points that the
# FMM sums pair by pair for less (``latticefmm.fmm``, which also makes a
# box above the depth L a leaf once it and its colleagues hold at most
# this many points).  Measured as the depth rule alone: fmm_apply at eps
# 1e-10, warm medians of alternating calls in one process on 2 cores, at
# 8 / 16 / 32 / 64 points against 1 (leaves of side 8, as without this
# bound): 16384 uniform points on 16384^2 (the benchmark's random)
# 0.94 / 0.65 / 0.97 / 1.09 times as long, at L = 7 / 6 / 5 / 5 against
# 11; 2^18 on 2^18 x 2^18 0.89 / 0.57 / 0.61 / 1.00 (L = 9 / 8 / 8 / 7
# against 15); 2^18 points on a circle in 2^20 x 2^20 0.49 / 0.47 / 0.64
# / 1.08 (L = 14 / 13 / 12 / 11 against 17).
FEW_POINTS = 16

class QuadTree:
    """Uniform quadtree; occupied boxes stored per level in Morton order.

    points: (N, 2) integer array.  The root box is the smallest
    power-of-two-sided square anchored at the minimum corner that covers
    all points.  L is the smallest depth at which no box holds more than
    nleaf points.  max_leaf_side, if given, deepens the tree toward that
    box side until no box holds more than ``FEW_POINTS`` points: L is the
    larger of the nleaf depth and the first depth at which the boxes are
    of that side or hold at most ``FEW_POINTS`` points each.  So a box of
    level L and side max_leaf_side holds at most max_leaf_side^2 points, a
    larger one at most ``FEW_POINTS``, and any nleaf of at least both
    gives the same tree.  (The solver's cap of 8 bounds each near-field
    stencil block at 8^4 entries; the few points of a larger box are
    summed pair by pair.)  The tree holds every occupied box down to
    level L; the solver chooses which of them are leaves, box by box
    (``latticefmm.fmm``).

    Per level l: ``codes[l]`` holds each occupied box's Morton code (int32
    at levels up to 15, whose codes stay below 2^30, and int64 deeper),
    ``ptr[l]`` the index of each box's first sorted point, then N, and
    ``parent_index[l]`` each box's parent at level l - 1 (both int32 below
    2^31 points).  Points are in Morton order: ``order`` sorts the input
    into ``rel_sorted``, the coordinates from the root corner.
    ``singles[l]``, for every level l from 0 to log2(root_side), below
    level L too, counts the boxes of level l that hold one point.
    """

    def __init__(self, points, nleaf: int = DEFAULT_NLEAF, max_leaf_side: int | None = None):
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (N, 2) integer array")
        self.points = pts
        self.nleaf = check_nleaf(nleaf)
        n = pts.shape[0]

        self.anchor, extent = check_extent(pts)
        side = 1
        while side < extent:
            side *= 2
        self.root_side = side
        logs = side.bit_length() - 1

        rel = pts - self.anchor
        deep_keys = morton_key(rel[:, 0], rel[:, 1])
        # One sort serves every level: a box at level l is a run of sorted
        # deep keys that agree above bit 2*(logs - l).  Adjacent keys part
        # at the first level l with (a ^ b) >= 4**(logs - l).
        self.order = np.argsort(deep_keys)
        sorted_deep = deep_keys[self.order]
        self.rel_sorted = rel[self.order]
        if np.any(sorted_deep[1:] == sorted_deep[:-1]):
            raise ValueError("duplicate lattice points")
        powers = np.int64(1) << (2 * np.arange(logs + 1, dtype=np.int64))
        # The level at which each pair of adjacent sorted keys part.
        split = logs - (np.searchsorted(powers, sorted_deep[1:] ^ sorted_deep[:-1], side="right") - 1)

        def occupancy_level(most):
            # Smallest level with no box of more than ``most`` points.  A box
            # is a run of sorted points, so points i and i + most part where
            # the first adjacent pair between them does: at the least split
            # over that window, whose minimum is formed by doubling.
            if n <= most:
                return 0
            window, width = split, 1
            while 2 * width <= most:
                window = np.minimum(window[:-width], window[width:])
                width *= 2
            if width < most:
                window = np.minimum(window[: len(window) - (most - width)], window[most - width :])
            return int(window.max())

        level = occupancy_level(self.nleaf)
        if max_leaf_side is not None:
            floor_level = logs - max(int(max_leaf_side).bit_length() - 1, 0)
            level = max(level, min(floor_level, occupancy_level(FEW_POINTS)))
        self.L = level

        # A point is alone in its box from the level where it parts from
        # both sorted neighbours on.
        alone = np.zeros(n, dtype=np.int64)
        alone[1:] = split
        np.maximum(alone[:-1], split, out=alone[:-1])
        self.singles = np.cumsum(np.bincount(alone, minlength=logs + 1))
        # Per-level occupied boxes, from the levels at which adjacent
        # sorted keys part.  A box's parent changes where the keys also
        # part one level up.
        # Point and box indices fit in int32 below 2**31 points; at every
        # level that halves ptr and parent_index.
        index = np.int32 if n < 2**31 else np.int64
        self.codes = []
        self.ptr = []
        self.parent_index = [None]
        for lvl in range(self.L + 1):
            starts = np.concatenate([[0], np.flatnonzero(split <= lvl) + 1])
            codes = sorted_deep[starts] >> np.int64(2 * (logs - lvl))
            self.codes.append(codes.astype(np.int32) if lvl <= 15 else codes)
            self.ptr.append(np.append(starts, n).astype(index))
            if lvl > 0:
                new_parent = split[starts[1:] - 1] < lvl
                parent = np.cumsum(new_parent, dtype=index)
                self.parent_index.append(np.concatenate([np.zeros(1, index), parent]))

    def side_of(self, level: int) -> int:
        return self.root_side >> level


def build_tree(points, nleaf: int = DEFAULT_NLEAF, max_leaf_side: int | None = None) -> QuadTree:
    return QuadTree(points, nleaf=nleaf, max_leaf_side=max_leaf_side)
