"""Uniform quadtree over lattice points, and the interaction-list offsets.

Within a level, boxes follow Morton order with x varying fastest: the four
children of a box come in the order (0,0), (1,0), (0,1), (1,1) of (dx, dy).
Only occupied boxes are materialized, in per-level arrays.
"""

from __future__ import annotations

import numpy as np

# Largest root side: Morton keys interleave two coordinates into a signed
# 64-bit integer, so each relative coordinate must fit in 31 bits.
MAX_ROOT_SIDE = 1 << 31


def check_extent(pts: np.ndarray) -> int:
    """Side of the smallest square covering the (N, 2) int64 points;
    ValueError above MAX_ROOT_SIDE."""
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = max(int(hi[0]) - int(lo[0]), int(hi[1]) - int(lo[1])) + 1
    if extent > MAX_ROOT_SIDE:
        raise ValueError(f"coordinate extent {extent} exceeds 2**31")
    return extent


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

#: OFFSET_PARITY_VALID[d][py][px]: whether interaction offset d applies to a
#: box whose rank coordinates have parity (px, py).
OFFSET_PARITY_VALID = np.array(
    [
        [
            [_parents_adjacent(px, dx) and _parents_adjacent(py, dy) for px in (0, 1)]
            for py in (0, 1)
        ]
        for dx, dy in INTERACTION_OFFSETS
    ]
)


class QuadTree:
    """Uniform quadtree; occupied boxes stored per level in Morton order.

    points: (N, 2) integer array.  The root box is the smallest
    power-of-two-sided square anchored at the minimum corner that covers
    all points.  L is the smallest depth at which no leaf holds more than
    nleaf points; max_leaf_side, if given, forces subdivision below that
    box size (used by the solver to keep near-field displacements inside
    the Green table).
    """

    def __init__(self, points, nleaf: int = 64, max_leaf_side: int | None = None):
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (N, 2) integer array")
        if nleaf < 1:
            raise ValueError("nleaf must be >= 1")
        self.points = pts
        self.nleaf = int(nleaf)
        n = pts.shape[0]

        extent = check_extent(pts)
        self.anchor = pts.min(axis=0)
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

        def split_level(a, b):
            return logs - (np.searchsorted(powers, a ^ b, side="right") - 1)

        # Smallest L with every leaf occupancy <= nleaf: points nleaf apart
        # in sorted order must lie in different boxes.
        level = 0
        if n > self.nleaf:
            apart = split_level(sorted_deep[self.nleaf :], sorted_deep[: -self.nleaf])
            level = int(apart.max())
        if max_leaf_side is not None:
            floor_level = logs - max(int(max_leaf_side).bit_length() - 1, 0)
            level = max(level, min(floor_level, logs))
        self.L = level

        # Per-level occupied boxes, from the levels at which adjacent
        # sorted keys part.  A box's parent changes where the keys also
        # part one level up.
        split = split_level(sorted_deep[1:], sorted_deep[:-1])
        self.codes = []
        self.ptr = []
        self.coords = []
        self.parent_index = [None]
        for lvl in range(self.L + 1):
            starts = np.concatenate([[0], np.flatnonzero(split <= lvl) + 1])
            shift = logs - lvl
            self.codes.append(sorted_deep[starts] >> np.int64(2 * shift))
            self.ptr.append(np.append(starts, n))
            self.coords.append(
                (self.rel_sorted[starts, 0] >> shift, self.rel_sorted[starts, 1] >> shift)
            )
            if lvl > 0:
                new_parent = split[starts[1:] - 1] < lvl
                self.parent_index.append(np.concatenate([[0], np.cumsum(new_parent)]))

    def side_of(self, level: int) -> int:
        return self.root_side >> level


def build_tree(points, nleaf: int = 64, max_leaf_side: int | None = None) -> QuadTree:
    return QuadTree(points, nleaf=nleaf, max_leaf_side=max_leaf_side)
