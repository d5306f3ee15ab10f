"""Uniform quadtree over lattice points: numbering, neighbor and interaction lists.

Boxes are numbered breadth-first from 1 (the root).  Within a level, boxes
follow Morton order with x varying fastest: the four children of a box come
in the order (0,0), (1,0), (0,1), (1,1) of (dx, dy).  Only occupied boxes
are materialized in per-level arrays; list queries treat the full uniform
tree geometrically, so empty boxes have valid ids and lists too.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

# Largest root side: Morton keys interleave two coordinates into a signed
# 64-bit integer, so each relative coordinate must fit in 31 bits.
MAX_ROOT_SIDE = 1 << 31


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


def level_offset(level: int) -> int:
    """First box id at a level: 1, 2, 6, 22, 86, ..."""
    return (4**level - 1) // 3 + 1


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
                    if -1 <= (px + dx) // 2 <= 1 and -1 <= (py + dy) // 2 <= 1:
                        offs.add((dx, dy))
    return tuple(sorted(offs))


#: All distinct interaction-list offsets (row-major over (dx, dy)).
INTERACTION_OFFSETS = _enumerate_interaction_offsets()
K_IFO = len(INTERACTION_OFFSETS)
_OFFSET_INDEX = {d: i + 1 for i, d in enumerate(INTERACTION_OFFSETS)}


@dataclass
class TreeBox:
    id: int
    level: int
    center: tuple  # half-integer lattice coordinates
    side: int
    parent: int | None
    children: list
    point_index: np.ndarray  # indices into the original point array


@dataclass
class BoxLists:
    children: list
    neighbors: list
    interaction: list


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

        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        extent = max(int(hi[0]) - int(lo[0]), int(hi[1]) - int(lo[1])) + 1
        if extent > MAX_ROOT_SIDE:
            raise ValueError(f"coordinate extent {extent} exceeds 2**31")
        self.anchor = lo
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

    # -- geometry ----------------------------------------------------------

    def side_of(self, level: int) -> int:
        return self.root_side >> level

    def n_levels(self) -> int:
        return self.L + 1

    def total_boxes(self) -> int:
        return level_offset(self.L + 1) - 1

    def box_id(self, level: int, rx: int, ry: int) -> int:
        return level_offset(level) + int(morton_key(rx, ry))

    def locate_id(self, bid: int):
        """Inverse of box_id: (level, rx, ry) of a box id."""
        if bid < 1 or bid > self.total_boxes():
            raise ValueError(f"box id {bid} out of range")
        level = 0
        while level_offset(level + 1) <= bid:
            level += 1
        rank = bid - level_offset(level)
        rx, ry = morton_decode(rank)
        return level, int(rx), int(ry)

    def box_anchor(self, level: int, rx: int, ry: int):
        s = self.side_of(level)
        return self.anchor[0] + s * rx, self.anchor[1] + s * ry

    def _occupied_slot(self, level: int, rx: int, ry: int):
        key = int(morton_key(rx, ry))
        i = int(np.searchsorted(self.codes[level], key))
        if i < len(self.codes[level]) and self.codes[level][i] == key:
            return i
        return None

    def box_by_id(self, bid: int) -> TreeBox:
        level, rx, ry = self.locate_id(bid)
        s = self.side_of(level)
        ax, ay = self.box_anchor(level, rx, ry)
        parent = None
        if level > 0:
            parent = self.box_id(level - 1, rx // 2, ry // 2)
        children = []
        if level < self.L:
            children = [
                self.box_id(level + 1, 2 * rx + dx, 2 * ry + dy)
                for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))
            ]
            children.sort()
        slot = self._occupied_slot(level, rx, ry)
        if slot is None:
            idx = np.empty(0, dtype=np.int64)
        else:
            idx = self.order[self.ptr[level][slot] : self.ptr[level][slot + 1]]
        return TreeBox(
            id=bid,
            level=level,
            center=(ax + s / 2, ay + s / 2),
            side=s,
            parent=parent,
            children=children,
            point_index=idx,
        )

    # -- Definition-style lists ---------------------------------------------

    def neighbor_ids(self, level: int, rx: int, ry: int) -> list:
        n_side = 1 << level
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                sx, sy = rx + dx, ry + dy
                if 0 <= sx < n_side and 0 <= sy < n_side:
                    out.append(self.box_id(level, sx, sy))
        out.sort()
        return out

    def interaction_ids(self, level: int, rx: int, ry: int) -> list:
        n_side = 1 << level
        out = []
        for dx, dy in INTERACTION_OFFSETS:
            sx, sy = rx + dx, ry + dy
            if not (0 <= sx < n_side and 0 <= sy < n_side):
                continue
            if abs(sx // 2 - rx // 2) <= 1 and abs(sy // 2 - ry // 2) <= 1:
                out.append(self.box_id(level, sx, sy))
        out.sort()
        return out

    def lists_for(self, bid: int) -> BoxLists:
        level, rx, ry = self.locate_id(bid)
        box = self.box_by_id(bid)
        return BoxLists(
            children=box.children,
            neighbors=self.neighbor_ids(level, rx, ry),
            interaction=self.interaction_ids(level, rx, ry),
        )


class _ListsMap(Mapping):
    """Lazy BoxId -> BoxLists map over the full uniform tree."""

    def __init__(self, tree: QuadTree):
        self._tree = tree
        self._n = tree.total_boxes()

    def __getitem__(self, bid: int) -> BoxLists:
        if not (1 <= bid <= self._n):
            raise KeyError(bid)
        return self._tree.lists_for(bid)

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(range(1, self._n + 1))


def build_tree(points, nleaf: int = 64, max_leaf_side: int | None = None) -> QuadTree:
    return QuadTree(points, nleaf=nleaf, max_leaf_side=max_leaf_side)


def compute_lists(tree: QuadTree) -> Mapping:
    return _ListsMap(tree)


def relative_ifo_offset(tree: QuadTree, tau, sigma) -> int:
    """Canonical 1-based index of sigma's offset relative to tau.

    tau/sigma may be TreeBox objects or box ids.  Raises ValueError when
    sigma is not in tau's interaction list.
    """
    tid = tau.id if isinstance(tau, TreeBox) else int(tau)
    sid = sigma.id if isinstance(sigma, TreeBox) else int(sigma)
    lt, tx, ty = tree.locate_id(tid)
    ls, sx, sy = tree.locate_id(sid)
    if lt != ls:
        raise ValueError("boxes are on different levels")
    delta = (sx - tx, sy - ty)
    idx = _OFFSET_INDEX.get(delta)
    if idx is None or abs(sx // 2 - tx // 2) > 1 or abs(sy // 2 - ty // 2) > 1:
        raise ValueError(f"box {sid} is not in the interaction list of {tid}")
    return idx


def dump(tree: QuadTree) -> str:
    """One line per box: `id level cx cy side parent [children] [nei] [int]`."""

    def fmt_list(ids):
        return "[" + ",".join(str(i) for i in ids) + "]"

    lines = []
    for bid in range(1, tree.total_boxes() + 1):
        box = tree.box_by_id(bid)
        lists = tree.lists_for(bid)
        lines.append(
            f"{box.id} {box.level} {box.center[0]:g} {box.center[1]:g} "
            f"{box.side} {box.parent if box.parent is not None else '-'} "
            f"{fmt_list(lists.children)} {fmt_list(lists.neighbors)} "
            f"{fmt_list(lists.interaction)}"
        )
    return "\n".join(lines)
