"""Box ids and interaction lists of a QuadTree, one box at a time.

This is the definitional form of the geometry that ``latticefmm.fmm``
evaluates in batches (``fmm.level_lists`` derives each level's colleague
and interaction pairs from the parent level's colleagues of two non-leaf
boxes, and chooses the leaves box by box); the tests use it, and
``leaf_rule_lists`` for the leaf rule, as their reference.

Boxes are numbered breadth-first from 1 (the root).  Within a level, ids
follow Morton order with x varying fastest, so the four children of a box
come in the order (0,0), (1,0), (0,1), (1,1) of (dx, dy).  Queries treat
the full uniform tree geometrically, so empty boxes have valid ids and
lists too.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from latticefmm.tree import FEW_POINTS, INTERACTION_OFFSETS, QuadTree, morton_decode, morton_key

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


def level_offset(level: int) -> int:
    """First box id at a level: 1, 2, 6, 22, 86, ..."""
    return (4**level - 1) // 3 + 1


def total_boxes(tree: QuadTree) -> int:
    return level_offset(tree.L + 1) - 1


def _spread_bits(v: int) -> int:
    # Bit i of v moves to bit 2i (Python ints: no numpy scalar per call).
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


def box_id(level: int, rx: int, ry: int) -> int:
    return level_offset(level) + (_spread_bits(int(rx)) | (_spread_bits(int(ry)) << 1))


def locate_id(tree: QuadTree, bid: int):
    """Inverse of box_id: (level, rx, ry) of a box id."""
    if bid < 1 or bid > total_boxes(tree):
        raise ValueError(f"box id {bid} out of range")
    level = 0
    while level_offset(level + 1) <= bid:
        level += 1
    rank = bid - level_offset(level)
    rx, ry = morton_decode(rank)
    return level, int(rx), int(ry)


def box_anchor(tree: QuadTree, level: int, rx: int, ry: int):
    s = tree.side_of(level)
    return tree.anchor[0] + s * rx, tree.anchor[1] + s * ry


def _occupied_slot(tree: QuadTree, level: int, rx: int, ry: int):
    key = int(morton_key(rx, ry))
    i = int(np.searchsorted(tree.codes[level], key))
    if i < len(tree.codes[level]) and tree.codes[level][i] == key:
        return i
    return None


def box_by_id(tree: QuadTree, bid: int) -> TreeBox:
    level, rx, ry = locate_id(tree, bid)
    s = tree.side_of(level)
    ax, ay = box_anchor(tree, level, rx, ry)
    parent = None
    if level > 0:
        parent = box_id(level - 1, rx // 2, ry // 2)
    children = []
    if level < tree.L:
        children = [
            box_id(level + 1, 2 * rx + dx, 2 * ry + dy)
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]
        children.sort()
    slot = _occupied_slot(tree, level, rx, ry)
    if slot is None:
        idx = np.empty(0, dtype=np.int64)
    else:
        idx = tree.order[tree.ptr[level][slot] : tree.ptr[level][slot + 1]]
    return TreeBox(
        id=bid,
        level=level,
        center=(ax + s / 2, ay + s / 2),
        side=s,
        parent=parent,
        children=children,
        point_index=idx,
    )


def neighbor_ids(level: int, rx: int, ry: int) -> list:
    n_side = 1 << level
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            sx, sy = rx + dx, ry + dy
            if 0 <= sx < n_side and 0 <= sy < n_side:
                out.append(box_id(level, sx, sy))
    out.sort()
    return out


def interaction_ids(level: int, rx: int, ry: int) -> list:
    n_side = 1 << level
    out = []
    for dx, dy in INTERACTION_OFFSETS:
        sx, sy = rx + dx, ry + dy
        if not (0 <= sx < n_side and 0 <= sy < n_side):
            continue
        if abs(sx // 2 - rx // 2) <= 1 and abs(sy // 2 - ry // 2) <= 1:
            out.append(box_id(level, sx, sy))
    out.sort()
    return out


def reference_pairs(tree: QuadTree, level: int):
    """Colleague (self included) and interaction pairs of the occupied boxes
    at one level, as sets of (target id, source id), from the box-by-box
    definitions."""
    rx, ry = morton_decode(tree.codes[level])
    ids = [box_id(level, x, y) for x, y in zip(rx, ry)]
    occupied = set(ids)
    colleagues, interactions = set(), set()
    for bid, x, y in zip(ids, rx, ry):
        colleagues.update((bid, c) for c in neighbor_ids(level, x, y) + [bid] if c in occupied)
        interactions.update((bid, c) for c in interaction_ids(level, x, y) if c in occupied)
    return colleagues, interactions


def sparse_points():
    """2000 distinct points spread over 2^14 x 2^14: boxes of a few points
    from level 5 down."""
    rng = np.random.default_rng(11)
    return np.unique(rng.integers(0, 1 << 14, size=(2000, 2)), axis=0)


def clustered_points():
    """A full 16 x 16 block plus 60 isolated points: most siblings of the
    isolated points' boxes are empty, at every level, and boxes of one
    point appear from level 2."""
    rng = np.random.default_rng(5)
    far = rng.integers(0, 4096, size=(60, 2))
    xs, ys = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    block = np.column_stack([xs.ravel(), ys.ravel()]) + 1000
    return np.unique(np.vstack([block, far]), axis=0)


def leaf_rule_lists(tree: QuadTree) -> list:
    """The leaf rule box by box: per level 0..L, (active, leaves, resolved,
    interactions) as sets of box ids and of (target id, source id) pairs.

    The root is active, and a box below it is active when its parent is an
    active box that is not a leaf.  An active box is a leaf at level L, or
    when it and each active box among its neighbours hold at most
    F = min(nleaf, ``FEW_POINTS``) points.  The resolved pairs are the
    colleague pairs of ``reference_pairs`` (the box itself included) of two
    active boxes that hold a leaf; the interactions are its interaction
    pairs of two active boxes.
    """
    few = min(tree.nleaf, FEW_POINTS)
    out = []
    active = {box_id(0, 0, 0)}
    for level in range(tree.L + 1):
        colleagues, interactions = reference_pairs(tree, level)
        size = {b: len(box_by_id(tree, b).point_index) for b in active}

        def crowded(b):
            _, rx, ry = locate_id(tree, b)
            return any(size[c] > few for c in neighbor_ids(level, rx, ry) + [b] if c in active)

        leaves = {b for b in active if level == tree.L or not crowded(b)}
        resolved = {(b, c) for b, c in colleagues if b in active and c in active and (b in leaves or c in leaves)}
        far = {(b, c) for b, c in interactions if b in active and c in active}
        out.append((active, leaves, resolved, far))
        occupied = set()
        if level < tree.L:
            rx, ry = morton_decode(tree.codes[level + 1])
            occupied = {box_id(level + 1, x, y) for x, y in zip(rx, ry)}
        active = {c for b in active - leaves for c in box_by_id(tree, b).children if c in occupied}
    return out


def pair_points(tree: QuadTree, pairs) -> int:
    """Ordered point pairs of a set of (target id, source id) box pairs."""
    size = {}
    for pair in pairs:
        for b in pair:
            if b not in size:
                size[b] = len(box_by_id(tree, b).point_index)
    return sum(size[b] * size[c] for b, c in pairs)


def lists_for(tree: QuadTree, bid: int) -> BoxLists:
    level, rx, ry = locate_id(tree, bid)
    return BoxLists(
        children=box_by_id(tree, bid).children,
        neighbors=neighbor_ids(level, rx, ry),
        interaction=interaction_ids(level, rx, ry),
    )


class _ListsMap(Mapping):
    """Lazy BoxId -> BoxLists map over the full uniform tree."""

    def __init__(self, tree: QuadTree):
        self._tree = tree
        self._n = total_boxes(tree)

    def __getitem__(self, bid: int) -> BoxLists:
        if not (1 <= bid <= self._n):
            raise KeyError(bid)
        return lists_for(self._tree, bid)

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(range(1, self._n + 1))


def compute_lists(tree: QuadTree) -> Mapping:
    return _ListsMap(tree)


def relative_ifo_offset(tree: QuadTree, tau, sigma) -> int:
    """Canonical 1-based index of sigma's offset relative to tau.

    tau/sigma may be TreeBox objects or box ids.  Raises ValueError when
    sigma is not in tau's interaction list.
    """
    tid = tau.id if isinstance(tau, TreeBox) else int(tau)
    sid = sigma.id if isinstance(sigma, TreeBox) else int(sigma)
    lt, tx, ty = locate_id(tree, tid)
    ls, sx, sy = locate_id(tree, sid)
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
    for bid in range(1, total_boxes(tree) + 1):
        box = box_by_id(tree, bid)
        lists = lists_for(tree, bid)
        lines.append(
            f"{box.id} {box.level} {box.center[0]:g} {box.center[1]:g} "
            f"{box.side} {box.parent if box.parent is not None else '-'} "
            f"{fmt_list(lists.children)} {fmt_list(lists.neighbors)} "
            f"{fmt_list(lists.interaction)}"
        )
    return "\n".join(lines)
