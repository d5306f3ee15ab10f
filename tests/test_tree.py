import numpy as np
import pytest

from latticefmm import fmm
from latticefmm.fmm import _MAX_LEAF_SIDE, _NEAR_OFFSETS, _by_code, fmm_apply, level_lists
from latticefmm.tree import FEW_POINTS, INTERACTION_OFFSETS, build_tree, morton_decode, morton_key

from tree_reference import (
    K_IFO,
    box_by_id,
    box_id,
    clustered_points,
    compute_lists,
    dump,
    leaf_rule_lists,
    level_offset,
    locate_id,
    pair_points,
    relative_ifo_offset,
    sparse_points,
)


def dense_grid(n):
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel()])


@pytest.fixture(scope="module")
def dense8():
    # 8x8 grid, one point per unit cell: full uniform tree with L=3.
    return build_tree(dense_grid(8), nleaf=1)


def test_level_offsets():
    assert [level_offset(l) for l in range(5)] == [1, 2, 6, 22, 86]


def test_root_children_ids_and_centers(dense8):
    root = box_by_id(dense8, 1)
    assert root.level == 0 and root.side == 8 and root.parent is None
    assert root.center == (4.0, 4.0)
    assert root.children == [2, 3, 4, 5]
    # children in (dx,dy) order (0,0),(1,0),(0,1),(1,1)
    assert box_by_id(dense8, 2).center == (2.0, 2.0)
    assert box_by_id(dense8, 3).center == (6.0, 2.0)
    assert box_by_id(dense8, 4).center == (2.0, 6.0)
    assert box_by_id(dense8, 5).center == (6.0, 6.0)


def test_frozen_children_list(dense8):
    lists = compute_lists(dense8)
    assert lists[14].children == [54, 55, 56, 57]


def test_frozen_neighbor_lists(dense8):
    lists = compute_lists(dense8)
    assert lists[23].neighbors == [22, 24, 25, 26, 28]
    assert lists[59].neighbors == [36, 37, 48, 58, 60, 61, 70, 72]


def test_frozen_interaction_list(dense8):
    lists = compute_lists(dense8)
    assert lists[7].interaction == [11, 13] + list(range(14, 22))
    assert len(lists[37].interaction) == 27


def test_root_has_empty_lists(dense8):
    lists = compute_lists(dense8)
    assert lists[1].neighbors == []
    assert lists[1].interaction == []
    assert len(lists) == 85


def test_locate_id_roundtrip(dense8):
    for bid in [1, 2, 5, 6, 21, 22, 37, 85]:
        level, rx, ry = locate_id(dense8, bid)
        assert box_id(level, rx, ry) == bid
    with pytest.raises(ValueError):
        locate_id(dense8, 86)
    with pytest.raises(ValueError):
        locate_id(dense8, 0)


def test_build_single_point():
    t = build_tree([(5, -3)], nleaf=1)
    assert t.L == 0 and t.root_side == 1
    root = box_by_id(t, 1)
    assert root.children == []
    assert list(root.point_index) == [0]


def test_build_four_corners():
    t = build_tree([(0, 0), (1, 0), (0, 1), (1, 1)], nleaf=1)
    assert t.L == 1 and t.root_side == 2
    for bid in (2, 3, 4, 5):
        assert box_by_id(t, bid).point_index.size == 1


def test_smallest_level_postcondition():
    pts = dense_grid(16)
    t = build_tree(pts, nleaf=64)
    # every leaf holds <= nleaf...
    leaf_counts = np.diff(t.ptr[t.L])
    assert leaf_counts.max() <= 64
    # ...and L is minimal: one level up some box would exceed nleaf
    if t.L > 0:
        coarse_counts = np.diff(t.ptr[t.L - 1])
        assert coarse_counts.max() > 64


def test_parent_points_are_union_of_children():
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 64, size=(150, 2))
    pts = np.unique(pts, axis=0)
    t = build_tree(pts, nleaf=4)
    for lvl in range(1, t.L + 1):
        for slot in range(len(t.codes[lvl])):
            parent_slot = t.parent_index[lvl][slot]
            lo, hi = t.ptr[lvl][slot], t.ptr[lvl][slot + 1]
            plo, phi_ = t.ptr[lvl - 1][parent_slot], t.ptr[lvl - 1][parent_slot + 1]
            assert plo <= lo and hi <= phi_


def test_errors_on_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        build_tree([(0, 0), (1, 2), (0, 0)], nleaf=4)
    with pytest.raises(ValueError):
        build_tree(np.empty((0, 2), dtype=int), nleaf=4)
    with pytest.raises(ValueError):
        build_tree([(0, 0)], nleaf=0)


def test_root_sizing_and_shift():
    t = build_tree([(0, 0), (100, 100)], nleaf=1)
    assert t.root_side == 128
    assert tuple(t.anchor) == (0, 0)
    t2 = build_tree([(-50, 3), (50, 103)], nleaf=1)
    assert t2.root_side == 128
    assert tuple(t2.anchor) == (-50, 3)
    for lvl in range(min(t.L, t2.L) + 1):
        assert np.array_equal(t.codes[lvl], t2.codes[lvl])


def test_max_leaf_side_forces_depth():
    # max_leaf_side refines toward that side only while some box holds
    # more than FEW_POINTS points; nleaf can still deepen the tree.
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 256, size=(40, 2))
    pts = np.unique(pts, axis=0)
    t = build_tree(pts, nleaf=1000)
    assert t.L == 0
    t = build_tree(pts, nleaf=1000, max_leaf_side=8)
    assert t.side_of(t.L) > 8
    assert np.diff(t.ptr[t.L]).max() <= FEW_POINTS < np.diff(t.ptr[t.L - 1]).max()
    # A full 16 x 16 block puts more than FEW_POINTS points in a box of
    # every side above 8: the leaves stop at side 8, whatever nleaf from
    # 64, and nleaf 1 takes them down to single cells.
    block = dense_grid(16) + 100
    both = np.unique(np.vstack([pts, block]), axis=0)
    for nleaf in (64, 1000):
        t = build_tree(both, nleaf=nleaf, max_leaf_side=8)
        assert t.side_of(t.L) == 8
    deep = build_tree(both, nleaf=1, max_leaf_side=8)
    assert deep.side_of(deep.L) == 1
    # Every level's count of one-point boxes, below the leaves too.
    assert list(t.singles) == [int(np.count_nonzero(np.diff(p) == 1)) for p in deep.ptr]


def test_empty_box_has_empty_points():
    t = build_tree([(0, 0), (100, 100)], nleaf=1)
    assert t.L >= 1
    assert box_by_id(t, 3).point_index.size == 0


def test_interaction_offsets_enumeration():
    assert K_IFO == 40
    norms = {max(abs(dx), abs(dy)) for dx, dy in INTERACTION_OFFSETS}
    assert norms == {2, 3}
    assert list(INTERACTION_OFFSETS) == sorted(INTERACTION_OFFSETS)


def _pairs_by_offset(tree, level, pairs, offsets):
    """The (target id, source id) pairs of a grouped slot list, after
    checking each group: distinct ascending targets, all at its offset."""
    rx, ry = morton_decode(tree.codes[level])
    tgt, src, bounds = pairs
    assert len(bounds) == len(offsets) + 1 and bounds[-1] == len(tgt) == len(src)
    out = set()
    for k, (dx, dy) in enumerate(offsets):
        t, s = tgt[bounds[k] : bounds[k + 1]], src[bounds[k] : bounds[k + 1]]
        assert np.all(np.diff(t) > 0)
        assert np.array_equal(rx[s] - rx[t], np.full(len(t), dx))
        assert np.array_equal(ry[s] - ry[t], np.full(len(t), dy))
        out.update(
            (box_id(level, rx[a], ry[a]), box_id(level, rx[b], ry[b])) for a, b in zip(t, s)
        )
    return out


LIST_TREES = {
    "dense8": lambda: build_tree(dense_grid(8), nleaf=1),
    "sparse": lambda: build_tree(sparse_points(), nleaf=64, max_leaf_side=_MAX_LEAF_SIDE),
    "clustered": lambda: build_tree(clustered_points(), nleaf=4),
    "L0": lambda: build_tree([(5, -3), (6, -3)], nleaf=4),
    "L1": lambda: build_tree([(0, 0), (1, 0), (0, 1), (1, 1)], nleaf=1),
}


def _ids(tree, level, flags):
    rx, ry = morton_decode(tree.codes[level][flags])
    return {box_id(level, x, y) for x, y in zip(rx, ry)}


def _check_lists(tree, levels, grid):
    """Check the lists of every level against the brute-force leaf rule,
    with the levels ``grid`` on the grid: same active boxes and leaves,
    same resolved and interaction pairs, each at its offset; a grid
    level's interactions are only their count.  Every leaf above level L
    and each of its active colleagues hold at most F points."""
    reference = leaf_rule_lists(tree)
    few = min(tree.nleaf, FEW_POINTS)
    assert len(levels) == len(reference)
    for level, ((active, leaf, resolved, interactions), want) in enumerate(zip(levels, reference)):
        want_active, want_leaves, want_resolved, want_far = want
        assert _ids(tree, level, active) == want_active
        assert _ids(tree, level, leaf) == want_leaves and not np.any(leaf & ~active)
        # Resolved pairs are target-major, as the near field reads them.
        assert np.all(np.diff(resolved[0]) >= 0)
        grouped = _by_code(*resolved, len(_NEAR_OFFSETS))
        got = _pairs_by_offset(tree, level, grouped, _NEAR_OFFSETS)
        assert len(resolved[0]) == len(got) and got == want_resolved
        if level in grid:
            assert interactions == len(want_far)
        else:
            got_far = _pairs_by_offset(tree, level, interactions, INTERACTION_OFFSETS)
            assert len(interactions[0]) == len(got_far) and got_far == want_far
        if level < tree.L:
            count = np.diff(tree.ptr[level])
            for b, c in want_resolved:
                assert count[_slot(tree, b)] <= few and count[_slot(tree, c)] <= few
    return levels


def _slot(tree, bid):
    level, rx, ry = locate_id(tree, bid)
    return int(np.searchsorted(tree.codes[level], morton_key(rx, ry)))


@pytest.mark.parametrize("name", sorted(LIST_TREES))
def test_level_lists_match_reference(name):
    # The lists the FMM applies, every active box at every level against
    # the brute-force leaf rule: same active boxes and leaves, same
    # resolved and interaction pairs, each at its offset.
    tree = LIST_TREES[name]()
    levels = _check_lists(tree, list(level_lists(tree)), grid=[])
    assert tree.L == {"dense8": 3, "L0": 0, "L1": 1}.get(name, tree.L)
    leaf_levels = [lvl for lvl, (_, leaf, _, _) in enumerate(levels) if leaf.any()]
    if name in ("sparse", "clustered"):
        # Leaves above level L (sparse: at levels 4 and 5 = L; clustered:
        # at 2, 3, 4 and 11 = L), and T_ifo pairs below the first.
        assert len(leaf_levels) >= {"sparse": 2, "clustered": 4}[name] and leaf_levels[0] < tree.L
        assert any(len(far[0]) for _, _, _, far in levels[leaf_levels[0] + 1 :])
    else:
        assert leaf_levels == [tree.L]


GRID_RUNS = [("dense8", 2), ("sparse", 6), ("sparse", 99), ("clustered", 4), ("clustered", 99)]


@pytest.mark.parametrize("name,last", GRID_RUNS)
def test_level_lists_under_a_grid_run(name, last):
    # The levels 2..last on the grid, and level L too: the grid levels need
    # not form one run, since the grid holds the active boxes alone.  The
    # grid changes no list but the interactions it only counts.
    tree = LIST_TREES[name]()
    asked = []

    def on_grid(lvl, n_far):
        asked.append((lvl, n_far))
        return lvl <= last or lvl == tree.L

    levels = _check_lists(tree, list(level_lists(tree, on_grid)), [*range(2, last + 1), tree.L])
    reference = leaf_rule_lists(tree)
    # Asked once per level from 2, with the level's interaction pairs
    # counted before any pair is formed.
    assert [lvl for lvl, _ in asked] == list(range(2, len(levels)))
    assert all(n_far == len(reference[lvl][3]) for lvl, n_far in asked)
    assert all(isinstance(levels[lvl][3], int) for lvl in range(2, len(levels)) if lvl <= last or lvl == tree.L)
    if last + 1 < tree.L:
        assert not isinstance(levels[last + 1][3], int)


@pytest.mark.parametrize("name", ["sparse", "clustered"])
def test_ifo_pairs_per_level_brute_count(name):
    pts = {"sparse": sparse_points, "clustered": clustered_points}[name]()
    stats = {}
    fmm_apply(pts, np.ones(len(pts)), nleaf=4, stats=stats)
    tree = build_tree(pts, nleaf=4, max_leaf_side=_MAX_LEAF_SIDE)
    brute = leaf_rule_lists(tree)
    grid = [lvl for lvl, (_, _, _, far) in enumerate(brute) if lvl >= 2 and len(far) >= fmm._IFO_GRID_PAIRS_PER_CELL * 4**lvl]
    assert stats["ifo_grid_levels"] == grid
    assert stats["ifo_pairs_per_level"] == [0, 0] + [len(far) for _, _, _, far in brute[2:]]
    assert stats["leaves_per_level"] == [len(leaves) for _, leaves, _, _ in brute]
    assert stats["resolved_pairs_per_level"] == [pair_points(tree, near) for _, _, near, _ in brute]
    assert stats["upward_rows_per_level"] == [0, 0] + [len(active) for active, _, _, _ in brute[2:]]
    assert stats["boxes_per_level"] == [len(c) for c in tree.codes]
    assert sum(stats["ifo_pairs_per_level"]) > 0 and sum(stats["resolved_pairs_per_level"][: tree.L]) > 0


def test_list_symmetry(dense8):
    lists = compute_lists(dense8)
    for bid in range(1, len(lists) + 1):
        for sid in lists[bid].neighbors:
            assert bid in lists[sid].neighbors
        for sid in lists[bid].interaction:
            assert bid in lists[sid].interaction


def test_interaction_well_separated(dense8):
    lists = compute_lists(dense8)
    for bid in range(1, len(lists) + 1):
        box = box_by_id(dense8, bid)
        for sid in lists[bid].interaction:
            other = box_by_id(dense8, sid)
            gap = max(
                abs(box.center[0] - other.center[0]),
                abs(box.center[1] - other.center[1]),
            )
            assert gap >= 2 * box.side


def test_near_far_partition_exact(dense8):
    # Every (leaf, point) pair is accounted exactly once: either the point's
    # leaf is the same/adjacent, or exactly one ancestor pair interacts.
    lists = compute_lists(dense8)
    n_pts = dense8.points.shape[0]
    leaf_of = {}
    for bid in range(level_offset(3), level_offset(4)):
        for j in box_by_id(dense8, bid).point_index:
            leaf_of[int(j)] = bid

    def ancestors(bid):
        chain = [bid]
        while True:
            parent = box_by_id(dense8, chain[-1]).parent
            if parent is None:
                return chain
            chain.append(parent)

    for tau in range(level_offset(3), level_offset(4)):
        tau_chain = ancestors(tau)
        for j in range(n_pts):
            sigma = leaf_of[j]
            sigma_chain = ancestors(sigma)
            near = sigma == tau or sigma in lists[tau].neighbors
            far_hits = sum(
                1
                for a, b in zip(tau_chain, sigma_chain)
                if b in lists[a].interaction
            )
            assert int(near) + far_hits == 1


def test_relative_ifo_offset_translation_invariant(dense8):
    lists = compute_lists(dense8)
    seen = {}
    for bid in range(level_offset(2), level_offset(4)):
        level, rx, ry = locate_id(dense8, bid)
        for sid in lists[bid].interaction:
            _, sx, sy = locate_id(dense8, sid)
            delta = (sx - rx, sy - ry)
            idx = relative_ifo_offset(dense8, bid, sid)
            assert 1 <= idx <= K_IFO
            if delta in seen:
                assert seen[delta] == idx
            else:
                seen[delta] = idx
    assert len(seen) == K_IFO


def test_relative_ifo_offset_negation(dense8):
    lists = compute_lists(dense8)
    bid = 37
    for sid in lists[bid].interaction:
        i = relative_ifo_offset(dense8, bid, sid)
        j = relative_ifo_offset(dense8, sid, bid)
        level, rx, ry = locate_id(dense8, bid)
        _, sx, sy = locate_id(dense8, sid)
        assert INTERACTION_OFFSETS[i - 1] == (sx - rx, sy - ry)
        assert INTERACTION_OFFSETS[j - 1] == (rx - sx, ry - sy)


def test_relative_ifo_offset_rejects_non_members(dense8):
    with pytest.raises(ValueError):
        relative_ifo_offset(dense8, 23, 22)  # neighbors, not interaction
    with pytest.raises(ValueError):
        relative_ifo_offset(dense8, 7, 23)  # different levels


def test_dump_format(dense8):
    text = dump(dense8)
    lines = text.splitlines()
    assert len(lines) == 85
    assert lines[0] == "1 0 4 4 8 - [2,3,4,5] [] []"
    line23 = lines[22]
    assert line23.startswith("23 3 ")
    assert "[22,24,25,26,28]" in line23
