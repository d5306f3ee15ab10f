import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefmm import fmm, skeleton
from latticefmm.fmm import _MAX_LEAF_SIDE, fmm_apply, level_lists
from latticefmm.green import phi
from latticefmm.oracle import direct_sum
from latticefmm.tree import FEW_POINTS, build_tree

from fmm_reference import dense_solve_truncated, direct_near_field, estimate_complexity
from tree_reference import (
    box_by_id,
    clustered_points,
    leaf_rule_lists,
    pair_points,
    sparse_points,
    total_boxes,
)


def random_sources(rng, n, box):
    pts = rng.integers(0, box, size=(2 * n, 2))
    pts = np.unique(pts, axis=0)[:n]
    q = rng.standard_normal(pts.shape[0])
    return pts, q


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def with_full_leaf(pts):
    """``pts`` (coordinates >= 0) and a full 8 x 8 block at the origin,
    which anchors the tree there: every box above side 8 that holds the
    block holds more than FEW_POINTS points, so the leaves stay at side 8."""
    return np.unique(np.vstack([grid_points(8), pts]), axis=0)


def test_single_charge_self_potential():
    u = fmm_apply([(0, 0)], [1.0])
    assert u.shape == (1,)
    assert u[0] == 0.0


def test_two_far_charges_frozen():
    pts = [(0, 0), (100, 100)]
    u = fmm_apply(pts, [1.0, -1.0])
    expected = phi(100, 100)
    assert u[0] == pytest.approx(-expected, abs=1e-11)
    assert u[1] == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("n,seed", [(100, 0), (500, 1), (2000, 2)])
def test_matches_direct_oracle(n, seed):
    rng = np.random.default_rng(seed)
    pts, q = random_sources(rng, n, 1 << 15)
    u_fast = fmm_apply(pts, q, eps=1e-10)
    u_slow = direct_sum(pts, q)
    assert rel_l2(u_fast, u_slow) <= 1e-9


def test_dense_grid_matches_oracle():
    rng = np.random.default_rng(4)
    g = np.arange(32)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    q = rng.standard_normal(pts.shape[0])
    u_fast = fmm_apply(pts, q)
    u_slow = direct_sum(pts, q)
    assert rel_l2(u_fast, u_slow) <= 1e-9


def test_separate_targets():
    rng = np.random.default_rng(9)
    pts, q = random_sources(rng, 300, 4096)
    targets = np.vstack([rng.integers(0, 4096, size=(47, 2)), pts[:3]])
    u_fast = fmm_apply(pts, q, targets=targets)
    u_slow = direct_sum(pts, q, targets=targets)
    assert u_fast.shape == (50,)
    assert rel_l2(u_fast, u_slow) <= 1e-9


def test_shallow_tree_falls_back_to_dense():
    # Under two levels there are no interaction lists: every leaf neighbours
    # every other, and the near field alone is the whole sum.
    rng = np.random.default_rng(19)
    cases = [
        (np.array([(0, 0), (3, 1), (7, 7), (2, 6), (5, 4)]), 1),
        # More than FEW_POINTS points over 16 x 16, at most that many per
        # quadrant: one level of four leaves of side 8.
        (np.vstack([4 * grid_points(4) + 1, [(0, 0), (15, 15), (3, 12), (9, 2)]]), 2),
        (grid_points(16), 2),  # four full leaves: stencil GEMMs
    ]
    phi(0, 1)  # phi's table is shared state too: build it first
    for pts, levels in cases:
        q = rng.standard_normal(len(pts))
        stats = {}
        memo_before = set(skeleton._chain_memo)
        u = fmm_apply(pts, q, stats=stats)
        assert stats["levels"] == levels
        assert rel_l2(u, direct_sum(pts, q)) <= 1e-13
        assert stats["t_upward"] == stats["t_ifo"] == stats["t_downward"] == 0.0
        assert stats["near_pairs"] == len(pts) ** 2
        # No operator chain is fetched, built or reported.
        assert stats["shared_op_entries"] == 0
        assert stats["built_shared"] is False
        assert stats["ifo_pairs_per_level"] == stats["ranks_per_level"] == [0] * levels
        assert stats["t_upward_per_level"] == stats["t_downward_per_level"] == [0.0] * levels
        assert set(skeleton._chain_memo) == memo_before


def test_superposition():
    rng = np.random.default_rng(21)
    pts, q1 = random_sources(rng, 400, 10000)
    q2 = rng.standard_normal(len(q1))
    u12 = fmm_apply(pts, q1 + q2)
    u1 = fmm_apply(pts, q1)
    u2 = fmm_apply(pts, q2)
    assert np.linalg.norm(u12 - (u1 + u2)) <= 1e-10 * np.linalg.norm(u12)


def test_translation_invariance():
    rng = np.random.default_rng(31)
    pts, q = random_sources(rng, 350, 2048)
    u0 = fmm_apply(pts, q)
    u1 = fmm_apply(pts + np.array([10007, -777]), q)
    assert rel_l2(u1, u0) <= 1e-9


def test_reciprocity_through_deep_tree():
    a = (3, 5)
    b = (2901, 3107)
    u_ab = fmm_apply([a], [1.0], targets=[b])
    u_ba = fmm_apply([b], [1.0], targets=[a])
    expected = phi(b[0] - a[0], b[1] - a[1])
    assert u_ab[0] == pytest.approx(expected, abs=1e-10)
    assert u_ba[0] == pytest.approx(expected, abs=1e-10)


def test_pde_residual_at_sources():
    # zero-net-charge f; stencil of the solution must return f at sources
    src = np.array([(0, 0), (41, 7), (-33, 12)])
    f = np.array([1.0, -0.375, -0.625])
    stencil = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    targets = np.array(
        [(x + dx, y + dy) for x, y in src for dx, dy in stencil]
    )
    u = fmm_apply(src, f, targets=targets)
    values = {tuple(p): v for p, v in zip(map(tuple, targets), u)}
    from latticefmm.green import apply_discrete_laplacian

    for (x, y), fv in zip(map(tuple, src), f):
        assert apply_discrete_laplacian(values, (x, y)) == pytest.approx(
            fv, abs=1e-9
        )


def test_duplicate_sources_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        fmm_apply([(0, 0), (0, 0)], [1.0, 1.0])
    # With targets, the duplicate is found in the union of the two sets.
    with pytest.raises(ValueError, match="duplicate"):
        fmm_apply([(0, 0), (3, 1), (0, 0)], [1.0, 2.0, 1.0], targets=[(5, 5), (0, 0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_charges_rejected(bad):
    with pytest.raises(ValueError, match="charges must be finite"):
        fmm_apply([(0, 0), (5, 1), (9, 9)], [1.0, bad, 2.0])


@pytest.mark.parametrize("bad", [0.5, 0.9, np.nan, np.inf])
def test_non_integer_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="^points must have integer coordinates$"):
        fmm_apply([(bad, 0), (3, 0)], [1.0, 1.0])
    with pytest.raises(ValueError, match="^targets must have integer coordinates$"):
        fmm_apply([(0, 0), (3, 0)], [1.0, 1.0], targets=[(0, 1), (bad, 0.2)])
    integral = fmm_apply([(0.0, 0.0), (3.0, 0.0)], [1.0, 1.0], targets=[(0.0, 1.0)])
    assert np.array_equal(integral, fmm_apply([(0, 0), (3, 0)], [1.0, 1.0], targets=[(0, 1)]))


def test_extent_limit():
    # Morton keys hold 31 bits per coordinate: extent 2**31 is the largest.
    far = 2**31 - 1
    pts = np.array([(0, 0), (far, 3), (7, far), (far, far), (40, 41)])
    q = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
    u = fmm_apply(pts, q)
    assert rel_l2(u, direct_sum(pts, q)) <= 1e-9
    for edge in (2**31, 2**33):
        wide = pts.copy()
        wide[1, 0] = edge
        with pytest.raises(ValueError, match="extent"):
            fmm_apply(wide, q)


@pytest.mark.parametrize(
    "charges,message",
    [
        (np.ones((3, 1)), "1-D array of length 3"),
        (np.ones(4), "1-D array of length 3"),
        (np.ones(3) + 1j, "must be real, not complex"),
        (["a", "b", "c"], "must be real numbers"),
        ([1e308] * 3, "charges too large"),
        ([6e307, 6e307, 1.0], "charges too large"),  # sum |q| finite, above 2**1000
    ],
)
def test_charges_contract(charges, message):
    with pytest.raises(ValueError, match=message):
        fmm_apply([(0, 0), (5, 1), (9, 9)], charges)


def test_large_charges_within_contract_stay_finite():
    pts = [(0, 0), (2**30, 0), (0, 2**30)]
    q = [2.0**998, 2.0**998, 0.0]
    u = fmm_apply(pts, q)
    assert np.all(np.isfinite(u))
    assert np.allclose(u, direct_sum(pts, q), rtol=1e-12, atol=0)


def test_targets_contract():
    pts, q = [(0, 0), (5, 1), (9, 9)], [1.0, 2.0, 3.0]
    for bad in (np.ones((2, 3), dtype=int), np.ones((2, 2, 2), dtype=int), [1, 2, 3], 4):
        with pytest.raises(ValueError, match="targets must be an"):
            fmm_apply(pts, q, targets=bad)
    one = fmm_apply(pts, q, targets=(5, 1))
    assert one.shape == (1,) and np.array_equal(one, fmm_apply(pts, q, targets=[(5, 1)]))
    assert fmm_apply(pts, q, targets=np.empty((0, 2), dtype=int)).shape == (0,)


@pytest.mark.parametrize("nleaf", [1.5, 2.0, 0, -1, True, "4"])
def test_nleaf_contract(nleaf):
    with pytest.raises(ValueError, match="nleaf must be an integer >= 1"):
        fmm_apply([(0, 0), (5, 1)], [1.0, 2.0], nleaf=nleaf)


@pytest.mark.parametrize("eps", [1e-16, 1e-14, 1e-2, 0.5, np.nan])
def test_eps_range_enforced(eps):
    with pytest.raises(ValueError, match="eps must lie in"):
        fmm_apply([(0, 0), (5, 1)], [1.0, 2.0], eps=eps)


PASS_TIMES = ("t_tree", "t_chain", "t_lists", "t_upward", "t_ifo", "t_downward", "t_near")


def test_stats_reported():
    rng = np.random.default_rng(17)
    scattered = random_sources(rng, 500, 1 << 14)[0]
    pts = with_full_leaf(scattered)
    q = rng.standard_normal(len(pts))
    stats = {}
    fmm_apply(pts, q, stats=stats)
    assert stats["n_source"] == len(pts)
    assert stats["levels"] >= 3
    assert stats["op_entries"] > 0
    assert stats["wall_time"] > 0
    for key in PASS_TIMES:
        assert stats[key] >= 0.0
    assert sum(stats[key] for key in PASS_TIMES) <= stats["wall_time"]
    # The scattered points lie in leaves above level L, on several levels,
    # whose resolved pairs are summed point pair by point pair; the full
    # leaf is the one leaf at level L and, with no neighbour there, its
    # resolved pairs are one stencil block.
    leaves = stats["leaves_per_level"]
    assert leaves[-1] == 1 and len(np.flatnonzero(leaves[:-1])) >= 3
    resolved = stats["resolved_pairs_per_level"]
    assert stats["near_gemm_blocks"] == 1 and resolved[-1] == 64 * 64
    assert stats["near_ragged_pairs"] == sum(resolved[:-1]) > 0
    assert stats["near_pairs"] == sum(resolved)

    # 4 x 4 full leaves: 10 x 10 ordered (target, source) neighbour pairs.
    full = {}
    fmm_apply(grid_points(32), np.ones(32 * 32), stats=full)
    assert full["near_gemm_blocks"] == 100
    assert full["near_pairs"] == 100 * 64 * 64
    assert full["near_ragged_pairs"] == 0


def test_per_level_stats(monkeypatch):
    monkeypatch.setattr(skeleton, "_chain_memo", {})
    rng = np.random.default_rng(19)
    pts = with_full_leaf(random_sources(rng, 400, 1 << 12)[0])
    q = rng.standard_normal(len(pts))
    first, second = {}, {}
    fmm_apply(pts, q, stats=first)
    fmm_apply(pts, q, stats=second)
    assert first["built_shared"] is True and first["t_chain"] > 0.0
    assert second["built_shared"] is False
    tree = build_tree(pts, nleaf=64, max_leaf_side=8)
    assert second["levels"] == tree.L + 1 >= 3
    assert second["boxes_per_level"] == [len(c) for c in tree.codes]
    (chain,) = skeleton._chain_memo.values()
    assert second["ranks_per_level"] == [0, 0] + [
        chain.ops[tree.side_of(lvl)].skeleton.rank for lvl in range(2, tree.L + 1)
    ]
    # Per level, against the brute-force leaf rule: its leaves, the point
    # pairs of its resolved pairs, its T_ifo blocks and its grid levels.
    want = leaf_rule_lists(tree)
    assert len(want) == tree.L + 1
    assert second["leaves_per_level"] == [len(leaves) for _, leaves, _, _ in want]
    assert second["resolved_pairs_per_level"] == [pair_points(tree, near) for _, _, near, _ in want]
    assert second["ifo_pairs_per_level"] == [0, 0] + [len(far) for _, _, _, far in want[2:]]
    cut = fmm._IFO_GRID_PAIRS_PER_CELL
    assert second["ifo_grid_levels"] == [lvl for lvl in range(2, tree.L + 1) if len(want[lvl][3]) >= cut * 4**lvl]
    assert len(np.flatnonzero(second["leaves_per_level"][:-1])) >= 2
    # T_ifo seconds per level: none at levels 0-1, some at every level of
    # pairs, and together t_ifo.
    per_level = second["t_ifo_per_level"]
    assert len(per_level) == second["levels"] and per_level[:2] == [0.0, 0.0]
    assert all(t > 0.0 for t, n in zip(per_level, second["ifo_pairs_per_level"]) if n)
    assert sum(per_level) == second["t_ifo"]
    # T_ofs/T_ofo and T_ifi/T_tfi seconds per level: none at levels 0-1,
    # some at every level from 2 (its expansions are formed and carried
    # down, or expanded at the leaves), and together t_upward and
    # t_downward.
    for key in ("t_upward", "t_downward"):
        per_level = second[key + "_per_level"]
        assert len(per_level) == second["levels"] and per_level[:2] == [0.0, 0.0]
        assert all(t > 0.0 for t in per_level[2:])
        assert sum(per_level) == second[key]
    # Rows of the upward pass's level arrays: none at levels 0-1, and one
    # per active box from level 2.
    assert second["upward_rows_per_level"] == [0, 0] + [len(active) for active, _, _, _ in want[2:]]
    assert json.loads(json.dumps(second)) == second


def dipole_crack(rng, m):
    """Charges D^T z of a straight crack of m vertical unit bars: z_k at
    (k, 0) and -z_k at (k, 1), so every pair cancels."""
    lower = np.column_stack([np.arange(m), np.zeros(m, dtype=np.int64)]) + (900, 250)
    z = rng.standard_normal(m)
    return np.concatenate([lower, lower + (0, 1)]), np.concatenate([z, -z])


@pytest.mark.parametrize("kind", ["zero-sum", "dipole"])
def test_error_bounded_by_charge_l1_norm(kind):
    """fmm_apply's contract max|u - exact| <= eps sum|q|, on charges that
    cancel, whose potentials are small against sum|q|."""
    rng = np.random.default_rng(29)
    if kind == "zero-sum":
        pts, q = random_sources(rng, 1500, 4096)
        q -= q.mean()
    else:
        pts, q = dipole_crack(rng, 800)
    ref = direct_sum(pts, q)
    for eps in (1e-6, 1e-8, 1e-10, 1e-12):
        err = np.max(np.abs(fmm_apply(pts, q, eps=eps) - ref))
        assert err <= eps * np.abs(q).sum(), (eps, err / (eps * np.abs(q).sum()))


def grid_points(n):
    g = np.arange(n)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


@pytest.mark.parametrize(
    "regime,paths",
    [("full", {"gemm"}), ("quarter", {"gemm", "ragged"}), ("sparse", {"ragged"})],
)
def test_near_field_paths_match_direct(regime, paths):
    """Every leaf pair full, occupancy around the GEMM threshold, ~1 per leaf."""
    rng = np.random.default_rng(43)
    if regime == "full":
        pts = grid_points(48)
    elif regime == "quarter":
        flat = rng.choice(256 * 256, size=256 * 256 // 4, replace=False)
        pts = np.column_stack([flat // 256, flat % 256])
    else:
        pts, _ = random_sources(rng, 3000, 1 << 14)
    q = rng.standard_normal(len(pts))
    stats = {}
    u = fmm_apply(pts, q, stats=stats)
    used = set()
    if stats["near_gemm_blocks"]:
        used.add("gemm")
    if stats["near_ragged_pairs"]:
        used.add("ragged")
    assert used == paths
    rows = np.sort(rng.choice(len(pts), size=min(len(pts), 600), replace=False))
    ref = direct_sum(pts, q, targets=pts[rows])
    assert rel_l2(u[rows], ref) <= 1e-9


_SIDES = ((1, 0), (0, 1), (1, 1), (1, -1))
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _shift(draw):
    # Multiples of the leaf side 8 keep leaf alignment; coordinates go negative.
    return 8 * np.array(draw(st.tuples(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20))))


@st.composite
def adversarial_sets(draw):
    """(points, charges, targets or None): one box, or collinear points,
    optionally with targets on top of and beside the sources."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # every point in one 8 x 8 box
        flat = rng.choice(64, size=draw(st.integers(1, 64)), replace=False)
        pts = np.column_stack([flat // 8, flat % 8])
    else:  # a row, a column or a diagonal
        step = draw(st.integers(1, 40))
        direction = np.array(draw(st.sampled_from(_SIDES)))
        pts = np.arange(draw(st.integers(2, 200)))[:, None] * step * direction
    pts = pts + _shift(draw)
    q = rng.standard_normal(len(pts))
    targets = None
    if draw(st.booleans()):
        extra = pts[rng.integers(0, len(pts), size=5)] + rng.integers(-3, 4, size=(5, 2))
        targets = np.vstack([pts[: len(pts) // 2 + 1], extra])
    return pts, q, targets


@st.composite
def leaf_pairs(draw):
    """(points, charges, GEMM block count): two neighbour 8 x 8 leaves whose
    counts ct * cs sit just below or at the threshold s^2 = 64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ct = draw(st.one_of(st.integers(6, 10), st.integers(1, 64)))  # weight ct ~ s
    cs = draw(st.sampled_from(sorted({max(63 // ct, 1), min(-(-64 // ct), 64)})))
    dx, dy = draw(st.sampled_from(_SIDES))
    a = rng.choice(64, size=ct, replace=False)
    b = rng.choice(64, size=cs, replace=False)
    # Two far points pin the tree anchor to a multiple of 8, 16 away from
    # the 16 x 16 box that holds the first leaf, and a full 8 x 8 leaf
    # makes the tree deep enough for 8 x 8 leaves (it holds more than
    # FEW_POINTS points).  That leaf is two leaves from either of the
    # pair, so it neighbours neither, but its 16 x 16 box is a colleague
    # of the pair's, so no box of the pair is a leaf above side 8: the
    # pair meets at side 8 whatever its counts.  The full leaf is one more
    # stencil block.
    pts = np.vstack([
        np.column_stack([8 + a // 8, 8 + a % 8]),
        np.column_stack([8 + 8 * dx + b // 8, 8 + 8 * dy + b % 8]),
        [(-1024, 0), (0, -1024)],
        grid_points(8) + ((0, 24) if dx else (24, 0)),
    ]) + _shift(draw)
    blocks = 2 * (ct * cs >= 64) + (ct >= 8) + (cs >= 8) + 1
    return pts, rng.standard_normal(len(pts)), blocks


def assert_matches_direct(pts, q, targets=None, stats=None):
    u = fmm_apply(pts, q, targets=targets, stats=stats)
    ref = direct_sum(pts, q, targets=targets)
    assert np.linalg.norm(u - ref) <= 1e-9 * max(np.linalg.norm(ref), np.linalg.norm(q))


@_PROPERTY
@given(adversarial_sets())
def test_property_matches_direct(case):
    assert_matches_direct(*case)


@_PROPERTY
@given(leaf_pairs())
def test_property_leaf_pair_paths(case):
    pts, q, blocks = case
    stats = {}
    assert_matches_direct(pts, q, stats=stats)
    assert stats["near_gemm_blocks"] == blocks


def test_direct_near_field_single_box():
    rng = np.random.default_rng(6)
    pts = rng.integers(0, 8, size=(20, 2))
    pts = np.unique(pts, axis=0)
    q = rng.standard_normal(len(pts))
    tree = build_tree(pts, nleaf=len(pts))
    assert tree.L == 0
    idx, u = direct_near_field(tree, 1, q)
    expected = direct_sum(pts, q)
    assert np.allclose(u, expected[idx], atol=1e-13)


def test_direct_near_field_adjacent_pair():
    pts = np.array([(7, 0), (8, 0)])
    tree = build_tree(pts, nleaf=1)
    assert tree.side_of(tree.L) <= 8
    leaf_id = None
    for bid in range(1, total_boxes(tree) + 1):
        box = box_by_id(tree, bid)
        if box.level == tree.L and any(box.point_index == 1):
            leaf_id = bid
            break
    idx, u = direct_near_field(tree, leaf_id, np.array([3.0, 0.0]))
    assert list(idx) == [1]
    assert u[0] == pytest.approx(3.0 * (-0.25), abs=1e-14)


def test_direct_near_field_random_leaf_pair():
    rng = np.random.default_rng(8)
    left = np.column_stack([rng.integers(0, 8, 9), rng.integers(0, 8, 9)])
    right = np.column_stack([rng.integers(8, 16, 9), rng.integers(0, 8, 9)])
    pts = np.unique(np.vstack([left, right]), axis=0)
    q = rng.standard_normal(len(pts))
    tree = build_tree(pts, nleaf=100, max_leaf_side=8)
    assert tree.side_of(tree.L) == 8
    lists_target = None
    for bid in range(1, total_boxes(tree) + 1):
        box = box_by_id(tree, bid)
        if box.level == tree.L and box.point_index.size and tree.points[box.point_index][0, 0] < 8:
            lists_target = bid
            break
    idx, u = direct_near_field(tree, lists_target, q)
    # near field of a leaf with all sources adjacent equals the full sum
    expected = direct_sum(pts, q)
    assert np.allclose(u, expected[idx], atol=1e-13)


def test_cross_validate_windowed_convolution():
    rng = np.random.default_rng(12)
    support = [(0, 0), (1, 2), (-2, 1), (3, -3), (0, 4)]
    rhs = {p: float(rng.standard_normal()) for p in support}
    window_u = dense_solve_truncated(rhs, window_radius=4)
    pts = np.array(list(rhs.keys()))
    q = np.array([rhs[tuple(p)] for p in pts])
    targets = np.array(list(window_u.keys()))
    u_fmm = fmm_apply(pts, q, targets=targets)
    u_win = np.array([window_u[tuple(t)] for t in targets])
    assert rel_l2(u_fmm, u_win) <= 1e-9


def test_estimate_complexity():
    report = estimate_complexity([(100, 1.0), (200, 2.0), (400, 4.0), (800, 8.0)])
    assert report["slope"] == pytest.approx(1.0, abs=1e-12)
    flat = estimate_complexity([(100, 3.0), (200, 3.0), (400, 3.0)])
    assert flat["slope"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="insufficient"):
        estimate_complexity([(100, 1.0), (200, 2.0)])
    with pytest.raises(ValueError):
        estimate_complexity([(100, 0.0), (200, 1.0), (400, 2.0)])


def mixed_load(seed, with_targets):
    """(points, targets or None) on a 2**16 domain: full 16 x 16 clusters
    (four full 8 x 8 leaves each), a sparse halo around each, and isolated
    points, so boxes of one point and of many meet at most levels."""
    rng = np.random.default_rng(seed)
    parts = []
    for corner in rng.integers(0, (1 << 16) - 16, size=(3, 2)) & ~7:
        parts.append(grid_points(16) + corner)
        parts.append(corner + rng.integers(-256, 272, size=(60, 2)))
    parts.append(rng.integers(0, 1 << 16, size=(600, 2)))
    pts = np.unique(np.clip(np.vstack(parts), 0, (1 << 16) - 1), axis=0)
    pts = pts[rng.permutation(len(pts))]
    targets = None
    if with_targets:
        targets = np.vstack([pts[:40] + 1, rng.integers(0, 1 << 16, size=(60, 2)), pts[-10:]])
    return pts, targets


MIXED = [(seed, with_targets) for seed in (3, 4) for with_targets in (False, True)]


@pytest.mark.parametrize("seed,with_targets", MIXED)
def test_every_point_pair_covered_once(seed, with_targets, monkeypatch):
    """T_ifo blocks (|b| |c| ordered point pairs each, on the grid levels
    too), the ordered point pairs of the resolved pairs above level L, and
    level L's stencil and ragged near pairs make up N^2, over the nodes the
    tree holds (sources and targets), and the stats agree.  Every pair
    summed directly, at any level, is summed once for both orders."""
    pts, targets = mixed_load(seed, with_targets)
    nodes = pts if targets is None else np.unique(np.vstack([pts, targets]), axis=0)
    direct = []  # (tgt, src) of each ``_point_pairs`` call, sorted indices
    summed = fmm.FmmRun._point_pairs

    def spy(self, tgt, src, xy, q_sorted, u):
        direct.append((tgt.copy(), src.copy()))
        return summed(self, tgt, src, xy, q_sorted, u)

    monkeypatch.setattr(fmm.FmmRun, "_point_pairs", spy)
    stats = {}
    fmm_apply(pts, rng_charges(len(pts)), targets=targets, stats=stats)
    # The union is sorted as the nodes are, whatever their input order, so
    # this tree's sorted indices are the run's.
    tree = build_tree(nodes, nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
    assert stats["n_points"] == len(nodes) and tree.L >= 8 and tree.side_of(tree.L) == 8
    assert len(stats["ifo_grid_levels"]) >= 2
    assert len(np.flatnonzero(stats["leaves_per_level"])) >= 8
    # The lists with no grid level: the grid changes none, and its pairs
    # are formed too.
    blocks, resolved, diagonal = 0, [], 0
    for lvl, (_, _, near, far) in enumerate(level_lists(tree)):
        count = np.diff(tree.ptr[lvl])
        blocks += int(np.sum(count[far[0]] * count[far[1]]))
        tot = count[near[0]] * count[near[1]]
        resolved.append(int(tot.sum()))
        gemm = tot >= 64 if lvl == tree.L else np.zeros(len(tot), dtype=bool)
        # The box with itself off the stencil: its diagonal is no pair.
        diagonal += int(count[near[0][(near[0] == near[1]) & ~gemm]].sum())
    stencil = int(tot[gemm].sum())
    ragged = sum(resolved) - stencil
    assert blocks + sum(resolved[:-1]) + stencil + int(tot[~gemm].sum()) == len(nodes) ** 2
    assert stats["resolved_pairs_per_level"] == resolved and stats["near_pairs"] == sum(resolved)
    assert stats["near_gemm_blocks"] == int(np.count_nonzero(gemm))
    assert stats["near_ragged_pairs"] == ragged
    # Those summed pair by pair, ordered and with the diagonals, are
    # summed once per unordered pair of distinct points.
    tgt = np.concatenate([t for t, _ in direct])
    src = np.concatenate([s for _, s in direct])
    assert np.all(tgt != src)
    key = np.minimum(tgt, src) * len(nodes) + np.maximum(tgt, src)
    assert len(np.unique(key)) == len(key) == (ragged - diagonal) // 2


def _exact_leaves():
    """An 8 x 8 array of 16 x 16 boxes, each holding exactly FEW_POINTS
    points: the tree stops at leaves of side 16."""
    rng = np.random.default_rng(37)
    parts = []
    for bx in range(8):
        for by in range(8):
            cells = rng.choice(256, FEW_POINTS, replace=False)
            parts.append(np.column_stack([cells // 16, cells % 16]) + 16 * np.array([bx, by]))
    return np.vstack(parts)


def _large_leaf_load(name):
    rng = np.random.default_rng(31)
    if name == "uniform":  # 2000 points on 2^12 x 2^12
        flat = rng.choice(1 << 24, size=2000, replace=False)
        return np.column_stack([flat >> 12, flat & 4095])
    if name == "exact":
        return _exact_leaves()
    if name == "exact-and-lone":  # and 396 lone points, one per leaf of side 16
        lone = rng.integers(8, 256, size=(400, 2)) * 16
        return np.unique(np.vstack([_exact_leaves(), lone]), axis=0)
    if name == "side-256":  # 4096 points on 2^13 x 2^13, six more in one side-64 box
        flat = rng.choice(1 << 26, size=4096, replace=False)
        cluster = 4100 + np.array([[0, 0], [1, 3], [5, 2], [9, 9], [20, 7], [3, 30]])
        return np.unique(np.vstack([np.column_stack([flat >> 13, flat & 8191]), cluster]), axis=0)
    if name == "one-leaf":  # FEW_POINTS points over a 2^31 extent
        return np.vstack([[0, 0], [(1 << 31) - 1, 5], rng.integers(0, 1 << 31, size=(FEW_POINTS - 2, 2))])
    if name == "clustered":  # 2^12 draws from 20 clusters (sigma 50) on 2^20 x 2^20
        centres = rng.integers(0, 1 << 20, size=(20, 2))
        draws = centres[rng.integers(0, 20, size=1 << 12)] + np.round(rng.normal(0.0, 50.0, size=(1 << 12, 2)))
        return np.unique(np.clip(draws, 0, (1 << 20) - 1).astype(np.int64), axis=0)
    if name == "scatter":  # a full 32 x 32 block and 3072 points on 2^20 x 2^20
        scattered = rng.integers(0, 1 << 20, size=(3072, 2))
        return np.unique(np.vstack([grid_points(32) + (1 << 19), scattered]), axis=0)
    return with_full_leaf(rng.integers(0, 1 << 12, size=(500, 2)))  # "full-leaf"


LARGE_LEAF_LOADS = ["uniform", "side-256", "exact", "exact-and-lone", "one-leaf", "full-leaf", "clustered", "scatter"]


@pytest.mark.parametrize("name", LARGE_LEAF_LOADS)
def test_large_leaves_match_direct(name):
    # The tree stops refining at the first level where no box holds more
    # than FEW_POINTS points, or at side 8, and a box above that level is a
    # leaf once it and its active colleagues hold at most FEW_POINTS
    # points.  Leaves above side 8 or above level L form no stencil block:
    # their near field is point pairs alone, and T_ofs and T_tfi read each
    # point's unit expansion from the tables, carried up to the leaf from
    # below it (by one step, or, for "side-256", by two, with boxes of
    # several points at the table level), or from the leaf level's own
    # table.  "clustered" and "scatter" have leaves on several levels.
    pts = _large_leaf_load(name)
    q = rng_charges(len(pts), seed=41)
    tree = build_tree(pts, nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
    count = np.diff(tree.ptr[tree.L])
    side = tree.side_of(tree.L)
    table_level = fmm.FmmRun(tree, 1e-10).table_level
    if name == "uniform":
        assert (side, tree.L, table_level) == (128, 5, 7)
        assert count.max() <= FEW_POINTS < np.diff(tree.ptr[tree.L - 1]).max()
    elif name == "side-256":
        assert (side, tree.L, table_level) == (256, 5, 8)
        assert count.max() <= FEW_POINTS
        leaf_of = np.repeat(np.arange(len(count)), count)
        for sub in (32, 64):  # several points of one leaf in one box of this side
            box = np.column_stack([leaf_of, tree.rel_sorted // sub])
            assert np.unique(box, axis=0, return_counts=True)[1].max() >= 4
    elif name == "exact":
        assert side == 16 and np.all(count == FEW_POINTS) and table_level == tree.L + 1
    elif name == "exact-and-lone":
        assert side == 16 and table_level == tree.L and tree.singles[tree.L] >= 256
    elif name == "one-leaf":
        assert tree.L == 0 and tree.root_side == 1 << 31
    elif name == "clustered":
        assert side == 16 and table_level == tree.L
    else:
        assert side == 8 and count.max() == 64
    ref = direct_sum(pts, q)
    for eps in (1e-6, 1e-10):
        stats = {}
        u = fmm_apply(pts, q, eps=eps, stats=stats)
        assert np.max(np.abs(u - ref)) <= eps * np.abs(q).sum(), (eps, np.max(np.abs(u - ref)))
        if name in ("clustered", "scatter"):
            # Leaves on three levels or more, one of them below the table
            # level and one above it.
            leaf_levels = np.flatnonzero(stats["leaves_per_level"])
            assert len(leaf_levels) >= 3 and leaf_levels[0] < table_level <= leaf_levels[-1]
        if side > 8:
            assert stats["near_gemm_blocks"] == 0
            assert stats["near_ragged_pairs"] == stats["near_pairs"] > 0
        else:
            assert stats["near_gemm_blocks"] >= 1
    if name == "one-leaf":
        assert stats["near_pairs"] == FEW_POINTS**2 and stats["built_shared"] is False


def rng_charges(n, seed=5):
    return np.random.default_rng(seed).standard_normal(n)


def chain_load():
    """Full 16 x 16 clusters on a 2**16 domain, each with four points at
    every distance 2^4..2^14 from it and a scatter of isolated points: the
    points part from the clusters at every level, so they are leaves at
    every level.  The 1200 isolated points are more one-point boxes at
    level 11 than its boxes have positions (1024), so levels 11..13 read
    tables."""
    rng = np.random.default_rng(13)
    parts = [rng.integers(0, 1 << 16, size=(1200, 2))]
    for corner in rng.integers(1 << 14, 3 << 14, size=(3, 2)) & ~7:
        parts.append(grid_points(16) + corner)
        for j in range(4, 15):
            angle = rng.uniform(0, 2 * np.pi, size=4)
            ring = (2**j * np.column_stack([np.cos(angle), np.sin(angle)])).astype(np.int64)
            parts.append(corner + 8 + ring)
    return np.unique(np.clip(np.vstack(parts), 0, (1 << 16) - 1), axis=0)


def test_leaves_on_many_levels_match_direct():
    # Points that part from the clusters at every level are leaves at
    # every level: T_ofs and T_tfi read their unit expansions from the
    # table of their leaf's level at and below the table level m, and
    # from the table of m, carried up by T_ofo, above it.  Both kinds
    # occur, at several levels each.
    pts = chain_load()
    tree = build_tree(pts, nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
    m = fmm.FmmRun(tree, 1e-10)._table_levels()
    leaf_levels = [lvl for lvl, (_, leaf, _, _) in enumerate(level_lists(tree)) if leaf.any()]
    above = [lvl for lvl in leaf_levels if lvl < m]
    assert len(above) >= 3 and len(leaf_levels) - len(above) >= 2, (leaf_levels, m)
    q = rng_charges(len(pts))
    ref = direct_sum(pts, q)
    for eps in (1e-6, 1e-10):
        assert np.max(np.abs(fmm_apply(pts, q, eps=eps) - ref)) <= eps * np.abs(q).sum()


def test_apply_twice_same_counters():
    # Every counter is of one call: a second apply of the same run reads
    # the same work.
    tree = build_tree(chain_load(), nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
    run = fmm.FmmRun(tree, 1e-10)
    q = rng_charges(len(tree.points))
    first = run.apply(q), run.counters()
    second = run.apply(q), run.counters()
    assert first[1]["ifo_grid_levels"] and len(np.flatnonzero(first[1]["leaves_per_level"])) >= 3
    assert first[0].tobytes() == second[0].tobytes()
    work = [{k: v for k, v in c.items() if not k.startswith("t_")} for _, c in (first, second)]
    assert work[0] == work[1]


def test_unit_tables_built_once(monkeypatch):
    # The tables of unit expansions live on the shared operator chain: the
    # first call builds them, outside the passes, and a second call on the
    # same load reads the same arrays and builds nothing.
    monkeypatch.setattr(skeleton, "_chain_memo", {})
    pts = chain_load()
    q = rng_charges(len(pts))
    stats = {}
    fmm_apply(pts, q, stats=stats)
    chain = skeleton.shared_chain(1e-10, 8)
    tables = {side: op._unit_table for side, op in chain.ops.items() if op._unit_table is not None}
    assert sorted(tables) == [8, 16, 32]  # levels 13, 12 and 11
    assert stats["built_shared"] and stats["shared_op_entries"] == chain.stored_entries()
    again = {}
    fmm_apply(pts, q, stats=again)
    assert not again["built_shared"] and again["shared_op_entries"] == stats["shared_op_entries"]
    assert all(chain.ops[side]._unit_table is table for side, table in tables.items())


def test_traced_peak_per_point():
    # The warm call traced, in bytes per point (seeds 0-3):
    # * 2^13 uniform points on 2^13 x 2^13, about one per leaf: 282-283,
    #   in the near field; 446-448 with its point pairs in chunks of 2^16, 490
    #   while each grid level held its outgoing and its incoming
    #   expansions at once and the near field's lists were held through
    #   the far field, 754-761 while ``apply`` held two int64 maps of each
    #   point's leaf and stencil place through every pass and the near
    #   field returned fresh N-vectors.
    # * 2^14 uniform points on 2^14 x 2^14, the benchmark's ``random``
    #   load: 202-203 (3.32 MB), in T_tfi at the leaf level; 261-262 (4.29
    #   MB) with the level's index arrays and two chunks of table rows
    #   at once, in T_ofs at the leaf level;
    #   330-333 (5.43 MB) with both arrays of expansions, in grid T_ifo at
    #   level 6.
    # * 2^16 uniform points on 2^10 x 2^10, about four per leaf, where the
    #   near field's point pairs take about two thirds of the call: 156-157,
    #   in building the lists; 163 with T_ifi from each level in one product
    #   per quadrant, 209 with both arrays, 233 with those maps, 487 with
    #   the point pairs in chunks of 2^22.
    # * A full 128 x 128 grid, all in stencil blocks: 106; 137.8 with
    #   those maps.
    # The bounds are 1.1 times the figures, the grid's 1.04.  Sampled
    # targets meet the direct sum at eps * sum |q|.
    g = np.arange(128)
    grid = np.column_stack([np.repeat(g, 128), np.tile(g, 128)])
    cases = ((1 << 13, 1 << 13, 312), (1 << 14, 1 << 14, 224), (1 << 16, 1 << 10, 173), (128 * 128, None, 110))
    for n, side, bound in cases:
        rng = np.random.default_rng(0)
        if side is None:
            pts = grid
        else:
            flat = rng.choice(side * side, size=n, replace=False)
            pts = np.column_stack([flat // side, flat % side])
        q = rng.standard_normal(n)
        u = fmm_apply(pts, q)
        tracemalloc.start()
        fmm_apply(pts, q)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= bound * n, (n, peak / n)
        sample = rng.choice(n, 64, replace=False)
        assert np.max(np.abs(u[sample] - direct_sum(pts, q, pts[sample]))) <= 1e-10 * np.abs(q).sum()


def _leaf_pass_peaks(monkeypatch, pts):
    """The most traced memory each of ``_sum_expansions`` and
    ``_fold_expansions`` (T_ofs and T_tfi off the stencil) adds above what
    is held on its entry, over the calls of one warm ``fmm_apply``."""
    extra = {}
    q = rng_charges(len(pts))
    fmm_apply(pts, q)
    with monkeypatch.context() as patch:
        for name in ("_sum_expansions", "_fold_expansions"):
            method = getattr(fmm.FmmRun, name)

            def traced(self, *args, _method=method, _name=name):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _method(self, *args)
                extra[_name] = max(extra.get(_name, 0), tracemalloc.get_traced_memory()[1] - held)

            patch.setattr(fmm.FmmRun, name, traced)
        tracemalloc.start()
        fmm_apply(pts, q)
        tracemalloc.stop()
    return extra


def test_leaf_pass_holds_one_chunk(monkeypatch):
    # About four points per leaf of side 128, off the stencil, with chunks
    # of 64 points in runs of four chunks.  Twice the chunks over the same
    # load (chunks of 32), and twice the load in twice the area (the same
    # leaves, tables and carries, twice the chunks): neither pass holds
    # more.  Each chunk's arrays go before the next chunk's are formed, and
    # the index arrays are formed per run of chunks, not per level.
    rng = np.random.default_rng(7)
    flat = rng.choice(1 << 24, size=1 << 12, replace=False)
    one = np.column_stack([flat >> 12, flat & 4095])
    two = np.vstack([one, one + (4096, 0)])
    for pts in (one, two):
        tree = build_tree(pts, nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
        assert tree.side_of(tree.L) == 128
    peaks = []
    for sub, pts in ((64, one), (32, one), (64, two)):
        monkeypatch.setattr(fmm, "_SUB_CHUNK", sub)
        monkeypatch.setattr(fmm, "_POINT_RUN", 4 * sub)
        peaks.append(_leaf_pass_peaks(monkeypatch, pts))
    base = peaks[0]
    assert sorted(base) == ["_fold_expansions", "_sum_expansions"]
    for more in peaks[1:]:
        for name, peak in base.items():
            assert more[name] <= peak * 1.05 + 4096, (name, peak, more[name])


def test_fmm_apply_leaves_numpy_ma_unloaded():
    # np.unique's first call in a process imports numpy.ma, 10-20 ms of a
    # cold start.  Neither the stencil near field (full leaves) nor the
    # operator chain's build (proxy points) may reach it.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from latticefmm.fmm import fmm_apply\n"
        "g = np.arange(32)\n"
        "dense = np.column_stack([np.repeat(g, 32), np.tile(g, 32)])\n"
        "rng = np.random.default_rng(3)\n"
        "flat = rng.choice(1 << 20, size=2000, replace=False)\n"
        "sparse = np.column_stack([flat >> 10, flat & 1023])\n"
        "for pts in (dense, sparse):\n"
        "    stats = {}\n"
        "    fmm_apply(pts, rng.standard_normal(len(pts)), stats=stats)\n"
        "    assert stats['levels'] >= 3, stats['levels']\n"
        "assert stats['built_shared'] and 'numpy.ma' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(fmm.__file__))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True)


def test_same_bytes_at_one_two_and_three_blas_threads():
    # 2^15 uniform points on 2^15 x 2^15 run T_ifo on the grid at levels
    # 2-7 with k = 35, where grid products of up to 4 k rows changed about
    # one potential in ten between one and two BLAS threads (see
    # ``fmm._BLAS_SPLIT_MNK``).  Three threads split the rows three ways.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from latticefmm.fmm import fmm_apply\n"
        "n = 1 << 15\n"
        "rng = np.random.default_rng(0)\n"
        "flat = rng.choice(n * n, size=n, replace=False)\n"
        "u = fmm_apply(np.column_stack([flat // n, flat % n]), rng.standard_normal(n))\n"
        "print(hashlib.sha256(u.tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(fmm.__file__))
    digests = []
    for threads in ("1", "2", "3"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.append(run.stdout.split()[-1])
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.parametrize("seed,with_targets", MIXED)
def test_mixed_loads_match_direct(seed, with_targets):
    pts, targets = mixed_load(seed, with_targets)
    q = rng_charges(len(pts))
    stats = {}
    u = fmm_apply(pts, q, targets=targets, stats=stats)
    ref = direct_sum(pts, q, targets=targets)
    assert rel_l2(u, ref) <= 1e-9
    # Resolved pairs above level L, and T_ifo blocks of two leaves, of a
    # leaf and a box of children, and of two such boxes, at three levels or
    # more each.
    nodes = pts if targets is None else np.unique(np.vstack([pts, targets]), axis=0)
    tree = build_tree(nodes, nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
    kinds = {"resolved": 0, "leaf-leaf": 0, "leaf-box": 0, "box-box": 0}
    for lvl, (_, leaf, near, (tgt, src, _)) in enumerate(level_lists(tree)):
        n_leaf = leaf[tgt].astype(int) + leaf[src]
        kinds["resolved"] += lvl < tree.L and len(near[0]) > 0
        kinds["leaf-leaf"] += bool(np.any(n_leaf == 2))
        kinds["leaf-box"] += bool(np.any(n_leaf == 1))
        kinds["box-box"] += bool(np.any(n_leaf == 0))
    assert min(kinds.values()) >= 3, kinds
    if targets is None:
        # The eps * sum |q| contract, on charges that cancel.
        q0 = q - q.mean()
        ref0 = direct_sum(pts, q0)
        for eps in (1e-6, 1e-10):
            err = np.max(np.abs(fmm_apply(pts, q0, eps=eps) - ref0))
            assert err <= eps * np.abs(q0).sum()


def test_full_grid_has_no_point_pairs():
    stats = {}
    fmm_apply(grid_points(64), rng_charges(64 * 64), stats=stats)
    # Every box above level L holds more than FEW_POINTS points: the leaves
    # are the 64 boxes of level L, and all pairs summed directly are theirs.
    levels = stats["levels"]
    assert levels >= 4
    assert stats["leaves_per_level"] == [0] * (levels - 1) + [64]
    assert stats["resolved_pairs_per_level"] == [0] * (levels - 1) + [stats["near_pairs"]]
    assert stats["op_entries"] == 64 * 64 * stats["ranks_per_level"][-1] + stats["near_pairs"]


def _grid_load(kind):
    """Sources (and targets) of whole 8 x 8 leaves, so that no box holds
    one point: a full 128 x 128 grid, the grid with a hole and an empty
    corner, and the holed grid with targets on and inside it."""
    pts = grid_points(128)
    targets = None
    if kind != "full":
        x, y = pts[:, 0], pts[:, 1]
        hole = (x >= 64) & (x < 80) & (y >= 32) & (y < 48)
        corner = (x >= 96) & (y >= 96)
        pts = pts[~hole & ~corner]
    if kind == "targets":
        rng = np.random.default_rng(11)
        targets = np.vstack([pts[rng.choice(len(pts), 40, replace=False)], grid_points(8) + (72, 40)])
    return pts + (-300, 41), (None if targets is None else targets + (-300, 41))


def _forced(monkeypatch, path, pts, q, targets=None):
    """fmm_apply with every level from 2 on the grid path, or none, by
    moving the crossover."""
    monkeypatch.setattr(fmm, "_IFO_GRID_PAIRS_PER_CELL", 0 if path == "grid" else 1 << 62)
    stats = {}
    u = fmm_apply(pts, q, targets=targets, stats=stats)
    again = fmm_apply(pts, q, targets=targets)
    assert u.tobytes() == again.tobytes()
    return u, stats


@pytest.mark.parametrize("kind", ["full", "holes", "targets"])
def test_grid_ifo_matches_pair_ifo(monkeypatch, kind):
    pts, targets = _grid_load(kind)
    q = rng_charges(len(pts))
    # Small chunks, and levels 3 and 4 in bands of two and three parent
    # rows (of four and eight, split evenly): each band's incoming
    # expansions are written over outgoing ones, beside the rows the next
    # band reads.
    monkeypatch.setattr(fmm, "_CHUNK", 5000)
    monkeypatch.setattr(fmm, "_band_rows", lambda half, width, k, entries: min(half, 3))
    monkeypatch.setattr(skeleton, "_chain_memo", {})
    u_pair, pair = _forced(monkeypatch, "pair", pts, q, targets)
    u_grid, grid = _forced(monkeypatch, "grid", pts, q, targets)
    assert grid["leaves_per_level"][:-1] == [0] * (grid["levels"] - 1)
    assert grid["ifo_grid_levels"] == list(range(2, grid["levels"])) == [2, 3, 4]
    assert pair["ifo_grid_levels"] == []
    assert grid["ifo_pairs_per_level"] == pair["ifo_pairs_per_level"]
    assert np.max(np.abs(u_grid - u_pair)) <= 1e-13 * np.max(np.abs(u_pair))
    # The grid operators are built on first use and count as shared
    # operator data.
    assert grid["shared_op_entries"] > pair["shared_op_entries"]


def test_level_with_a_one_point_box_takes_grid_ifo(monkeypatch):
    # One 8 x 8 leaf of a 64 x 64 grid keeps one point: its colleagues are
    # full, so it is a leaf of level L like the others, and it runs on the
    # grid too.
    pts = grid_points(64)
    x, y = pts[:, 0], pts[:, 1]
    emptied = (x >= 16) & (x < 24) & (y >= 16) & (y < 24) & ((x != 19) | (y != 21))
    pts = pts[~emptied]
    q = rng_charges(len(pts))
    u_grid, grid = _forced(monkeypatch, "grid", pts, q)
    u_pair, pair = _forced(monkeypatch, "pair", pts, q)
    levels = grid["levels"]
    assert grid["leaves_per_level"] == [0] * (levels - 1) + [64]
    assert grid["ifo_grid_levels"] == list(range(2, levels))
    assert grid["resolved_pairs_per_level"] == [0] * (levels - 1) + [grid["near_pairs"]]
    assert grid["ifo_pairs_per_level"] == pair["ifo_pairs_per_level"]
    assert np.max(np.abs(u_grid - u_pair)) <= 1e-13 * np.max(np.abs(u_pair))
    assert np.max(np.abs(u_grid - direct_sum(pts, q))) <= 1e-10 * np.abs(q).sum()


@pytest.mark.parametrize("name,rows", [("sparse", None), ("sparse", 2), ("clustered", None)])
def test_one_point_boxes_on_the_grid_match_direct(monkeypatch, name, rows):
    # Forced on, every level from 2 runs on the grid, which holds the
    # level's active boxes, the leaves above level L among them (most of
    # them boxes of one point); forced off, every level runs pair by pair.
    # The lists are the same: both sides agree, and meet the direct sum at
    # the eps * sum |q| contract.
    pts = {"sparse": lambda: with_full_leaf(sparse_points()), "clustered": clustered_points}[name]()
    q = rng_charges(len(pts))
    if rows is not None:
        monkeypatch.setattr(fmm, "_band_rows", lambda half, width, k, entries: min(half, rows))
    u_grid, grid = _forced(monkeypatch, "grid", pts, q)
    u_pair, pair = _forced(monkeypatch, "pair", pts, q)
    levels = grid["levels"]
    assert grid["ifo_grid_levels"] == list(range(2, levels)) and pair["ifo_grid_levels"] == []
    assert len(np.flatnonzero(grid["leaves_per_level"][2:-1])) >= 2
    for key in ("leaves_per_level", "ifo_pairs_per_level", "resolved_pairs_per_level"):
        assert grid[key] == pair[key]
    assert np.max(np.abs(u_grid - u_pair)) <= 1e-13 * np.max(np.abs(u_pair))
    if rows is not None:
        # The deeper levels fill in bands.
        assert levels - 1 >= 4
    ref = direct_sum(pts, q)
    for u in (u_grid, u_pair):
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.abs(q).sum()
        assert rel_l2(u, ref) <= 1e-9


@pytest.mark.parametrize("kind", ["full", "holes", "sparse"])
def test_grid_ifo_in_one_row_bands(monkeypatch, kind):
    # Every grid band holds one parent row and its two border rows; on the
    # sparse load some bands hold no occupied cell, border rows included.
    _grid_ifo_in_bands(monkeypatch, kind, 1)


@pytest.mark.parametrize("kind", ["full", "holes", "sparse"])
def test_grid_ifo_in_three_row_bands(monkeypatch, kind):
    # Bands of at most three rows, split evenly: on the sparse load the
    # deeper levels' threaded products of fewer than 4 k + 1 slots read a
    # window of that many within the band's rows, not zero rows below its
    # end.
    _grid_ifo_in_bands(monkeypatch, kind, 3)


def _grid_ifo_in_bands(monkeypatch, kind, rows):
    """Grid T_ifo in bands of ``rows`` parent rows only regroups the
    products: the grid path matches the pair path, and on the sparse load
    both paths meet the direct sum."""
    pts = with_full_leaf(sparse_points()) if kind == "sparse" else _grid_load(kind)[0]
    q = rng_charges(len(pts))
    monkeypatch.setattr(skeleton, "_chain_memo", {})
    u_pair, _ = _forced(monkeypatch, "pair", pts, q)
    monkeypatch.setattr(fmm, "_band_rows", lambda half, width, k, entries: min(half, rows))
    u_grid, grid = _forced(monkeypatch, "grid", pts, q)
    k = grid["ranks_per_level"]
    levels = grid["ifo_grid_levels"]
    assert levels == list(range(2, grid["levels"]))
    tree = build_tree(pts, nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
    empty_bands = 0
    for lvl in levels:
        parent_rows = set((tree.rel_sorted[tree.ptr[lvl][:-1], 0] // tree.side_of(lvl - 1)).tolist())
        empty_bands += sum(not parent_rows & {r - 1, r, r + 1} for r in range(1 << (lvl - 1)))
    assert (empty_bands > 0) == (kind == "sparse")
    if kind == "sparse" and rows == 3:
        # The shortest band's slots, of bands split evenly.
        half = [1 << (lvl - 1) for lvl in levels]
        assert any(h // -(-h // 3) * (h + 2) - 2 >= 4 * k[lvl] + 1 for h, lvl in zip(half, levels))
    assert np.max(np.abs(u_grid - u_pair)) <= 1e-13 * np.max(np.abs(u_pair))
    if kind == "sparse":
        ref = direct_sum(pts, q)
        for u in (u_grid, u_pair):
            assert np.max(np.abs(u - ref)) <= 1e-10 * np.abs(q).sum()


def test_grid_ifo_memory_is_banded():
    # The leaf level of a uniform load, every box of it on the grid: its
    # whole padded grid would take (2^9 + 4)^2 k doubles, about 60 MB.  The
    # band, the chunk of products and its scratch buffer hold a quarter of
    # the level's expansions or, in the fewest rows whose chunk holds 8 k
    # slots (one here), three such rows and two more of the grid; the rows
    # of x pass through the scratch buffer, and the index arrays take a few
    # per box; no neighbourhood of a chunk of parents is copied.  The
    # incoming expansions are written over the outgoing ones: no array of
    # the level's size is formed.
    rng = np.random.default_rng(29)
    flat = rng.choice(1 << 24, size=1 << 14, replace=False)
    pts = with_full_leaf(np.column_stack([flat >> 12, flat & 4095]))
    tree = build_tree(pts, nleaf=64, max_leaf_side=_MAX_LEAF_SIDE)
    lvl = 9
    assert tree.L == lvl
    run = fmm.FmmRun(tree, 1e-10)
    ops = run._ops(lvl)
    k = ops.skeleton.rank
    assert ops.t_ifo_grid.shape == (8, 4 * k, 4 * k)  # built before tracing
    n_boxes = len(tree.codes[lvl])
    assert n_boxes > 15000
    x = rng.standard_normal((n_boxes, k))
    outgoing = x.copy()
    xrow = rng.permutation(n_boxes)  # box b's expansion is row xrow[b] of x
    boxes = np.arange(n_boxes)
    tracemalloc.start()
    run._across_grid(lvl, x, xrow, boxes)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    whole = ((1 << lvl) + 4) ** 2 * k * 8
    width = (1 << (lvl - 1)) + 2
    rows = fmm._band_rows(width - 2, width, k, x.size)
    assert rows == 1 and 8 * k <= width
    assert np.all((x != outgoing).any(axis=1))  # every box's row written
    assert peak <= max(x.nbytes // 4, (3 * rows + 2) * width * 4 * k * 8) + 48 * n_boxes, (peak, whole)
    assert peak < whole / 6, (peak, whole)


def test_t_tfi_on_leaves_of_2_to_64_points(monkeypatch):
    # Each 8 x 8 leaf of a 64 x 64 grid keeps 2..64 of its points; small
    # chunks split the stencil products of T_ofs and T_tfi.
    monkeypatch.setattr(fmm, "_CHUNK", 5 * 64)
    rng = np.random.default_rng(23)
    counts = np.concatenate([[2, 64], rng.integers(2, 65, 62)])
    pts = []
    for leaf, count in enumerate(counts):
        cells = rng.choice(64, count, replace=False)
        pts.append(np.column_stack([cells // 8, cells % 8]) + 8 * np.array([leaf // 8, leaf % 8]))
    pts = np.vstack(pts)
    q = rng_charges(len(pts))
    stats = {}
    u = fmm_apply(pts, q, stats=stats)
    assert stats["levels"] == 4 and stats["leaves_per_level"] == [0, 0, 0, 64]
    assert np.max(np.abs(u - direct_sum(pts, q))) <= 1e-10 * np.abs(q).sum()
