import numpy as np
import pytest

from latticefmm.fmm import direct_near_field, estimate_complexity, fmm_apply, solve
from latticefmm.green import phi
from latticefmm.oracle import dense_solve_truncated, direct_sum
from latticefmm.tree import build_tree


def random_sources(rng, n, box):
    pts = rng.integers(0, box, size=(2 * n, 2))
    pts = np.unique(pts, axis=0)[:n]
    q = rng.standard_normal(pts.shape[0])
    return pts, q


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_single_charge_self_potential():
    u = fmm_apply([(0, 0)], [1.0])
    assert u.shape == (1,)
    assert u[0] == 0.0


def test_two_far_charges_frozen(table):
    pts = [(0, 0), (100, 100)]
    u = fmm_apply(pts, [1.0, -1.0], table=table)
    expected = phi(100, 100, table)
    assert u[0] == pytest.approx(-expected, abs=1e-11)
    assert u[1] == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("n,seed", [(100, 0), (500, 1), (2000, 2)])
def test_matches_direct_oracle(n, seed, table):
    rng = np.random.default_rng(seed)
    pts, q = random_sources(rng, n, 1 << 15)
    u_fast = fmm_apply(pts, q, eps=1e-10, table=table)
    u_slow = direct_sum(pts, q, table=table)
    assert rel_l2(u_fast, u_slow) <= 1e-9


def test_dense_grid_matches_oracle(table):
    rng = np.random.default_rng(4)
    g = np.arange(32)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    q = rng.standard_normal(pts.shape[0])
    u_fast = fmm_apply(pts, q, table=table)
    u_slow = direct_sum(pts, q, table=table)
    assert rel_l2(u_fast, u_slow) <= 1e-9


def test_separate_targets(table):
    rng = np.random.default_rng(9)
    pts, q = random_sources(rng, 300, 4096)
    targets = np.vstack([rng.integers(0, 4096, size=(47, 2)), pts[:3]])
    u_fast = fmm_apply(pts, q, targets=targets, table=table)
    u_slow = direct_sum(pts, q, targets=targets, table=table)
    assert u_fast.shape == (50,)
    assert rel_l2(u_fast, u_slow) <= 1e-9


def test_shallow_tree_falls_back_to_dense(table):
    pts = np.array([(0, 0), (3, 1), (7, 7), (2, 6), (5, 4)])
    q = np.array([1.0, -2.0, 0.5, 0.25, 0.25])
    u = fmm_apply(pts, q, table=table)
    assert rel_l2(u, direct_sum(pts, q, table=table)) <= 1e-13


def test_superposition(table):
    rng = np.random.default_rng(21)
    pts, q1 = random_sources(rng, 400, 10000)
    q2 = rng.standard_normal(len(q1))
    u12 = fmm_apply(pts, q1 + q2, table=table)
    u1 = fmm_apply(pts, q1, table=table)
    u2 = fmm_apply(pts, q2, table=table)
    assert np.linalg.norm(u12 - (u1 + u2)) <= 1e-10 * np.linalg.norm(u12)


def test_translation_invariance(table):
    rng = np.random.default_rng(31)
    pts, q = random_sources(rng, 350, 2048)
    u0 = fmm_apply(pts, q, table=table)
    u1 = fmm_apply(pts + np.array([10007, -777]), q, table=table)
    assert rel_l2(u1, u0) <= 1e-9


def test_reciprocity_through_deep_tree(table):
    a = (3, 5)
    b = (2901, 3107)
    u_ab = fmm_apply([a], [1.0], targets=[b], table=table)
    u_ba = fmm_apply([b], [1.0], targets=[a], table=table)
    expected = phi(b[0] - a[0], b[1] - a[1], table)
    assert u_ab[0] == pytest.approx(expected, abs=1e-10)
    assert u_ba[0] == pytest.approx(expected, abs=1e-10)


def test_pde_residual_at_sources(table):
    # zero-net-charge f; stencil of the solution must return f at sources
    src = np.array([(0, 0), (41, 7), (-33, 12)])
    f = np.array([1.0, -0.375, -0.625])
    stencil = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    targets = np.array(
        [(x + dx, y + dy) for x, y in src for dx, dy in stencil]
    )
    u = fmm_apply(src, f, targets=targets, table=table)
    values = {tuple(p): v for p, v in zip(map(tuple, targets), u)}
    from latticefmm.green import apply_discrete_laplacian

    for (x, y), fv in zip(map(tuple, src), f):
        assert apply_discrete_laplacian(values, (x, y)) == pytest.approx(
            fv, abs=1e-9
        )


def test_duplicate_sources_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        fmm_apply([(0, 0), (0, 0)], [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_charges_rejected(bad):
    with pytest.raises(ValueError, match="charges must be finite"):
        fmm_apply([(0, 0), (5, 1), (9, 9)], [1.0, bad, 2.0])


def test_extent_limit(table):
    # Morton keys hold 31 bits per coordinate: extent 2**31 is the largest.
    far = 2**31 - 1
    pts = np.array([(0, 0), (far, 3), (7, far), (far, far), (40, 41)])
    q = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
    u = fmm_apply(pts, q, table=table)
    assert rel_l2(u, direct_sum(pts, q, table=table)) <= 1e-9
    for edge in (2**31, 2**33):
        wide = pts.copy()
        wide[1, 0] = edge
        with pytest.raises(ValueError, match="extent"):
            fmm_apply(wide, q, table=table)


@pytest.mark.parametrize("eps", [1e-16, 1e-14, 1e-2, 0.5, np.nan])
def test_eps_range_enforced(eps):
    with pytest.raises(ValueError, match="eps must lie in"):
        fmm_apply([(0, 0), (5, 1)], [1.0, 2.0], eps=eps)


def test_solve_wrapper(table):
    rng = np.random.default_rng(2)
    pts, q = random_sources(rng, 64, 500)
    assert np.array_equal(solve(pts, q), fmm_apply(pts, q))


def test_stats_reported(table):
    rng = np.random.default_rng(17)
    pts, q = random_sources(rng, 500, 1 << 14)
    stats = {}
    fmm_apply(pts, q, table=table, stats=stats)
    assert stats["n_source"] == len(pts)
    assert stats["levels"] >= 3
    assert stats["op_entries"] > 0
    assert stats["wall_time"] > 0


def test_direct_near_field_single_box(table):
    rng = np.random.default_rng(6)
    pts = rng.integers(0, 8, size=(20, 2))
    pts = np.unique(pts, axis=0)
    q = rng.standard_normal(len(pts))
    tree = build_tree(pts, nleaf=len(pts))
    assert tree.L == 0
    idx, u = direct_near_field(tree, 1, q, table)
    expected = direct_sum(pts, q, table=table)
    assert np.allclose(u, expected[idx], atol=1e-13)


def test_direct_near_field_adjacent_pair(table):
    pts = np.array([(7, 0), (8, 0)])
    tree = build_tree(pts, nleaf=1)
    assert tree.side_of(tree.L) <= 8
    leaf_id = None
    for bid in range(1, tree.total_boxes() + 1):
        box = tree.box_by_id(bid)
        if box.level == tree.L and any(box.point_index == 1):
            leaf_id = bid
            break
    idx, u = direct_near_field(tree, leaf_id, np.array([3.0, 0.0]), table)
    assert list(idx) == [1]
    assert u[0] == pytest.approx(3.0 * (-0.25), abs=1e-14)


def test_direct_near_field_random_leaf_pair(table):
    rng = np.random.default_rng(8)
    left = np.column_stack([rng.integers(0, 8, 9), rng.integers(0, 8, 9)])
    right = np.column_stack([rng.integers(8, 16, 9), rng.integers(0, 8, 9)])
    pts = np.unique(np.vstack([left, right]), axis=0)
    q = rng.standard_normal(len(pts))
    tree = build_tree(pts, nleaf=100, max_leaf_side=8)
    assert tree.side_of(tree.L) == 8
    lists_target = None
    for bid in range(1, tree.total_boxes() + 1):
        box = tree.box_by_id(bid)
        if box.level == tree.L and box.point_index.size and tree.points[box.point_index][0, 0] < 8:
            lists_target = bid
            break
    idx, u = direct_near_field(tree, lists_target, q, table)
    # near field of a leaf with all sources adjacent equals the full sum
    expected = direct_sum(pts, q, table=table)
    assert np.allclose(u, expected[idx], atol=1e-13)


def test_cross_validate_windowed_convolution(table):
    rng = np.random.default_rng(12)
    support = [(0, 0), (1, 2), (-2, 1), (3, -3), (0, 4)]
    rhs = {p: float(rng.standard_normal()) for p in support}
    window_u = dense_solve_truncated(rhs, window_radius=4, table=table)
    pts = np.array(list(rhs.keys()))
    q = np.array([rhs[tuple(p)] for p in pts])
    targets = np.array(list(window_u.keys()))
    u_fmm = fmm_apply(pts, q, targets=targets, table=table)
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
