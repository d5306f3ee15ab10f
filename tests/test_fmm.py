import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefmm import skeleton
from latticefmm.fmm import fmm_apply
from latticefmm.green import phi
from latticefmm.oracle import direct_sum
from latticefmm.tree import build_tree

from fmm_reference import dense_solve_truncated, direct_near_field, estimate_complexity
from tree_reference import box_by_id, total_boxes


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
        (np.array([(0, 0), (15, 15), (3, 12), (9, 2), (8, 8)]), 2),
        (grid_points(16), 2),  # four full leaves: stencil GEMMs
    ]
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


@pytest.mark.parametrize("eps", [1e-16, 1e-14, 1e-2, 0.5, np.nan])
def test_eps_range_enforced(eps):
    with pytest.raises(ValueError, match="eps must lie in"):
        fmm_apply([(0, 0), (5, 1)], [1.0, 2.0], eps=eps)


PASS_TIMES = ("t_tree", "t_upward", "t_ifo", "t_downward", "t_near")


def test_stats_reported():
    rng = np.random.default_rng(17)
    pts, q = random_sources(rng, 500, 1 << 14)
    stats = {}
    fmm_apply(pts, q, stats=stats)
    assert stats["n_source"] == len(pts)
    assert stats["levels"] >= 3
    assert stats["op_entries"] > 0
    assert stats["wall_time"] > 0
    for key in PASS_TIMES:
        assert stats[key] >= 0.0
    assert sum(stats[key] for key in PASS_TIMES) <= stats["wall_time"]
    assert stats["near_gemm_blocks"] == 0
    assert stats["near_ragged_pairs"] == stats["near_pairs"] > 0

    # 4 x 4 full leaves: 10 x 10 ordered (target, source) neighbour pairs.
    full = {}
    fmm_apply(grid_points(32), np.ones(32 * 32), stats=full)
    assert full["near_gemm_blocks"] == 100
    assert full["near_pairs"] == 100 * 64 * 64
    assert full["near_ragged_pairs"] == 0


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
    # Two far points pin the tree anchor to a multiple of 8 and make the
    # tree deep enough for 8 x 8 leaves; they have no neighbours.
    pts = np.vstack([
        np.column_stack([8 + a // 8, 8 + a % 8]),
        np.column_stack([8 + 8 * dx + b // 8, 8 + 8 * dy + b % 8]),
        [(-1024, 0), (0, -1024)],
    ]) + _shift(draw)
    blocks = 2 * (ct * cs >= 64) + (ct >= 8) + (cs >= 8)
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
