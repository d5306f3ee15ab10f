import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

from latticefmm import defect
from latticefmm.defect import DefectSpec, apply_B, apply_S, solve_defect
from latticefmm.green import apply_discrete_laplacian, phi
from latticefmm.skeleton import kernel_matrix

from defect_reference import exact_rcond, node_space_solve
from fmm_reference import dense_solve_truncated


def removed_bar_spec():
    return DefectSpec([((0, 0), (1, 0), -1.0)])


def residual_map(spec, u, radius):
    """(A+B)u on all nodes with |m|_inf <= radius (u must cover radius+1)."""
    get = lambda p: u[p]
    bu = apply_B(spec, u)
    out = {}
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            out[(x, y)] = apply_discrete_laplacian(get, (x, y)) + bu.get((x, y), 0.0)
    return out


def grid_queries(radius):
    return [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
    ]


def test_empty_spec_returns_far_field_exactly():
    u = solve_defect(DefectSpec([]), (1.0, 0.5), queries=[(3, 4), (-2, 7), (0, 0)])
    assert u[(3, 4)] == 3.0 + 2.0
    assert u[(-2, 7)] == -2.0 + 3.5
    assert u[(0, 0)] == 0.0


def test_empty_query_list(monkeypatch):
    for limit in (defect._DENSE_BAR_LIMIT, 0):  # preconditioned, then not
        monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", limit)
        assert solve_defect(removed_bar_spec(), (1.0, 0.0), queries=[]) == {}


def test_apply_B_hand_example():
    spec = removed_bar_spec()
    w = {(0, 0): 0.0, (1, 0): 1.0}  # v = m1
    bw = apply_B(spec, w)
    assert bw[(0, 0)] == pytest.approx(1.0)
    assert bw[(1, 0)] == pytest.approx(-1.0)


def test_apply_B_constant_is_zero():
    spec = DefectSpec(
        [((0, 0), (1, 0), -1.0), ((2, 2), (2, 3), 0.5), ((0, 0), (3, 3), 1.0)]
    )
    w = {p: 7.25 for p in spec.nodes}
    assert all(v == 0.0 for v in apply_B(spec, w).values())


def test_apply_B_empty_spec():
    assert apply_B(DefectSpec([]), {}) == {}


def test_apply_B_missing_node():
    with pytest.raises(KeyError, match="missing node"):
        apply_B(removed_bar_spec(), {(0, 0): 1.0})


def test_spec_validation():
    with pytest.raises(ValueError, match="below full removal"):
        DefectSpec([((0, 0), (1, 0), -1.5)])
    with pytest.raises(ValueError, match="nonnegative"):
        DefectSpec([((0, 0), (2, 2), -0.5)])
    with pytest.raises(ValueError, match="coincide"):
        DefectSpec([((1, 1), (1, 1), 1.0)])
    with pytest.raises(ValueError, match="disconnected"):
        DefectSpec(
            [
                ((0, 0), (1, 0), -1.0),
                ((0, 0), (-1, 0), -1.0),
                ((0, 0), (0, 1), -1.0),
                ((0, 0), (0, -1), -1.0),
            ]
        )


def cut_out(nodes):
    """Bars removing every unit bar between ``nodes`` and the rest."""
    inside = set(nodes)
    return [
        (p, q, -1.0)
        for p in nodes
        for q in ((p[0] + 1, p[1]), (p[0] - 1, p[1]), (p[0], p[1] + 1), (p[0], p[1] - 1))
        if q not in inside
    ]


def test_disconnected_regions_rejected():
    # A two-node island, and a 3 x 3 block whose centre keeps all four bars.
    block = [(x, y) for x in range(3) for y in range(3)]
    for nodes, size in (([(0, 0), (1, 0)], 2), (block, 9)):
        with pytest.raises(ValueError, match=f"disconnected region of size {size}$"):
            DefectSpec(cut_out(nodes))


LONG_CRACK = [((i, 0), (i, 1), -1.0) for i in range(200)]


@pytest.mark.parametrize("bars, size", [
    (cut_out([(0, 0), (1, 0), (0, 1)]), 3),
    (cut_out([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]), 5),
    (LONG_CRACK + cut_out([(57, -1)]), 1),
    (LONG_CRACK + cut_out([(199, 2), (200, 2)]), 2),
], ids=["L", "staircase", "beside-crack", "crack-end-corner"])
def test_islands_next_to_the_box_edges_rejected(bars, size):
    # Every island node lies strictly inside the removed bars' bounding
    # box, and these reach one step from its edges (an L) and its corners
    # (a staircase, two nodes at a long crack's end).  Beside a crack the
    # box is much larger than the island.
    with pytest.raises(ValueError, match=f"disconnected region of size {size}$"):
        DefectSpec(bars)


def test_long_cracks_and_open_channels_accepted():
    # A channel between two parallel cracks is open at both ends.  Neither
    # crack closes a loop of removed bars, so no search runs at all.
    channel = LONG_CRACK + [((i, 2), (i, 3), -1.0) for i in range(200)]
    assert len(DefectSpec(channel)) == 400
    spec = DefectSpec([((i, 0), (i, 1), -1.0) for i in range(5000)])
    assert len(spec) == 5000 and len(spec.nodes) == 10000


def test_reconnected_node_accepted():
    # All four bars of (0, 0) removed, but an added link keeps it attached:
    # no current flows through the dead end, so it takes (2, 3)'s level.
    spec = DefectSpec(cut_out([(0, 0)]) + [((0, 0), (2, 3), 1.0)])
    u = solve_defect(spec, (1.0, 0.0), tol=1e-9, queries=[(0, 0), (2, 3)])
    assert np.isfinite(u[(0, 0)])
    assert u[(0, 0)] == pytest.approx(u[(2, 3)], abs=1e-8)


DIAMOND = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if abs(x) + abs(y) <= 2]


@pytest.mark.parametrize("bars, size", [
    (cut_out(DIAMOND), 13),
    (cut_out([(0, 0)]) + cut_out([(5, 0)]) + [((0, 0), (5, 0), 1.0)], 2),
], ids=["diamond", "joined-rings"])
def test_islands_at_closed_loops_rejected(bars, size):
    # A diamond's boundary turns at every node.  Two one-node rings joined
    # by an added link, and to nothing else, are one finite component that
    # spans both loops of removed bars.
    with pytest.raises(ValueError, match=f"disconnected region of size {size}$"):
        DefectSpec(bars)


def test_ring_reconnected_inside_the_box_accepted():
    # A 3 x 3 block cut off, linked to a node that is outside the ring but
    # inside the removed bars' bounding box: the search must walk from
    # there to the box's edge.
    block = [(x, y) for x in range(3) for y in range(3)]
    bars = cut_out(block) + [((10, 10), (11, 10), -1.0), ((1, 1), (6, 5), 1.0)]
    assert len(DefectSpec(bars)) == len(bars)


def test_linked_ring_in_a_wide_box_checked_fast():
    # A one-node ring linked out of itself, with two removed bars 5000
    # steps away on either side: the search that starts at the ring
    # follows the link into a box of 10**8 nodes, and must stop on the
    # isoperimetric bound (6 removed bars: at most 2 island nodes), not at
    # the box's edge.
    far = [((-5000, -5000), (-4999, -5000), -1.0), ((5000, 5000), (5001, 5000), -1.0)]
    bars = cut_out([(0, 0)]) + [((0, 0), (0, 2), 1.0)] + far
    t0 = time.perf_counter()
    assert len(DefectSpec(bars)) == len(bars)
    assert time.perf_counter() - t0 < 1.0


def test_scattered_removed_bars_checked_fast():
    # 2000 removed unit bars at random on a 2**14 x 2**14 domain: none
    # closes a loop, so the island check is a union-find pass.
    rng = np.random.default_rng(0)
    xy = rng.integers(0, 2**14, size=(2000, 2))
    step = rng.integers(0, 2, size=2000)  # 0: horizontal, 1: vertical
    bars = [((x, y), (x + 1 - s, y + s), -1.0) for (x, y), s in zip(xy.tolist(), step.tolist())]
    t0 = time.perf_counter()
    spec = DefectSpec(bars)
    assert time.perf_counter() - t0 < 1.0
    assert len(spec) == len({(a, b) for a, b, _ in bars})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_input_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        DefectSpec([((0, 0), (1, 0), bad)])
    with pytest.raises(ValueError, match="far field must be finite"):
        solve_defect(removed_bar_spec(), (bad, 0.0))
    with pytest.raises(ValueError, match="far field must be finite"):
        solve_defect(DefectSpec([]), (1.0, bad), queries=[(0, 0)])


def test_spec_accumulates_repeated_bars():
    spec = DefectSpec([((0, 0), (1, 0), -0.5), ((1, 0), (0, 0), -0.5)])
    assert len(spec) == 1
    assert spec.bars[0][2] == pytest.approx(-1.0)


def test_apply_S_unit_charge():
    u = apply_S([(0, 0)], [1.0], [(1, 1)])
    assert u[0] == pytest.approx(phi(1, 1), abs=1e-13)


def test_removed_bar_residual():
    spec = removed_bar_spec()
    u = solve_defect(spec, (1.0, 0.0), tol=1e-9, queries=grid_queries(21))
    res = residual_map(spec, u, 20)
    assert max(abs(v) for v in res.values()) <= 1e-8


def test_added_long_link_residual():
    spec = DefectSpec([((0, 0), (2, 3), 2.0)])
    u = solve_defect(spec, (0.5, 1.0), tol=1e-9, queries=grid_queries(9))
    res = residual_map(spec, u, 8)
    assert max(abs(v) for v in res.values()) <= 1e-8


def test_strengthened_bar_matches_dense_formulation():
    # independent path: dense LU on the reduced system + windowed convolution
    spec = DefectSpec([((0, 0), (1, 0), 1.0)])
    queries = grid_queries(10)
    u = solve_defect(spec, (1.0, 0.0), tol=1e-9, queries=queries)

    nodes = spec.nodes
    n = len(nodes)
    pos = {p: i for i, p in enumerate(nodes)}
    b_mat = np.zeros((n, n))
    for a, b, dc in spec.bars:
        i, j = pos[a], pos[b]
        b_mat[i, i] += dc
        b_mat[j, j] += dc
        b_mat[i, j] -= dc
        b_mat[j, i] -= dc
    s_mat = kernel_matrix(nodes, nodes)
    v_vec = np.array([p[0] for p in nodes], dtype=float)
    rhs = -b_mat @ s_mat @ b_mat @ v_vec
    mu = np.linalg.solve(np.eye(n) + b_mat @ s_mat, rhs)
    w = b_mat @ v_vec + mu
    window = dense_solve_truncated(
        {p: -float(w[i]) for i, p in enumerate(nodes)}, window_radius=26
    )
    for p in queries:
        u_dense = p[0] + window[p]
        assert u[p] == pytest.approx(u_dense, abs=1e-7)


def test_s_inverts_discrete_laplacian():
    rng = np.random.default_rng(5)
    pts = np.unique(rng.integers(-15, 16, size=(20, 2)), axis=0)
    w = {tuple(p): float(rng.standard_normal()) for p in map(tuple, pts)}
    # f = A w on the support and its neighbours
    touched = set(w)
    for x, y in list(w):
        touched.update([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)])
    get = lambda p: w.get(p, 0.0)
    f_nodes = sorted(touched)
    f_vals = np.array([apply_discrete_laplacian(get, p) for p in f_nodes])
    back = apply_S(np.array(f_nodes), f_vals, pts)
    expected = np.array([w[tuple(p)] for p in pts])
    assert np.max(np.abs(back - expected)) <= 1e-9


def test_linearity_in_far_field():
    spec = DefectSpec([((0, 0), (1, 0), -1.0), ((4, 4), (4, 5), 0.75)])
    queries = [(12, 3), (-7, 9), (0, 0), (30, 30)]
    u10 = solve_defect(spec, (1.0, 0.0), tol=1e-9, queries=queries)
    u01 = solve_defect(spec, (0.0, 1.0), tol=1e-9, queries=queries)
    u11 = solve_defect(spec, (1.0, 1.0), tol=1e-9, queries=queries)
    for p in queries:
        assert u11[p] == pytest.approx(u10[p] + u01[p], abs=1e-8)


def test_far_field_decay():
    spec = removed_bar_spec()
    pts = [(100, 1), (10000, 1)]
    u = solve_defect(spec, (1.0, 0.0), tol=1e-9, queries=pts)
    d_near = abs(u[(100, 1)] - 100.0)
    d_far = abs(u[(10000, 1)] - 10000.0)
    assert d_near > 0
    assert d_far <= d_near / 10.0


@pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, 1.0, np.inf])
@pytest.mark.parametrize("limit", [defect._DENSE_BAR_LIMIT, 0], ids=["dense", "gmres"])
def test_tol_must_lie_in_unit_interval(bad, limit, monkeypatch):
    # Checked before any work: a NaN tol would otherwise run every GMRES
    # cycle, and tol >= 1 accept an unconverged answer.
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", limit)
    spec, queries = crack(6)
    with pytest.raises(ValueError, match=r"^tol must lie in \(0, 1\), got "):
        solve_defect(spec, (0.0, 1.0), tol=bad, queries=queries)


def defect_node_residual(spec, u):
    """max |(A+B)u| over the defect nodes (u must cover their neighbours)."""
    bu = apply_B(spec, u)
    return max(
        abs(apply_discrete_laplacian(u, p) + bu[p]) for p in spec.nodes
    )


def with_neighbours(nodes):
    return sorted(
        {(x + dx, y + dy) for x, y in nodes for dx, dy in
         ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))}
    )


def crack(n_bars, offset=(0, 0)):
    """The benchmark's crack: removed bars (i, 0)-(i, 1), queried on the
    crack rows and one row either side (4 (n + 2) nodes)."""
    ox, oy = offset
    spec = DefectSpec(
        [((ox + i, oy), (ox + i, oy + 1), -1.0) for i in range(n_bars)]
    )
    queries = [(ox + x, oy + y) for x in range(-1, n_bars + 1) for y in range(-1, 3)]
    return spec, queries


SQUARE = [((0, 0), (1, 0), 1.0), ((1, 0), (1, 1), 1.0),
          ((1, 1), (0, 1), 1.0), ((0, 1), (0, 0), 1.0)]
MIXED_DEFECTS = {
    "removed": [((0, 0), (1, 0), -1.0), ((0, 1), (1, 1), -1.0), ((5, 5), (5, 6), -1.0)],
    "strengthened": [((0, 0), (0, 1), 2.5), ((3, 0), (4, 0), 0.5)],
    "long-link": [((0, 0), (7, -4), 1.5)],
    "closed-square": SQUARE,
    "zero-sum-pair": [((0, 0), (1, 0), -1.0), ((2, 2), (3, 2), -0.5), ((3, 2), (2, 2), 0.5)],
    "all": [((-3, 0), (-2, 0), -1.0), ((0, 5), (6, 1), 0.75),
            ((4, 4), (4, 5), -0.25), ((2, -3), (3, -3), 0.5), ((2, -3), (3, -3), -0.5)]
    + SQUARE,
}


@pytest.mark.parametrize("name", sorted(MIXED_DEFECTS))
def test_mixed_defects_residual(name):
    spec = DefectSpec(MIXED_DEFECTS[name])
    stats = {}
    u = solve_defect(spec, (0.5, -1.0), queries=with_neighbours(spec.nodes), stats=stats)
    # The exact inverse preconditions GMRES: one iteration.
    assert stats["rcond"] is not None and stats["iterations"] == 1
    assert len(stats["residual_history"]) == 1
    assert defect_node_residual(spec, u) <= 1e-10


def sixty_bars():
    """Removed, strengthened and added bars: 60 in all."""
    return DefectSpec(
        [((i, 0), (i, 1), -1.0) for i in range(40)]
        + [((2 * i, 3), (2 * i + 1, 3), 1.5) for i in range(15)]
        + [((3 * i, -2), (3 * i + 2, -5), 0.5) for i in range(5)]
    )


def test_dense_path_matches_gmres_path(monkeypatch):
    # The preconditioned solve against the unpreconditioned one.
    spec = sixty_bars()
    assert len(spec) == 60
    queries = with_neighbours(spec.nodes) + [(100, -40)]
    dense_stats, gmres_stats = {}, {}
    u_dense = solve_defect(spec, (1.0, 2.0), tol=1e-11, queries=queries,
                           stats=dense_stats)
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    u_gmres = solve_defect(spec, (1.0, 2.0), tol=1e-11, queries=queries,
                           stats=gmres_stats)
    assert dense_stats["rcond"] is not None and dense_stats["s_path"] is None
    assert dense_stats["iterations"] == len(dense_stats["residual_history"]) == 1
    assert dense_stats["residual_history"][0] <= 1e-11
    assert gmres_stats["rcond"] is None and gmres_stats["s_path"] == "fft"
    assert gmres_stats["kernel_source"] == gmres_stats["eval_source"] == "window"
    hist = gmres_stats["residual_history"]
    assert gmres_stats["iterations"] == len(hist) > 0 and hist[-1] <= 1e-11
    assert max(abs(u_dense[p] - u_gmres[p]) for p in queries) <= 1e-9


def test_fmm_route_takes_eps_from_tol(monkeypatch):
    # Forced onto fmm_apply, S runs at eps = tol / 100 = 1e-13 and misses
    # the dense answer by 1.2e-10; at eps 1e-12 it missed by 1.1e-9.
    spec = sixty_bars()
    queries = with_neighbours(spec.nodes) + [(100, -40)]
    u_dense = solve_defect(spec, (1.0, 2.0), tol=1e-11, queries=queries)
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    monkeypatch.setattr(defect, "_WINDOW_CELLS_PER_POINT", 0)
    stats = {}
    u_fmm = solve_defect(spec, (1.0, 2.0), tol=1e-11, queries=queries, stats=stats)
    assert stats["s_path"] == "fmm" and stats["eval_source"] == "phi"
    assert max(abs(u_dense[p] - u_fmm[p]) for p in queries) <= 5e-10


def inclusion(side, dc):
    """Every bar among a side x side block of nodes changed by dc, queried
    on the block and its ring."""
    bars = [((x, y), (x + 1, y), dc) for x in range(side - 1) for y in range(side)]
    bars += [((x, y), (x, y + 1), dc) for x in range(side) for y in range(side - 1)]
    queries = [(x, y) for x in range(-1, side + 1) for y in range(-1, side + 1)]
    return DefectSpec(bars), queries


@pytest.mark.parametrize("name", ["crack", "inclusion"] + sorted(MIXED_DEFECTS))
def test_window_gathers_match_kernel_matrix_bytes(name, monkeypatch):
    # The bar matrix, and so z, is the same to the byte from either source.
    # The outputs are not: the queries are summed by FFT on the window and
    # directly from kernel_matrix rows.
    if name == "crack":
        spec, queries = crack(48, offset=(-7, 300))
    elif name == "inclusion":
        spec, queries = inclusion(8, -0.5)
    else:
        spec = DefectSpec(MIXED_DEFECTS[name])
        queries = with_neighbours(spec.nodes)
    bar_kernel, inverse_rcond, gmres = defect._bar_kernel, defect._inverse_rcond, defect.gmres
    made = {}
    monkeypatch.setattr(defect, "_bar_kernel", lambda *a: made.setdefault("mat", bar_kernel(*a)))
    monkeypatch.setattr(defect, "_inverse_rcond",
                        lambda mat: made.setdefault("inv", inverse_rcond(mat)))
    monkeypatch.setattr(defect, "gmres", lambda *a, **k: made.setdefault("y", gmres(*a, **k)))
    outputs = {}
    for per_point, source in ((np.inf, "window"), (0, "phi")):
        monkeypatch.setattr(defect, "_WINDOW_CELLS_PER_POINT", per_point)
        stats = {}
        made.clear()
        solve_defect(spec, (0.5, -1.0), queries=queries, stats=stats)
        assert stats["rcond"] is not None
        assert stats["kernel_source"] == stats["eval_source"] == source
        (inv, rcond), (y, _) = made["inv"], made["y"]
        outputs[source] = [made["mat"].tobytes(), inv.tobytes(), rcond, y.tobytes()]
    assert outputs["window"] == outputs["phi"]


@pytest.mark.parametrize("case", ["crack-200", "inclusion-0.5", "inclusion4", "inclusion-0.99"])
def test_fft_gmres_matches_dense(case, monkeypatch):
    if case == "crack-200":
        spec, queries = crack(200)
    else:
        spec, queries = inclusion(32, float(case[len("inclusion"):]))
    tol = 1e-8
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", len(spec))
    dense_stats, fft_stats = {}, {}
    u_dense = solve_defect(spec, (0.3, 1.0), tol=tol, queries=queries, stats=dense_stats)
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    u_fft = solve_defect(spec, (0.3, 1.0), tol=tol, queries=queries, stats=fft_stats)
    assert dense_stats["rcond"] is not None and fft_stats["s_path"] == "fft"
    scale = max(abs(v) for v in u_dense.values())
    assert max(abs(u_dense[p] - u_fft[p]) for p in queries) <= tol * scale
    assert defect_node_residual(spec, u_fft) <= 10 * tol


def test_scattered_defects_take_phi_and_fmm(monkeypatch):
    # Two cracks 2**20 apart: their windows would hold ~2**21 x 7 cells.
    spec = DefectSpec([((i, 0), (i, 1), -1.0) for i in range(12)]
                      + [((2**20 + i, 5), (2**20 + i, 6), -0.5) for i in range(12)])
    queries = with_neighbours(spec.nodes)
    dense_stats, fmm_stats = {}, {}
    u_dense = solve_defect(spec, (0.0, 1.0), tol=1e-9, queries=queries,
                           stats=dense_stats)
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    u_fmm = solve_defect(spec, (0.0, 1.0), tol=1e-9, queries=queries,
                         stats=fmm_stats)
    assert dense_stats["kernel_source"] == dense_stats["eval_source"] == "phi"
    assert dense_stats["window_cells"] == 0
    assert fmm_stats["s_path"] == "fmm" and fmm_stats["eval_source"] == "phi"
    assert max(abs(u_dense[p] - u_fmm[p]) for p in queries) <= 1e-8
    assert defect_node_residual(spec, u_dense) <= 1e-10


def test_far_query_takes_phi_and_fmm(monkeypatch):
    spec, queries = crack(48)
    queries = queries + [(10**6, 3)]
    dense_stats, gmres_stats = {}, {}
    u_dense = solve_defect(spec, (0.0, 1.0), queries=queries, stats=dense_stats)
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    u_gmres = solve_defect(spec, (0.0, 1.0), queries=queries, stats=gmres_stats)
    assert (dense_stats["kernel_source"], dense_stats["eval_source"]) == ("window", "phi")
    assert gmres_stats["s_path"] == "fft" and gmres_stats["eval_source"] == "phi"
    assert max(abs(u_dense[p] - u_gmres[p]) for p in queries) <= 1e-8 * max(map(abs, u_dense.values()))
    # Far off, the crack's dipole layer leaves a trace of its own size.
    assert abs(u_dense[(10**6, 3)] - 3.0) <= 1e-3


def test_gmres_stall_names_residual_and_tol(monkeypatch):
    # tol far below what rounding in S allows (~4e-14 here): the first
    # cycle that gains nothing ends the solve, long before max_iter cycles.
    # The FFT route ignores the eps drawn from tol (clamped at 1e-13).
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    spec, queries = crack(200)
    with pytest.raises(RuntimeError, match=(
        r"^defect solve did not converge: GMRES stopped after [1-9] cycles at "
        r"relative residual \S+, above tol 1\.00e-15")):
        solve_defect(spec, (0.0, 1.0), tol=1e-15, queries=queries)


def test_solve_stats_fields():
    spec, queries = crack(6)
    stats = {}
    solve_defect(spec, (0.0, 1.0), queries=queries, stats=stats)
    assert stats["bars"] == 6 and stats["nodes"] == 12
    times = [stats[k] for k in ("t_assemble", "t_solve", "t_eval")]
    assert all(t >= 0.0 for t in times)
    assert sum(times) <= stats["wall_time"]
    assert 0.0 < stats["rcond"] <= 1.0
    assert stats["iterations"] == len(stats["residual_history"]) == 1
    assert stats["kernel_source"] == stats["eval_source"] == "window"
    assert stats["s_path"] is None
    # Node-node window 11 x 3, query-node window (7 + 5 + 1) x (3 + 1 + 1).
    assert stats["window_cells"] == 11 * 3 + 13 * 5
    empty = {}
    solve_defect(DefectSpec([]), (0.0, 1.0), queries=queries, stats=empty)
    assert empty["kernel_source"] is empty["eval_source"] is empty["s_path"] is None
    assert empty["window_cells"] == 0


def test_solve_is_byte_reproducible():
    spec, queries = crack(20, offset=(-37, 12))
    u1 = solve_defect(spec, (0.3, 1.0), queries=queries)
    u2 = solve_defect(spec, (0.3, 1.0), queries=queries)
    assert list(u1) == list(u2)
    assert np.array(list(u1.values())).tobytes() == np.array(list(u2.values())).tobytes()


def test_matches_node_space_reference():
    spec, queries = crack(48, offset=(311, -87))
    u = solve_defect(spec, (0.0, 1.0), tol=1e-8, queries=queries)
    ref = node_space_solve(spec, (0.0, 1.0), tol=1e-8, queries=queries)
    assert max(abs(u[p] - ref[p]) for p in queries) <= 1e-8
    assert defect_node_residual(spec, u) <= 1e-10


def test_crack_peak_memory():
    # The benchmark crack: 48 bars, 200 queries.  An unblocked assembly
    # peaks near 2 MB.
    spec, queries = crack(48, offset=(500, 500))
    bars = spec.bars
    solve_defect(spec, (0.0, 1.0), queries=queries)
    tracemalloc.start()
    try:
        solve_defect(DefectSpec(bars), (0.0, 1.0), queries=queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6


def test_spread_queries_peak_memory():
    # 3844 queries 8 nodes apart around a 48-bar crack: their window would
    # hold 263k cells (2.1 MB), more than _WINDOW_CELLS_PER_POINT allows, so
    # phi evaluates them in blocks.  The peak, ~1.1 MB, is mostly the
    # returned dict; the window would add its 2.1 MB.
    spec, _ = crack(48, offset=(500, 500))
    queries = [(500 + x, 500 + y) for x in range(-248, 248, 8) for y in range(-248, 248, 8)]
    bars = spec.bars
    solve_defect(spec, (0.0, 1.0), queries=queries)
    tracemalloc.start()
    try:
        solve_defect(DefectSpec(bars), (0.0, 1.0), queries=queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.mark.parametrize("dc", [-0.5, 4.0])
def test_inclusion_peak_memory(dc):
    # 1984 bars, solved by GMRES in 7-9 steps: a workspace of restart + 1 =
    # 201 basis vectors would take 3.2 MB, and the returned dict of 1156
    # queries takes ~0.3 MB.
    spec, queries = inclusion(32, dc)
    bars = spec.bars
    solve_defect(spec, (1.0, 0.5), queries=queries)
    tracemalloc.start()
    try:
        solve_defect(DefectSpec(bars), (1.0, 0.5), queries=queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_spread_targets_keep_the_fmm():
    # 10^5 targets 8 nodes apart around a 200-bar crack: a 7M-cell window,
    # about 68 cells per point.
    sources = np.array([(i, y) for i in range(200) for y in (0, 1)])
    side = np.arange(-1272, 1272, 8)
    targets = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    assert len(targets) > 10**5
    assert defect._s_operator(targets, sources, 1e-10)[1:] == ("fmm", 0)
    assert defect._s_operator(sources, sources, 1e-10)[1] == "fft"


@pytest.mark.parametrize("width, height", [(1, 1), (2, 1), (3, 3), (10, 10)],
                         ids=["1", "2", "3x3", "10x10"])
def test_singular_system_raises(width, height):
    # DefectSpec rejects a cut-off region; bypass it to reach the solver's
    # guard.  A guard from one fixed probe vector misses some islands (the
    # start vector e/m alone misses all four).
    island = [(x, y) for x in range(width) for y in range(height)]
    spec = removed_bar_spec()
    spec.bars = sorted(((a, b, dc) if a <= b else (b, a, dc)) for a, b, dc in cut_out(island))
    spec.nodes = sorted({p for a, b, _ in spec.bars for p in (a, b)})
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_defect(spec, (1.0, 0.0))


def synthetic_matrices():
    """m x m matrices (m = 8, 48, 200) with 2-norm condition 1 ... 1e18:
    singular values graded from 1 down to 10^-k, or all 1 but one."""
    rng = np.random.default_rng(2024)
    for m in (8, 48, 200):
        for k in range(19):
            for graded in (True, False):
                for _ in range(2):
                    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
                    v = np.linalg.qr(rng.standard_normal((m, m)))[0]
                    if graded:
                        sigma = np.logspace(0, -k, m)
                    else:
                        sigma = np.ones(m)
                        sigma[rng.integers(m)] = 10.0**-k
                    yield (u * sigma) @ v.T


def assembled_system(spec):
    """I + diag(dc) D S D^T, the bar matrix solve_defect builds, here from
    ``spec.incidence()`` and ``kernel_matrix``."""
    nodes, ia, ib, dc = spec.incidence()
    d = np.zeros((len(ia), len(nodes)))
    d[np.arange(len(ia)), ia] = 1.0
    d[np.arange(len(ia)), ib] = -1.0
    return np.eye(len(ia)) + dc[:, None] * (d @ kernel_matrix(nodes, nodes) @ d.T)


def guard_rcond(mat):
    """The solver's rcond for the bar matrix ``mat``, or None when its
    guard judges mat singular."""
    try:
        return defect._inverse_rcond(mat)[1]
    except RuntimeError:
        return None


def test_rcond_is_exact():
    # numpy's and scipy's inverses differ by O(eps / rcond) relative, so
    # the two condition numbers by O(eps) absolute (at most eps / 8 here).
    eps = np.finfo(float).eps
    specs = [crack(48)[0], crack(200)[0]] + [DefectSpec(b) for b in MIXED_DEFECTS.values()]
    assembled = []
    for spec in specs:
        stats = {}
        solve_defect(spec, (0.5, -1.0), queries=[], stats=stats)
        mat = assembled_system(spec)
        assembled.append(mat)
        ref = exact_rcond(mat)  # the solver's entries differ by rounding
        assert abs(stats["rcond"] - ref) <= 1e-12 * ref, (len(mat), stats["rcond"], ref)
    mats = list(synthetic_matrices()) + assembled
    assert len(mats) == 228 + 8
    for mat in mats:
        got = guard_rcond(mat)
        ref = exact_rcond(mat)
        threshold = len(mat) * eps  # solve_defect's singularity rule
        assert (got is not None) == (ref > threshold), (len(mat), got, ref)
        if got is not None:
            assert abs(got - ref) <= eps, (len(mat), got, ref)


def test_ill_conditioned_small_system_raises(monkeypatch):
    # rcond 6e-13 passes the singularity guard (m eps = 1.8e-15), but the
    # preconditioned products round at about eps / rcond, so GMRES stalls
    # at a relative residual of 4e-5, above tol, and says so instead of
    # returning that answer.
    rng = np.random.default_rng(7)
    u, v = (np.linalg.qr(rng.standard_normal((8, 8)))[0] for _ in range(2))
    mat = (u * np.logspace(0, -12, 8)) @ v.T
    assert guard_rcond(mat) > 8 * np.finfo(float).eps
    # m bars of delta 1 whose D S D^T is mat - I: the solver's matrix is mat.
    monkeypatch.setattr(defect, "_bar_kernel", lambda *args: mat - np.eye(8))
    with pytest.raises(RuntimeError, match=(
        r"^defect solve did not converge: GMRES stopped after \d+ cycles at "
        r"relative residual \S+, above tol 1\.00e-08")):
        solve_defect(DefectSpec([((i, 0), (i, 1), 1.0) for i in range(8)]),
                     (0.0, 1.0), queries=[])


def fixed_nonsymmetric_system():
    """A well-conditioned non-symmetric 120 x 120 matrix and a right side."""
    rng = np.random.default_rng(120)
    a = 3.0 * np.eye(120) + rng.standard_normal((120, 120)) / np.sqrt(120)
    return (lambda v: a @ v), rng.standard_normal(120)


def sixty_bar_operator(monkeypatch):
    """The bar operator and right side solve_defect hands to GMRES."""
    calls = []
    inner = defect.gmres

    def recording(matvec, b, *args, **kwargs):
        calls.append((matvec, b))
        return inner(matvec, b, *args, **kwargs)

    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    monkeypatch.setattr(defect, "gmres", recording)
    solve_defect(sixty_bars(), (1.0, 2.0), tol=1e-11)
    return calls[0]


@pytest.mark.parametrize("system", ["random-120", "sixty-bars"])
def test_gmres_matches_scipy(system, monkeypatch):
    if system == "random-120":
        matvec, b = fixed_nonsymmetric_system()
    else:
        matvec, b = sixty_bar_operator(monkeypatch)
    n, tol = len(b), 1e-11
    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    for restart in (n, 5):  # one cycle, and many
        hist, ref_hist = [], []
        x, info = defect.gmres(matvec, b, tol, restart, maxiter=200, callback=hist.append)
        x_ref, ref_info = scipy_gmres(
            op, b, rtol=tol, atol=0.0, restart=restart, maxiter=200,
            callback=ref_hist.append, callback_type="pr_norm",
        )
        assert info == ref_info == 0
        assert np.linalg.norm(x - x_ref) <= tol * np.linalg.norm(x_ref)
        assert abs(len(hist) - len(ref_hist)) <= 1
        assert hist[-1] <= tol
        assert np.linalg.norm(b - matvec(x)) <= tol * np.linalg.norm(b)
    _, info = defect.gmres(matvec, b, tol, restart=2, maxiter=2)
    assert info != 0


def test_gmres_grows_one_basis():
    # A cycle of 160 steps on a diagonal operator (condition number 400)
    # doubles the workspace from 8 steps up to 160, the last time from its
    # 129-row basis: grown in place, the traced peak is one basis of 161
    # rows of n and the Hessenberg matrix (twice, as it grows) with a few
    # n-vectors; with both bases held it read 314 rows' worth.  The product
    # that ends the cycle meets its last estimated residual, so the rows
    # kept their values as the basis grew.
    n, restart = 2000, 160
    d = np.linspace(1.0, 400.0, n)
    b = np.random.default_rng(0).standard_normal(n)
    hist = []
    tracemalloc.start()
    x, info = defect.gmres(lambda v: d * v, b, 1e-12, restart, maxiter=1, callback=hist.append)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert info == 1 and len(hist) == restart
    assert peak <= 8 * ((restart + 1) * n + 2 * restart**2 + 8 * n), peak / (8 * n)
    residual = np.linalg.norm(b - d * x) / np.linalg.norm(b)
    assert abs(residual - hist[-1]) <= 1e-3 * hist[-1]


def test_gmres_path_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_defect(sixty_bars(), (1.0, 2.0), tol=1e-11, max_iter=2)


@pytest.mark.parametrize("bad", [0.5, 0.9, np.nan, np.inf])
def test_non_integer_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="bar endpoints must have integer coordinates"):
        DefectSpec([((bad, 0), (1, 0), -1.0)])
    with pytest.raises(ValueError, match="bar endpoints must have integer coordinates"):
        DefectSpec([((0, 0), (1, 0), -1.0), ((3, 3), (3, bad), 0.5)])
    with pytest.raises(ValueError, match="queries must have integer coordinates"):
        solve_defect(removed_bar_spec(), (1.0, 0.0), queries=[(0, 0), (bad, 2)])
    with pytest.raises(ValueError, match="queries must have integer coordinates"):
        solve_defect(DefectSpec([]), (1.0, 0.0), queries=[(2, bad)])
