import tracemalloc

import numpy as np
import pytest

from latticefmm import defect
from latticefmm.defect import DefectSpec, apply_B, apply_S, solve_defect
from latticefmm.green import apply_discrete_laplacian, phi
from latticefmm.skeleton import kernel_matrix

from defect_reference import node_space_solve
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


def test_reconnected_node_accepted():
    # All four bars of (0, 0) removed, but an added link keeps it attached:
    # no current flows through the dead end, so it takes (2, 3)'s level.
    spec = DefectSpec(cut_out([(0, 0)]) + [((0, 0), (2, 3), 1.0)])
    u = solve_defect(spec, (1.0, 0.0), tol=1e-9, queries=[(0, 0), (2, 3)])
    assert np.isfinite(u[(0, 0)])
    assert u[(0, 0)] == pytest.approx(u[(2, 3)], abs=1e-8)


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


def test_tol_precondition():
    with pytest.raises(ValueError, match="10x"):
        solve_defect(removed_bar_spec(), (1.0, 0.0), tol=1e-12, eps=1e-10)


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
    assert stats["path"] == "dense"
    assert defect_node_residual(spec, u) <= 1e-10


def test_dense_path_matches_gmres_path(monkeypatch):
    spec = DefectSpec(
        [((i, 0), (i, 1), -1.0) for i in range(40)]
        + [((2 * i, 3), (2 * i + 1, 3), 1.5) for i in range(15)]
        + [((3 * i, -2), (3 * i + 2, -5), 0.5) for i in range(5)]
    )
    assert len(spec) == 60
    queries = with_neighbours(spec.nodes) + [(100, -40)]
    dense_stats, gmres_stats = {}, {}
    u_dense = solve_defect(spec, (1.0, 2.0), tol=1e-11, eps=1e-12, queries=queries,
                           stats=dense_stats)
    monkeypatch.setattr(defect, "_DENSE_BAR_LIMIT", 0)
    u_gmres = solve_defect(spec, (1.0, 2.0), tol=1e-11, eps=1e-12, queries=queries,
                           stats=gmres_stats)
    assert dense_stats["path"] == "dense" and dense_stats["iterations"] == 0
    assert dense_stats["residual_history"] == []
    assert gmres_stats["path"] == "gmres"
    hist = gmres_stats["residual_history"]
    assert gmres_stats["iterations"] == len(hist) > 0 and hist[-1] <= 1e-11
    assert max(abs(u_dense[p] - u_gmres[p]) for p in queries) <= 1e-9


def test_solve_stats_fields():
    spec, queries = crack(6)
    stats = {}
    solve_defect(spec, (0.0, 1.0), queries=queries, stats=stats)
    assert stats["bars"] == 6 and stats["nodes"] == 12
    times = [stats[k] for k in ("t_assemble", "t_solve", "t_eval")]
    assert all(t >= 0.0 for t in times)
    assert sum(times) <= stats["wall_time"]


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


def test_singular_system_raises():
    # DefectSpec rejects a cut-off node; bypass it to reach the solver's guard.
    spec = removed_bar_spec()
    spec.bars = sorted(((a, b, dc) if a <= b else (b, a, dc)) for a, b, dc in cut_out([(0, 0)]))
    spec.nodes = sorted({p for a, b, _ in spec.bars for p in (a, b)})
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_defect(spec, (1.0, 0.0))


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
