import numpy as np
import pytest

from latticefmm import skeleton
from latticefmm.skeleton import (
    GRID_PARENT_OFFSETS,
    OperatorChain,
    _quadrant_shifts,
    build_level_skeleton,
    build_t_ifo,
    build_t_ifo_grid,
    dense_candidates,
    interpolative_decomposition,
    kernel_matrix,
    proxy_points,
    shared_chain,
)
from latticefmm.tree import INTERACTION_OFFSETS
from skeleton_reference import householder_id, reference_id


def far_targets(side, rng, n=150):
    """Random targets well separated from the model box [0, side)^2."""
    out = []
    while len(out) < n:
        p = rng.integers(-4 * side, 5 * side + 1, size=2)
        if p[0] < -2 * side or p[0] >= 3 * side or p[1] < -2 * side or p[1] >= 3 * side:
            out.append(p)
    return np.array(out, dtype=np.int64)


def chain_candidates(chain, side):
    """The candidates of the chain's ID at ``side``: every position of the
    leaf box, and above it the child skeleton's points shifted into the
    quadrants."""
    if side == chain.leaf_side:
        return dense_candidates(side)
    child = chain.ops[side // 2].skeleton.points
    return np.concatenate([child + np.array(s) for s in _quadrant_shifts(side)])


def replication_error(skel, cand, charges, side, rng):
    """Relative far-field error of compressed vs direct charges."""
    tgt = far_targets(side, rng)
    exact = kernel_matrix(tgt, cand) @ charges
    compressed = kernel_matrix(tgt, skel.points) @ (skel.interp @ charges)
    return np.linalg.norm(exact - compressed) / np.linalg.norm(exact)


def test_id_reconstruction_low_rank():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 12)) @ rng.standard_normal((12, 60))
    idx, t = interpolative_decomposition(a, 1e-10)
    assert idx.size <= 12
    err = np.linalg.norm(a - a[:, idx] @ t) / np.linalg.norm(a)
    assert err <= 1e-9
    # interpolation matrix restricted to skeleton columns is the identity
    assert np.array_equal(t[:, idx], np.eye(idx.size))
    assert len(set(idx.tolist())) == idx.size


def test_id_zero_matrix():
    idx, t = interpolative_decomposition(np.zeros((5, 7)), 1e-10)
    assert idx.size == 0
    assert t.shape == (0, 7)


def test_id_identity_matrix():
    idx, t = interpolative_decomposition(np.eye(9), 1e-12)
    assert idx.size == 9
    assert np.allclose(np.eye(9)[:, idx] @ t, np.eye(9))


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13])
def test_id_matches_pivoted_qr_reference(eps):
    # Every level's proxy matrix of a chain from side 8 to 2**14, against
    # LAPACK's pivoted QR with the same rank rule.  Pivot order may differ
    # in rounding; near-ties in the trailing norm (at 1e-4) may move the
    # rank by one.
    chain = OperatorChain(eps, 8)
    chain.ensure(2**14)
    assert sorted(chain.ops) == [8 << i for i in range(12)]
    for side, op in chain.ops.items():
        a = kernel_matrix(proxy_points(side), chain_candidates(chain, side))
        idx, t = interpolative_decomposition(a, eps)
        assert np.array_equal(a[:, idx], kernel_matrix(proxy_points(side), op.skeleton.points))
        ref_idx, _ = reference_id(a, eps)
        assert abs(idx.size - ref_idx.size) <= 1, (side, idx.size, ref_idx.size)
        err = np.linalg.norm(a - a[:, idx] @ t)
        assert err <= eps * np.linalg.norm(a), (side, err)
        assert np.array_equal(t[:, idx], np.eye(idx.size))


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-13])
def test_id_matches_first_numpy_loop_bit_for_bit(eps):
    # The proxy matrices of a chain from side 8 to 4096, a low-rank and a
    # full-rank random matrix, and a zero column: the same pivots and the
    # same interpolation matrix, bit for bit, as the loop first written.
    chain = OperatorChain(eps, 8)
    chain.ensure(4096)
    mats = [kernel_matrix(proxy_points(side), chain_candidates(chain, side)) for side in sorted(chain.ops)]
    rng = np.random.default_rng(5)
    mats.append(rng.standard_normal((40, 12)) @ rng.standard_normal((12, 60)))
    mats.append(np.column_stack([rng.standard_normal((30, 20)), np.zeros(30)]))
    assert len(mats) == 12
    for a in mats:
        idx, t = interpolative_decomposition(a, eps)
        ref_idx, ref_t = householder_id(a, eps)
        assert np.array_equal(idx, ref_idx) and idx.dtype == ref_idx.dtype
        assert np.array_equal(t, ref_t)


def test_proxy_points_on_boundary():
    pts = proxy_points(8)
    lo, hi = -8, 16
    assert len(pts) == len(np.unique(pts, axis=0))
    on_edge = (pts[:, 0] == lo) | (pts[:, 0] == hi) | (pts[:, 1] == lo) | (pts[:, 1] == hi)
    assert on_edge.all()
    assert pts.min() >= lo and pts.max() <= hi
    for corner in [(lo, lo), (lo, hi), (hi, lo), (hi, hi)]:
        assert (pts == corner).all(axis=1).any()
    assert len(pts) <= 4 * 40


def test_proxy_points_tiny_side():
    pts = proxy_points(1)
    assert len(pts) >= 4
    on_edge = (pts[:, 0] == -1) | (pts[:, 0] == 2) | (pts[:, 1] == -1) | (pts[:, 1] == 2)
    assert on_edge.all()


def test_candidate_sets():
    cand = dense_candidates(8)
    assert cand.shape == (64, 2)
    assert len(np.unique(cand, axis=0)) == 64
    assert cand.min() == 0 and cand.max() == 7
    assert dense_candidates(1).tolist() == [[0, 0]]


def test_leaf_skeleton_rank_and_replication():
    rng = np.random.default_rng(7)
    skel = build_level_skeleton(8, eps=1e-10)
    assert 24 <= skel.rank <= 34
    q = rng.standard_normal(64)
    assert replication_error(skel, dense_candidates(8), q, 8, rng) <= 5e-9


def test_leaf_skeleton_loose_eps_smaller_rank():
    tight = build_level_skeleton(8, eps=1e-10)
    loose = build_level_skeleton(8, eps=1e-6)
    assert loose.rank < tight.rank
    assert 14 <= loose.rank <= 30


def test_chain_ranks_stable():
    chain = OperatorChain(1e-10, 8)
    chain.ensure(64)
    ranks = [chain.ops[s].skeleton.rank for s in (8, 16, 32, 64)]
    assert all(20 <= r <= 55 for r in ranks)
    assert max(ranks) - min(ranks) <= 8


def test_parent_skeleton_replication():
    rng = np.random.default_rng(23)
    chain = OperatorChain(1e-10, 8)
    chain.ensure(16)
    parent = chain.ops[16].skeleton
    cand = chain_candidates(chain, 16)
    q = rng.standard_normal(cand.shape[0])
    assert replication_error(parent, cand, q, 16, rng) <= 5e-9


def test_t_ofo_blocks_slice_interp():
    # T_ofo[q] is the q-th block of the parent ID's columns, held as a view.
    chain = OperatorChain(1e-10, 8)
    chain.ensure(16)
    parent = chain.ops[16].skeleton
    child = chain.ops[8].skeleton
    blocks = chain.ops[16].t_ofo
    assert blocks.shape == (4, parent.rank, child.rank)
    assert np.array_equal(np.concatenate(list(blocks), axis=1), parent.interp)
    assert np.shares_memory(blocks, parent.interp)
    assert chain.ops[8].t_ofo is None


def test_t_ifo_entries_match_kernel():
    skel = build_level_skeleton(8, eps=1e-10)
    stack = build_t_ifo(skel)
    assert stack.shape == (len(INTERACTION_OFFSETS), skel.rank, skel.rank)
    for d in (0, 13, 39):
        ox, oy = INTERACTION_OFFSETS[d]
        shifted = skel.points + np.array([8 * ox, 8 * oy])
        assert np.array_equal(stack[d], kernel_matrix(skel.points, shifted))


def test_t_ifo_stack_equals_per_offset_evaluation():
    # build_t_ifo evaluates one offset of each +-delta pair and transposes
    # it for the other; the stack must equal phi at every offset, exactly.
    chain = OperatorChain(1e-10, 8)
    chain.ensure(4096)
    for side, op in chain.ops.items():
        z = op.skeleton.points
        for d, (ox, oy) in enumerate(INTERACTION_OFFSETS):
            want = kernel_matrix(z, z + np.array([side * ox, side * oy]))
            assert np.array_equal(op.t_ifo[d], want), (side, d)


def test_t_ifo_grid_blocks():
    # W_D maps the four children of the parent at offset D to a parent's
    # four: block (q_s, q_t) is t_ifo[d]^T for the child offset
    # d = 2 D + q_s - q_t of a far pair, and exactly zero for a near one.
    # D = 0 joins only colleagues and is not stored.
    skel = build_level_skeleton(16, eps=1e-10, child=build_level_skeleton(8, eps=1e-10))
    t_ifo = build_t_ifo(skel)
    k = skel.rank
    w = build_t_ifo_grid(t_ifo)
    assert w.shape == (8, 4 * k, 4 * k) and w.flags.c_contiguous
    assert sorted(GRID_PARENT_OFFSETS) == [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    far = {q_t: [] for q_t in range(4)}
    for n, (big_x, big_y) in enumerate(GRID_PARENT_OFFSETS):
        for q_s in range(4):
            for q_t in range(4):
                d = (2 * big_x + (q_s & 1) - (q_t & 1), 2 * big_y + (q_s >> 1) - (q_t >> 1))
                block = w[n, q_s * k : (q_s + 1) * k, q_t * k : (q_t + 1) * k]
                if max(abs(d[0]), abs(d[1])) <= 1:
                    assert not block.any(), (n, q_s, q_t)
                else:
                    assert np.array_equal(block, t_ifo[INTERACTION_OFFSETS.index(d)].T), (n, q_s, q_t)
                    far[q_t].append(d)
    # Each child's 27 interaction offsets, once each.
    for offsets in far.values():
        assert len(offsets) == len(set(offsets)) == 27


def test_stored_entries_counts_every_array():
    # stored_entries() is the summed size of every array the chain holds,
    # found by walking its operators.  T_ofo is a view of interp, which
    # counts once, and T_ifi is its transpose and is not stored.
    chain = OperatorChain(1e-10, 8)
    chain.ensure(64)
    chain.ops[32].t_ifo_grid
    chain.unit_table(16)

    def arrays(obj):
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                yield value
            elif hasattr(value, "__dict__"):
                yield from arrays(value)

    ofo = {side: op.t_ofo for side, op in chain.ops.items() if op.t_ofo is not None}
    assert sorted(ofo) == [16, 32, 64]
    assert all(np.shares_memory(t, chain.ops[side].skeleton.interp) for side, t in ofo.items())
    held = [a for op in chain.ops.values() for a in arrays(op) if not any(a is t for t in ofo.values())]
    assert sum(a.size for a in held) == chain.stored_entries()
    # Sides 8..64: points and interp each; side 32's T_ifo stack and grid
    # T_ifo, the only ones used; and the tables of sides 8 and 16.
    assert len(held) == 4 * 2 + 2 + 2
    assert [side for side, op in chain.ops.items() if op._t_ifo is not None] == [32]


def test_leaf_t_ofs_dense_restriction():
    # The T_ofs of a partly filled leaf is the ID restricted to the columns
    # of its points, as the FMM's upward pass applies it.
    rng = np.random.default_rng(5)
    skel = build_level_skeleton(8, eps=1e-10)
    sel = rng.choice(64, size=17, replace=False)
    positions = dense_candidates(8)[sel]
    t_ofs = skel.interp[:, positions[:, 0] * 8 + positions[:, 1]]
    assert np.array_equal(t_ofs, skel.interp[:, sel])
    # replication: compressed charges reproduce the far field
    q = rng.standard_normal(17)
    tgt = far_targets(8, rng)
    exact = kernel_matrix(tgt, positions) @ q
    approx = kernel_matrix(tgt, skel.points) @ (t_ofs @ q)
    assert np.linalg.norm(exact - approx) <= 5e-9 * np.linalg.norm(exact)


def test_unit_table():
    # Row x * s + y of side s is the unit expansion of position (x, y): at
    # the leaf the ID's column, above it the side/2 row of the position in
    # its quadrant q, carried up by T_ofo[q].  Built once per side, and
    # counted in the chain's stored entries.
    chain = OperatorChain(1e-10, 8)
    chain.ensure(32)
    before = chain.stored_entries()
    leaf = chain.unit_table(8)
    assert np.array_equal(leaf, chain.ops[8].skeleton.interp.T) and leaf.flags.c_contiguous
    for side in (16, 32):
        table, child, h = chain.unit_table(side), chain.unit_table(side // 2), side // 2
        t_ofo = chain.ops[side].t_ofo
        assert table.shape == (side * side, chain.ops[side].skeleton.rank)
        for x, y in dense_candidates(side):
            q = int(x >= h) | int(y >= h) << 1
            expected = t_ofo[q] @ child[(x % h) * h + y % h]
            assert np.allclose(table[x * side + y], expected, rtol=0, atol=1e-13 * np.abs(expected).max())
    assert chain.unit_table(32) is table
    assert chain.stored_entries() - before == sum(chain.unit_table(s).size for s in (8, 16, 32))


def test_shared_chain_memoized():
    a = shared_chain(1e-10, 8)
    b = shared_chain(1e-10, 8)
    assert a is b
    c = shared_chain(1e-6, 8)
    assert c is not a


def test_chains_of_one_anchor_share_operators(monkeypatch):
    # A chain for leaves above side 8 is anchored at side 8 and shares its
    # operators with every chain of that eps and anchor: no side is built
    # twice.  A smaller leaf side anchors a chain of its own.
    monkeypatch.setattr(skeleton, "_chain_memo", {})
    wide = shared_chain(1e-6, 256)
    wide.ensure(512)
    assert (wide.leaf_side, wide.anchor) == (256, 8) and sorted(wide.ops) == [8, 16, 32, 64, 128, 256, 512]
    narrow = shared_chain(1e-6, 8)
    assert narrow is not wide and narrow.ops is wide.ops
    assert shared_chain(1e-6, 32).ops is wide.ops
    assert shared_chain(1e-10, 256).ops is not wide.ops
    small = shared_chain(1e-6, 4)
    assert small.anchor == 4 and small.ops is not wide.ops
    assert np.array_equal(wide.unit_table(8), wide.ops[8].skeleton.interp.T)
