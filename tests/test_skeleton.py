import numpy as np
import pytest

from latticefmm.skeleton import (
    OperatorChain,
    build_level_skeleton,
    build_t_ifo,
    build_t_ofo,
    dense_candidates,
    interpolative_decomposition,
    kernel_matrix,
    proxy_points,
    shared_chain,
)
from latticefmm.tree import INTERACTION_OFFSETS


def far_targets(side, rng, n=150):
    """Random targets well separated from the model box [0, side)^2."""
    out = []
    while len(out) < n:
        p = rng.integers(-4 * side, 5 * side + 1, size=2)
        if p[0] < -2 * side or p[0] >= 3 * side or p[1] < -2 * side or p[1] >= 3 * side:
            out.append(p)
    return np.array(out, dtype=np.int64)


def replication_error(skel, charges, side, rng):
    """Relative far-field error of compressed vs direct charges."""
    tgt = far_targets(side, rng)
    exact = kernel_matrix(tgt, skel.candidates) @ charges
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
    q = rng.standard_normal(skel.candidates.shape[0])
    assert replication_error(skel, q, 8, rng) <= 5e-9


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
    q = rng.standard_normal(parent.candidates.shape[0])
    assert replication_error(parent, q, 16, rng) <= 5e-9


def test_t_ofo_blocks_slice_interp():
    chain = OperatorChain(1e-10, 8)
    chain.ensure(16)
    parent = chain.ops[16].skeleton
    child = chain.ops[8].skeleton
    blocks = build_t_ofo(parent, child)
    assert blocks.shape == (4, parent.rank, child.rank)
    assert np.array_equal(np.concatenate(list(blocks), axis=1), parent.interp)


def test_t_ofo_block_size_mismatch():
    chain = OperatorChain(1e-10, 8)
    chain.ensure(16)
    parent = chain.ops[16].skeleton
    wrong_child = build_level_skeleton(16, eps=1e-10)
    assert wrong_child.rank != chain.ops[8].skeleton.rank
    with pytest.raises(ValueError, match="block-size mismatch"):
        build_t_ofo(parent, wrong_child)


def test_t_ifo_entries_match_kernel():
    skel = build_level_skeleton(8, eps=1e-10)
    stack = build_t_ifo(skel)
    assert stack.shape == (len(INTERACTION_OFFSETS), skel.rank, skel.rank)
    for d in (0, 13, 39):
        ox, oy = INTERACTION_OFFSETS[d]
        shifted = skel.points + np.array([8 * ox, 8 * oy])
        assert np.array_equal(stack[d], kernel_matrix(skel.points, shifted))


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


def test_shared_chain_memoized():
    a = shared_chain(1e-10, 8)
    b = shared_chain(1e-10, 8)
    assert a is b
    c = shared_chain(1e-6, 8)
    assert c is not a
