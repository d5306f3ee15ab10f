"""Five-pass fast summation of u = phi * q over scattered lattice charges.

The work is O(N_source): an upward pass compresses charges into per-box
outgoing expansions (leaf T_ofs, then T_ofo up the tree), interaction-list
translations turn outgoing into incoming expansions (T_ifo), and a downward
pass broadcasts and expands them back to point potentials (T_ifi, then
T_tfi), with directly summed near-field corrections.

Leaves are chosen box by box, as in the adaptive FMM of Carrier, Greengard
& Rokhlin (SIAM J. Sci. Stat. Comput. 9, 1988).  ``QuadTree`` (with
``max_leaf_side`` 8) gives the depth L.  From the root down, a box is
active when its parent is an active box that is not a leaf, and an active
box is a leaf once it holds at most F = min(nleaf, ``tree.FEW_POINTS``)
points and so does each of its active colleagues; every active box at
level L is a leaf.  A colleague pair that holds a leaf is resolved: its
point pairs, at most F^2 above level L, are summed directly, and the pair
is not refined.  So a box next to a leaf holds at most F points, and the
adaptive FMM's W and X lists (a leaf against a smaller or a larger box that
is not adjacent) are not needed: each ordered point pair lies either in a
T_ifo pair of two active boxes of one level or in one resolved pair.

Every active box has an outgoing and an incoming expansion: a leaf forms
them from its points (T_ofs) and expands the incoming one at them (T_tfi);
any other active box forms its outgoing expansion from its children's
(T_ofo) and carries its incoming one down to them (T_ifi = T_ofo^T).  The
operator chain is anchored at side min(s, 8), s the side at level L
(``OperatorChain.anchor``).  On leaves of side 8 or less at level L, T_ofs
and T_tfi are one GEMM per chunk of leaves with the dense s x s stencil of
each leaf: T_ofs scatters the charges onto it, T_tfi reads the potentials
off it.  On every other leaf, at level l, each point's unit expansion
e_{p,l} is its row of the chain's table at the table level
(``FmmRun._table_levels``), carried up by T_ofo to the leaf: T_ofs sums
e_{p,l} q_p over the leaf's points, T_tfi adds e_{p,l} . inc_l to each.
Both run on the boxes the leaf's points occupy below it
(``FmmRun._sub_boxes``), held in rows grouped by their place in the box
one step up: each point's table row is gathered once per pass, into its
box's row in that order, the carry is one GEMM per place, and T_ofs adds
each place's products into the boxes one step up, which are distinct
within a place, while T_tfi carries the incoming expansions down the
same steps (``_sum_expansions``, ``_fold_expansions``).  Each pass holds
one chunk of those rows at a time, and forms the index arrays of its
points for a run of a few chunks at a time (``_SUB_CHUNK``,
``_POINT_RUN``).

The near field is the resolved pairs of every level.  Every direct pair
is summed once for both orders: phi(x_t - x_s) is evaluated once and
added to both points, q_s phi to u_t and q_t phi to u_s, as phi(-m) =
phi(m) bit for bit, and a leaf against itself by its pairs i < j.  On
leaves of side s <= 8 at level L, a pair whose point counts satisfy
ct * cs >= s^2 is a stencil product instead: both leaves are scattered onto
the dense s x s stencil and one s^2 x s^2 block of phi per neighbour offset
is applied to all such pairs in one GEMM.  A block costs about s^4
multiply-adds and a point pair about s^2 flop-equivalents, so the paths
break even near ct * cs = s^2; a block of a larger leaf would cost s^4 for
at most 16^2 point pairs.

Interaction and neighbour lists are built coarse to fine from the
parent level's colleagues (Carrier, Greengard & Rokhlin 1988).  A box's
colleagues are the active boxes at most one box away, itself included.
Each colleague pair (P, Q) of non-leaf parents at offset D = Q - P yields
the child pairs (b, c) with b a child of P, c a child of Q, at offset
d = 2 D + q_c - q_b (q the quadrant's (x, y) bits).  Pairs with
|d|_inf <= 1 are colleagues at the child level; the rest, at |d|_inf of
2 or 3, are its interaction pairs, applied by T_ifo block d.  The lookup
work is proportional to the pairs that exist, and a grid level (below)
forms only its colleague pairs: its interaction pairs are counted on the
mask of children found, before any pair is formed, and never formed.  The
lists of all levels are built first.  The near field then sums the
resolved pairs, and they are dropped before any expansion is formed; the
upward pass, which applies T_ifo, and the downward pass follow.

T_ifo takes one of two paths per level.  A level whose interaction pairs
fill its 2^l x 2^l box grid well (``_IFO_GRID_PAIRS_PER_CELL``) runs on
the grid.  Both boxes of an interaction pair are children of adjacent
non-leaf boxes, so a level's interaction lists are exactly the parity
pattern among its active boxes, which is all the grid holds.  The grid is
held parent-major, a parent's four children in one row, and a parent's
children's incoming expansions are the sum over its eight neighbouring
parents of that parent's row times one fixed (4 k x 4 k) operator per
offset: eight GEMMs per band of parent rows, each reading the grid in
place (batched M2L, Coulaud, Fortin & Roman, J. Comput. Phys. 227, 2008).
Its pairs are only counted, and the grid is filled in bands of parent
rows, one chunk of products each, which with their scratch buffer hold
about a quarter of the level's expansions, or 8 k slots where that is
more (``_band_rows``).
On a grid level T_ofo forms the parents' outgoing expansions first, and
each box's incoming expansion is then written over its outgoing one, as
a band copies every row it reads before it writes any: a grid level holds
one array of expansions, not two.  Every other level applies its pairs
grouped by offset, one GEMM per offset, into incoming expansions of their
own, and its parents are formed after.

Only active boxes are touched, except by the grid path; all per-level
work is batched into dense matrix products over Morton-sorted arrays.
"""

from __future__ import annotations

import time

import numpy as np

from .config import DEFAULT_EPS, DEFAULT_NLEAF, check_charges, check_eps
from .green import lattice_points, lattice_targets, octant_bytes, phi
from .skeleton import GRID_PARENT_OFFSETS, MAX_ANCHOR_SIDE, shared_chain, shared_entries
from .tree import FEW_POINTS, INTERACTION_OFFSETS, QuadTree, build_tree

_NEAR_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))

# Side the tree refines toward while a box holds more than
# ``tree.FEW_POINTS`` points, and largest side of a stencil leaf: each
# near-field stencil block has s^4 entries, and the leaf ID takes all s^2
# positions as candidates.  The operator chain is anchored at this side
# under larger leaves, whose points read their unit expansions from its
# tables.
_MAX_LEAF_SIDE = MAX_ANCHOR_SIDE


# Interaction pairs per cell of a level's 2^l x 2^l box grid from which
# T_ifo runs on the grid (``FmmRun._across_grid``) rather than pair by
# pair; a full level has up to 27.  The grid computes 128 k x k blocks per
# parent, empty parents between occupied ones included: 32 per cell at
# most, whatever the fill.  On full 128^2 and 512^2 grids (levels 2-6,
# k = 28-36, 2 cores, median of 5-15 calls; measured when the grid
# computed 36 blocks per cell) a grid block cost 54-118 ns at the wide
# levels 4-6 and a pair block 264-431 ns, so the grid paid from
# 36 x 54/264 = 7.4 to 36 x 118/431 = 9.9 pairs per cell; at levels 2-3
# the pair path's per-offset calls make a pair block cost 1.1-6 us and the
# grid wins by more.  Each full level ran 2.2 to 3.5 times faster on the
# grid.  Partly filled levels, where many boxes hold one point (same host,
# warm, in-process medians, the run of grid levels, as the grid levels
# then had to be, forced to end at or just above the level): level 7 of
# 16384 uniform points on 16384^2 (10.4 pairs per cell, 63 % of cells
# occupied) takes 37 ms on the grid against 64 ms pair by pair, with 7 ms
# less list building, and level 9 of 2^18 on 2^18 x 2^18 (10.8 per cell)
# 0.68 against 1.19 s, with 0.16 s less list building: the grid pays from
# 6.0-6.2 pairs per cell, or 4.8 with the lists counted.  No level of
# these loads or of the full grids has between 1.3 and 10 pairs per cell,
# so a lower crossover would move none of them.  The next levels of both
# loads, at 1.3 pairs per cell, run 4-8 times faster pair by pair (23
# against 179 ms; 0.40 against 2.16 s, measured at 36 blocks per cell).
_IFO_GRID_PAIRS_PER_CELL = 8

# Entries per chunk of the stencil products of T_ofs and T_tfi, and twice
# the point pairs summed at once (``FmmRun._ragged_pairs``).  Grid T_ifo
# sizes its bands by the level instead (``_band_rows``).  On 2^16 uniform
# points on 2^10 x 2^10 (side-8 leaves of about four points, whose near
# field is mostly point pairs), 2^15 ran 17 % slower and 2^17 no faster,
# at 12.9 / 13.3 / 15.9 MB for 2^15 / 2^16 / 2^17, when the grid's bands
# and the point pairs at once were both this many.  On 2^18 uniform points
# on 2^11 x 2^11 (9.3 million near-field point pairs, when each was summed
# for one order), chunks of 2^16 point pairs rather than 2^22 took the
# near field from 0.72-0.96 to 0.42-0.61 s (2 cores, ten warm calls) and
# the traced peak of a call from 128 to 56 MB.
_CHUNK = 1 << 16

# Rows per chunk of the gathers and products over expansion rows (T_ofo,
# T_ifi, T_ifo pair by pair, the table rows of T_tfi): 1024 rows of k ~ 35
# doubles, 0.29 MB.  Against 1024 rows, 512 gave the same traced peak on
# 16384 uniform points on 16384^2 and ran the call 9 % slower, 2048 rows
# 6 % slower at a 0.6 MB higher peak (21 alternating warm calls each).
_ROW_CHUNK = _CHUNK // 64

# Points per chunk of the rows of leaves off the stencil on their way up
# from the tables (``FmmRun._sub_boxes``): a chunk holds its boxes' rows at
# the table level, about 0.55 MB at k = 35 on the 16384 uniform points
# above (leaves of side 256, L = 6, about one point per box at the table
# level), and goes before the next chunk's are formed; T_ofs holding two
# at once set that load's traced peak, 4.28 MB.  With T_ofs and T_tfi
# timed against the per-point carry they replaced in one process, chunks
# of 2048 points ran them at 0.86 and 0.85 of its time, 4096 at 0.86 and
# 0.86, and 8192 at 1.36 and 1.31.
_SUB_CHUNK = 2 * _ROW_CHUNK

# Points per run of those rows whose index arrays (``FmmRun._sub_boxes``,
# about 40 bytes a point) are formed at once: four chunks, and never a
# level's.  On the 16384 uniform points above, T_ofs and T_tfi at the leaf
# level peaked at 3.05 / 3.21 / 3.55 and 3.11 / 3.23 / 3.50 MB at runs of
# 2 / 4 / 8 chunks; from four down the call's peak, 3.33-3.35 MB, lies in
# grid T_ifo at levels 5 and 6.  On 2^16 points on a circle of radius 2^17 - 1 (``tests/ab_fmm.py``
# ``circle``, leaves of about eight points) T_ofs and T_tfi took 23.8 /
# 22.7 / 22.2 and 15.9 / 15.3 / 14.4 ms, the call 91.3 / 90.9 / 87.9 ms,
# against 21.6, 14.2 and 89.5 ms with the index arrays of the level and
# two chunks at once (2 cores, 21 alternating warm calls in one process).
_POINT_RUN = 4 * _SUB_CHUNK


# Grid T_ifo's products are (n, 4 k) @ (4 k, 4 k).  The OpenBLAS build
# this was measured with (0.3.31, numpy 2.4) runs a product on two threads
# from about n (4 k)^2 = 10^6 multiply-adds; with n <= 4 k it then splits the
# 4 k output columns between the threads, and for odd k the split leaves
# each thread an edge of two columns, computed by other kernels: about one
# potential in ten changed in its last bits between one and two threads on
# 2^15 uniform points (n = 52-140 at k = 35, 46-148 at k = 37, none for
# even k).  With n > 4 k it splits the rows and every entry is as on one
# thread, whatever the rows around it, so ``_across_grid`` runs such a
# product on a window of 4 k + 1 slots that holds its own: slots of the
# band's rows either side, discarded, or, on a band too small for that,
# zero rows below its end.  The window belongs to this build: test_fmm's
# thread-count test guards it.
_BLAS_SPLIT_MNK = 10**6


def _band_rows(half, width, k, entries):
    """Parent rows per band of grid T_ifo (``FmmRun._across_grid``) on a
    level of ``half`` parent rows, ``width`` slots a row with its border,
    rank k and ``entries`` entries of expansions: the most whose band (its
    rows and two border rows), chunk of products and scratch buffer (one
    band's slots each) hold a quarter of ``entries``, but at least the
    fewest whose chunk holds 8 k slots.  ``_across_grid`` splits the rows
    evenly into bands of at most that many.

    Each band costs eight GEMMs, and a threaded GEMM a fixed wait for its
    second thread, so few large bands run fastest.  At level 6 of 16384
    uniform points on 16384^2 (k = 35, 4006 boxes, 1.12 MB of expansions)
    bands of 5 / 8 / 11 rows took 5.3 / 4.7 / 4.6 ms at a traced peak of
    0.72 / 1.07 / 1.41 MB in the call, and at level 6 of a full 512^2 grid
    (k = 28) bands of 4 / 8 / 16 rows 3.8 / 3.1 / 3.0 ms: this rule gives 8
    and 7.  At level 8 of 2^18 uniform points on 2^18 x 2^18 (64350
    boxes, 18 MB) bands of 2^16 entries took one row each, 124 ms and 2.1
    MB, and bands of 8 rows 72-80 ms and 4.9 MB (2 cores, median of 9
    calls)."""
    most = (entries // 4 // (width * 4 * k) - 2) // 3
    return max(1, min(half, max(most, -(-8 * k // width))))


def _child_codes():
    """Offset code of a child pair, indexed by (n * 4 + q_b) * 4 + q_c for
    parents at colleague offset ``_NEAR_OFFSETS[n]``: the ``_NEAR_OFFSETS``
    index of a colleague offset, or 9 + the ``INTERACTION_OFFSETS`` index
    of an interaction offset.  Quadrant q has x bit q & 1 and y bit q >> 1."""
    codes = []
    for px, py in _NEAR_OFFSETS:
        for qb in range(4):
            for qc in range(4):
                d = (2 * px + (qc & 1) - (qb & 1), 2 * py + (qc >> 1) - (qb >> 1))
                if d in _NEAR_OFFSETS:
                    codes.append(_NEAR_OFFSETS.index(d))
                else:
                    codes.append(len(_NEAR_OFFSETS) + INTERACTION_OFFSETS.index(d))
    return np.array(codes, dtype=np.int8)


_CHILD_CODE = _child_codes()


def _by_code(tgt, src, code, n_codes):
    """Target-major pairs regrouped by offset code, as (tgt, src, bounds):
    the pairs of code k are [bounds[k], bounds[k + 1]), targets ascending."""
    order = np.argsort(code, kind="stable")  # radix sort of int8 codes
    bounds = np.zeros(n_codes + 1, dtype=np.int64)
    np.cumsum(np.bincount(code, minlength=n_codes), out=bounds[1:])
    return tgt[order], src[order], bounds


def _code_groups(pairs):
    """(code, targets, sources) of each nonempty offset group, in code order."""
    tgt, src, bounds = pairs
    for k in range(len(bounds) - 1):
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            yield k, tgt[lo:hi], src[lo:hi]


def _child_lists(tree: QuadTree, lvl: int, parents, on_grid):
    """Colleagues and grouped interaction pairs at ``lvl`` from the
    target-major colleague pairs (tgt, src, code) of non-leaf boxes at
    ``lvl - 1``.

    From level 2 down, if ``on_grid(lvl, n_far)`` holds for the level's
    n_far interaction pairs, counted before any pair is formed, only the
    colleague pairs are formed and n_far is returned for the interactions.
    """
    parent_tgt, parent_src, parent_code = parents
    n_boxes = len(tree.codes[lvl])
    child = np.full((len(tree.codes[lvl - 1]), 4), -1, dtype=np.int32)
    slot = np.multiply(tree.parent_index[lvl], 4, dtype=np.int64) + (tree.codes[lvl] & 3)
    child.reshape(-1)[slot] = np.arange(n_boxes, dtype=np.int32)
    del slot
    # Each box b meets the children of its parent's colleagues: the
    # parent's rows, in box order, so the pairs come out target-major.
    # Only the parents with colleagues are visited (a leaf and the boxes
    # under it have none), so the work follows the pairs, not the boxes.
    # Rows of 2-D arrays are gathered by ``np.take``: on rows this narrow
    # it is about ten times faster than fancy indexing.
    new = np.ones(len(parent_tgt), dtype=bool)
    new[1:] = parent_tgt[1:] != parent_tgt[:-1]
    first = np.flatnonzero(new)  # each such parent's first row
    n_rows = np.diff(first, append=len(parent_tgt))
    # Slot 4 i + q holds the quadrant-q child of the i-th such parent.
    slots = np.take(child, parent_tgt[first], axis=0).ravel()
    filled = np.flatnonzero(slots >= 0)
    deg = n_rows[filled >> 2]
    row = np.arange(int(deg.sum())) + np.repeat(first[filled >> 2] - (np.cumsum(deg) - deg), deg)
    b = np.repeat(slots[filled], deg)
    # Each row's four offset codes, one per quadrant of the source child.
    codes = np.take(_CHILD_CODE.reshape(-1, 4), parent_code[row] * 4 + np.repeat(filled & 3, deg), axis=0)
    kids = np.take(child, parent_src[row], axis=0)
    # Temporaries go as soon as they are used: every level's T_ifo pairs
    # are held until the upward sweep applies them.
    del new, first, n_rows, slots, filled, row, deg
    found = kids >= 0
    grid = False
    if lvl >= 2:
        # The interaction pairs are counted on the (rows, 4) mask; a grid
        # level forms only its colleague pairs.
        near = codes < len(_NEAR_OFFSETS)
        near &= found
        n_far = int(np.count_nonzero(found)) - int(np.count_nonzero(near))
        grid = on_grid(lvl, n_far)
        if grid:
            found = near
        del near
    pick = np.flatnonzero(found)
    del found
    src = kids.ravel()[pick]
    code = codes.ravel()[pick]
    pick >>= 2  # the row of each pair
    tgt = b[pick]
    del b, codes, kids, pick
    if grid:
        return (tgt, src, code), n_far
    near = np.flatnonzero(code < len(_NEAR_OFFSETS))
    far = np.flatnonzero(code >= len(_NEAR_OFFSETS))
    colleagues = (tgt[near], src[near], code[near])
    del near
    interactions = _by_code(
        tgt[far], src[far], code[far] - len(_NEAR_OFFSETS), len(INTERACTION_OFFSETS)
    )
    return colleagues, interactions


def level_lists(tree: QuadTree, on_grid=lambda lvl, n_far: False):
    """The active boxes of each level, its leaves, resolved pairs and
    interaction pairs, under the leaf rule of the module docstring.

    Yields (active, leaf, resolved, interactions) for levels 0..L, coarse
    to fine, each built from the previous level's colleague pairs of two
    non-leaf boxes, so only one level's lists are held.  Every level to L
    holds an active box: were every active box of a level l < L a leaf,
    every box of l would hold at most F points, and L would be at most l.  ``active`` and
    ``leaf`` flag the level's occupied boxes; box slots are int32.
    ``resolved`` is the colleague pairs that hold a leaf, (tgt, src, code)
    target-major, with code the ``_NEAR_OFFSETS`` index of src - tgt (a
    box with itself included, at (0, 0)).  Interactions are grouped by
    ``INTERACTION_OFFSETS`` index as by ``_by_code``; at a level from 2
    where ``on_grid(lvl, n_far)`` holds for its n_far interaction pairs,
    they are that count alone (``_child_lists``).
    """
    few = min(tree.nleaf, FEW_POINTS)
    one = np.zeros(1, dtype=np.int32)
    colleagues = (one, one, np.array([_NEAR_OFFSETS.index((0, 0))], dtype=np.int8))
    none = np.empty(0, dtype=np.int32)
    interactions = (none, none, np.zeros(len(INTERACTION_OFFSETS) + 1, dtype=np.int64))
    active = np.ones(1, dtype=bool)
    for lvl in range(tree.L + 1):
        if lvl:
            colleagues, interactions = _child_lists(tree, lvl, refined, on_grid)
            active = parents[tree.parent_index[lvl]]
        if lvl == tree.L:
            yield active, active, colleagues, interactions
            return
        # A box with a colleague, itself included, of more than ``few``
        # points is no leaf.
        tgt, src, _ = colleagues
        leaf = active.copy()
        leaf[tgt[np.diff(tree.ptr[lvl])[src] > few]] = False
        parents = active & ~leaf
        near = leaf[tgt] | leaf[src]
        yield active, leaf, tuple(a[near] for a in colleagues), interactions
        refined = tuple(a[~near] for a in colleagues)


def _prefix_counts(lengths):
    """n[j] = how many of ``lengths`` exceed j, for j below their maximum."""
    return len(lengths) - np.cumsum(np.bincount(lengths)[:-1])


def _run_pairs(a, b, ct, cs, same):
    """The point pairs (tgt, src) of leaf pairs, as sorted indices (intp):
    the ct points from ``a`` against the cs from ``b``, or, where ``same``,
    the ct points of one leaf against each other (i < j).

    Each point i of a target leaf is a row, its sources one run of sorted
    indices, from b (from a + i + 1 in its own leaf).  With the leaf pairs
    sorted by ct (radix sorts of small ints, descending), the rows of the
    points i are those of a prefix of the leaf pairs; with the rows sorted
    by run length, the rows whose run reaches its source j are a prefix of
    the rows.  So rows and pairs are written slice by slice, i by i and j
    by j, with no per-pair gather or repeat."""
    by_ct = np.argsort(np.negative(ct, dtype=np.int8), kind="stable")
    own = same[by_ct].astype(np.intp)
    a, b, cs = a[by_ct], b[by_ct], cs[by_ct]
    n_rows = _prefix_counts(ct)
    row = np.empty((3, int(n_rows.sum())), dtype=np.intp)  # target, run, run start
    lo = 0
    for i, n in enumerate(n_rows.tolist()):
        hi = lo + n
        np.add(a[:n], i, out=row[0, lo:hi])
        skip = own[:n] * (i + 1)
        np.subtract(cs[:n], skip, out=row[1, lo:hi])
        np.add(b[:n], skip, out=row[2, lo:hi])
        lo = hi
    run = row[1]
    row = np.take(row[::2], np.argsort(np.negative(run, dtype=np.int8), kind="stable"), axis=1)
    n_pairs = _prefix_counts(run)
    tgt = np.empty(int(n_pairs.sum()), dtype=np.intp)
    src = np.empty_like(tgt)
    lo = 0
    for j, n in enumerate(n_pairs.tolist()):
        hi = lo + n
        tgt[lo:hi] = row[0, :n]
        np.add(row[1, :n], j, out=src[lo:hi])
        lo = hi
    return tgt, src


# The place of a box in its box one or two levels up (quadrant by
# quadrant, the coarser first), by (x * 4 + y) of its coordinates there.
_PLACE = np.array([(x & 1) | (y & 1) << 1 | (x & 2) << 1 | (y & 2) << 2 for x in range(4) for y in range(4)])


def _chunk_groups(step, c):
    """The row bounds of chunk c's places in a step of ``_sub_boxes``."""
    level, top, _, bounds = step[:4]
    g_n = 4 ** (level - top)
    return bounds[c * g_n : (c + 1) * g_n + 1]


def shared_bytes() -> int:
    """Bytes of the state that calls share and the process keeps: every
    operator chain's arrays (8 per ``skeleton.shared_entries``) and phi's
    octant (``green.octant_bytes``)."""
    return 8 * shared_entries() + octant_bytes()


def _merge_targets(points, charges, targets):
    """Union source and extra target points; extra rows carry zero charge."""
    pts = lattice_points(points, "points")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (N, 2) integer array")
    q = check_charges(charges, pts.shape[0])
    if targets is None:
        return pts, q, None
    n = pts.shape[0]
    all_pts, inverse = np.unique(np.vstack([pts, lattice_targets(targets)]), axis=0, return_inverse=True)
    # Two sources on one point share an index of the union.
    src = inverse[:n]
    if np.bincount(src).max() > 1:
        raise ValueError("duplicate lattice points")
    return all_pts, np.bincount(src, q, len(all_pts)), inverse[n:]


class FmmRun:
    """One assembled solve: tree + operators + bookkeeping counters.

    A tree under two levels has no interaction lists: every leaf neighbours
    every other, so ``apply`` sums the near field alone and no operator
    chain is fetched.
    """

    def __init__(self, tree: QuadTree, eps: float):
        self.tree = tree
        self.leaf_side = tree.side_of(tree.L)
        # Leaves of side 8 or less at level L are dense stencils (T_ofs,
        # T_tfi and the near field's blocks); larger ones hold few points.
        self.stencil_level = tree.L if self.leaf_side <= _MAX_LEAF_SIDE else None
        self.chain = None
        self._carries = {}
        self.table_level = self._table_levels()
        t0 = time.perf_counter()
        if tree.L >= 2:
            self.chain = shared_chain(eps, self.leaf_side)
            self.chain.ensure(tree.side_of(2))
            # The T_ifo stacks of levels 2..L, the grid operators of the
            # levels that may run T_ifo on the grid (a box has at most 27
            # interaction pairs, and the bound falls level by level) and
            # the tables of unit expansions are built before any list:
            # built mid-call, these long-lived arrays would sit above the
            # call's freed lists on the heap and keep it from shrinking
            # (uniform 2^18: 448 against 369 MB peak RSS over four calls).
            # The sides below the leaves build no T_ifo.
            grid = True
            for lvl in range(2, tree.L + 1):
                grid = grid and self._on_grid(lvl, 27 * len(tree.codes[lvl]))
                if grid:
                    self._ops(lvl).t_ifo_grid
                else:
                    self._ops(lvl).t_ifo
            self.chain.unit_table(tree.side_of(self.table_level))
        self.t_chain = time.perf_counter() - t0

    def _ops(self, level: int):
        return self.chain.ops[self.tree.side_of(level)]

    # -- passes ----------------------------------------------------------

    def _lists(self):
        """Build every level's lists, coarse to fine (``level_lists``).
        Returns each level's (active, leaf) flags, its T_ifo pairs (None on
        the grid) and its resolved pairs, for the near field."""
        t0 = time.perf_counter()
        levels, ifo, resolved = [], {}, []
        for lvl, (active, leaf, near, pairs) in enumerate(level_lists(self.tree, self._on_grid)):
            levels.append((active, leaf))
            resolved.append(near)
            self.leaves_per_level[lvl] = int(np.count_nonzero(leaf))
            if lvl >= 2:
                on_grid = isinstance(pairs, int)
                self.ifo_pairs_per_level[lvl] = pairs if on_grid else len(pairs[0])
                if on_grid:
                    self.ifo_grid_levels.append(lvl)
                ifo[lvl] = None if on_grid else pairs
        self.times["t_lists"] += time.perf_counter() - t0
        return levels, ifo, resolved

    def _on_grid(self, lvl, n_far):
        """Whether T_ifo at ``lvl`` runs on the level's dense box grid
        (``_across_grid``): its n_far interaction pairs fill the grid well
        enough to pay for it."""
        return n_far >= _IFO_GRID_PAIRS_PER_CELL * 4**lvl

    def _columns(self):
        """The sorted points' coordinates from the root corner as two
        contiguous columns, (2, N), formed where point pairs are summed and
        dropped after: ``_point_pairs`` gathers from them and hands ``phi``
        contiguous displacements, 8-37 % faster than from rows of
        ``rel_sorted`` over eight alternating runs of the near field of
        16384 uniform points on 16384^2."""
        return np.ascontiguousarray(self.tree.rel_sorted.T)

    def _point_pairs(self, tgt, src, xy, q_sorted, u):
        """Add phi(x_t - x_s) q_s to u_t and phi(x_t - x_s) q_t to u_s for
        each unordered point pair (t, s) of the sorted point indices ``tgt``
        and ``src`` (intp), in chunks of ``_CHUNK`` pairs: phi(-m) = phi(m)
        bit for bit, so one evaluation serves both points.  ``xy`` is
        ``_columns()``."""
        x, y = xy
        for lo in range(0, len(tgt), _CHUNK):
            t, s = tgt[lo : lo + _CHUNK], src[lo : lo + _CHUNK]
            dx = x.take(t)
            dy = x.take(s)
            dx -= dy
            y.take(t, out=dy, mode="clip")
            dy -= y.take(s)
            w = phi(dx, dy)
            del dx, dy
            wq = q_sorted.take(s)
            wq *= w
            np.add.at(u, t, wq)
            q_sorted.take(t, out=wq, mode="clip")
            w *= wq
            np.add.at(u, s, w)

    def _leaf_points(self, lvl, leaves):
        """The points of the ascending leaf slots ``leaves`` at ``lvl``,
        formed for these leaves alone, as (pts, count): each point's sorted
        index, in leaf order, and each leaf's number of points.  pts is
        intp: numpy casts any other index dtype on every use (int32 made
        these gathers and scatters 2-3 times slower)."""
        start = self.tree.ptr[lvl]
        count = start[leaves + 1] - start[leaves]
        end = np.cumsum(count)
        pts = np.arange(end[-1]) + np.repeat(start[leaves] - (end - count), count)
        return pts, count

    def _stencil_cells(self, pts, count):
        """Each point's cell in the (len(count), s^2) stencils of the
        leaves flattened, for ``_leaf_points``' (pts, count) at level L:
        its leaf's row times s^2 plus its place in the leaf."""
        cell = self._positions(self.tree.L, np.take(self.tree.rel_sorted, pts, axis=0))
        cell += np.repeat(np.arange(len(count)) * self.leaf_side**2, count)
        return cell

    def _leaf_chunks(self, lvl, need):
        """The leaves at ``lvl`` flagged in ``need`` in chunks, for T_ofs
        and T_tfi: yields (lo, hi, pts, count), the chunk's leaves lo..hi-1
        counted among the flagged ones and their points as ``_leaf_points``
        gives them.  Stencil leaves come ``_CHUNK`` / s^2 to a chunk; any
        other, of at most 64 points, in runs of as many whole leaves as
        hold at most ``_POINT_RUN`` points.  Nothing per point outlives
        its chunk."""
        leaves = np.flatnonzero(need)
        if lvl == self.stencil_level:
            chunk = max(1, _CHUNK // (self.leaf_side * self.leaf_side))
            bounds = list(range(0, len(leaves), chunk)) + [len(leaves)]
        else:
            start = self.tree.ptr[lvl]
            end = np.cumsum(start[leaves + 1] - start[leaves])
            bounds = [0]
            while bounds[-1] < len(leaves):
                lo = bounds[-1]
                bounds.append(max(lo + 1, int(np.searchsorted(end, (end[lo - 1] if lo else 0) + _POINT_RUN, side="right"))))
            del end
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield (lo, hi, *self._leaf_points(lvl, leaves[lo:hi]))

    def _table_levels(self):
        """The coarsest level m whose unit expansions are read from the
        chain's tables: the level of the chain's anchor side always (the
        level L, or the level of side 8 below larger leaves), and each
        coarser level in turn while its boxes have no more positions than
        it has one-point boxes.  A leaf off the stencil at a level l reads
        its points' unit expansions from the table of l if l >= m, and
        from the table of m, carried up to l, if not."""
        tree = self.tree
        m = tree.L + max(self.leaf_side // _MAX_LEAF_SIDE, 1).bit_length() - 1
        while m > 2:
            side = tree.side_of(m - 1)
            if side * side > tree.singles[m - 1]:
                break
            m -= 1
        return m

    def _positions(self, lvl, rel):
        """The rows of points (coordinates ``rel`` from the root corner) in
        the table of ``lvl``: their positions in their boxes."""
        side = self.tree.side_of(lvl)
        local = rel & (side - 1)
        return local[:, 0] * side + local[:, 1]

    def _up_and_across(self, q_sorted, levels, ifo):
        """Upward pass fused with T_ifo, fine to coarse, over the (active,
        leaf) flags of each level from 2.  Returns each level's incoming
        expansions and each box's row in them.  The seconds that form level
        l's outgoing expansions count at level l, those of T_ifo at its
        level.

        ``x`` holds one level's outgoing expansions, box b's in row
        ``xrow[b]`` (``_outgoing``).  Level l - 1's are formed from them,
        and T_ifo turns them into incoming expansions, in the same rows.
        On the grid (``_across_grid``) level l - 1 comes first, and T_ifo
        writes each box's incoming expansion over its outgoing one, so a
        grid level holds one array of expansions.  Pair by pair
        (``_across``) the incoming expansions are summed into an array of
        their own, and level l - 1 follows, so that it is not held through
        the level's T_ifo; the outgoing ones are dropped once it is formed.
        """
        clock = time.perf_counter
        incoming = {}
        parents = self._outgoing(q_sorted, levels, self.tree.L, None)
        for lvl in range(self.tree.L, 1, -1):
            x, xrow = parents
            parents = None
            pairs = ifo.pop(lvl)
            if pairs is None and lvl > 2:
                parents = self._outgoing(q_sorted, levels, lvl - 1, (x, xrow))
            t0 = clock()
            if pairs is None:
                self._across_grid(lvl, x, xrow, np.flatnonzero(levels[lvl][0]))
                inc = x
            else:
                inc = np.zeros_like(x)
                self._across(lvl, x, xrow, pairs, inc)
            incoming[lvl] = inc, xrow
            del pairs, inc
            self.ifo_seconds[lvl] += clock() - t0
            if parents is None and lvl > 2:
                parents = self._outgoing(q_sorted, levels, lvl - 1, (x, xrow))
            del x
        return incoming

    def _outgoing(self, q_sorted, levels, lvl, children):
        """The outgoing expansions of the active boxes at ``lvl`` as (x,
        xrow), box b's in row ``xrow[b]`` of x: first those of its leaves,
        in slot order (T_ofs), then those of its other active boxes, formed
        from their children's (T_ofo), which ``children`` holds as (x,
        xrow) of level ``lvl + 1`` (None at level L)."""
        t0 = time.perf_counter()
        active, leaf = levels[lvl]
        n_leaf = int(np.count_nonzero(leaf))
        x = np.empty((int(np.count_nonzero(active)), self._ops(lvl).skeleton.rank))
        row = self._leaf_expansions(q_sorted, lvl, leaf, x[:n_leaf])
        if children is not None:
            merged = self._merge_up(lvl + 1, *children, active & ~leaf, x[n_leaf:])
            row = np.where(leaf, row, merged + n_leaf)
        self.up_seconds[lvl] += time.perf_counter() - t0
        self.upward_rows[lvl] = len(x)
        return x, row

    def _leaf_expansions(self, q_sorted, lvl, need, out):
        """T_ofs: the outgoing expansion of each leaf at ``lvl`` flagged in
        ``need``, into the rows of ``out`` in slot order.  Returns each
        leaf's row there.

        A stencil leaf (side 8 or less, at level L) scatters its charges
        onto the dense s x s stencil, one GEMM per chunk of leaves.  Any
        other leaf sums its points' unit expansions times their charges
        (``_sum_expansions``)."""
        if lvl == self.stencil_level:
            interp = self._ops(lvl).skeleton.interp
            for lo, hi, pts, count in self._leaf_chunks(lvl, need):
                cell = self._stencil_cells(pts, count)
                dense = np.zeros((hi - lo, interp.shape[1]))
                dense.reshape(-1)[cell] = q_sorted[pts]
                np.matmul(dense, interp.T, out=out[lo:hi])
        else:
            for lo, hi, pts, count in self._leaf_chunks(lvl, need):
                self._sum_expansions(pts, q_sorted[pts], lvl, count, out[lo:hi])
            self._carries.clear()
        return np.cumsum(need, dtype=np.int32) - 1

    def _merge_up(self, lvl, x, xrow, need, up):
        """T_ofo: the outgoing expansions of the boxes at ``lvl - 1``
        flagged in ``need``, from those of their children (box c's in row
        ``xrow[c]`` of ``x``), into the rows of ``up``.  Returns each box's
        row in ``up`` (the flagged ones).

        Siblings are adjacent, in quadrant order: each parent's first child
        sets its row and the others add to it, in that order.  The first
        children's products are written in place, grouped by quadrant, so
        the parents' rows come in that order and no product is scattered
        but those of later siblings.  Children are gathered in chunks of
        ``_ROW_CHUNK``."""
        tree = self.tree
        t_ofo = self._ops(lvl - 1).t_ofo
        parent = tree.parent_index[lvl]
        kids = np.flatnonzero(need[parent])
        dad = parent[kids]
        # Children grouped by (later sibling, quadrant): the first children
        # of each quadrant in turn, then the later ones.  The key is int8,
        # so the stable sort is a radix sort.
        later = np.zeros(len(kids), dtype=np.int8)
        later[1:] = dad[1:] == dad[:-1]
        key = (tree.codes[lvl][kids] & 3).astype(np.int8) + 4 * later
        order = np.argsort(key, kind="stable")
        bounds = np.zeros(9, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=8), out=bounds[1:])
        del later, key
        kids = kids[order]
        dad = dad[order]
        n_up = bounds[4]  # one first child per parent
        row = np.empty(len(need), dtype=np.int32)
        row[dad[:n_up]] = np.arange(n_up, dtype=np.int32)
        for g in range(8):
            t_ofo_g = t_ofo[g & 3].T
            for lo in range(bounds[g], bounds[g + 1], _ROW_CHUNK):
                hi = min(lo + _ROW_CHUNK, bounds[g + 1])
                e = np.take(x, xrow[kids[lo:hi]], axis=0)
                if g < 4:
                    np.matmul(e, t_ofo_g, out=up[lo:hi])
                else:
                    up[row[dad[lo:hi]]] += e @ t_ofo_g
        return row

    def _across(self, lvl, x, xrow, pairs, inc):
        """T_ifo at one level, one GEMM per offset: adds into row
        ``xrow[b]`` of ``inc`` each target b's incoming expansion from the
        outgoing ones of its sources, rows ``xrow[c]`` of ``x``, in chunks
        of ``_ROW_CHUNK`` pairs."""
        t_ifo = self._ops(lvl).t_ifo
        for d, tgt, src in _code_groups(pairs):
            for lo in range(0, len(tgt), _ROW_CHUNK):
                s = src[lo : lo + _ROW_CHUNK]
                # Each target has one source per offset: rows are distinct.
                inc[xrow[tgt[lo : lo + _ROW_CHUNK]]] += np.take(x, xrow[s], axis=0) @ t_ifo[d].T

    def _across_grid(self, lvl, x, xrow, boxes):
        """T_ifo at one level on its dense 2^l x 2^l box grid, eight GEMMs
        per band of parent rows: each box b of ``boxes``, the level's active
        ones, has its outgoing expansion in row ``xrow[b]`` of ``x``, and
        its incoming expansion is written over it.

        The grid is held parent-major: slot (px + 1) w + py + 1, with
        w = 2^(l-1) + 2, holds the four children of the parent (px, py) at
        level l - 1 as one 4 k row, quadrant by quadrant, and an empty
        parent row and column border the grid on every side.  A child's row
        is its outgoing expansion.  The incoming expansions of the children
        of the parent in slot s are the sum over its eight neighbours D of
        row s + s_D times ``t_ifo_grid[D]``, with s_D = D_x w + D_y (batched
        M2L), so a chunk of slots takes one GEMM per D on a contiguous slice
        of the grid, read in place.  The empty border column makes the step
        from one row's last slot to the next row's first read zeros.  The
        interaction list of an active box is exactly the parity pattern
        these operators encode, restricted to the active boxes, and the
        other cells are zero.  The grid is filled in bands of parent rows
        (``_band_rows``), each with the row either side that its parents'
        neighbours reach, and a band's slots are one chunk of products: so
        the band, the chunk and its scratch buffer hold about a quarter of
        the level's expansions, or 8 k slots of products where that is more
        (one band of the whole grid on smaller levels).  On 16384 uniform
        points on 16384^2 this sets the call's traced peak, 3.35 MB at
        level 5 and 3.31 MB at level 6, about 1.05 MB above what each
        holds on entry.  A band starts from the last one's last two rows, so each
        box is scattered once, by the first band that reads it, and
        written by the band that holds it as a target, that band or the
        next, after the band's scatters: so the box's incoming expansion
        goes over its outgoing one.  Rows of x pass through the scratch
        buffer on their way in, and the chunk's output rows on their way
        out, once the eight products are summed.
        """
        tree = self.tree
        w_d = self._ops(lvl).t_ifo_grid
        k = x.shape[1]
        half = 1 << (lvl - 1)
        width = half + 2
        # Box (x, y) of a level holds the points whose coordinates over the
        # box side are (x, y); a box's first point names it.
        bx, by = (tree.rel_sorted[tree.ptr[lvl][boxes]] // tree.side_of(lvl)).T
        # Each box's row of the grid as (slots * 4, k) rows, ascending, and
        # its row in x.
        cell = (((bx >> 1) + 1) * width + (by >> 1) + 1) * 4 + (bx & 1) + 2 * (by & 1)
        del bx, by
        order = np.argsort(cell)
        cell = cell[order]
        rows = xrow[boxes[order]]
        del order
        # The rows split evenly: bands of band_rows or band_rows - 1 rows.
        n_bands = -(-half // _band_rows(half, width, k, x.size))
        tops = [half * i // n_bands for i in range(n_bands + 1)]
        band_rows = -(-half // n_bands)
        slots = band_rows * width
        # Threaded products of odd k are run at 4 k + 1 rows or more (see
        # ``_BLAS_SPLIT_MNK``): a window of that many slots that holds the
        # chunk, within the band's target rows if every band's are long
        # enough, else reaching into zero rows below the band's end.
        floor = 4 * k + 1 if k % 2 and slots * (4 * k) ** 2 >= _BLAS_SPLIT_MNK else 0
        pad = floor if (half // n_bands) * width - 2 < floor else 0
        band = np.zeros(((band_rows + 2) * width + pad, 4 * k))
        cell_rows = band.reshape(-1, k)
        shifts = [dx * width + dy for dx, dy in GRID_PARENT_OFFSETS]
        out = np.empty((max(slots, floor), 4 * k))
        scratch = np.empty_like(out)
        gathered = scratch.reshape(-1, k)  # rows of x on their way in or out
        done = 0  # the boxes scattered so far, in ``cell`` order
        for first, last in zip(tops[:-1], tops[1:]):
            base = first * width  # the slot at the band's row 0
            if first:
                # The last band's last two rows are this band's first two.
                for r in (0, 1):
                    band[r * width : (r + 1) * width] = band[(height + r) * width : (height + r + 1) * width]
                band[2 * width :] = 0.0
            height = last - first
            limit = (height + 1) * width - 1  # past the band's last target slot
            t0, t1, c1 = np.searchsorted(cell, 4 * (base + width * np.array([1, height + 1, height + 2])))
            for lo in range(done, c1, len(gathered)):
                hi = min(lo + len(gathered), c1)
                np.take(x, rows[lo:hi], axis=0, out=gathered[: hi - lo], mode="clip")
                cell_rows[cell[lo:hi] - 4 * base] = gathered[: hi - lo]
            done = c1
            if t1 == t0:
                continue
            s = cell[t0] // 4 - base
            n = cell[t1 - 1] // 4 + 1 - base - s
            m = max(n, floor) if n * (4 * k) ** 2 >= _BLAS_SPLIT_MNK else n  # rows multiplied
            s = s if pad else min(s, limit - m)
            np.matmul(band[s + shifts[0] : s + shifts[0] + m], w_d[0], out=out[:m])
            for shift, w in zip(shifts[1:], w_d[1:]):
                np.matmul(band[s + shift : s + shift + m], w, out=scratch[:m])
                out[:m] += scratch[:m]
            got = gathered[: t1 - t0]
            np.take(out.reshape(-1, k), cell[t0:t1] - 4 * (base + s), axis=0, out=got, mode="clip")
            x[rows[t0:t1]] = got

    def _sub_boxes(self, pts, lvl, count):
        """The boxes of the points ``pts`` (ascending sorted indices, so in
        Morton order: a box's points are a run) on the way from the table
        level first = max(``lvl``, ``table_level``) up to ``lvl``, two
        levels a step (``_carry``); ``pts`` holds whole leaves at ``lvl``,
        ``count[i]`` points of the i-th.  The points are taken in chunks of
        ``_SUB_CHUNK``, and a box that a chunk's edge splits is a box on
        each side.

        Returns (pos, rest, rest_row, steps): ``pos`` gives each point's row
        in the table of ``first`` (its position in its box there), ``rest``
        the points (ascending, as indices into ``pts``) that are not their
        box's first at ``first`` and ``rest_row`` their boxes' rows there,
        and ``steps`` goes from ``first`` up to ``lvl``, one (level, top,
        lead, bounds, up_row) per step; a table at ``lvl`` itself makes one
        step to ``lvl`` with no carry.  At ``level`` the boxes are held in
        rows ordered by chunk, then by the box's place in its box at
        ``top`` (quadrant by quadrant, the coarser first): ``lead`` gives
        each row's box's first point, the rows of chunk c and place g are
        bounds[c G + g] up to bounds[c G + g + 1] (G places), and
        ``up_row`` each row's box's row at ``top``, so that no two rows of
        one chunk and place share a box at ``top``.  No other array per
        point outlives the call."""
        tree = self.tree
        levels = [*range(max(lvl, self.table_level), lvl, -2), lvl]
        at = np.take(tree.rel_sorted, pts, axis=0)
        pos = self._positions(levels[0], at)
        at >>= tree.root_side.bit_length() - 1 - levels[0]
        edge = np.zeros(len(pts), dtype=bool)
        edge[::_SUB_CHUNK] = True
        steps = []
        at_level = levels[0]
        for level, top in zip(levels, levels[1:] or levels):
            if at_level > level:
                at >>= at_level - level
                at_level = level
            new = edge.copy()
            new[1:] |= at[1:, 0] != at[:-1, 0]
            new[1:] |= at[1:, 1] != at[:-1, 1]
            first = np.flatnonzero(new)
            if not steps:
                rest = np.flatnonzero(~new)
            del new
            n_places = 4 ** (level - top)
            corner = np.take(at, first, axis=0)
            corner &= 2 ** (level - top) - 1
            key = first // _SUB_CHUNK
            key *= n_places
            key += np.take(_PLACE, corner[:, 0] * 4 + corner[:, 1])
            n_keys = ((len(pts) - 1) // _SUB_CHUNK + 1) * n_places
            order = np.argsort(key.astype(np.int16 if n_keys <= 2**15 else np.int64), kind="stable")
            bounds = np.zeros(n_keys + 1, dtype=np.int64)
            np.cumsum(np.bincount(key, minlength=n_keys), out=bounds[1:])
            del corner, key
            row = np.empty_like(order)
            row[order] = np.arange(len(order))
            if steps:
                self._up_rows(steps, prev, np.take(row, np.searchsorted(first, prev[0], side="right") - 1))
            else:
                # A box's other points follow its first.
                rest_row = np.repeat(row, np.diff(first, append=len(pts)) - 1)
            steps.append((level, top, np.take(first, order), bounds, None))
            prev = first, order
            del first, order, row
        del at, edge
        self._up_rows(steps, prev, np.searchsorted(np.cumsum(count) - count, prev[0], side="right") - 1)
        return pos, rest, rest_row, steps

    @staticmethod
    def _up_rows(steps, prev, box_row):
        """Set the last step's ``up_row`` from ``box_row``, the row at its
        ``top`` of each of its boxes in point order; ``prev`` holds those
        boxes' first points and the order of their rows."""
        level, top, lead, bounds, _ = steps[-1]
        steps[-1] = (level, top, lead, bounds, np.take(box_row, prev[1]))

    def _sum_expansions(self, pts, w, lvl, count, out):
        """T_ofs of leaves off the stencil: ``out`` (zeroed here) gets
        w_i e_{p,lvl} for each point p = pts[i] (ascending, whole leaves,
        ``count[j]`` points of the leaf of row j) in its leaf's row.

        Chunk by chunk of ``_sub_boxes``: each point's table row is
        gathered once, times its w, into its box's row at the table level
        (the first point of every box by one gather in row order, the
        others rank by rank); each step up is one GEMM per place, added
        into the rows at ``top``, which are distinct within a place.  A
        chunk's arrays go before the next chunk's are formed."""
        pos, rest, rest_row, steps = self._sub_boxes(pts, lvl, count)
        table = self.chain.unit_table(self.tree.side_of(steps[0][0]))
        # The other points by chunk, then by their rank in their box: one
        # rank of one chunk adds to distinct rows.
        rank = rest - np.take(steps[0][2], rest_row)
        n_ranks = int(rank.max(initial=0)) + 1
        n_keys = ((len(pts) - 1) // _SUB_CHUNK + 1) * n_ranks
        key = rest // _SUB_CHUNK * n_ranks + rank
        order = np.argsort(key.astype(np.int16 if n_keys <= 2**15 else np.int64), kind="stable")
        by_rank = [0, *np.cumsum(np.bincount(key, minlength=n_keys)).tolist()]
        del rank, key
        rest = np.take(rest, order)
        rest_pos, rest_w, rest_row = np.take(pos, rest), np.take(w, rest), np.take(rest_row, order)
        del rest, order
        out[...] = 0.0
        for c in range((len(pts) - 1) // _SUB_CHUNK + 1):
            groups = [_chunk_groups(step, c) for step in steps]
            lo = groups[0][0]
            lead = steps[0][2][lo : groups[0][-1]]
            x = np.take(table, pos[lead], axis=0)
            x *= w[lead, None]
            for group in range(c * n_ranks + 1, (c + 1) * n_ranks):
                r0, r1 = by_rank[group], by_rank[group + 1]
                if r1 > r0:
                    x[rest_row[r0:r1] - lo] += np.take(table, rest_pos[r0:r1], axis=0) * rest_w[r0:r1, None]
            for j, (level, top, _, _, up_row) in enumerate(steps):
                carry = self._carry(level, top) if top < level else None
                if j + 1 < len(steps):
                    up_lo = groups[j + 1][0]
                    up = np.zeros((groups[j + 1][-1] - up_lo, carry.shape[1]))
                else:
                    up, up_lo = out, 0
                for g, (g0, g1) in enumerate(zip(groups[j][:-1], groups[j][1:])):
                    if g1 > g0 and carry is None:
                        up[up_row[g0:g1] - up_lo] += x[g0 - lo : g1 - lo]
                    elif g1 > g0:
                        up[up_row[g0:g1] - up_lo] += x[g0 - lo : g1 - lo] @ carry[g].T
                # The chunk's rows go before the next chunk's are formed.
                x, lo = up, up_lo

    def _fold_expansions(self, pts, inc, lvl, count, u):
        """T_tfi of leaves off the stencil: u_p += e_{p,lvl} . inc[j] for
        each point p = pts[i] (ascending, whole leaves, ``count[j]`` points
        of the leaf of row j) of the leaf of row j.

        Chunk by chunk of ``_sub_boxes``, the incoming expansions are
        carried down its steps to the table level (T_ifi, one GEMM per
        place), and each point's table row is gathered once, in its box's
        row order for the first point of each box.  A chunk's arrays go
        before the next chunk's are formed."""
        pos, rest, rest_row, steps = self._sub_boxes(pts, lvl, count)
        table = self.chain.unit_table(self.tree.side_of(steps[0][0]))
        for c, p0 in enumerate(range(0, len(pts), _SUB_CHUNK)):
            v, lo = inc, 0
            for step in reversed(steps):
                level, top, _, _, up_row = step
                group = _chunk_groups(step, c)
                if top == level:
                    v = np.take(v, up_row[group[0] : group[-1]] - lo, axis=0)
                else:
                    carry = self._carry(level, top)
                    down = np.empty((group[-1] - group[0], carry.shape[2]))
                    for g, (g0, g1) in enumerate(zip(group[:-1], group[1:])):
                        if g1 > g0:
                            np.matmul(np.take(v, up_row[g0:g1] - lo, axis=0), carry[g], out=down[g0 - group[0] : g1 - group[0]])
                    # Held as v alone, so that it goes before the next
                    # chunk's rows are formed.
                    v, down = down, None
                lo = group[0]
            # The table rows are gathered ``_ROW_CHUNK`` at a time.
            lead = steps[0][2][lo : lo + len(v)]
            for r in range(0, len(v), _ROW_CHUNK):
                p = lead[r : r + _ROW_CHUNK]
                u[pts[p]] += np.einsum("ij,ij->i", np.take(table, pos[p], axis=0), v[r : r + _ROW_CHUNK])
            r0, r1 = np.searchsorted(rest, (p0, p0 + _SUB_CHUNK))
            for r in range(r0, r1, _ROW_CHUNK):
                r2 = min(r + _ROW_CHUNK, r1)
                p = rest[r:r2]
                u[pts[p]] += np.einsum("ij,ij->i", np.take(table, pos[p], axis=0), np.take(v, rest_row[r:r2] - lo, axis=0))

    def _carry(self, level, top):
        """T_ofo from ``level`` up to ``top``, one or two levels above: the
        (4^(level - top), k_top, k_level) products of the T_ofo blocks, one
        per place of a box at ``level`` in its box at ``top``, quadrant by
        quadrant, the coarser one first.  Formed once per level and pass,
        T_ofs or T_tfi, and dropped after it, so that it is not held
        between the two."""
        key = (level, top)
        if key not in self._carries:
            t_ofo = self._ops(level - 1).t_ofo
            if top < level - 1:
                t_ofo = np.matmul(self._ops(top).t_ofo[:, None], t_ofo[None]).reshape(16, -1, t_ofo.shape[2])
            self._carries[key] = t_ofo
        return self._carries[key]

    def _down(self, levels, incoming, u):
        """Downward pass, coarse to fine.  T_ifi = T_ofo^T carries the
        incoming expansion of each active box that is not a leaf to its
        children, and each leaf expands its own at its points (T_tfi, the
        transpose of T_ofs: one GEMM onto the dense s x s stencil per chunk
        of stencil leaves; for any other leaf, u_p += e_{p,l} . inc_l by
        ``_fold_expansions``).  The seconds of T_ifi out of level l and of
        T_tfi at level l count at level l."""
        tree = self.tree
        clock = time.perf_counter
        for lvl in range(2, tree.L + 1):
            t0 = clock()
            inc, row = incoming.pop(lvl)
            if lvl < tree.L:
                t_ofo = self._ops(lvl).t_ofo
                parent = tree.parent_index[lvl + 1]
                quad = (tree.codes[lvl + 1] & 3).astype(np.int8)
                child_inc, child_row = incoming[lvl + 1]
                for qd in range(4):
                    kids = np.flatnonzero(levels[lvl + 1][0] & (quad == qd))
                    # T_ifi is T_ofo transposed; row-vector form keeps it
                    # direct.  Siblings of one quadrant have distinct rows.
                    for lo in range(0, len(kids), _ROW_CHUNK):
                        c = kids[lo : lo + _ROW_CHUNK]
                        child_inc[child_row[c]] += np.take(inc, row[parent[c]], axis=0) @ t_ofo[qd]
            # The leaves' rows come first, in slot order.
            leaf = levels[lvl][1]
            if lvl == self.stencil_level:
                interp = self._ops(lvl).skeleton.interp
                for lo, hi, pts, count in self._leaf_chunks(lvl, leaf):
                    cell = self._stencil_cells(pts, count)
                    u[pts] += np.take(inc[lo:hi] @ interp, cell)
            else:
                for lo, hi, pts, count in self._leaf_chunks(lvl, leaf):
                    self._fold_expansions(pts, inc[lo:hi], lvl, count, u)
                self._carries.clear()
            self.down_seconds[lvl] += clock() - t0

    def _near_field(self, q_sorted, resolved, u):
        """Add the resolved pairs of every level into ``u``: their ragged
        leaf pairs point pair by point pair (``_near_slice``), then the
        well-filled ones of stencil leaves by ``_near_stencil``.  The pairs
        are read in slices of ``_ROW_CHUNK`` * 16 box pairs, which bounds
        every array formed per box pair, and their point pairs are summed
        in chunks of at most ``_CHUNK`` / 2 (``_ragged_pairs``).  On 16384
        uniform points on 16384^2 (about four points per leaf, eight point
        pairs per box pair) slices of ``_ROW_CHUNK`` * 4 came to about
        2^15 point pairs each, and the same chunks from slices of * 16 ran
        the near field at the same speed and at a 0.4 MB higher peak, but
        chunks of ``_CHUNK`` 1.3 times as slow; on 2^16 uniform points on
        2^10 x 2^10 slices of * 16 ran it 6 % faster (2 cores, 15
        alternating warm calls)."""
        self.near_pairs = self.near_gemm_blocks = self.near_ragged_pairs = 0
        step = _ROW_CHUNK * 16
        xy = self._columns()
        gemm = []
        for lvl, pairs in enumerate(resolved):
            before = self.near_pairs
            for lo in range(0, len(pairs[0]), step):
                gemm.append(self._near_slice(lvl, [a[lo : lo + step] for a in pairs], xy, q_sorted, u))
            self.resolved_pairs_per_level[lvl] = self.near_pairs - before
        del xy
        if self.near_gemm_blocks:
            pairs = _by_code(*map(np.concatenate, zip(*gemm)), len(_NEAR_OFFSETS))
            del gemm
            stencil_pairs = [(*_NEAR_OFFSETS[n], tgt, src) for n, tgt, src in _code_groups(pairs)]
            self._near_stencil(q_sorted, stencil_pairs, u)

    def _near_slice(self, lvl, colleagues, xy, q_sorted, u):
        """The near field of one slice of the resolved pairs at ``lvl``:
        sums its ragged pairs into ``u`` (``_ragged_pairs``) and returns its
        stencil pairs as (tgt, src, code).  Only the ragged pairs' arrays
        are held while their point pairs are summed."""
        tgt, src, code = colleagues
        start = self.tree.ptr[lvl]
        ct, cs = start[tgt + 1] - start[tgt], start[src + 1] - start[src]
        tot = ct * cs
        self.near_pairs += int(tot.sum())
        # Well-filled pairs of stencil leaves go to the stencil GEMMs (see
        # module docstring), as ordered pairs.
        gemm = tot >= self.leaf_side**2 if lvl == self.stencil_level else np.zeros(len(tot), dtype=bool)
        self.near_gemm_blocks += int(np.count_nonzero(gemm))
        self.near_ragged_pairs += int(tot.sum()) - int(tot[gemm].sum())
        stencil = tgt[gemm], src[gemm], code[gemm]
        # Every other pair once for both orders (the pairs are symmetric):
        # from its lower slot, or the box with itself.
        pick = np.flatnonzero(~gemm & (tgt <= src))
        del tot, gemm
        ct, cs, t, c = ct[pick], cs[pick], tgt[pick], src[pick]
        del pick
        same = t == c
        a, b = start[t].astype(np.intp), start[c].astype(np.intp)
        del t, c
        self._ragged_pairs(a, b, ct, cs, same, xy, q_sorted, u)
        return stencil

    def _ragged_pairs(self, a, b, ct, cs, same, xy, q_sorted, u):
        """Sum the point pairs of box pairs by ``_point_pairs``, each
        unordered pair once: the ct points from sorted index ``a`` against
        the cs from ``b``, or, where ``same``, the ct points of one box
        against each other (i < j).  The pairs are formed in chunks of whole
        box pairs of up to ``_CHUNK`` / 2 point pairs (a box pair has at
        most 64^2) by ``_run_pairs``."""
        end = np.cumsum(np.where(same, (ct * (ct - 1)) >> 1, ct * cs))
        lo = 0
        while lo < len(end):
            done = end[lo - 1] if lo else 0
            hi = max(int(np.searchsorted(end, done + _CHUNK // 2, side="right")), lo + 1)
            # The last chunk's pairs are dropped before the next are formed.
            self._point_pairs(*_run_pairs(a[lo:hi], b[lo:hi], ct[lo:hi], cs[lo:hi], same[lo:hi]), xy, q_sorted, u)
            lo = hi

    def _near_stencil(self, q_sorted, stencil_pairs, u):
        """Add the near field of well-filled leaf pairs into ``u``, one GEMM
        per offset.

        Only the leaves that take part in some pair are scattered onto the
        dense s x s stencil, their points formed by ``_leaf_points``.
        Block K_d[i, j] = phi(loc_i - loc_j - s*d) maps source stencil
        charges to target stencil potentials; the nine blocks read one
        ``phi`` box of the displacements of neighbouring leaves, which
        reach r = 2s - 1 per axis.
        """
        s = self.leaf_side
        radius = 2 * s - 1
        m = np.arange(-radius, radius + 1)
        grid = phi(m[:, None], m)
        # The leaves used, marked rather than np.unique'd: its first call
        # imports numpy.ma.
        mark = np.zeros(len(self.tree.codes[self.tree.L]), dtype=bool)
        for _, _, t_slots, s_slots in stencil_pairs:
            mark[t_slots] = True
            mark[s_slots] = True
        used = np.flatnonzero(mark)
        row = np.cumsum(mark, dtype=np.int32) - 1
        pts, count = self._leaf_points(self.tree.L, used)
        cell = self._stencil_cells(pts, count)
        qd = np.zeros((len(used), s * s))
        qd.reshape(-1)[cell] = q_sorted[pts]
        ud = np.zeros_like(qd)
        loc = np.arange(s * s)
        ddx = (loc // s)[:, None] - (loc // s)[None, :] + radius
        ddy = (loc % s)[:, None] - (loc % s)[None, :] + radius
        for dx, dy, t_slots, s_slots in stencil_pairs:
            k_d = grid[ddx - s * dx, ddy - s * dy]
            # Each target has one neighbour per offset: rows are distinct.
            ud[row[t_slots]] += qd[row[s_slots]] @ k_d.T
        u[pts] += np.take(ud, cell)

    def apply(self, q_full) -> np.ndarray:
        """The potentials of the charges ``q_full`` (in point order).

        Per point, a call holds the sorted charges and the sorted
        potentials, which every pass adds into in place, near field
        included.  A step that needs the points of leaves (T_ofs, T_tfi,
        the near field's stencil blocks) forms them for those leaves alone
        (``_leaf_points``) and drops them when it is done."""
        tree = self.tree
        clock = time.perf_counter
        q_sorted = np.asarray(q_full, dtype=np.float64)[tree.order]
        n_levels = tree.L + 1
        self.times = dict.fromkeys(("t_lists", "t_upward", "t_ifo", "t_downward", "t_near"), 0.0)
        self.ifo_seconds = [0.0] * n_levels
        self.up_seconds = [0.0] * n_levels
        self.down_seconds = [0.0] * n_levels
        self.ifo_pairs_per_level = [0] * n_levels
        self.ifo_grid_levels: list[int] = []
        self.upward_rows = [0] * n_levels
        self.leaves_per_level = [0] * n_levels
        self.resolved_pairs_per_level = [0] * n_levels
        u_sorted = np.zeros(len(q_sorted))
        levels, ifo, resolved = self._lists()
        # The near field first, so that its lists are dropped before the
        # far field's expansions are formed.
        t0 = clock()
        self._near_field(q_sorted, resolved, u_sorted)
        del resolved
        self.times["t_near"] += clock() - t0
        if self.chain is not None:
            incoming = self._up_and_across(q_sorted, levels, ifo)
            self._down(levels, incoming, u_sorted)
        self.times["t_upward"] = sum(self.up_seconds)
        self.times["t_ifo"] = sum(self.ifo_seconds)
        self.times["t_downward"] = sum(self.down_seconds)
        out = np.empty_like(u_sorted)
        out[tree.order] = u_sorted
        return out

    def counters(self) -> dict:
        """Operator entries, per-pass seconds, per-level work and near-field
        work of the last ``apply``.

        ``op_entries`` is the operator data instantiated for this problem
        (O(N_source)): k interpolation entries per point, k the rank at
        level L, and the point pairs summed directly.  The model-box
        translation operators and tables of unit expansions are shared
        process-wide across problems and are counted apart, as
        ``shared_op_entries`` (0 for a tree under two levels, which uses none).
        """
        tree = self.tree
        ranks = [0] * (tree.L + 1)
        for lvl in range(2, tree.L + 1):
            ranks[lvl] = self._ops(lvl).skeleton.rank
        return {
            "op_entries": ranks[tree.L] * len(tree.order) + self.near_pairs,
            "shared_op_entries": 0 if self.chain is None else self.chain.stored_entries(),
            "t_chain": self.t_chain,
            **self.times,
            "boxes_per_level": [len(codes) for codes in tree.codes],
            "leaves_per_level": list(self.leaves_per_level),
            "ifo_pairs_per_level": list(self.ifo_pairs_per_level),
            "ifo_grid_levels": list(self.ifo_grid_levels),
            "t_ifo_per_level": list(self.ifo_seconds),
            "t_upward_per_level": list(self.up_seconds),
            "t_downward_per_level": list(self.down_seconds),
            "upward_rows_per_level": list(self.upward_rows),
            "resolved_pairs_per_level": list(self.resolved_pairs_per_level),
            "ranks_per_level": ranks,
            "near_pairs": self.near_pairs,
            "near_gemm_blocks": self.near_gemm_blocks,
            "near_ragged_pairs": self.near_ragged_pairs,
        }


def fmm_apply(
    points,
    charges,
    targets=None,
    eps: float = DEFAULT_EPS,
    nleaf: int = DEFAULT_NLEAF,
    stats: dict | None = None,
):
    """Potentials u_i = sum_j phi(m_i - m_j) q_j.

    Evaluated at the source points by default; pass ``targets`` for other
    evaluation points (they are added as zero-charge nodes, and coinciding
    source/target points are fine).  The tree's depth L is the first level
    at which no box holds more than ``nleaf`` points and the boxes are of
    side 8 or hold at most ``tree.FEW_POINTS`` (16) points each.  A box is
    a leaf, at any level, once it and each of its active colleagues hold
    at most F = min(nleaf, 16) points, and at level L (see the module
    docstring).  So every ``nleaf`` >= 64 gives the same leaves, ``nleaf``
    below 64 can deepen L, and only ``nleaf`` below 16 changes which boxes
    above L are leaves.  ``stats``, if given, is
    filled with run counters: tree depth, wall time, seconds per pass
    (``t_tree``; ``t_chain``, spent extending the shared operator chain
    and building the T_ifo stacks of levels 2..L, the grid operators of
    the levels that may run T_ifo on the grid and the tables of unit
    expansions; ``built_shared``, true if this call built any array that
    calls share (``shared_bytes``): a side of the chain, a T_ifo stack, a
    grid operator, a table of unit expansions, or phi's table or octant
    or part of it; ``t_lists``, building the
    interaction and neighbour lists of every level; ``t_upward``;
    ``t_ifo``; ``t_downward``; ``t_near``, the pairs summed directly, at
    every level), lists indexed by level 0..L (``boxes_per_level``
    occupied boxes, ``leaves_per_level`` leaves, ``ifo_pairs_per_level``
    T_ifo blocks, ``resolved_pairs_per_level`` ordered point pairs of the
    colleague pairs that hold a leaf, summed directly, ``t_ifo_per_level``
    the seconds of ``t_ifo`` spent at each level,
    on the grid or pair by pair, and ``ranks_per_level`` skeleton ranks;
    ``ifo_pairs_per_level``, ``t_ifo_per_level`` and ``ranks_per_level``
    read 0 at levels 0 and 1, which have no interaction lists;
    ``t_upward_per_level`` the seconds of ``t_upward`` that formed each
    level's outgoing expansions, T_ofs at its leaves and T_ofo from the
    level below for its other active boxes, and ``t_downward_per_level``
    those of ``t_downward`` spent at each level, T_ifi to the level below
    and T_tfi at its leaves; both read 0 at a level with no such work,
    levels 0 and 1 always, and each sums to its pass's total;
    ``upward_rows_per_level`` the rows of each level's array of
    expansions in the upward pass, one per active box from level 2, 0 at
    levels 0 and 1), ``ifo_grid_levels``
    (the levels whose T_ifo ran on the dense box grid, eight GEMMs over
    each chunk of parents; the others ran pair by pair, see the module
    docstring), near-field work (``near_pairs`` ordered point pairs of the
    resolved pairs of every level, the sum of ``resolved_pairs_per_level``,
    of which ``near_ragged_pairs`` were summed pair by pair, phi evaluated
    once per unordered pair, and the rest in ``near_gemm_blocks`` stencil
    block products, which only leaves of side 8 or less at level L form),
    ``op_entries``, the operator data instantiated for this problem: k
    leaf interpolation entries per point, k the rank at level L, and the
    near pairs, and ``shared_op_entries``, that of the shared
    operator chain, its tables of unit expansions included.  Over the
    nodes (sources and targets), the T_ifo blocks (|b| |c| ordered point
    pairs each) and the near pairs cover each ordered pair once.

    Error contract: max_i |u_i - exact_i| <= eps * sum_j |q_j|.  The error
    is bounded relative to the charges' l1 norm, not to |u|: charges that
    cancel (zero-sum, or dipoles such as D^T z) give small potentials
    whose relative error can far exceed eps.

    Raises ValueError for eps outside ``config.EPS_RANGE``, an ``nleaf``
    that is not an integer >= 1, charges that break
    ``config.check_charges`` (real, 1-D, one per point, finite, sum |q| at
    most 2**1000), targets that are neither (M, 2) nor one (2,) point,
    non-integer coordinates or coordinates beyond int64, duplicate sources,
    or a coordinate extent above 2**31.
    """
    clock = time.perf_counter
    t0 = clock()
    shared = shared_bytes() if stats is not None else 0
    check_eps(eps)
    all_pts, q_full, tgt_rows = _merge_targets(points, charges, targets)
    t1 = clock()
    tree = build_tree(all_pts, nleaf=nleaf, max_leaf_side=_MAX_LEAF_SIDE)
    t_tree = clock() - t1
    run = FmmRun(tree, eps)
    u_all = run.apply(q_full)
    if stats is not None:
        stats["n_source"] = int(np.asarray(points).shape[0])
        stats["n_points"] = int(all_pts.shape[0])
        stats["levels"] = tree.L + 1
        stats["root_side"] = tree.root_side
        stats["t_tree"] = t_tree
        stats.update(run.counters())
        stats["built_shared"] = shared_bytes() != shared
        stats["wall_time"] = clock() - t0
    if tgt_rows is None:
        return u_all
    return u_all[tgt_rows]
