"""Solver for locally perturbed lattices.

The perfect-lattice equation A u = 0 is modified by a local operator B that
encodes bar (edge) conductivity changes: removals, strengthenings, or added
links.  Given a discrete-harmonic far field v (here linear, v = c1 m1 +
c2 m2), the perturbed problem

    (A + B) u = 0,   u -> v at infinity,

reduces to a small dense system on the bars.  Write B = D^T C D, with D
the m x n bar-node incidence matrix ((D u)_k = u(a_k) - u(b_k) for bar
a_k-b_k) and C = diag(delta_c).  With S the free-space solution operator
(convolution with the Green function) and A S w = w for finitely supported
w, the potential is u = v - S D^T z, where z solves the m x m bar system

    z + C D S D^T z = C D v.

By Sylvester's identity this system is solvable exactly when the node
system mu + B S mu = -B S B v is, and then D^T z = B v + mu.  A bar whose
delta is 0 gets z = 0, so C is never inverted.  The entries of D S D^T are
second differences of phi:

    [k, l] = phi(a_k - a_l) - phi(a_k - b_l) - phi(b_k - a_l) + phi(b_k - b_l).

Every kernel entry is phi(t - s), with t among the nodes or the queries
and s among the nodes, so one grid of phi over the box of displacements
t - s -- the *window*, ``phi`` on a broadcast box -- holds them all, and
S is a Toeplitz convolution on it (the lattice's translation invariance,
used as precorrected-FFT methods use it: Phillips & White, IEEE TCAD 16,
1997).  Every system takes one path: ``gmres`` (restarted GMRES in
numpy) solves it with a right preconditioner, then one S product sums
the queries, by ``np.fft.rfft2``/``irfft2`` on their window, padded to
5-smooth lengths.  The preconditioner depends on the bar count:

* up to ``_DENSE_BAR_LIMIT`` bars the system is assembled once, D S
  first, in row blocks, and inverted.  The inverse is the exact
  preconditioner, so GMRES stops after one step, and it gives the
  system's exact 1-norm reciprocal condition number, which guards
  against a singular system.  Kernel entries are gathered from the
  window, the same values ``phi`` gives, so the system does not depend
  on the source;
* above that, there is none, and each GMRES product applies S by FFT on
  the node-node window.

A window is built only when it holds at most ``_WINDOW_CELLS_PER_POINT``
cells per point, which keeps memory linear in the nodes and queries.
Scattered defects, and queries far from them, have windows of about the
square of their spread.  Up to ``_DENSE_BAR_LIMIT`` bars they take
kernel entries from ``kernel_matrix``, in row blocks; above it they apply
S by ``fmm_apply`` at an eps of tol / 100.  The node-node window (the
solve) and the query-node window (the evaluation) each choose for
themselves.

Only numpy is needed: the module imports no scipy, so a defect solve
loads a single BLAS.
"""

from __future__ import annotations

import math
import time
from collections import deque

import numpy as np

from .config import DEFAULT_EPS, DEFAULT_TOL, check_charges
from .fmm import fmm_apply
from .green import lattice_points, lattice_targets, phi
from .skeleton import kernel_matrix
from .tree import check_extent

# Largest bar count m whose system is gathered and inverted, to be GMRES's
# exact preconditioner.  The gather takes 2 m n kernel entries from the phi
# window and the inverse (8/3) m^3 flops; GMRES then stops after one step.
# Without it, each GMRES iteration is one FFT over the window, and the
# iterations grow with m.  Measured warm on straight cracks with 4 (m + 2)
# queries (2 cores, OpenBLAS, tol 1e-8; medians of 15 calls, interleaved,
# in runs on a shared host), preconditioned against not: m = 150, 5.6-7.8
# against 6.2-11.6 ms (33 iterations); 200, 9.0-11.3 against 8.7-14.3 ms
# (38); 400, 24-30 against 14-23 ms (55); 800, 97 against 38-48 ms (78).
# Preconditioned, max |(A+B)u| was 4e-13 to 2e-12 up to 200 bars;
# without, about tol.  On a 32 x 32 inclusion (1984 bars, delta -0.5) the
# inverse alone takes 0.66 s, and GMRES without it 5.5 ms in 7
# iterations.  The preconditioner stops paying between 200 and 400 bars.
_DENSE_BAR_LIMIT = 200

# Window routing: a window may hold at most ``_WINDOW_CELLS_PER_POINT``
# cells per point (targets and sources together), so memory stays linear
# in the points: 256 B per point for a gathered window, on par with the
# ~280 B per query of the returned dict, and about 1.1 KB with the FFT's
# transforms (tracemalloc), against the 380-570 B per point of
# ``fmm_apply``.  Compact defects need 2-6 cells per point (a straight
# crack and the queries around it, a filled block); scattered defects,
# and queries far from them, have windows of about the square of their
# spread and keep ``kernel_matrix`` (up to ``_DENSE_BAR_LIMIT`` bars) or
# ``fmm_apply`` (above it).  Within the cap an FFT product, 25-45 ns per
# cell, is far below an ``fmm_apply`` product, 8-80 us per point.
_WINDOW_CELLS_PER_POINT = 32

# Entries per kernel block; phi makes about a dozen temporaries of a
# block's size.  On a 48-bar crack with 200 queries (2 cores), blocks of
# 512, 1024 and 2048 entries and none take 1.10, 1.08, 1.23 and 0.68 ms
# per solve at tracemalloc peaks of 0.089, 0.084, 0.117 and 0.25 MB.  On
# the direct query route the row blocks also fix the BLAS products summing
# the queries, so changing the size can change those output bytes.
_BLOCK_ENTRIES = 1024

_UNIT_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class DefectSpec:
    """Bar modifications: (node_a, node_b, delta_conductivity) triples.

    A unit bar (|a-b|_1 = 1) exists in the perfect lattice with
    conductivity 1, so delta >= -1, with -1 meaning full removal.  Longer
    links do not pre-exist, so their delta must be nonnegative.  Repeated
    pairs accumulate.  Node coordinates must be integers and every delta
    finite.  A region that the removed bars cut off from the rest of the
    lattice has an undetermined potential, and is rejected as disconnected.
    """

    def __init__(self, bars):
        bars = list(bars)
        ends = lattice_points(
            [(a, b) for a, b, _ in bars], "bar endpoints"
        ).reshape(-1, 2, 2).tolist()
        combined: dict[tuple, float] = {}
        for (a, b), (_, _, dc) in zip(ends, bars):
            a, b = tuple(a), tuple(b)
            if a == b:
                raise ValueError(f"bar endpoints coincide: {a}")
            key = (a, b) if a <= b else (b, a)
            combined[key] = combined.get(key, 0.0) + float(dc)
        self.bars = [(a, b, dc) for (a, b), dc in sorted(combined.items())]
        removed = set()
        added: dict[tuple, list] = {}
        for a, b, dc in self.bars:
            if not math.isfinite(dc):
                raise ValueError(f"bar {a}-{b}: delta {dc} is not finite")
            unit = abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            if unit:
                if dc < -1.0:
                    raise ValueError(
                        f"bar {a}-{b}: delta {dc} below full removal (-1)"
                    )
                if dc == -1.0:
                    removed.add((a, b))
            elif dc < 0.0:
                raise ValueError(
                    f"added link {a}-{b} must have nonnegative delta, got {dc}"
                )
            elif dc > 0.0:
                added.setdefault(a, []).append(b)
                added.setdefault(b, []).append(a)
        _reject_islands(removed, added)
        self.nodes = sorted({p for a, b, _ in self.bars for p in (a, b)})

    def __len__(self) -> int:
        return len(self.bars)

    def incidence(self):
        """(nodes (n, 2), ia, ib, dc): bar k runs from nodes[ia[k]] to
        nodes[ib[k]] with delta dc[k].  D and C in index form."""
        pos = {p: i for i, p in enumerate(self.nodes)}
        ia = np.array([pos[a] for a, _, _ in self.bars], dtype=np.int64)
        ib = np.array([pos[b] for _, b, _ in self.bars], dtype=np.int64)
        dc = np.array([d for _, _, d in self.bars], dtype=np.float64)
        return np.array(self.nodes, dtype=np.int64).reshape(-1, 2), ia, ib, dc


def _reject_islands(removed: set, added: dict) -> None:
    """Raise ValueError if some nodes form a finite component of the lattice
    without the ``removed`` bars (sorted node pairs) plus the ``added`` links.

    A removed bar joins the two unit squares beside it.  Take a piece P of
    an island that is connected by unit bars: every unit bar leaving P is
    removed, and those between P and the unbounded rest of the plane form
    a closed loop through the squares.  In sorted order the loop's last bar
    is (X, Y)-(X + 1, Y), with X the largest abscissa in P and Y the
    largest ordinate in P at X, so its lower end lies in P.  A union-find
    over the squares (keyed by their lower-left corner), fed the bars in
    sorted order, finds that bar's squares already joined.  So a search
    from the lower end of each bar that closes a loop reaches every island.
    A search that steps out of the closed bounding box of all removed-bar
    endpoints has reached the infinite component: from a node outside the
    box, a walk away from it along an axis crosses no removed bar,
    whatever the added links.  An island of n nodes is also cut off by at
    least 4 sqrt(n) removed bars (the lattice isoperimetric inequality), so
    a search that has seen more than m**2 / 16 nodes, with m the removed
    bars, has left every island too; that bound stops a search that an
    added link carries out of a ring into a wide box.  Without added links
    every closed loop encloses an island, so the check costs O(m log m)
    plus the size of the island it finds; each loop that added links
    reconnect costs at most m**2 / 16 more.
    """
    ends = sorted({p for bar in removed for p in bar})
    if not ends:
        return
    x_lo, x_hi = ends[0][0], ends[-1][0]
    y_lo, y_hi = min(p[1] for p in ends), max(p[1] for p in ends)
    max_island = len(removed) ** 2 // 16
    parent: dict = {}

    def root(c):
        while parent.setdefault(c, c) != c:
            parent[c] = parent[parent[c]]  # path halving
            c = parent[c]
        return c

    for a, b in sorted(removed):
        # a is the bar's lower or left end: the squares above and below a
        # horizontal bar, right and left of a vertical one.
        side = (a[0], a[1] - 1) if a[1] == b[1] else (a[0] - 1, a[1])
        ra, rb = root(a), root(side)
        if ra != rb:
            parent[ra] = rb
            continue
        seen = {a}
        queue = deque([a])
        while queue:
            p = queue.popleft()
            if (
                not (x_lo <= p[0] <= x_hi and y_lo <= p[1] <= y_hi)
                or len(seen) > max_island
            ):
                break
            steps = [(p[0] + dx, p[1] + dy) for dx, dy in _UNIT_STEPS]
            for q in steps + added.get(p, []):
                bar = (p, q) if p <= q else (q, p)
                if q not in seen and bar not in removed:
                    seen.add(q)
                    queue.append(q)
        else:
            raise ValueError(
                f"node {a} lies in a disconnected region of size {len(seen)}"
            )


def apply_B(spec: DefectSpec, w) -> dict:
    """(B w)(a) = sum over bars at a of delta_c (w(a) - w(b)); zero elsewhere.

    w maps lattice nodes to values and must cover every bar endpoint.
    """
    out = {p: 0.0 for p in spec.nodes}
    for a, b, dc in spec.bars:
        try:
            wa, wb = w[a], w[b]
        except KeyError as missing:
            raise KeyError(f"w is missing node {missing.args[0]}") from None
        out[a] += dc * (wa - wb)
        out[b] += dc * (wb - wa)
    return out


class _Window:
    """The box of displacements t - s from ``sources`` to ``targets``.

    ``t_pos`` and ``s_pos`` place each point so that t - s sits at
    t_pos - s_pos in the box; ``key`` flattens such positions in the
    box's row-major order, so phi(t - s) is ``flat[key(t_pos) -
    key(s_pos)]``.  Positions are taken relative to the point sets, so
    they stay below the extent whatever the coordinates.
    """

    def __init__(self, targets, sources):
        s_min = sources.min(axis=0)
        s_span = sources.max(axis=0) - s_min
        t_min = targets.min(axis=0)
        self.shape = targets.max(axis=0) - t_min + s_span + 1
        self.lo = t_min - s_min - s_span
        self.t_pos = targets - t_min + s_span
        self.s_pos = sources - s_min
        self.source_shape = s_span + 1
        self.cells = int(self.shape[0]) * int(self.shape[1])
        self.within_cap = self.cells <= _WINDOW_CELLS_PER_POINT * (
            len(targets) + len(sources)
        )

    def phi(self) -> np.ndarray:
        x, y = (np.arange(lo, lo + n) for lo, n in zip(self.lo, self.shape))
        return phi(x[:, None], y)

    def key(self, pos) -> np.ndarray:
        return pos[:, 0] * self.shape[1] + pos[:, 1]


def _kernel(targets, sources):
    """(rows, source, cells): rows(i) gives phi(targets[i] - sources) for
    an index array or slice i, equal to ``kernel_matrix`` bit for bit.
    source is "window" when the entries are gathered from one phi window
    (of ``cells`` cells), "phi" when ``kernel_matrix`` evaluates them, for
    point sets whose window is too large for ``_WINDOW_CELLS_PER_POINT``."""
    win = _Window(targets, sources)
    if not win.within_cap:
        return (lambda i: kernel_matrix(targets[i], sources)), "phi", 0
    flat = win.phi().ravel()
    t_key, s_key = win.key(win.t_pos), win.key(win.s_pos)
    return (lambda i: flat[t_key[i, None] - s_key[None, :]]), "window", win.cells


def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= n: pocketfft's fast lengths."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _s_operator(targets, sources, eps: float, direct: bool = False):
    """(apply, route, cells): apply(q) = [S q](t) = sum_j phi(t - s_j) q_j
    at every target.  route "fft" convolves q with the phi window by
    numpy's FFT (``cells`` window cells, held transformed).  For point sets
    whose window is too large for ``_WINDOW_CELLS_PER_POINT`` (see there),
    route "direct" (if ``direct``) sums ``kernel_matrix``'s rows in row
    blocks (``_level_sum``), and route "fmm" calls ``fmm_apply`` at ``eps``
    once per product."""
    win = _Window(targets, sources)
    if not win.within_cap:
        if direct:
            blocks = list(_row_blocks(len(targets), len(sources)))
            return (
                lambda q: np.concatenate([_level_sum(kernel_matrix(targets[i], sources), q) for i in blocks])
            ), "direct", 0
        return (lambda q: fmm_apply(sources, q, targets=targets, eps=eps)), "fmm", 0
    shape = tuple(_fft_size(int(w)) for w in win.shape)
    phi = win.phi()
    # S q = (phi - level) * q + level sum(q).  The FFT's rounding scales
    # with the kernel's norm, most of which is phi's mean: on the 48-bar
    # crack's queries the error falls from 4.6e-14 to 1.4e-14 once it is out.
    level = phi.mean()
    kernel_hat = np.fft.rfft2(phi - level, shape)
    grid_cells = int(win.source_shape[0]) * int(win.source_shape[1])
    s_flat = win.s_pos[:, 0] * win.source_shape[1] + win.s_pos[:, 1]
    tx, ty = win.t_pos[:, 0], win.t_pos[:, 1]

    def apply(q):
        grid = np.bincount(s_flat, q, grid_cells).reshape(win.source_shape)
        # With every axis at least the window's, the circular convolution
        # wraps nothing onto the targets' positions.
        conv = np.fft.irfft2(np.fft.rfft2(grid, shape) * kernel_hat, shape)
        return conv[tx, ty] + level * q.sum()

    return apply, "fft", win.cells


def _level_sum(k, q) -> np.ndarray:
    """k @ q, with each row's mean taken out before the products and added
    back as mean * sum(q).  As on the FFT route, this cuts the rounding of
    charges that nearly cancel: for two 12-bar cracks 2**20 apart, and for
    a 48-bar crack with a query 10**6 away, max |(A+B)u| over the defect
    nodes falls from 4.5e-13 and 2.5e-12 to 1.7e-13 and 2.8e-13."""
    level = k.mean(axis=1)
    return (k - level[:, None]) @ q + level * q.sum()


def apply_S(points, charges, targets, eps: float = DEFAULT_EPS) -> np.ndarray:
    """[S q](t) = sum_j phi(t - m_j) q_j at the requested targets: by FFT
    on the phi window of the displacements, or by ``fmm_apply`` at
    ``eps`` where that window is too large (see ``_s_operator``)."""
    tgt = lattice_targets(targets)
    pts = lattice_points(points, "points")
    if pts.size == 0 or tgt.shape[0] == 0:
        return np.zeros(tgt.shape[0])
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) integer array")
    q = check_charges(charges, pts.shape[0])
    check_extent(np.vstack([pts, tgt]))
    return _s_operator(tgt, pts, eps)[0](q)


def _row_blocks(n_rows: int, n_cols: int, per_row: int = 1, least: int = 1):
    """Slices of n_rows rows, each taking about ``_BLOCK_ENTRIES`` kernel
    entries when a row needs per_row kernel rows of n_cols entries, and at
    least ``least`` rows."""
    step = max(least, _BLOCK_ENTRIES // max(per_row * n_cols, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _bar_kernel(rows, n_nodes, ia, ib) -> np.ndarray:
    """D S D^T, assembled in row blocks of bars from the node-node kernel
    ``rows`` (see ``_kernel``).  A block holds at least 4 bars: one bar per
    block made a 200-bar system 200 Python passes, 4.0 ms against 2.2 ms
    with 4 (2 cores).  The gathers are exact, so the block size does not
    change the bytes."""
    m = len(ia)
    out = np.empty((m, m), order="F")  # LAPACK's order: numpy copies it by columns
    for blk in _row_blocks(m, n_nodes, per_row=2, least=4):
        r = blk.stop - blk.start
        k_ab = rows(np.concatenate([ia[blk], ib[blk]]))
        ds = k_ab[:r] - k_ab[r:]  # (D S)[blk], one column per node
        out[blk] = ds[:, ia] - ds[:, ib]
    return out


def _node_charges(ia, ib, n, z) -> np.ndarray:
    """D^T z: the node charges of bar values z."""
    return np.bincount(ia, z, n) - np.bincount(ib, z, n)


def _inverse_rcond(mat):
    """(mat^-1, rcond): the inverse and the exact 1-norm reciprocal
    condition number 1 / (||mat||_1 ||mat^-1||_1).  Raises the solver's
    RuntimeError when mat is singular to working precision: an exactly
    zero pivot, or rcond at most m eps (NaN included)."""
    try:
        mat_inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        raise _unsolved() from None
    rcond = 1.0 / (np.abs(mat).sum(axis=0).max() * np.abs(mat_inv).sum(axis=0).max())
    if not rcond > len(mat) * np.finfo(float).eps:
        raise _unsolved()
    return mat_inv, rcond


def _bar_system(nodes, ia, ib, dc, eps: float, info: dict):
    """(operator, precondition) for the bar system M z = C D v, with M = I
    + C D S D^T, solved by right-preconditioned GMRES (Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., SIAM 2003, ch. 9): GMRES
    solves operator(y) = M P y = C D v, and z = precondition(y) = P y.

    Up to ``_DENSE_BAR_LIMIT`` bars M is gathered from ``_kernel`` and
    inverted once (``_inverse_rcond``): P = M^-1 is the exact
    preconditioner, so GMRES converges in one step, and gives the exact
    rcond guard.  Above it, P = I and each product applies S by
    ``_s_operator``.  Fills ``rcond``, ``kernel_source``, ``s_path`` and
    ``window_cells`` of ``info``.
    """
    n = len(nodes)
    if len(ia) <= _DENSE_BAR_LIMIT:
        rows, info["kernel_source"], info["window_cells"] = _kernel(nodes, nodes)
        mat = _bar_kernel(rows, n, ia, ib)
        mat *= dc[:, None]
        mat[np.diag_indices_from(mat)] += 1.0
        mat_inv, info["rcond"] = _inverse_rcond(mat)
        return (lambda y: mat @ (mat_inv @ y)), mat_inv.__matmul__
    apply_s, info["s_path"], info["window_cells"] = _s_operator(nodes, nodes, eps)
    info["kernel_source"] = "window" if info["s_path"] == "fft" else "phi"

    def operator(z):
        s = apply_s(_node_charges(ia, ib, n, z))
        return z + dc * (s[ia] - s[ib])

    return operator, (lambda y: y)


def gmres(matvec, b, tol, restart, maxiter, callback=None):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
    for A x = b from x0 = 0, with A given by ``matvec``.

    Each cycle runs at most ``restart`` Arnoldi steps (classical
    Gram-Schmidt applied twice, each pass two products with the basis,
    which keeps it orthogonal to working precision; Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005) and minimises the residual
    by Givens rotations; at most ``maxiter`` cycles run, until
    ||b - A x|| <= tol ||b||.  ``callback`` receives the estimated
    relative residual |g_{j+1}| / ||b|| after each step.  A cycle stalls
    when its estimate meets the goal but the true residual it leaves is not
    below half the one it started from: the products' rounding sets a floor
    above tol, and further cycles only repeat that.  The basis and the
    Hessenberg matrix start at min(restart, 8) steps and double as a cycle
    needs them, so a solve that converges in a few steps holds a few basis
    vectors, not restart + 1; the basis grows in place, so only one is
    ever held.  Returns (x, info): info is 0 on convergence, else the
    number of cycles run (maxiter, or fewer after a stall).
    """
    if restart < 1 or maxiter < 1:
        raise ValueError(f"restart {restart} and maxiter {maxiter} must be positive")
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0
    goal = tol * b_norm
    size = min(restart, 8)  # Arnoldi steps the workspace holds
    basis = np.empty((size + 1, len(b)))
    hess = np.zeros((size, size))  # R of the rotated Hessenberg matrix
    rot = np.zeros((restart, 2))  # (cos, sin) of each Givens rotation
    r = b
    for cycle in range(1, maxiter + 1):
        g = np.zeros(restart + 1)
        g[0] = np.linalg.norm(r)
        basis[0] = r / g[0]
        for j in range(restart):
            if j == size:  # the workspace is full: double it, up to restart
                size = min(2 * size, restart)
                # Grown in place (a realloc: the rows are kept, the new
                # ones zero), so the old and the new basis are never held
                # at once.  The resize must see no view of the basis.
                del v
                basis.resize((size + 1, len(b)), refcheck=False)
                hess = np.pad(hess, (0, size - len(hess)))
            w = matvec(basis[j])
            w_norm = np.linalg.norm(w)
            v = basis[: j + 1]
            hess[: j + 1, j] = v @ w
            w -= hess[: j + 1, j] @ v
            again = v @ w
            w -= again @ v
            hess[: j + 1, j] += again
            h = np.linalg.norm(w)
            breakdown = h <= np.finfo(float).eps * w_norm  # the space is invariant
            if not breakdown:
                basis[j + 1] = w / h
            for i in range(j):
                c, s = rot[i]
                top, bottom = hess[i, j], hess[i + 1, j]
                hess[i, j], hess[i + 1, j] = c * top + s * bottom, c * bottom - s * top
            sub = 0.0 if breakdown else h
            mag = math.hypot(hess[j, j], sub)
            rot[j] = (hess[j, j] / mag, sub / mag) if mag else (1.0, 0.0)
            hess[j, j] = mag
            g[j], g[j + 1] = rot[j, 0] * g[j], -rot[j, 1] * g[j]
            if callback is not None:
                callback(abs(g[j + 1]) / b_norm)
            if abs(g[j + 1]) <= goal or breakdown:
                break
        k = j + 1 if hess[j, j] else j  # a zero pivot adds nothing
        y = g[:k].copy()
        for i in range(k - 1, -1, -1):  # back substitution in R y = g
            y[i] = (y[i] - hess[i, i + 1 : k] @ y[i + 1 :]) / hess[i, i]
        x += y @ basis[:k]
        r = b - matvec(x)
        r_norm = np.linalg.norm(r)
        if r_norm <= goal:
            return x, 0
        if breakdown or (abs(g[j + 1]) <= goal and r_norm > 0.5 * g[0]):
            return x, cycle
    return x, maxiter


def _unsolved(detail: str = "") -> RuntimeError:
    return RuntimeError(
        f"defect solve did not converge{detail}; the modification may be "
        "singular (e.g. a disconnected region)"
    )


def solve_defect(
    spec: DefectSpec,
    far,
    tol: float = DEFAULT_TOL,
    queries=None,
    max_iter: int = 200,
    stats: dict | None = None,
) -> dict:
    """Potential of the perturbed lattice at the queried nodes.

    far = (c1, c2) defines the linear far field v.  The bar system is
    solved by GMRES to relative residual tol, restarted every max_iter
    iterations for at most max_iter cycles; up to ``_DENSE_BAR_LIMIT``
    bars, with the system's exact inverse as its preconditioner (see
    ``_bar_system``).  tol, in (0, 1), is the one accuracy setting: where S
    is applied by ``fmm_apply`` (scattered defects, far queries), that runs
    at eps = max(tol / 100, 1e-13).

    ``stats``, if given, is filled with ``bars``, ``nodes``, ``iterations``
    and ``residual_history`` (GMRES's relative residual per iteration; 1
    iteration when preconditioned), ``rcond`` (the exact 1-norm reciprocal
    condition number of the bar system, taken from the preconditioner's
    inverse; None when there is no preconditioner, above
    ``_DENSE_BAR_LIMIT`` bars, and for an empty spec), ``kernel_source``
    and ``eval_source`` (where the bar system's and the queries' kernel
    entries come from: "window", one phi window over their displacements,
    or "phi", evaluated by ``kernel_matrix`` or summed by ``fmm_apply``;
    None for an empty spec), ``s_path`` (how GMRES applies S without a
    preconditioner: "fft" on the window or "fmm"; None with one),
    ``window_cells`` (the cells of the windows built), and the seconds
    ``t_assemble`` (the operator and its preconditioner), ``t_solve``,
    ``t_eval`` and ``wall_time``.

    Raises ValueError for a non-finite far field, non-integer query
    coordinates, a node and query extent above 2**31 or tol outside (0, 1),
    and RuntimeError if the system is singular or GMRES does not converge
    (stalls above tol, or runs out of cycles).
    """
    clock = time.perf_counter
    t0 = clock()
    if not (math.isfinite(far[0]) and math.isfinite(far[1])):
        raise ValueError(f"far field must be finite, got {tuple(far)}")
    if not 0.0 < tol < 1.0:  # NaN fails too
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if queries is None:
        q_arr = np.array(spec.nodes, dtype=np.int64).reshape(-1, 2)
    else:
        q_arr = lattice_points(queries, "queries").reshape(-1, 2)
    c1, c2 = float(far[0]), float(far[1])
    u = c1 * q_arr[:, 0] + c2 * q_arr[:, 1]
    history = []
    info = dict(rcond=None, kernel_source=None, eval_source=None, s_path=None,
                window_cells=0)
    t1 = t2 = clock()
    if len(spec):
        nodes, ia, ib, dc = spec.incidence()
        check_extent(np.vstack([nodes, q_arr]))
        eps = max(tol / 100, 1e-13)  # for fmm_apply, where S takes it
        v = c1 * nodes[:, 0] + c2 * nodes[:, 1]
        rhs = dc * (v[ia] - v[ib])  # C D v
        operator, precondition = _bar_system(nodes, ia, ib, dc, eps, info)
        t1 = clock()
        y, cycles = gmres(operator, rhs, tol, restart=min(len(spec), max_iter),
                          maxiter=max_iter, callback=history.append)
        if cycles:
            attained = np.linalg.norm(rhs - operator(y)) / np.linalg.norm(rhs)
            raise _unsolved(
                f": GMRES stopped after {cycles} cycles at relative residual "
                f"{attained:.2e}, above tol {tol:.2e}, which may lie below "
                "what the rounding of S allows"
            )
        z = precondition(y)
        del operator, precondition  # the bar matrix and its inverse, or S's window
        if not np.all(np.isfinite(z)):
            raise _unsolved()
        t2 = clock()
        if len(q_arr):  # an empty query list has no window
            direct = len(spec) <= _DENSE_BAR_LIMIT  # as for the bar system
            apply_q, q_path, q_cells = _s_operator(q_arr, nodes, eps, direct)
            info["eval_source"] = "window" if q_path == "fft" else "phi"
            info["window_cells"] += q_cells
            u -= apply_q(_node_charges(ia, ib, len(nodes), z))
    t3 = clock()
    if stats is not None:
        stats.update(
            info,
            bars=len(spec),
            nodes=len(spec.nodes),
            iterations=len(history),
            residual_history=[float(r) for r in history],
            t_assemble=t1 - t0,
            t_solve=t2 - t1,
            t_eval=t3 - t2,
            wall_time=t3 - t0,
        )
    return dict(zip(map(tuple, q_arr.tolist()), u.tolist()))
