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

The system is solved one of two ways, by bar count:

* up to ``_DENSE_BAR_LIMIT`` bars it is assembled once from kernel blocks
  and solved by numpy's LU, guarded by a 1-norm condition estimate
  (Hager's estimator with Higham's refinements, as in LAPACK's dgecon),
  and the queries are summed bar by bar against z, by kernel blocks as
  well;
* above that, ``gmres`` (restarted GMRES in numpy) runs on the same bar
  operator, each product applying S by ``apply_S`` (the FMM above
  ``DIRECT_S_THRESHOLD`` charges), and the queries take one more
  ``apply_S``.

Only numpy is needed: the module imports no scipy, so a defect solve
loads a single BLAS.
"""

from __future__ import annotations

import math
import time
from collections import deque

import numpy as np

from .config import DEFAULT_EPS
from .fmm import fmm_apply
from .green import lattice_points
from .oracle import direct_sum
from .skeleton import kernel_matrix
from .tree import check_extent

# Below this many charges, S is summed directly instead of via the FMM.
DIRECT_S_THRESHOLD = 600

# Largest bar count m solved densely.  Dense: 2 m n <= 4 m^2 phi
# evaluations to assemble D S D^T, and (2/3) m^3 flops per LU.  numpy's
# solve keeps no factors, so the condition estimate factors again: a crack
# takes three LUs (the system, one solve with the transpose, one column).
# The m x m matrix is held twice while numpy factors its own copy.  GMRES:
# one apply_S over the n <= 2m nodes per iteration, and the iterations grow
# with m (a straight crack of m removed bars takes 78 at m = 800 and 125 at
# m = 2048).  Measured warm on such cracks with 4 (m + 2) queries (2 cores,
# OpenBLAS): dense takes 0.8-1.1 s at 800 bars (LU and estimate 0.04-0.06 s)
# and 3.9-4.6 s at 2048 (0.38-0.45 s); GMRES 0.8 s and 2.9-4.1 s.  GMRES is
# no slower, but its FMM-applied S leaves max |(A+B)u| at 3.7e-6 and 1.1e-5
# against dense's 9e-10 and 9e-9, so the limit is the memory cap: the
# matrix is 32 MB at 2048 bars, 64 MB while numpy factors its copy.
_DENSE_BAR_LIMIT = 2048

# Entries per kernel block; phi makes about a dozen temporaries of a
# block's size.  On a 48-bar crack with 200 queries (2 cores), 512, 1024,
# 2048 and unblocked take 8.2, 4.1, 3.2 and 2.1 ms at tracemalloc peaks of
# 0.11, 0.15, 0.24 and 1.6 MB: 1024 buys most of the speed for little memory.
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

    An island must be cut off by removed bars, so it holds an endpoint of
    one.  An island of n nodes is cut off by at least 4 sqrt(n) bars (the
    lattice isoperimetric inequality), so a search from an endpoint that
    reaches more than len(removed)**2 / 16 nodes has left every island.
    """
    max_island = len(removed) ** 2 // 16
    unbounded: set = set()
    for start in sorted({p for bar in removed for p in bar}):
        seen = {start}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            if p in unbounded or len(seen) > max_island:
                unbounded |= seen
                break
            steps = [(p[0] + dx, p[1] + dy) for dx, dy in _UNIT_STEPS]
            for q in steps + added.get(p, []):
                bar = (p, q) if p <= q else (q, p)
                if q not in seen and bar not in removed:
                    seen.add(q)
                    queue.append(q)
        else:
            raise ValueError(
                f"node {start} lies in a disconnected region of size {len(seen)}"
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


def apply_S(points, charges, targets, eps: float = DEFAULT_EPS) -> np.ndarray:
    """[S q](t) = sum_j phi(t - m_j) q_j at the requested targets."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] == 0:
        return np.zeros(np.asarray(targets).shape[0])
    if pts.shape[0] <= DIRECT_S_THRESHOLD:
        return direct_sum(pts, charges, targets=targets)
    return fmm_apply(pts, charges, targets=targets, eps=eps)


def _row_blocks(n_rows: int, n_cols: int, per_row: int = 1):
    """Slices of n_rows rows, each taking about ``_BLOCK_ENTRIES`` kernel
    entries when a row needs per_row kernel rows of n_cols entries."""
    step = max(1, _BLOCK_ENTRIES // max(per_row * n_cols, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _bar_kernel(nodes, ia, ib) -> np.ndarray:
    """D S D^T, assembled in row blocks of bars."""
    m = len(ia)
    out = np.empty((m, m), order="F")  # LAPACK's order: numpy copies it by columns
    for rows in _row_blocks(m, len(nodes), per_row=2):
        r = rows.stop - rows.start
        k_ab = kernel_matrix(nodes[np.concatenate([ia[rows], ib[rows]])], nodes)
        ds = k_ab[:r] - k_ab[r:]  # (D S)[rows], one column per node
        out[rows] = ds[:, ia] - ds[:, ib]
    return out


def _sum_at(targets, nodes, ia, ib, z) -> np.ndarray:
    """(S D^T z)(t) for bar values z, by kernel blocks.  Each bar's two
    kernel columns are differenced before z is applied: summed against the
    node charges D^T z instead, the bars' large opposite terms cancel and
    leave their rounding behind."""
    out = np.empty(len(targets))
    for rows in _row_blocks(len(targets), len(nodes)):
        k = kernel_matrix(targets[rows], nodes)
        out[rows] = (k[:, ia] - k[:, ib]) @ z
    return out


def _signs(x) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


def _inv_norm1(mat, x, alt_x) -> float:
    """Estimate of ||mat^-1||_1 by LAPACK's dlacn2 iteration: Hager's
    estimator with Higham's refinements (ACM TOMS 14, 1988).

    x = mat^-1 e/m is the start, alt_x = mat^-1 alt the alternating-sign
    check; each further step solves with mat^T and then with mat, for at
    most 5 steps.  The estimate never exceeds the true norm.
    """
    m = len(x)
    est = np.abs(x).sum()
    signs = _signs(x)
    j = np.argmax(np.abs(np.linalg.solve(mat.T, signs)))
    for _ in range(4):
        unit = np.zeros(m)
        unit[j] = 1.0
        x = np.linalg.solve(mat, unit)
        est_old, est = est, np.abs(x).sum()
        new_signs = _signs(x)
        if np.array_equal(new_signs, signs) or est <= est_old:
            break  # a repeated sign vector, or no increase: converged
        signs = new_signs
        y = np.linalg.solve(mat.T, signs)
        j_last, j = j, np.argmax(np.abs(y))
        if y[j_last] == abs(y[j]):
            break
    return max(est, 2.0 * np.abs(alt_x).sum() / (3 * m))


def _solve_rcond(mat, rhs) -> tuple[np.ndarray, float]:
    """(mat^-1 rhs, estimated 1-norm reciprocal condition number of mat).

    One LU solves the system and both estimator starts; raises
    np.linalg.LinAlgError on an exactly zero pivot.
    """
    m = len(rhs)
    i = np.arange(m)
    alt = np.where(i % 2, -1.0, 1.0) * (1.0 + i / max(m - 1, 1))
    sol = np.linalg.solve(mat, np.column_stack([rhs, np.full(m, 1.0 / m), alt]))
    inv_norm = _inv_norm1(mat, sol[:, 1], sol[:, 2])
    return sol[:, 0], float(1.0 / (np.abs(mat).sum(axis=0).max() * inv_norm))


def gmres(matvec, b, tol, restart, maxiter, callback=None):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
    for A x = b from x0 = 0, with A given by ``matvec``.

    Each cycle runs at most ``restart`` Arnoldi steps (modified
    Gram-Schmidt) and minimises the residual by Givens rotations; at most
    ``maxiter`` cycles run, until ||b - A x|| <= tol ||b||.  ``callback``
    receives the estimated relative residual |g_{j+1}| / ||b|| after each
    step.  Returns (x, info): info is 0 on convergence, else maxiter.
    """
    if restart < 1 or maxiter < 1:
        raise ValueError(f"restart {restart} and maxiter {maxiter} must be positive")
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0
    goal = tol * b_norm
    basis = np.empty((restart + 1, len(b)))
    hess = np.zeros((restart, restart))  # R of the rotated Hessenberg matrix
    rot = np.zeros((restart, 2))  # (cos, sin) of each Givens rotation
    r = b
    for _ in range(maxiter):
        g = np.zeros(restart + 1)
        g[0] = np.linalg.norm(r)
        basis[0] = r / g[0]
        for j in range(restart):
            w = matvec(basis[j])
            w_norm = np.linalg.norm(w)
            for i in range(j + 1):
                hess[i, j] = basis[i] @ w
                w -= hess[i, j] * basis[i]
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
        if np.linalg.norm(r) <= goal:
            return x, 0
        if breakdown:
            break
    return x, maxiter


def _unsolved() -> RuntimeError:
    return RuntimeError(
        "defect solve did not converge; the modification may be "
        "singular (e.g. a disconnected region)"
    )


def solve_defect(
    spec: DefectSpec,
    far,
    tol: float = 1e-8,
    queries=None,
    eps: float = DEFAULT_EPS,
    max_iter: int = 200,
    stats: dict | None = None,
) -> dict:
    """Potential of the perturbed lattice at the queried nodes.

    far = (c1, c2) defines the linear far field v.  Up to
    ``_DENSE_BAR_LIMIT`` bars the bar system is solved by dense LU; above
    it, by GMRES to relative residual tol, restarted every max_iter
    iterations for at most max_iter cycles.

    ``stats``, if given, is filled with ``bars``, ``nodes``, ``path``
    ("dense" or "gmres"), ``iterations`` and ``residual_history`` (GMRES's
    relative residual per iteration; 0 and empty on the dense path),
    ``rcond`` (the dense path's estimate of the system's 1-norm reciprocal
    condition number; None on the GMRES path and for an empty spec), and
    the seconds ``t_assemble``, ``t_solve``, ``t_eval`` and ``wall_time``.

    Raises ValueError for a non-finite far field, non-integer query
    coordinates, a node and query extent above 2**31 or tol below 10 eps,
    and RuntimeError if the system is singular or GMRES does not converge.
    """
    clock = time.perf_counter
    t0 = clock()
    if not (math.isfinite(far[0]) and math.isfinite(far[1])):
        raise ValueError(f"far field must be finite, got {tuple(far)}")
    if tol < 10 * eps:
        raise ValueError(f"tol {tol} must be at least 10x the summation eps {eps}")
    if queries is None:
        q_arr = np.array(spec.nodes, dtype=np.int64).reshape(-1, 2)
    else:
        q_arr = lattice_points(queries, "queries").reshape(-1, 2)
    c1, c2 = float(far[0]), float(far[1])
    u = c1 * q_arr[:, 0] + c2 * q_arr[:, 1]
    history = []
    rcond = None
    path = "dense" if len(spec) <= _DENSE_BAR_LIMIT else "gmres"
    t1 = t2 = clock()
    if len(spec):
        nodes, ia, ib, dc = spec.incidence()
        check_extent(np.vstack([nodes, q_arr]))

        def d_transpose(z):  # bar values to node charges
            return np.bincount(ia, z, len(nodes)) - np.bincount(ib, z, len(nodes))

        v = c1 * nodes[:, 0] + c2 * nodes[:, 1]
        rhs = dc * (v[ia] - v[ib])  # C D v
        if path == "dense":
            mat = _bar_kernel(nodes, ia, ib)
            mat *= dc[:, None]
            mat[np.diag_indices_from(mat)] += 1.0
            t1 = clock()
            try:
                z, rcond = _solve_rcond(mat, rhs)
            except np.linalg.LinAlgError:  # an exactly zero pivot
                raise _unsolved() from None
            # Singular to working precision (or NaN): rcond at most m eps.
            if not rcond > len(spec) * np.finfo(float).eps:
                raise _unsolved()
        else:

            def bar_operator(z):
                s = apply_S(nodes, d_transpose(z), nodes, eps=eps)
                return z + dc * (s[ia] - s[ib])

            t1 = clock()
            z, info = gmres(
                bar_operator,
                rhs,
                tol,
                restart=min(len(spec), max_iter),
                maxiter=max_iter,
                callback=history.append,
            )
            if info != 0:
                raise _unsolved()
        if not np.all(np.isfinite(z)):
            raise _unsolved()
        t2 = clock()
        if path == "dense":
            u -= _sum_at(q_arr, nodes, ia, ib, z)
        else:
            u -= apply_S(nodes, d_transpose(z), q_arr, eps=eps)
    t3 = clock()
    if stats is not None:
        stats.update(
            bars=len(spec),
            nodes=len(spec.nodes),
            path=path,
            iterations=len(history),
            residual_history=[float(r) for r in history],
            rcond=rcond,
            t_assemble=t1 - t0,
            t_solve=t2 - t1,
            t_eval=t3 - t2,
            wall_time=t3 - t0,
        )
    return dict(zip(map(tuple, q_arr.tolist()), u.tolist()))
