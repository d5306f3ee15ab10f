"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (on the live terminal, outside
pytest capture) so the suite output doubles as a release checklist.
"""

import math
import time

import numpy as np
import pytest

from latticefmm.config import DEFAULT_EPS
from latticefmm.defect import DefectSpec, apply_S, solve_defect
from latticefmm.fmm import fmm_apply
from latticefmm.green import GreensTable, apply_discrete_laplacian, phi, phi_asymptotic
from latticefmm.oracle import direct_sum
from latticefmm.skeleton import shared_chain

from fmm_reference import estimate_complexity


@pytest.fixture
def report(capsys):
    def _report(name: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _report


def wait_for_blas(limit: float = 10.0) -> None:
    """Return once five (300, 140) @ (140, 140) products in a row each run
    below 1 ms, or after ``limit`` seconds.  In some fresh processes
    OpenBLAS's threads stall for most of a second after import: such a
    product then takes about 8 ms, against 0.17 ms at speed."""
    a, b = np.ones((300, 140)), np.ones((140, 140))
    end = time.perf_counter() + limit
    while time.perf_counter() < end:
        slowest = 0.0
        for _ in range(5):
            t0 = time.perf_counter()
            a @ b
            slowest = max(slowest, time.perf_counter() - t0)
        if slowest < 1e-3:
            return


@pytest.fixture(scope="module")
def scaling_runs():
    """The median of three timed runs per size for the random distribution.

    Each size's first call, untimed, builds the shared state it needs (the
    operator chain's sides, T_ifo stacks, grid operators and tables of
    unit expansions, and phi's octant), and each timed call asserts that
    it built none (``built_shared``).  Before the timed calls a probe
    product waits for BLAS to run at speed.  Shared by the runtime-scaling
    and memory-scaling checks so the expensive solves happen once.
    """
    runs = []
    for exp in (14, 16, 18):
        n = 2**exp
        rng = np.random.default_rng(exp)
        pts = np.unique(rng.integers(0, n, size=(n + n // 2, 2)), axis=0)
        assert pts.shape[0] >= n
        # np.unique sorts: a uniform sample, not the leftmost n points.
        pts = pts[rng.permutation(len(pts))[:n]]
        q = rng.standard_normal(n)
        fmm_apply(pts, q)
        wait_for_blas()
        times = []
        for _ in range(3):
            stats: dict = {}
            fmm_apply(pts, q, stats=stats)
            assert not stats["built_shared"], f"2^{exp}: the timed call built shared arrays"
            times.append(stats["wall_time"])
        runs.append(
            (n, float(np.median(times)), stats["op_entries"], stats["shared_op_entries"])
        )
    return runs


def test_green_function_identity(report, monkeypatch):
    monkeypatch.setattr("latticefmm.green._table", None)  # phi builds it, timed
    monkeypatch.setattr("latticefmm.green._octant", None)
    t0 = time.perf_counter()
    half = 81  # the stencil crosses the table's edge at |m|inf = 64
    ax = np.arange(-half, half + 1)
    m1, m2 = np.meshgrid(ax, ax, indexing="ij")
    u = phi(m1, m2)
    lap = (
        4.0 * u[1:-1, 1:-1]
        - u[2:, 1:-1]
        - u[:-2, 1:-1]
        - u[1:-1, 2:]
        - u[1:-1, :-2]
    )
    lap[half - 1, half - 1] -= 1.0  # delta at the origin
    worst = float(np.max(np.abs(lap)))
    elapsed = time.perf_counter() - t0
    report(
        "green-function identity (|m|inf <= 80)",
        worst <= 1e-12 and elapsed < 60.0,
        f"max |A(phi) - delta| = {worst:.2e}, {elapsed:.1f}s incl table build",
    )


def test_asymptotic_accuracy(report):
    # Against the exact table, over the octant by symmetry: all m with
    # 30 < |m| <= 45 (absolute gate), and every point past the radius-64
    # table phi reads, 64 < |m|inf <= 400 (2 ulp gate).
    hi, lo = np.tril_indices(401)
    ref = GreensTable.build(400).lookup(hi, lo)
    r = np.hypot(hi, lo)
    near = (r > 30.0) & (r <= 45.0)
    worst = float(np.max(np.abs(phi_asymptotic(hi[near], lo[near]) - ref[near])))
    far = hi > 64
    ulps = np.abs(phi_asymptotic(hi[far], lo[far]) - ref[far]) / np.spacing(np.abs(ref[far]))
    report(
        "asymptotic accuracy (30 < |m| <= 45; 64 < |m|inf <= 400)",
        worst <= 1e-12 and ulps.max() <= 2.0,
        f"max |exact - expansion| = {worst:.2e} over {np.count_nonzero(near)} points, "
        f"{ulps.max():.0f} ulp over {np.count_nonzero(far)}",
    )


def test_known_values(report):
    e0 = abs(phi(0, 0))
    e1 = abs(phi(1, 0) + 0.25)
    e2 = abs(phi(1, 1) + 1.0 / math.pi)
    report(
        "known values phi(0,0), phi(1,0), phi(1,1)",
        e0 <= 1e-14 and e1 <= 1e-14 and e2 <= 1e-13,
        f"errors {e0:.1e}, {e1:.1e}, {e2:.1e}",
    )


def test_fmm_oracle_equivalence(report):
    t0 = time.perf_counter()
    side = 2**15
    sizes = [100, 500, 2000]
    worst = 0.0
    for trial in range(20):
        n = sizes[trial % 3]
        rng = np.random.default_rng(1000 + trial)
        pts = np.unique(rng.integers(0, side, size=(2 * n, 2)), axis=0)[:n]
        q = rng.standard_normal(n)
        u = fmm_apply(pts, q, eps=1e-10)
        ref = direct_sum(pts, q)
        rel = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        "fmm-oracle equivalence (20 random instances)",
        worst <= 1e-9 and elapsed < 120.0,
        f"worst rel l2 = {worst:.2e}, {elapsed:.1f}s total",
    )


def test_rank_band(report):
    ranks = {}
    for eps in (1e-10, 1e-6):
        chain = shared_chain(eps, 8)  # the chain fmm_apply uses
        chain.ensure(256)
        ranks[eps] = [chain.ops[s].skeleton.rank for s in (32, 64, 128, 256)]
    leaf10, leaf6 = ranks[1e-10][0], ranks[1e-6][0]
    spread = max(max(r) - min(r) for r in ranks.values())
    ok = 30 <= leaf10 <= 55 and 15 <= leaf6 <= 30 and spread <= 5
    report(
        "skeleton rank band",
        ok,
        f"ranks(1e-10) = {ranks[1e-10]}, ranks(1e-6) = {ranks[1e-6]}, "
        f"level spread {spread}",
    )


def test_linear_scaling(report, scaling_runs):
    fit = estimate_complexity([(n, t) for n, t, _, _ in scaling_runs])
    slope = fit["slope"]

    # functional addressability check: million-sided domain
    rng = np.random.default_rng(99)
    n_src = 10**4
    pts = np.unique(rng.integers(0, 10**6, size=(n_src + 500, 2)), axis=0)[:n_src]
    q = rng.standard_normal(n_src)
    sel = rng.choice(n_src, size=100, replace=False)
    u = fmm_apply(pts, q)
    ref = direct_sum(pts, q, targets=pts[sel])
    spot = float(np.max(np.abs(u[sel] - ref)) / np.max(np.abs(ref)))
    times = ", ".join(
        f"2^{e}: {t:.2f}s" for e, (_, t, _, _) in zip((14, 16, 18), scaling_runs)
    )
    report(
        "linear runtime scaling + 1e6-domain addressability",
        slope <= 1.25 and spot <= 1e-9,
        f"log-log slope = {slope:.3f} ({times}), spot-check rel err = {spot:.2e}",
    )


def test_memory_linearity(report, scaling_runs):
    # per-problem operator storage; the model-box operators are a shared
    # process-wide cache of fixed size and are reported alongside
    per_source = [8.0 * entries / n for n, _, entries, _ in scaling_runs]
    shared_mb = max(8.0 * s / 2**20 for _, _, _, s in scaling_runs)
    ratio = max(per_source) / min(per_source)
    report(
        "linear operator storage",
        ratio <= 2.0,
        "bytes/source = "
        + ", ".join(f"{b:.0f}" for b in per_source)
        + f", max/min = {ratio:.2f} (+ {shared_mb:.1f} MiB shared model operators)",
    )


def test_defect_solver(report):
    t0 = time.perf_counter()
    # (a) empty defect: exact pass-through of the far field
    ua = solve_defect(DefectSpec([]), (1.0, -2.0), queries=[(7, 3)])
    exact_a = ua[(7, 3)] == 7.0 - 6.0

    # (b) single removed bar: perturbed equation residual within radius 20
    spec = DefectSpec([((0, 0), (1, 0), -1.0)])
    grid = [(x, y) for x in range(-21, 22) for y in range(-21, 22)]
    u = solve_defect(spec, (1.0, 0.0), tol=1e-9, queries=grid)
    bu = {}
    for (a, b, dc) in spec.bars:
        d = dc * (u[a] - u[b])
        bu[a] = bu.get(a, 0.0) + d
        bu[b] = bu.get(b, 0.0) - d
    res = 0.0
    for x in range(-20, 21):
        for y in range(-20, 21):
            val = apply_discrete_laplacian(lambda p: u[p], (x, y))
            res = max(res, abs(val + bu.get((x, y), 0.0)))

    # (c) the lattice sum inverts the discrete Laplacian on compact data
    rng = np.random.default_rng(12)
    nodes = [tuple(p) for p in np.unique(rng.integers(-40, 41, (20, 2)), axis=0)]
    w = {p: float(v) for p, v in zip(nodes, rng.standard_normal(len(nodes)))}
    touched = set(w)
    for x, y in list(w):
        touched.update([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)])
    f_nodes = sorted(touched)
    f_vals = np.array(
        [apply_discrete_laplacian(lambda p: w.get(p, 0.0), m) for m in f_nodes]
    )
    back = apply_S(
        np.array(f_nodes, dtype=np.int64),
        f_vals,
        np.array(nodes, dtype=np.int64),
    )
    sa_gap = float(max(abs(v - w[p]) for p, v in zip(nodes, back)))
    elapsed = time.perf_counter() - t0
    report(
        "defect solver (empty / removed-bar / inverse identity)",
        exact_a and res <= 1e-8 and sa_gap <= 1e-9 and elapsed < 60.0,
        f"empty exact = {exact_a}, residual(r<=20) = {res:.2e}, "
        f"S(Aw) gap = {sa_gap:.2e}, {elapsed:.1f}s",
    )


def test_pde_residual(report):
    sources = [(0, 0), (250, -97), (-333, 412)]
    charges = [1.0, -0.25, -0.75]  # zero net charge
    pts = np.array(sources, dtype=np.int64)
    stencil = []
    for x, y in sources:
        stencil += [(x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
    tgts = np.array(sorted(set(stencil)), dtype=np.int64)
    u = fmm_apply(pts, np.array(charges), targets=tgts)
    u_map = {tuple(p): v for p, v in zip(tgts, u)}
    worst = max(
        abs(apply_discrete_laplacian(lambda p: u_map[p], s) - c)
        for s, c in zip(sources, charges)
    )
    report(
        "discrete Poisson residual at 3 zero-sum charges",
        worst <= 1e-9,
        f"max |A(u) - f| = {worst:.2e}",
    )
