"""Command-line front end.

Subcommands: phi, solve, direct, defect, bench, selftest.
All CSV is comma-separated with no header unless --header is given, and
numeric output uses repr-exact %.17g so identical inputs give
byte-identical files.  Invalid input (a ValueError from the library)
exits with an ``error: ...`` message instead of a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import sys
import time
import tracemalloc

import numpy as np

from .config import DEFAULT_EPS, DEFAULT_NLEAF, DEFAULT_SEED, DEFAULT_TOL, check_eps
from .defect import DefectSpec, apply_B, apply_S, solve_defect
from .fmm import _MAX_LEAF_SIDE, fmm_apply
from .green import (
    GreensTable,
    apply_discrete_laplacian,
    lattice_points,
    phi,
    phi_asymptotic,
)
from .oracle import direct_sum
from .skeleton import shared_chain


# ---------------------------------------------------------------------------
# CSV plumbing

def _open_input(path):
    if path is None or path == "-":
        return sys.stdin
    return open(path, newline="")


def _read_rows(path, caster, what):
    """Parse CSV rows through caster; '-'/None reads stdin."""
    fh = _open_input(path)
    try:
        rows = []
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                rows.append(caster(row))
            except (ValueError, IndexError):
                raise SystemExit(
                    f"error: malformed {what} row {lineno}: {','.join(row)}"
                )
        return rows
    finally:
        if fh is not sys.stdin:
            fh.close()


def _read_sources(path):
    rows = _read_rows(path, lambda r: (int(r[0]), int(r[1]), float(r[2])), "source")
    if not rows:
        raise SystemExit("error: no source rows given")
    pts = lattice_points([(m1, m2) for m1, m2, _ in rows], "sources")
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise SystemExit("error: duplicate lattice points")
    q = np.array([qv for _, _, qv in rows])
    return pts, q


def _read_points(path, what):
    rows = _read_rows(path, lambda r: (int(r[0]), int(r[1])), what)
    return lattice_points(rows, f"{what}s").reshape(-1, 2)


def _emit_stats(stats):
    """One JSON line of run statistics on stderr (stdout keeps the CSV)."""
    print(json.dumps(stats, sort_keys=True), file=sys.stderr)


def _emit_potentials(points, values, header):
    out = []
    if header:
        out.append("m1,m2,u")
    for (m1, m2), u in zip(points, values):
        out.append(f"{int(m1)},{int(m2)},{float(u):.17g}")
    print("\n".join(out))


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_phi(args) -> int:
    val = phi(args.m1, args.m2)
    print(f"{float(val):.16g}")
    return 0


def _cmd_solve(args) -> int:
    pts, q = _read_sources(args.input)
    targets = _read_points(args.targets, "target") if args.targets else None
    stats = {} if args.stats else None
    u = fmm_apply(
        pts,
        q,
        targets=targets,
        eps=args.eps,
        nleaf=args.nleaf,
        stats=stats,
    )
    _emit_potentials(targets if targets is not None else pts, u, args.header)
    if stats is not None:
        _emit_stats(stats)
    return 0


def _cmd_direct(args) -> int:
    pts, q = _read_sources(args.input)
    targets = _read_points(args.targets, "target") if args.targets else None
    u = direct_sum(pts, q, targets=targets)
    _emit_potentials(targets if targets is not None else pts, u, args.header)
    return 0


def _cmd_defect(args) -> int:
    bars = _read_rows(
        args.bars,
        lambda r: ((int(r[0]), int(r[1])), (int(r[2]), int(r[3])), float(r[4])),
        "bar",
    )
    try:
        c1, c2 = (float(s) for s in args.farfield.split(","))
    except ValueError:
        raise SystemExit(f"error: --farfield wants 'c1,c2', got {args.farfield!r}")
    queries = _read_points(args.queries, "query") if args.queries else None
    spec = DefectSpec(bars)
    stats = {} if args.stats else None
    u = solve_defect(spec, (c1, c2), tol=args.tol, queries=queries, stats=stats)
    nodes = [tuple(p) for p in queries.tolist()] if queries is not None else spec.nodes
    _emit_potentials(nodes, [u[p] for p in nodes], args.header)
    if stats is not None:
        _emit_stats(stats)
    return 0


_NLEAF_HELP = (
    "most points of a leaf at the tree's depth; a box above it is a leaf once it and its "
    "colleagues hold at most min(nleaf, 16), so every nleaf >= 64 gives the same leaves, and "
    "only values below 16 change those above the depth"
)


def _bench_points(distribution, n, alpha, rng):
    if distribution == "dense":
        xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return np.column_stack([xs.ravel(), ys.ravel()]).astype(np.int64)
    if distribution == "random":
        pts = np.unique(rng.integers(0, n, size=(2 * n, 2)), axis=0)
        while pts.shape[0] < n:
            extra = rng.integers(0, n, size=(2 * n, 2))
            pts = np.unique(np.vstack([pts, extra]), axis=0)
        # np.unique sorts: the first n would be the leftmost points.
        return pts[rng.permutation(len(pts))[:n]].astype(np.int64)
    # circle: alpha*n points rounded onto the inscribed circle
    count = max(int(round(alpha * n)), 1)
    theta = 2.0 * np.pi * np.arange(count) / count
    r = n / 2.0 - 1.0
    c = n / 2.0
    pts = np.column_stack(
        [np.round(c + r * np.cos(theta)), np.round(c + r * np.sin(theta))]
    ).astype(np.int64)
    return np.unique(pts, axis=0)


def _cmd_bench(args) -> int:
    sizes = []
    for tok in args.n.split(","):
        n = int(tok)
        if n < 2 or n & (n - 1):
            raise SystemExit(f"error: n must be a power of two, got {n}")
        sizes.append(n)
    if args.header and not args.json:
        print("n,N_source,wall_time,mem_estimate")
    for n in sizes:
        rng = np.random.default_rng(args.seed)
        pts = _bench_points(args.distribution, n, args.alpha, rng)
        q = rng.standard_normal(pts.shape[0])
        kwargs = dict(eps=args.eps, nleaf=args.nleaf)
        cold: dict = {}
        fmm_apply(pts, q, stats=cold, **kwargs)  # warms the operator cache
        stats: dict = {}
        fmm_apply(pts, q, stats=stats, **kwargs)
        if args.json:
            # Memory: a third, untimed call under tracemalloc (numpy's
            # arrays included), and the process's peak resident set so far.
            tracemalloc.start()
            fmm_apply(pts, q, **kwargs)
            traced_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            record = {
                "n": n,
                "N_source": pts.shape[0],
                "cold_wall_time": cold["wall_time"],
                "cold_t_chain": cold["t_chain"],
                "warm_traced_peak_mb": traced_peak / 2**20,
                # ru_maxrss is in KiB on Linux, in bytes on macOS.
                "ru_maxrss_mb": maxrss / (2**20 if sys.platform == "darwin" else 2**10),
                "stats": stats,
            }
            print(json.dumps(record, sort_keys=True))
            continue
        # Operator data in bytes: this problem's entries and every array
        # of the shared chain, once each, 8 bytes per entry.
        mem = (stats["op_entries"] + stats["shared_op_entries"]) * 8
        print(f"{n},{pts.shape[0]},{stats['wall_time']:.6f},{mem}")
    return 0


def _selftest_checks(eps):
    """Yield (name, passed, detail) for the desk-scale suite."""
    err = max(
        abs(phi(0, 0)),
        abs(phi(1, 0) + 0.25),
        abs(phi(1, 1) + 1.0 / math.pi),
        abs(phi(2, 1) - (0.25 - 2.0 / math.pi)),
    )
    yield "known-values", err <= 1e-13, f"max err {err:.2e}"

    res = 0.0
    for x in range(-10, 11):
        for y in range(-10, 11):
            want = 1.0 if (x, y) == (0, 0) else 0.0
            got = apply_discrete_laplacian(lambda p: phi(p[0], p[1]), (x, y))
            res = max(res, abs(got - want))
    yield "laplacian-identity", res <= 1e-12, f"max residual {res:.2e}"

    wide = GreensTable.build(72)  # past the radius-64 table phi reads
    far = 0.0
    for m in [(65, 0), (65, 7), (68, 41), (72, 72)]:
        far = max(far, abs(wide.lookup(*m) - phi_asymptotic(*m)))
    yield "asymptotic-match", far <= 1e-15, f"max gap {far:.2e}"

    chain = shared_chain(eps, _MAX_LEAF_SIDE)  # the operators fmm_apply uses
    chain.ensure(32)
    rank = chain.ops[32].skeleton.rank
    if eps <= 1e-9:
        lo, hi = 30, 55
    elif eps <= 1e-7:
        lo, hi = 20, 45
    elif eps <= 1e-5:
        lo, hi = 15, 30
    else:
        lo, hi = 5, 30
    yield "rank-band", lo <= rank <= hi, f"rank {rank} in [{lo}, {hi}]"

    rng = np.random.default_rng(DEFAULT_SEED)
    pts = np.unique(rng.integers(0, 1024, size=(360, 2)), axis=0)[:300]
    q = rng.standard_normal(pts.shape[0])
    u = fmm_apply(pts, q, eps=eps)
    ref = direct_sum(pts, q)
    rel = np.linalg.norm(u - ref) / np.linalg.norm(ref)
    tol = max(10.0 * eps, 1e-12)
    yield "fmm-vs-direct", rel <= tol, f"rel l2 {rel:.2e} <= {tol:.0e}"

    queries = [(3, 4), (-2, 7)]
    u_empty = solve_defect(DefectSpec([]), (1.0, 0.5), queries=queries)
    drift = max(abs(u_empty[p] - (p[0] + 0.5 * p[1])) for p in queries)
    yield "defect-empty", drift == 0.0, f"drift {drift:.1e}"

    spec = DefectSpec([((0, 0), (1, 0), -1.0)])
    grid = [(x, y) for x in range(-7, 8) for y in range(-7, 8)]
    u_map = solve_defect(spec, (1.0, 0.0), queries=grid)
    bu = apply_B(spec, u_map)
    res = 0.0
    for x in range(-6, 7):
        for y in range(-6, 7):
            val = apply_discrete_laplacian(lambda p: u_map[p], (x, y))
            res = max(res, abs(val + bu.get((x, y), 0.0)))
    yield "defect-residual", res <= 1e-8, f"max residual {res:.2e}"

    w_nodes = [(0, 0), (2, 1), (-3, 4), (5, -2), (1, 1), (-4, -4), (6, 3), (0, -5)]
    w = {p: float(v) for p, v in zip(w_nodes, rng.standard_normal(len(w_nodes)))}
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
        np.array(w_nodes, dtype=np.int64),
        eps=eps,
    )
    gap = max(abs(bv - w[p]) for p, bv in zip(w_nodes, back))
    yield "inverse-identity", gap <= max(1e-9, 10.0 * eps), f"max gap {gap:.2e}"


def _cmd_selftest(args) -> int:
    check_eps(args.eps)
    t0 = time.perf_counter()
    failures = 0
    for name, ok, detail in _selftest_checks(args.eps):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    n = "all checks passed" if not failures else f"{failures} check(s) FAILED"
    print(f"selftest: {n} (eps={args.eps:g}, {time.perf_counter() - t0:.1f}s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def _add_io_flags(p, targets=True):
    p.add_argument("input", nargs="?", default=None,
                   help="CSV of m1,m2,q rows (default: stdin)")
    if targets:
        p.add_argument("--targets", default=None,
                       help="CSV of m1,m2 evaluation nodes (default: the sources)")
    p.add_argument("--header", action="store_true",
                   help="write a header row on the CSV output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfmm",
        description="Free-space solver for the lattice Poisson equation on Z^2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="print the lattice Green function at one node")
    p.add_argument("m1", type=int)
    p.add_argument("m2", type=int)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("solve", help="fast summation of phi against CSV charges")
    _add_io_flags(p)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--nleaf", type=int, default=DEFAULT_NLEAF, help=_NLEAF_HELP)
    p.add_argument("--stats", action="store_true",
                   help="write the run's counters and timings as one JSON line to stderr")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("direct", help="reference O(N^2) summation")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_direct)

    p = sub.add_parser("defect", help="solve on a lattice with modified bars")
    p.add_argument("--bars", required=True,
                   help="CSV of a1,a2,b1,b2,dc conductance changes")
    p.add_argument("--farfield", required=True, metavar="C1,C2",
                   help="linear background field coefficients")
    p.add_argument("--queries", default=None,
                   help="CSV of m1,m2 nodes to report (default: the defect nodes)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="relative residual of the bar solve, in (0, 1)")
    p.add_argument("--header", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="write the solve's iterations, rcond, kernel routes and timings "
                        "as one JSON line to stderr")
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("bench", help="timing/memory rows for one load distribution")
    p.add_argument("--distribution", required=True,
                   choices=["dense", "random", "circle"])
    p.add_argument("--n", required=True,
                   help="domain side (power of two); comma-separated list allowed")
    p.add_argument("--alpha", type=float, default=0.25,
                   help="fill fraction for the circle distribution")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--nleaf", type=int, default=DEFAULT_NLEAF, help=_NLEAF_HELP)
    p.add_argument("--header", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per size (n, N_source, the "
                        "first call's cold_wall_time and cold_t_chain, the "
                        "warm call's full stats, the tracemalloc peak of one "
                        "more warm call and the process's peak RSS, in MB) in "
                        "place of the CSV rows")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selftest", help="desk-scale end-to-end checks")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        raise SystemExit(f"error: {e}")


if __name__ == "__main__":
    sys.exit(main())
