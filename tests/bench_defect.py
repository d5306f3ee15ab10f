"""Write the defect-solve BENCH records: cracks, an inclusion and scattered bars, cold and warm.

Run from the repository root (pytest does not collect this file):

    python tests/bench_defect.py --label change
    python tests/bench_defect.py --label parent --src /path/to/other/checkout/src

Each case runs in a fresh process against the ``latticefmm`` under --src
(default: this checkout's ``src``), so ``ru_maxrss`` is the case's own peak.
The process times ``DefectSpec`` and ``solve_defect`` once cold (the first
call after import, which builds the phi table) and then WARM times
more; a record holds the cold and the median warm wall time, the median
warm ``DefectSpec`` time, the last warm call's ``stats`` (without the
residual history), max |(A+B)u| over the defect nodes, and the peak RSS.
Records are merged into BENCH_defect.json under cases.<name>.<label>.

Cases: straight cracks of m = 200, 800, 2048 and 5000 removed bars (i, 0)-(i, 1)
with far field (0, 1) and the 4 (m + 2) queries on the crack rows and one
row either side; and the 32 x 32 inclusion, every bar among a 32 x 32 block
of nodes changed by delta = -0.5 (1984 bars), queried on the block and its
ring; and 400 removed unit bars at seeded random positions on an
8192 x 8192 domain, far field (1, 0.5), queried at their endpoints and
the endpoints' neighbours, the one case whose S products go through
``fmm_apply``.  All at tol 1e-8.  The 200-bar crack is the largest whose
system ``solve_defect`` inverts to precondition GMRES; the others take
GMRES without a preconditioner.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("crack-200", "crack-800", "crack-2048", "crack-5000", "inclusion-32x32", "scattered-400")
STEPS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
TOL = 1e-8
WARM = 3  # warm calls per case
OUT = ROOT / "BENCH_defect.json"


def case_input(name: str):
    """(bars, far, queries) of a case."""
    if name.startswith("crack-"):
        m = int(name.split("-")[1])
        bars = [((i, 0), (i, 1), -1.0) for i in range(m)]
        queries = [(x, y) for x in range(-1, m + 1) for y in range(-1, 3)]
        return bars, (0.0, 1.0), queries
    if name.startswith("scattered-"):
        m, side = int(name.split("-")[1]), 8192
        rng = random.Random(m)
        removed: set = set()
        while len(removed) < m:
            x, y = rng.randrange(side), rng.randrange(side)
            removed.add(((x, y), (x + 1, y)) if rng.random() < 0.5 else ((x, y), (x, y + 1)))
        ends = {p for bar in removed for p in bar}
        queries = sorted({(x + dx, y + dy) for x, y in ends for dx, dy in STEPS})
        return [(a, b, -1.0) for a, b in sorted(removed)], (1.0, 0.5), queries
    k = 32
    bars = [((x, y), (x + 1, y), -0.5) for x in range(k - 1) for y in range(k)]
    bars += [((x, y), (x, y + 1), -0.5) for x in range(k) for y in range(k - 1)]
    queries = [(x, y) for x in range(-1, k + 1) for y in range(-1, k + 1)]
    return bars, (1.0, 0.5), queries


def residual(bars, u) -> float:
    """max |(A + B) u| over the bar endpoints; u must cover their neighbours."""
    bu: dict = {}
    for a, b, dc in bars:
        d = dc * (u[a] - u[b])
        bu[a] = bu.get(a, 0.0) + d
        bu[b] = bu.get(b, 0.0) - d
    worst = 0.0
    for (x, y), b_val in bu.items():
        au = 4.0 * u[(x, y)] - u[(x + 1, y)] - u[(x - 1, y)] - u[(x, y + 1)] - u[(x, y - 1)]
        worst = max(worst, abs(au + b_val))
    return worst


def run_case(name: str) -> dict:
    """One case in this process (call it in a fresh one)."""
    import resource
    import statistics

    from latticefmm.defect import DefectSpec, solve_defect

    bars, far, queries = case_input(name)
    spec_s, wall_s = [], []
    for _ in range(WARM + 1):
        t0 = time.perf_counter()
        spec = DefectSpec(bars)
        t1 = time.perf_counter()
        stats: dict = {}
        u = solve_defect(spec, far, tol=TOL, queries=queries, stats=stats)
        t2 = time.perf_counter()
        spec_s.append(t1 - t0)
        wall_s.append(t2 - t0)
    stats.pop("residual_history", None)
    return {
        "bars": len(bars),
        "queries": len(queries),
        "cold_wall_s": wall_s[0],
        "cold_spec_s": spec_s[0],
        "warm_wall_s": statistics.median(wall_s[1:]),
        "warm_spec_s": statistics.median(spec_s[1:]),
        "warm_runs": WARM,
        "stats": stats,
        "residual": residual(bars, u),
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="record key, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding latticefmm")
    parser.add_argument("--one", help=argparse.SUPPRESS)  # run one case, print JSON
    args = parser.parse_args()
    if args.one:
        sys.path.insert(0, args.src)
        print(json.dumps(run_case(args.one)))
        return 0
    bench = json.loads(OUT.read_text()) if OUT.exists() else {}
    bench["about"] = __doc__.split("\n\n")[0]
    bench["host"] = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    cases = bench.setdefault("cases", {})
    for name in CASES:
        cmd = [sys.executable, __file__, "--label", args.label, "--src", args.src,
               "--one", name]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        cases.setdefault(name, {})[args.label] = record
        print(f"{name} {args.label}: cold {record['cold_wall_s']:.3f} s, "
              f"warm {record['warm_wall_s']:.3f} s (spec {record['warm_spec_s']:.4f} s), "
              f"residual {record['residual']:.1e}, {record['ru_maxrss_mb']:.0f} MB", flush=True)
    OUT.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
