"""Write the fmm_apply BENCH records: the three loads of ``lfmm bench``, cold and warm.

Run from the repository root (pytest does not collect this file):

    python tests/bench_fmm.py --label change
    python tests/bench_fmm.py --label parent --src /path/to/other/checkout/src

Each case runs in a fresh process against the ``latticefmm`` under --src
(default: this checkout's ``src``), so ``ru_maxrss`` is the case's own peak.
The process calls ``fmm_apply`` once cold (the first call after import,
which builds the phi table and the operator chain) and then WARM times
more, at eps 1e-10 and nleaf 64; a record holds the cold and the median
warm wall time, the cold call's ``t_chain``, every ``stats`` entry of the
last warm call (the per-pass timers and the per-level counters), the peak
RSS, and the traced peak of one more call under tracemalloc
(``traced_peak_mb``, MiB: the arrays the call allocates, which RSS, moved
by the heap's layout, does not show alone).  A second fresh process makes
one call on two points, which builds phi's exact table and makes numpy's
first-use allocations, then traces the case's cold call:
``cold_traced_peak_mb`` is that call's traced peak and ``retained_mb``
the traced memory held after it, its output dropped, less that held
before it (both MiB): the operator chain and its tables of unit
expansions and phi's octant, which live as long as the process.
``shared_mb`` is the size of that state after the call, 8 bytes per
entry the chains hold plus the octant (``fmm.shared_bytes``), so that
``retained_mb`` less ``shared_mb`` is memory held by nothing shared.  A
change that moves memory out of the call into such state lowers the warm
peak and raises ``retained_mb``.  Records are merged into BENCH_fmm.json
under cases.<name>.<label>.

Cases, with the points and charges of ``lfmm bench`` at its default seed:
a dense 512 x 512 grid; 2**18 distinct points drawn uniformly on a 2**18 x
2**18 domain; 2**18 points rounded onto the circle inscribed in a 2**20
x 2**20 domain (``--distribution circle --n 1048576 --alpha 0.25``); and
the ``clustered`` and ``scatter`` loads of ``tests/ab_fmm.py`` at that
seed, whose leaves lie on many levels.  The
records of the older ``random-2^18`` case hold the lexicographically first
2**18 of the distinct draws, all with x < 0.51 * 2**18: a half-domain load
at twice the density, not comparable with ``random-uniform-2^18``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = {  # name: (distribution, n, alpha), or the load of tests/ab_fmm.py
    "dense-512": ("dense", 512, 0.25),
    "random-uniform-2^18": ("random", 1 << 18, 0.25),
    "circle-2^20": ("circle", 1 << 20, 0.25),
    "clustered-2^16": "clustered",
    "scatter-64^2+2^14": "scatter",
}
EPS = 1e-10
NLEAF = 64
WARM = 3  # warm calls per case
OUT = ROOT / "BENCH_fmm.json"


def case_inputs(name: str):
    """The points and charges of a case, and ``fmm_apply``."""
    import numpy as np

    from latticefmm.cli import _bench_points
    from latticefmm.config import DEFAULT_SEED
    from latticefmm.fmm import fmm_apply

    if isinstance(CASES[name], str):
        from ab_fmm import make_inputs

        inp = make_inputs(CASES[name], DEFAULT_SEED)
        return inp["points"], inp["charges"], fmm_apply
    distribution, n, alpha = CASES[name]
    rng = np.random.default_rng(DEFAULT_SEED)
    pts = _bench_points(distribution, n, alpha, rng)
    return pts, rng.standard_normal(pts.shape[0]), fmm_apply


def shared_bytes() -> int:
    """Bytes of the state calls share: ``fmm.shared_bytes`` where the
    package has it, else the same sum from its operator chains and phi's
    table."""
    from latticefmm import fmm, green, skeleton

    if hasattr(fmm, "shared_bytes"):
        return fmm.shared_bytes()
    chains = {id(c.ops): c.stored_entries() for c in skeleton._chain_memo.values()}
    return 8 * sum(chains.values()) + (0 if green._table is None else green._table.octant.nbytes)


def run_cold(name: str) -> dict:
    """The traced cold call of one case in this process (call it in a fresh
    one), after an untraced call on two points: its traced peak and the
    memory it leaves held, in MiB, and the size of the shared state."""
    import gc
    import tracemalloc

    import numpy as np

    pts, q, fmm_apply = case_inputs(name)
    fmm_apply(np.array([[0, 0], [1, 0]]), np.ones(2), eps=EPS, nleaf=NLEAF)
    gc.collect()
    tracemalloc.start()
    held = tracemalloc.get_traced_memory()[0]
    u = fmm_apply(pts, q, eps=EPS, nleaf=NLEAF)
    del u
    gc.collect()
    now, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "cold_traced_peak_mb": (peak - held) / 2**20,
        "retained_mb": (now - held) / 2**20,
        "shared_mb": shared_bytes() / 2**20,
    }


def run_case(name: str) -> dict:
    """One case in this process (call it in a fresh one)."""
    import resource
    import statistics
    import tracemalloc

    pts, q, fmm_apply = case_inputs(name)
    wall_s = []
    for _ in range(WARM + 1):
        stats: dict = {}
        t0 = time.perf_counter()
        fmm_apply(pts, q, eps=EPS, nleaf=NLEAF, stats=stats)
        wall_s.append(time.perf_counter() - t0)
        if len(wall_s) == 1:
            cold_t_chain = stats["t_chain"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    fmm_apply(pts, q, eps=EPS, nleaf=NLEAF)
    traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {
        "N_source": int(pts.shape[0]),
        "cold_wall_s": wall_s[0],
        "cold_t_chain": cold_t_chain,
        "warm_wall_s": statistics.median(wall_s[1:]),
        "warm_runs": WARM,
        "stats": stats,
        "ru_maxrss_mb": rss_mb,
        "traced_peak_mb": traced_peak_mb,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="record key, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding latticefmm")
    parser.add_argument("--one", help=argparse.SUPPRESS)  # run one case, print JSON
    parser.add_argument("--cold", help=argparse.SUPPRESS)  # trace one case's cold call, print JSON
    args = parser.parse_args()
    if args.one or args.cold:
        sys.path.insert(0, args.src)
        print(json.dumps(run_case(args.one) if args.one else run_cold(args.cold)))
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
        record = {}
        for mode in ("--one", "--cold"):
            cmd = [sys.executable, __file__, "--label", args.label, "--src", args.src, mode, name]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        cases.setdefault(name, {})[args.label] = record
        st = record["stats"]
        print(f"{name} {args.label}: cold {record['cold_wall_s']:.3f} s, "
              f"warm {record['warm_wall_s']:.3f} s (ifo {st['t_ifo']:.3f}, "
              f"down {st['t_downward']:.3f}, near {st['t_near']:.3f}), "
              f"{record['ru_maxrss_mb']:.0f} MB RSS, traced {record['traced_peak_mb']:.1f} MiB "
              f"(cold {record['cold_traced_peak_mb']:.1f} MiB, retained {record['retained_mb']:.2f} MiB, "
              f"shared {record['shared_mb']:.2f} MiB)",
              flush=True)
    OUT.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
