"""A/B timing of fmm_apply: this checkout's latticefmm against another, in one process.

Run from the repository root (pytest does not collect this file):

    python tests/ab_fmm.py --src /path/to/other/checkout/src
    python tests/ab_fmm.py --src ../parent/src --workloads random --seeds 1 2 3 --pairs 57

The package under --src is loaded as ``latticefmm_a`` and this checkout's
as ``latticefmm_b``, side by side in one process, each with its own phi
table and operator chain.  For each workload and seed the inputs come from
the benchmark's ``perfbench/workloads.make_inputs``, except ``ragged``:
2**16 distinct points drawn uniformly on a 2**10 x 2**10 domain, about
four per leaf, whose near field runs point pair by point pair, which
neither benchmark workload reaches.  Each side makes one
warm-up call, then the sides alternate warm ``fmm_apply`` calls, pair by
pair, A first in even pairs and B first in odd ones.  Both sides then see
the same host state, so the host's speed swings, which move separate
benchmark runs of one commit by tens of percent, fall on both alike.

Per case it prints the median call of each side in ms, the ratio B / A of
the medians, in how many pairs B was faster, and whether the sha256 of the
two outputs match.  With --peak it also prints each side's traced peak: one
more warm call under tracemalloc, in MB (10^6 bytes, as the benchmark's
``peak_mb``).  Set OPENBLAS_NUM_THREADS as the benchmark does (it pins BLAS
to at most two threads).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EPS = 1e-10
NLEAF = 64


def load_package(name: str, src: Path):
    """The ``latticefmm`` package under ``src``, imported as ``name``."""
    pkg = src / "latticefmm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".fmm")


def make_inputs(workload: str, seed: int) -> dict:
    """Points and charges of a workload: the benchmark's, or ``ragged``."""
    if workload != "ragged":
        import workloads

        return workloads.make_inputs(workload, seed)
    n, side = 1 << 16, 1 << 10
    rng = np.random.default_rng(seed)
    flat = rng.choice(side * side, size=n, replace=False)
    return {"points": np.column_stack([flat // side, flat % side]), "charges": rng.standard_normal(n)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the other latticefmm (side A)")
    parser.add_argument(
        "--workloads", nargs="+", default=["dense", "random", "ragged"], choices=["dense", "random", "ragged"]
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=21, help="alternating pairs of warm calls per case")
    parser.add_argument("--peak", action="store_true", help="print each side's traced peak too")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    sides = {"A": load_package("latticefmm_a", Path(args.src)), "B": load_package("latticefmm_b", ROOT / "src")}
    for workload in args.workloads:
        for seed in args.seeds:
            inp = make_inputs(workload, seed)

            def call(fmm):
                t0 = time.perf_counter()
                out = fmm.fmm_apply(inp["points"], inp["charges"], eps=EPS, nleaf=NLEAF)
                return time.perf_counter() - t0, out

            digest = {k: hashlib.sha256(call(fmm)[1].tobytes()).hexdigest() for k, fmm in sides.items()}
            times = {"A": [], "B": []}
            for i in range(args.pairs):
                for k in ("AB" if i % 2 == 0 else "BA"):
                    times[k].append(call(sides[k])[0])
            med = {k: statistics.median(v) for k, v in times.items()}
            wins = sum(b < a for a, b in zip(times["A"], times["B"]))
            peak = ""
            if args.peak:
                mb = {}
                for k, fmm in sides.items():
                    tracemalloc.start()
                    call(fmm)
                    mb[k] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                peak = f", traced peak A {mb['A']:.3f} MB, B {mb['B']:.3f} MB"
            print(
                f"{workload} seed {seed}: A {med['A'] * 1e3:.1f} ms, B {med['B'] * 1e3:.1f} ms, "
                f"B/A {med['B'] / med['A']:.3f}, B faster in {wins} of {args.pairs}, "
                f"sha256 {'equal' if digest['A'] == digest['B'] else 'DIFFER'}{peak}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
