"""A/B timing of fmm_apply and solve_defect: this checkout's latticefmm against another, in one process.

Run from the repository root (pytest does not collect this file):

    python tests/ab_fmm.py --src /path/to/other/checkout/src
    python tests/ab_fmm.py --src ../parent/src --workloads random --seeds 1 2 3 --pairs 57
    python tests/ab_fmm.py --src ../parent/src --workloads crack --seeds 1 2 3 --pairs 400

The package under --src is loaded as ``latticefmm_a`` and this checkout's
as ``latticefmm_b``, side by side in one process, each with its own phi
table and operator chain.  For each workload and seed the inputs come from
the benchmark's ``perfbench/workloads.make_inputs``, except two loads of
this script's own:

* ``ragged``: 2**16 distinct points drawn uniformly on a 2**10 x 2**10
  domain, about four per side-8 leaf, where the near field's leaf pairs
  mix stencil blocks and point pairs;
* ``circle``: 2**16 points rounded onto the circle of radius 2**17 - 1
  (as ``lfmm bench --distribution circle --n 262144 --alpha 0.25``), the
  load whose leaves stop earliest, far above side 8, so that its near
  field is all point pairs; the seed draws only the charges;
* ``clustered``: 2**16 draws from 20 Gaussian clusters (sigma 50) whose
  centres are uniform on 2**20 x 2**20, offsets rounded, clipped to the
  domain, duplicates dropped: a deep tree whose leaves lie on many levels;
* ``scatter``: a full 64 x 64 block and 2**14 points uniform on 2**24 x
  2**24, duplicates dropped: the scattered points are leaves high up,
  and only the block goes down to side-8 leaves, 18 levels further.

The call is the benchmark's
``workloads.run_op``: ``fmm_apply``, or for ``crack`` ``DefectSpec`` and
``solve_defect``.  Each side makes one warm-up call, then the sides
alternate warm calls, pair by pair, A first in even pairs and B first in
odd ones.  Both sides then see the same host state, so the host's speed
swings, which move separate benchmark runs of one commit by tens of
percent, fall on both alike.

Per case it prints the median call of each side in ms, the ratio B / A of
the medians, in how many pairs B was faster, and whether the sha256 of the
two outputs (``workloads.output_vector``) match.  Memory is in MB (10^6
bytes, as the benchmark's ``peak_mb``):

* --peak traces each side's first call of the case and one more warm
  call.  Before the first case each side makes untraced calls on two
  points (``fmm_apply`` and ``solve_defect``), which build the phi table
  and make the one-time imports; later cases also reuse the operator
  chain.  It prints the warm traced peak, the first call's, and
  ``retained``: the traced memory held after the first call, its output
  dropped, less that held before it, which shows memory moved into
  process-lifetime state (the operator chain and its tables, phi's
  octant), and beside it ``shared``: the size of that state after the
  call, in the whole run so far (``fmm.shared_bytes``, 8 bytes per entry
  the chains hold plus the octant).  A case's ``retained`` counts only
  the shared arrays no earlier case of the run built, so per-case figures
  need each case in its own run; ``shared`` tells the two apart.
* --holders traces one more warm call per side with every ``FmmRun``
  method wrapped, and prints the call's three highest peak sites: a site
  is the innermost method running (with its level, if it takes one), and
  its peak the highest traced memory reached while it ran innermost.  Each
  line gives the methods then running, outermost first, and the memory
  held on entry to the innermost.  Several sites can lie close together,
  so that lowering one only exposes the next.  A generator method counts
  only while it runs a step, not while its caller holds a step's output.
  ``crack`` does not reach ``FmmRun`` and is skipped.

Set OPENBLAS_NUM_THREADS as the benchmark does (it pins BLAS to at most two
threads).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import inspect
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_package(name: str, src: Path) -> dict:
    """The ``fmm`` and ``defect`` modules of the ``latticefmm`` package under
    ``src``, imported as ``name``, keyed as ``workloads.run_op`` wants."""
    pkg = src / "latticefmm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("fmm", "defect")}


def shared_bytes(lf: dict) -> int:
    """Bytes of the state one side's calls share: its ``fmm.shared_bytes``
    where it has one, else the same sum from its operator chains and phi's
    table."""
    fmm = lf["fmm"]
    if hasattr(fmm, "shared_bytes"):
        return fmm.shared_bytes()
    package = fmm.__name__.rsplit(".", 1)[0]
    chains = sys.modules[f"{package}.skeleton"]._chain_memo.values()
    table = sys.modules[f"{package}.green"]._table
    return 8 * sum({id(c.ops): c.stored_entries() for c in chains}.values()) + (0 if table is None else table.octant.nbytes)


def make_inputs(workload: str, seed: int) -> dict:
    """Points and charges of a workload: the benchmark's, or one of this
    script's own (module docstring)."""
    rng = np.random.default_rng(seed)
    if workload == "ragged":
        n, side = 1 << 16, 1 << 10
        flat = rng.choice(side * side, size=n, replace=False)
        points = np.column_stack([flat // side, flat % side])
    elif workload == "clustered":
        side = 1 << 20
        centres = rng.integers(0, side, size=(20, 2))
        draws = centres[rng.integers(0, 20, size=1 << 16)] + np.round(rng.normal(0.0, 50.0, size=(1 << 16, 2)))
        points = np.unique(np.clip(draws, 0, side - 1).astype(np.int64), axis=0)
    elif workload == "scatter":
        block = np.column_stack([np.repeat(np.arange(64), 64), np.tile(np.arange(64), 64)]) + (1 << 23)
        points = np.unique(np.vstack([block, rng.integers(0, 1 << 24, size=(1 << 14, 2))]), axis=0)
    elif workload == "circle":
        theta = 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)
        c, r = 2.0**17, 2.0**17 - 1.0
        points = np.column_stack([np.round(c + r * np.cos(theta)), np.round(c + r * np.sin(theta))])
        points = np.unique(points.astype(np.int64), axis=0)
    else:
        import workloads

        return workloads.make_inputs(workload, seed)
    return {"points": points, "charges": rng.standard_normal(len(points))}


class Holders:
    """The peak sites of a call to ``FmmRun`` methods.  Use it as a context
    manager around the call, with tracemalloc running.

    Every method of the class is wrapped, and generator methods around each
    step of their generators.  At each entry and exit the traced peak since
    the last reading is read, charged to the method then innermost (with its
    level), and reset: each site keeps the highest peak charged to it, with
    the stack at that peak."""

    def __init__(self, cls):
        self.cls = cls
        self.saved = {}
        self.stack = [("fmm_apply", None, 0)]
        self.sites = {}  # (name, level): (peak, stack at the peak)

    def _check(self):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        site = self.stack[-1][:2]
        if peak > self.sites.get(site, (0,))[0]:
            self.sites[site] = (peak, list(self.stack))

    def _enter(self, name, level):
        self._check()
        self.stack.append((name, level, tracemalloc.get_traced_memory()[0]))

    def _exit(self):
        self._check()
        self.stack.pop()

    def _wrap(self, name, method):
        sig = inspect.signature(method)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            level = bound.get("lvl", bound.get("level"))
            self._enter(name, level)
            try:
                out = method(*args, **kwargs)
            finally:
                self._exit()
            if not inspect.isgenerator(out):
                return out
            return self._steps(name, level, out)

        return wrapper

    def _steps(self, name, level, gen):
        while True:
            self._enter(name, level)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def __enter__(self):
        for name, method in vars(self.cls).items():
            if inspect.isfunction(method):
                self.saved[name] = method
                setattr(self.cls, name, self._wrap(name, method))
        return self

    def __exit__(self, *exc):
        for name, method in self.saved.items():
            setattr(self.cls, name, method)
        self._check()

    def report(self, n: int = 3) -> list[str]:
        """One line for each of the ``n`` highest sites, highest first."""
        lines = []
        for peak, stack in sorted(self.sites.values(), key=lambda site: site[0], reverse=True)[:n]:
            where = " > ".join(name if level is None else f"{name} level {level}" for name, level, _ in stack[1:])
            lines.append(f"peak {peak / 1e6:.3f} MB in {where or 'fmm_apply'}, {stack[-1][2] / 1e6:.3f} MB held on entry")
        return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the other latticefmm (side A)")
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=["dense", "random", "ragged"],
        choices=["dense", "random", "ragged", "circle", "clustered", "scatter", "crack"],
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=21, help="alternating pairs of warm calls per case")
    parser.add_argument("--peak", action="store_true", help="print each side's traced peaks and retained memory")
    parser.add_argument("--holders", action="store_true", help="print where each side's traced peak is reached")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    sides = {"A": load_package("latticefmm_a", Path(args.src)), "B": load_package("latticefmm_b", ROOT / "src")}
    # Untraced calls on two points per side, so that the first case's
    # traced first call charges neither side with one-time imports
    # (numpy.fft on the defect path) or the phi table.
    for lf in sides.values():
        lf["fmm"].fmm_apply(np.array([[0, 0], [1, 0]]), np.ones(2))
        lf["defect"].solve_defect(lf["defect"].DefectSpec([((0, 0), (1, 0), -0.5)]), (1.0, 0.0), queries=[(2, 0)])
    for workload in args.workloads:
        for seed in args.seeds:
            inp = make_inputs(workload, seed)

            def call(lf):
                t0 = time.perf_counter()
                out = workloads.run_op(lf, workload, inp)
                return time.perf_counter() - t0, out

            digest, first = {}, {}
            for k, lf in sides.items():
                if args.peak:
                    # A full collection also empties the interpreter's free
                    # lists, so no side reuses objects the other left there.
                    gc.collect()
                    tracemalloc.start()
                    held = tracemalloc.get_traced_memory()[0]
                out = call(lf)[1]
                digest[k] = hashlib.sha256(workloads.output_vector(workload, inp, out).tobytes()).hexdigest()
                if args.peak:
                    del out
                    now, top = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    first[k] = (top - held) / 1e6, (now - held) / 1e6, shared_bytes(lf) / 1e6
            times = {"A": [], "B": []}
            for i in range(args.pairs):
                for k in ("AB" if i % 2 == 0 else "BA"):
                    times[k].append(call(sides[k])[0])
            med = {k: statistics.median(v) for k, v in times.items()}
            wins = sum(b < a for a, b in zip(times["A"], times["B"]))
            peak = ""
            if args.peak:
                mb = {}
                for k, lf in sides.items():
                    tracemalloc.start()
                    call(lf)
                    mb[k] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                peak = (
                    f", traced peak A {mb['A']:.3f} MB, B {mb['B']:.3f} MB; first call A {first['A'][0]:.3f}, "
                    f"B {first['B'][0]:.3f} MB; retained A {first['A'][1]:.3f}, B {first['B'][1]:.3f} MB; "
                    f"shared A {first['A'][2]:.3f}, B {first['B'][2]:.3f} MB"
                )
            print(
                f"{workload} seed {seed}: A {med['A'] * 1e3:.1f} ms, B {med['B'] * 1e3:.1f} ms, "
                f"B/A {med['B'] / med['A']:.3f}, B faster in {wins} of {args.pairs}, "
                f"sha256 {'equal' if digest['A'] == digest['B'] else 'DIFFER'}{peak}",
                flush=True,
            )
            if args.holders and workload != "crack":
                for k, lf in sides.items():
                    tracemalloc.start()
                    with Holders(lf["fmm"].FmmRun) as holders:
                        call(lf)
                    tracemalloc.stop()
                    for i, line in enumerate(holders.report()):
                        print(f"  {k}: " if i == 0 else "     ", line, sep="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
