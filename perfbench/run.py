"""latticefmm benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

  python3 perfbench/run.py --workload dense --seed 1 --seconds 8 --trace 0

Workloads are ``dense``, ``random`` and ``crack`` (see workloads.py).  The
load is a closed loop: one caller in one process runs one operation at a
time.  Every operation is checked: sampled potentials against the exactly
rounded direct sum (<= 10 eps), or the crack's PDE residual (<= 10 tol),
and a byte-identical output digest across every repeat in the run.  A miss
counts as a failed operation; nothing is skipped or retried.

``--trace 0`` starts, one after another, each with its own cache directory
under ``.perfbench/`` and BLAS pinned to at most nproc threads:

  1 cold process (empty cache): first operation        -> setup_s
  8 restart processes (table cached): first operation,
    then warm operations for an eighth of --seconds    -> restart_s, solve_s
  the last restart process also computes the reference and runs one more
  operation under tracemalloc                          -> acc_digits, peak_mb

solve_s is the mean warm operation time.  setup_s and restart_s are the
wall time from before ``import latticefmm`` to the end of the first
operation, less solve_s (restart_s: the mean over its processes).

``--trace 1`` runs a cold process with spans around the public functions
of every layer, then a restart process for the table load, and prints the
per-layer metrics; its spans go to
``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is the JSON result; the line before it is
a record with sample counts, raw errors, percentiles and provenance.  The
exit code is 1 when any operation fails its check.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # every run ends within 180 s

# Process plan per run: cold (empty cache) or restart (table cached).
PLANS = {
    "full": ["cold"] + ["restart"] * 8,
    "tiny": ["cold", "restart"],
}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


class Runner:
    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.t_start = time.monotonic()
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.n_cache = 0

    def new_cache(self, copy_from: Path | None = None) -> Path:
        self.n_cache += 1
        path = self.work / f"cache-{self.n_cache}"
        if copy_from is not None:
            shutil.copytree(copy_from, path)
        else:
            path.mkdir(parents=True)
        return path

    def child(self, role: str, cache: Path, **extra) -> dict | None:
        """Run one worker process to completion; None if it failed."""
        cfg = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "size": self.args.size,
            "seconds": self.args.seconds,
            "role": role,
            **extra,
        }
        env = {k: v for k, v in os.environ.items() if not k.startswith("LFMM_")}
        env.update(
            PYTHONPATH=str(self.root / "src"),
            PYTHONDONTWRITEBYTECODE="1",
            LFMM_CACHE_DIR=str(cache),
            OPENBLAS_NUM_THREADS=str(self.threads),
            OMP_NUM_THREADS=str(self.threads),
            MKL_NUM_THREADS=str(self.threads),
        )
        remaining = DEADLINE_S - (time.monotonic() - self.t_start)
        if remaining <= 0:
            print(f"perfbench: out of time before {role}", file=sys.stderr)
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: {role} process timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {role} process exited {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])


def gate_ops(workload: str, children: list[dict], ref) -> tuple[int, int, list[float]]:
    """Check every operation; returns (attempted, failed, errors of passing ops)."""
    ops = [op for c in children for op in c["ops"]]
    digests = collections.Counter(op["digest"] for op in ops if "digest" in op)
    canonical = digests.most_common(1)[0][0] if digests else None
    failed = 0
    errors = []
    for op in ops:
        if "error" in op:
            print(f"perfbench: {op['kind']} operation failed: {op['error']}", file=sys.stderr)
            failed += 1
            continue
        err = workloads.op_error(workload, op, ref)
        ok = op["digest"] == canonical and err <= workloads.gate(workload)
        if not ok:
            print(
                f"perfbench: {op['kind']} operation failed its check "
                f"(error {err:.3e}, digest {'ok' if op['digest'] == canonical else 'differs'})",
                file=sys.stderr,
            )
            failed += 1
        else:
            errors.append(err)
    return len(ops), failed, errors


def failed_result(attempted: int, failed: int) -> dict:
    return {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1), "metrics": {}}


def percentile_above(times: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return {}
    p = math.floor(100 * (n - 10) / n)
    return {f"p{p}": statistics.quantiles(times, n=100, method="inclusive")[p - 1]}


def timed_run(r: Runner) -> tuple[dict, dict]:
    plan = PLANS[r.args.size]
    n_warm = plan.count("restart")
    children = []
    cold_cache = None
    for i, state in enumerate(plan):
        if state == "cold":
            cache = r.new_cache()
            res = r.child("setup", cache)
            cold_cache = cold_cache or cache
        else:
            last = i == len(plan) - 1
            res = r.child(
                "warm", r.new_cache(cold_cache), seconds=r.args.seconds / n_warm,
                last=last, corrupt=r.args.corrupt and last,
            )
        if res is None:
            break
        res["state"] = state
        children.append(res)
    last = children[-1] if len(children) == len(plan) else None
    ref = last["reference"] if last else None
    attempted, failed, errors = gate_ops(r.args.workload, children, ref)
    missing = len(plan) - len(children)
    attempted += missing
    failed += missing
    record = {"workload": r.args.workload, "seed": r.args.seed, "processes": len(children)}
    warm_t = [op["t"] for c in children for op in c["ops"] if op["kind"] == "warm" and "t" in op]
    if last is None or not errors or not warm_t:
        return failed_result(attempted, failed), record

    # Means, not medians: on a shared machine whose speed switches between
    # two modes every few seconds, with the modes near 50/50, a median jumps
    # between them from run to run; the mean moves smoothly.
    solve = statistics.fmean(warm_t)
    cold = [c["setup_total_s"] - solve for c in children if c["state"] == "cold"]
    restart = [c["setup_total_s"] - solve for c in children if c["state"] == "restart"]
    peak = next(op["peak_bytes"] for op in last["ops"] if op["kind"] == "peak")
    worst = max(errors)
    metrics = {
        "solve_s": {"value": solve, "unit": "s"},
        "setup_s": {"value": statistics.median(cold), "unit": "s"},
        "restart_s": {"value": statistics.fmean(restart), "unit": "s"},
        "acc_digits": {"value": workloads.digits(worst), "unit": "digits"},
        "peak_mb": {"value": peak / 1e6, "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "1"},
    }
    record.update(
        solve_samples=len(warm_t),
        solve_percentiles={"p50": statistics.median(warm_t), **percentile_above(warm_t)},
        solve_times=warm_t,
        setup_samples=cold,
        restart_samples=restart,
        import_s=[c["import_s"] for c in children],
        max_error=worst,
        gate=workloads.gate(r.args.workload),
        provenance=last["provenance"],
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, record


def traced_run(r: Runner) -> tuple[dict, dict]:
    out_dir = r.root / ".perfbench"
    trace_out = out_dir / f"trace-{r.args.workload}-seed{r.args.seed}.json"
    cache = r.new_cache()
    children = []
    cold = r.child("trace", cache, trace_out=str(trace_out), hide=r.args.hide)
    if cold is not None:
        children.append(cold)
        rest = r.child("trace_restart", r.new_cache(cache), hide=r.args.hide)
        if rest is not None:
            children.append(rest)
    ref = cold["reference"] if cold else None
    attempted, failed, errors = gate_ops(r.args.workload, children, ref)
    missing = 2 - len(children)
    attempted += missing
    failed += missing
    record = {"workload": r.args.workload, "seed": r.args.seed, "processes": len(children)}
    if len(children) < 2:
        return failed_result(attempted, failed), record
    metrics = {**cold["layers"], **rest["layers"]}
    absent = {**cold["absent"], **rest["absent"]}
    for name, why in sorted(absent.items()):
        print(f"perfbench: metric {name} absent ({why})", file=sys.stderr)
    record.update(
        absent=absent,
        missing_names=cold["missing_names"],
        self_sum_gap_s=cold["self_sum_gap_s"],
        trace_file=str(trace_out.relative_to(r.root)),
        provenance=cold["provenance"],
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, record


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="tiny: small inputs, one cold and one restart process (smoke test)")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one warm result; the run must then fail (smoke test)")
    p.add_argument("--hide", action="append", default=[],
                   help="delete module.name before tracing (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "latticefmm" / "__init__.py").is_file():
        print("perfbench: run from the root of a latticefmm checkout (no src/latticefmm here)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        r = Runner(args, root, work)
        result, record = (traced_run if args.trace else timed_run)(r)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["commit"] = git_commit(root)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
