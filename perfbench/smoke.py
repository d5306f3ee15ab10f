"""Smoke test of the benchmark on tiny inputs (about two minutes).

Run from the repository root:

    python3 perfbench/smoke.py

It checks that
* every workload, untraced and traced, passes its correctness gates and
  prints exactly the metrics BENCHMARK.json lists, with their units;
* a deliberately corrupted result counts as a failed operation and the
  run exits nonzero;
* when a wrapped public name has disappeared, the traced run reports the
  metrics that need it as absent instead of crashing;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    cmd = [*SPEC["command"], "--seed", "3", "--seconds", "1", *extra]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and not {"correct", "attempted", "failed", "metrics"} <= set(result):
        result = None
    return proc.returncode, result, proc.stderr


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""), flush=True)
    if not ok:
        FAILURES.append(name)


def expect_metrics(name: str, result: dict, listed: list[dict], absent=()) -> None:
    want = {m["name"]: m["unit"] for m in listed if m["name"] not in absent}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    numeric = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    check(name, got == want and numeric,
          f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
          if got != want else "")


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            rc, res, err = run("--workload", w, "--trace", trace, "--size", "tiny")
            ok = rc == 0 and res is not None and res["correct"] and res["failed"] == 0
            check(f"{w} trace={trace} correct", ok, "" if ok else err[-400:])
            if res is not None:
                expect_metrics(f"{w} trace={trace} metric names and units", res, listed)

    rc, res, _ = run("--workload", "dense", "--size", "tiny", "--corrupt")
    check("corrupted result counted as failed",
          rc != 0 and res is not None and not res["correct"] and res["failed"] >= 1,
          f"exit {rc}, result {res and {k: res[k] for k in ('correct', 'attempted', 'failed')}}")
    rc, res, _ = run("--workload", "crack", "--size", "tiny", "--corrupt")
    check("corrupted crack result counted as failed",
          rc != 0 and res is not None and not res["correct"] and res["failed"] >= 1)

    gone = ("defect.apply_B_calls", "defect.apply_B_s")
    rc, res, err = run("--workload", "dense", "--size", "tiny", "--trace", "1",
                       "--hide", "latticefmm.defect.apply_B")
    ok = rc == 0 and res is not None and res["correct"]
    check("missing public name: run still correct", ok, "" if ok else err[-400:])
    if res is not None:
        expect_metrics("missing public name: its metrics absent, the rest present",
                       res, SPEC["per_layer"], absent=gone)

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        rc, res, _ = run("--workload", "dense", "--trace", "0", cwd=bare)
        check("no source tree: nonzero exit, no result", rc != 0 and res is None, f"exit {rc}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"smoke: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
