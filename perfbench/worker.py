"""One benchmark process: import latticefmm, run operations, print one JSON line.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and
its own ``LFMM_CACHE_DIR``.  The single argument is a JSON object:

  workload, seed, size   which inputs (see workloads.py)
  role                   "setup"   -- first operation only
                         "warm"    -- first operation, then warm operations
                                      for ``seconds``
                         "trace"   -- spans on: first operation, then
                                      untraced and traced operations in turn
                                      for ``seconds``
                         "trace_restart" -- spans on: first operation only
  seconds                length of the warm loop
  last                   "warm" only: also compute the reference and run
                         one operation under tracemalloc
  corrupt                "warm" only: perturb one more result (smoke test)
  trace_out              where "trace" writes its spans
  hide                   names to delete before tracing (smoke test)
"""

import time

T0 = time.perf_counter()  # before latticefmm is imported

import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402



def _import_latticefmm(workload: str) -> dict:
    """The modules a user of this workload imports (tracing imports the rest)."""
    names = ["defect"] if workload == "crack" else ["fmm", "oracle"]
    return {n: importlib.import_module(f"latticefmm.{n}") for n in names}


def _provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


class Session:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.workload = cfg["workload"]
        self.ops: list[dict] = []
        self.tracer = None

    def op(self, kind: str, traced: bool = False, corrupt: bool = False) -> dict:
        """Run and time one operation; its check data is made outside the timing.
        A traced operation runs inside a root span, so its spans share an id."""
        # Collect earlier garbage here, so no collection lands inside the timing.
        gc.collect()
        rec = {"kind": kind}
        if traced:
            rec["op_id"] = self.tracer.op
            root = self.tracer.begin(tracing.ROOT)
        try:
            t = time.perf_counter()
            out = workloads.run_op(self.lf, self.workload, self.inp)
            rec["t"] = time.perf_counter() - t
        except Exception as exc:  # any failure counts against the run
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                self.tracer.end(root)
                self.tracer.op += 1
        if "error" not in rec:
            try:
                if corrupt:
                    out = workloads.corrupt(self.workload, self.inp, out)
                rec.update(workloads.check_data(self.workload, self.inp, out))
            except Exception as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
        self.ops.append(rec)
        return rec

    def start(self, traced: bool) -> None:
        """Import, make the inputs, and run the first operation.  setup_total
        is the wall time from before the import to the end of that operation,
        less the time spent making inputs."""
        self.lf = _import_latticefmm(self.workload)
        t_import = time.perf_counter()
        self.inp = workloads.make_inputs(self.workload, self.cfg["seed"], self.cfg["size"])
        t_gen = time.perf_counter() - t_import
        if traced:
            self.tracer = tracing.Tracer()
            for name in self.cfg.get("hide", []):
                mod, attr = name.rsplit(".", 1)
                delattr(importlib.import_module(mod), attr)
            self.tracer.install()
        self.op("first", traced=traced)
        self.setup_total = time.perf_counter() - T0 - t_gen
        self.import_s = t_import - T0

    def warm_loop(self, step, min_steps: int) -> None:
        """Repeat ``step`` for about ``seconds``, stopping before a step that
        would end past it, but at least ``min_steps`` times."""
        start = time.perf_counter()
        n, last = 0, 0.0
        while n < min_steps or time.perf_counter() - start + last <= self.cfg["seconds"]:
            t = time.perf_counter()
            step()
            last = time.perf_counter() - t
            n += 1

    def reference(self):
        if self.workload == "crack":
            return None
        return workloads.reference(self.lf, self.inp)


def run_warm(s: Session) -> dict:
    s.start(traced=False)
    s.warm_loop(lambda: s.op("warm"), min_steps=1)
    if s.cfg.get("corrupt"):
        s.op("warm", corrupt=True)
    if not s.cfg.get("last"):
        return {}
    ref = s.reference()
    gc.collect()
    tracemalloc.start()
    rec = s.op("peak")
    rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"reference": ref, "provenance": _provenance()}


def run_trace(s: Session) -> dict:
    s.start(traced=True)
    tr = s.tracer
    setup_vals, absent = tracing.evaluate(tr, 0, tracing.SETUP_METRICS)
    per_op: list[dict] = []

    def pair():
        tr.uninstall()
        s.op("untraced")
        tr.install()
        rec = s.op("traced", traced=True)
        vals, miss = tracing.evaluate(tr, rec["op_id"], tracing.OP_METRICS)
        per_op.append(vals)
        absent.update(miss)

    s.warm_loop(pair, min_steps=2)
    tr.uninstall()
    ref = s.reference()

    # Self times of an operation's spans must add up to its measured time.
    gaps = [
        abs(o["t"] - tracing.OpView(tr, o["op_id"]).self_sum())
        for o in s.ops
        if o["kind"] == "traced" and "t" in o
    ]
    metrics = {
        name: {"value": setup_vals[name], "unit": unit}
        for name, (unit, _, _) in tracing.SETUP_METRICS.items()
        if name in setup_vals
    }
    metrics.update(tracing.median_metrics(per_op, tracing.OP_METRICS))
    absent = {k: v for k, v in absent.items() if k not in metrics}
    times = {
        k: [o["t"] for o in s.ops if o["kind"] == k and "t" in o]
        for k in ("untraced", "traced")
    }
    if times["untraced"] and times["traced"]:
        metrics[tracing.OVERHEAD_METRIC] = {
            "value": statistics.median(times["traced"]) - statistics.median(times["untraced"]),
            "unit": "s",
        }
    with open(s.cfg["trace_out"], "w") as fh:
        json.dump(tr.to_json(), fh, separators=(",", ":"))
    return {
        "reference": ref,
        "layers": metrics,
        "absent": absent,
        "missing_names": tr.missing,
        "self_sum_gap_s": max(gaps, default=0.0),
        "provenance": _provenance(),
    }


def run_trace_restart(s: Session) -> dict:
    s.start(traced=True)
    s.tracer.uninstall()
    try:
        load = tracing.table_load_time(s.tracer, 0)
    except KeyError as exc:
        return {"layers": {}, "absent": {tracing.LOAD_METRIC: str(exc)}}
    return {"layers": {tracing.LOAD_METRIC: {"value": load, "unit": "s"}}, "absent": {}}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    s = Session(cfg)
    role = cfg["role"]
    if role == "setup":
        s.start(traced=False)
        extra = {}
    elif role == "warm":
        extra = run_warm(s)
    elif role == "trace":
        extra = run_trace(s)
    elif role == "trace_restart":
        extra = run_trace_restart(s)
    else:
        raise SystemExit(f"unknown role {role!r}")
    result = {
        "role": role,
        "import_s": s.import_s,
        "setup_total_s": s.setup_total,
        "ops": s.ops,
        **extra,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
