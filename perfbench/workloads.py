"""Seeded inputs, the one operation each workload times, and its correctness checks.

Workloads (closed loop: one caller, one operation at a time):

* ``dense``  -- a full 128 x 128 grid of charges.  Every 8 x 8 leaf is
  full, so the near field dominates ``fmm_apply``.
* ``random`` -- 16384 distinct points drawn uniformly on a 16384^2 domain,
  in shuffled order.  About one point per leaf, so the interaction
  (T_ifo) pass and the operator-chain build dominate.
* ``crack``  -- 48 removed vertical bars (i,0)-(i,1): 96 defect nodes,
  far field (0, 1), queries on the crack rows and one row either side.
  Below 600 nodes ``apply_S`` sums directly, so this exercises the defect
  solver, ``direct_sum`` and ``phi`` and bypasses the FMM.

The seed draws the charges, the random points and a translation of the
whole input; the program receives only arrays.  Charges are standard
normal with their mean removed: with a random total charge the norm of the
potential, and so the relative error, would swing tenfold between seeds.  Everything here needs only
numpy, so inputs can be made before ``latticefmm`` is imported.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

WORKLOADS = ("dense", "random", "crack")

EPS = 1e-10  # fmm_apply accuracy target
NLEAF = 64
TOL = 1e-8  # solve_defect GMRES tolerance
FAR = (0.0, 1.0)  # crack far field v = m2

# The gates match the selftest: fmm-vs-direct <= 10 eps, defect residual <= 10 tol.
FMM_GATE = 10.0 * EPS
CRACK_GATE = 10.0 * TOL

# Problem size per workload: grid side, point count, bar count.
SIZES = {
    "full": {"dense": 128, "random": 16384, "crack": 48},
    "tiny": {"dense": 32, "random": 1024, "crack": 16},
}
# Targets checked against the direct sum on the point workloads.
SAMPLE = {"full": 64, "tiny": 32}
# Translation range: small enough that |u| on the crack stays O(1e3), so
# rounding in the residual stays far below the gate.
OFFSET = 1000


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    rng = np.random.default_rng(seed)
    n = SIZES[size][workload]
    offset = rng.integers(-OFFSET, OFFSET + 1, size=2)
    if workload == "crack":
        i = np.arange(n)
        lower = np.column_stack([i, np.zeros(n, dtype=np.int64)]) + offset
        upper = lower + np.array([0, 1])
        qx, qy = np.meshgrid(np.arange(-1, n + 1), np.arange(-1, 3), indexing="ij")
        queries = np.column_stack([qx.ravel(), qy.ravel()]) + offset
        return {
            "bar_a": lower,
            "bar_b": upper,
            "bar_dc": np.full(n, -1.0),
            "queries": queries,
        }
    if workload == "dense":
        g = np.arange(n)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
    elif workload == "random":
        # Drawn without replacement, so distinct, and in random order.
        flat = rng.choice(n * n, size=n, replace=False)
        points = np.column_stack([flat // n, flat % n])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    points = points.astype(np.int64) + offset
    charges = rng.standard_normal(points.shape[0])
    charges -= charges.mean()
    sample = np.sort(rng.choice(points.shape[0], size=SAMPLE[size], replace=False))
    return {"points": points, "charges": charges, "sample": sample}


def run_op(lf, workload: str, inp: dict):
    """The user's call.  ``lf`` maps module names to imported modules, so
    attribute lookups happen at call time and see any tracing wrappers."""
    if workload == "crack":
        defect = lf["defect"]
        bars = list(zip(inp["bar_a"].tolist(), inp["bar_b"].tolist(), inp["bar_dc"].tolist()))
        spec = defect.DefectSpec(bars)
        return defect.solve_defect(spec, FAR, tol=TOL, queries=inp["queries"])
    stats: dict = {}
    return lf["fmm"].fmm_apply(
        inp["points"], inp["charges"], eps=EPS, nleaf=NLEAF, stats=stats
    )


def output_vector(workload: str, inp: dict, out) -> np.ndarray:
    if workload == "crack":
        return np.array([out[(int(x), int(y))] for x, y in inp["queries"]])
    return np.asarray(out, dtype=np.float64)


def corrupt(workload: str, inp: dict, out):
    """Perturb one output value well beyond every gate (smoke test only)."""
    if workload == "crack":
        node = tuple(int(c) for c in inp["bar_a"][0])
        out = dict(out)
        out[node] += 1e-3
        return out
    out = np.array(out, dtype=np.float64)
    out[inp["sample"][0]] += 1e-3
    return out


def check_data(workload: str, inp: dict, out) -> dict:
    """What the parent needs to gate one operation: a digest of the full
    output, plus sampled potentials (point workloads) or the residual."""
    vec = output_vector(workload, inp, out)
    data = {"digest": hashlib.sha256(vec.tobytes()).hexdigest()}
    if workload == "crack":
        data["residual"] = crack_residual(inp, out)
    else:
        data["sample"] = vec[inp["sample"]].tolist()
    return data


def crack_residual(inp: dict, u: dict) -> float:
    """max |(A + B) u| over the defect nodes; (A + B) u = 0 there exactly."""
    bu: dict = {}
    for a, b, dc in zip(inp["bar_a"].tolist(), inp["bar_b"].tolist(), inp["bar_dc"].tolist()):
        a, b = tuple(a), tuple(b)
        d = dc * (u[a] - u[b])
        bu[a] = bu.get(a, 0.0) + d
        bu[b] = bu.get(b, 0.0) - d
    res = 0.0
    for (x, y), b_val in bu.items():
        au = 4.0 * u[(x, y)] - u[(x + 1, y)] - u[(x - 1, y)] - u[(x, y + 1)] - u[(x, y - 1)]
        res = max(res, abs(au + b_val))
    return res


def reference(lf, inp: dict) -> list:
    """Exactly rounded direct sum at the sampled targets (point workloads)."""
    pts = inp["points"]
    return lf["oracle"].direct_sum(pts, inp["charges"], targets=pts[inp["sample"]]).tolist()


def op_error(workload: str, data: dict, ref) -> float:
    """The gated error of one operation; infinite when there is no reference."""
    if workload == "crack":
        return data["residual"]
    if ref is None:
        return math.inf
    s = np.asarray(data["sample"])
    r = np.asarray(ref)
    return float(np.linalg.norm(s - r) / np.linalg.norm(r))


def gate(workload: str) -> float:
    return CRACK_GATE if workload == "crack" else FMM_GATE


def digits(err: float) -> float:
    """Correct decimal digits, -log10 of the error (capped at double precision)."""
    return -math.log10(max(err, 1e-17))
