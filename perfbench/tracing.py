"""Spans around latticefmm's public names, and the per-layer metrics derived from them.

Each wrapper replaces a name in the module that looks it up at call time
(``latticefmm.fmm.build_tree``, ``latticefmm.oracle.phi``, ...), records a
span (name, start, end, parent, operation id) in memory, and stores the
call's public inputs or result for counting after the operation ends, so
counting costs no time inside any span.  Nothing in ``src/`` changes.

A name that no longer exists is skipped at install time; every metric that
needs its span is then reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np

# (module, attribute path, span name).  A name imported into several
# modules is wrapped in each one that calls it.
TARGETS = (
    ("latticefmm.green", "GreensTable.build", "green.table_build"),
    ("latticefmm.green", "GreensTable.load", "green.table_load"),
    ("latticefmm.green", "default_table", "green.default_table"),
    ("latticefmm.fmm", "default_table", "green.default_table"),
    ("latticefmm.defect", "default_table", "green.default_table"),
    ("latticefmm.oracle", "default_table", "green.default_table"),
    ("latticefmm.skeleton", "default_table", "green.default_table"),
    ("latticefmm.skeleton", "phi", "green.phi"),
    ("latticefmm.oracle", "phi", "green.phi"),
    ("latticefmm.fmm", "build_tree", "tree.build"),
    ("latticefmm.fmm", "shared_chain", "skeleton.shared_chain"),
    ("latticefmm.skeleton", "OperatorChain.ensure", "skeleton.chain_build"),
    ("latticefmm.skeleton", "kernel_matrix", "skeleton.kernel_matrix"),
    ("latticefmm.fmm", "kernel_matrix", "skeleton.kernel_matrix"),
    ("latticefmm.fmm", "fmm_apply", "fmm.fmm_apply"),
    ("latticefmm.defect", "fmm_apply", "fmm.fmm_apply"),
    ("latticefmm.fmm", "FmmRun.apply", "fmm.apply"),
    ("latticefmm.oracle", "direct_sum", "oracle.direct_sum"),
    ("latticefmm.defect", "direct_sum", "oracle.direct_sum"),
    ("latticefmm.defect", "solve_defect", "defect.solve_defect"),
    ("latticefmm.defect", "apply_S", "defect.apply_S"),
    ("latticefmm.defect", "apply_B", "defect.apply_B"),
    ("latticefmm.defect", "gmres", "defect.gmres"),
)

ROOT = "op"  # the benchmark's own span around one operation


def _keep_phi(args, kwargs, out):
    table = kwargs.get("table", args[2] if len(args) > 2 else None)
    return (args[0], args[1], table)


def _keep_rows(args, kwargs, out):
    targets = kwargs.get("targets", args[2] if len(args) > 2 else None)
    return len(targets if targets is not None else args[0])


# What each span keeps for counting: the result or the inputs it needs.
_KEEP = {
    "green.phi": _keep_phi,
    "tree.build": lambda args, kwargs, out: out,
    "skeleton.shared_chain": lambda args, kwargs, out: out,
    "fmm.fmm_apply": lambda args, kwargs, out: kwargs.get("stats"),
    "oracle.direct_sum": _keep_rows,
    "defect.solve_defect": lambda args, kwargs, out: args[0],
}


class Tracer:
    """In-memory span log.  Spans of one operation share ``op``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.keep: dict[int, object] = {}
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.unreadable: set[str] = set()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        keep = _KEEP.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if keep is not None:
                try:
                    self.keep[idx] = keep(args, kwargs, out)
                except (LookupError, TypeError):
                    self.unreadable.add(name)  # signature changed: metrics go absent
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember the originals."""
        self.missing = []
        for modname, path, span in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, span))
            else:
                new = self._wrap(raw, span)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            self.installed.add(span)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}


class OpView:
    """The spans of one operation, with self time = duration - children."""

    def __init__(self, tracer: Tracer, op: int):
        self.idx = [i for i, s in enumerate(tracer.spans) if s[4] == op]
        self.spans = tracer.spans
        self.keep = tracer.keep
        child = {i: 0.0 for i in self.idx}
        for i in self.idx:
            parent = self.spans[i][3]
            if parent is not None and parent in child:
                child[parent] += self._dur(i)
        self.self_time = {i: self._dur(i) - child[i] for i in self.idx}

    def _dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def of(self, name: str) -> list[int]:
        return [i for i in self.idx if self.spans[i][0] == name]

    def count(self, name: str) -> int:
        return len(self.of(name))

    def outermost(self, name: str) -> list[int]:
        """Spans of ``name`` not nested in another of the same name."""
        return [i for i in self.of(name) if not self._has_ancestor(i, name)]

    def total(self, name: str) -> float:
        # Outermost spans only, so a nested call is not counted twice.
        return sum(self._dur(i) for i in self.outermost(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.of(name))

    def kept(self, name: str) -> list:
        return [self.keep[i] for i in self.of(name) if self.keep.get(i) is not None]

    def self_sum(self) -> float:
        return sum(self.self_time.values())

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p is not None:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


# --- counters from public data ---------------------------------------------


def _phi_counts(kept) -> tuple[int, int]:
    from latticefmm.config import DEFAULT_RTABLE

    evals = far = 0
    for m1, m2, table in kept:
        # phi(table=None) uses the default table, of radius DEFAULT_RTABLE.
        radius = table.radius if table is not None else DEFAULT_RTABLE
        x, y = np.broadcast_arrays(np.asarray(m1), np.asarray(m2))
        evals += x.size
        far += int(np.count_nonzero(np.maximum(np.abs(x), np.abs(y)) > radius))
    return evals, far


def _found(tree, level, dx, dy, rx, ry):
    """Mask of boxes at ``level`` whose (dx, dy) neighbour is occupied, and its slot."""
    from latticefmm.tree import morton_key

    side = 1 << level
    sx, sy = rx + dx, ry + dy
    inside = (sx >= 0) & (sx < side) & (sy >= 0) & (sy < side)
    codes = tree.codes[level]
    keys = morton_key(np.where(inside, sx, 0), np.where(inside, sy, 0))
    j = np.minimum(np.searchsorted(codes, keys), len(codes) - 1)
    return inside & (codes[j] == keys), j


def near_pairs(tree) -> int:
    """Point pairs summed directly: each leaf against itself and its 8 neighbours."""
    from latticefmm.tree import morton_decode

    lvl = tree.L
    rx, ry = morton_decode(tree.codes[lvl])
    counts = np.diff(tree.ptr[lvl])
    total = 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            ok, j = _found(tree, lvl, dx, dy, rx, ry)
            total += int(np.dot(counts[ok], counts[j[ok]]))
    return total


def ifo_pairs_per_level(tree) -> dict[int, int]:
    """Occupied (target, source) box pairs in interaction lists, per level:
    the source is at an interaction offset and the parents are adjacent."""
    from latticefmm.tree import INTERACTION_OFFSETS, morton_decode

    pairs = {}
    for lvl in range(2, tree.L + 1):
        rx, ry = morton_decode(tree.codes[lvl])
        n = 0
        for dx, dy in INTERACTION_OFFSETS:
            adjacent = (np.abs((rx + dx) // 2 - rx // 2) <= 1) & (
                np.abs((ry + dy) // 2 - ry // 2) <= 1
            )
            ok, _ = _found(tree, lvl, dx, dy, rx, ry)
            n += int(np.count_nonzero(ok & adjacent))
        pairs[lvl] = n
    return pairs


# --- metrics ---------------------------------------------------------------

# name -> (unit, spans it needs, function of the OpView).  Setup metrics
# read the first operation of a fresh process with an empty cache, which
# includes the table and operator-chain builds; per-operation metrics read
# warm traced operations and report their median.  The table load and the
# tracing overhead are measured by the worker (see LOAD_METRIC).
#
# What each layer should move, and where:
#   green: table build -> setup_s (all); table load -> restart_s (all);
#          phi -> solve_s on crack, setup_s and restart_s on random (T_ifo blocks)
#   tree -> solve_s on random, ~0 on dense
#   skeleton -> setup_s and restart_s on random
#   fmm: near_pairs -> solve_s and peak_mb on dense; ifo_* -> solve_s on random;
#        op_entries -> peak_mb on dense
#   oracle, defect -> solve_s on crack; an FMM change should not move crack


def _phi_evals(v):
    return _phi_counts(v.kept("green.phi"))[0]


def _phi_far(v):
    return _phi_counts(v.kept("green.phi"))[1]


def _chains(v):
    return v.kept("skeleton.shared_chain")


def _rank_leaf(v):
    return max((c.ops[c.leaf_side].skeleton.rank for c in _chains(v) if c.ops), default=0)


def _rank_max(v):
    return max(
        (op.skeleton.rank for c in _chains(v) for op in c.ops.values()), default=0
    )


def _shared_entries(v):
    return sum({id(c): c.stored_entries() for c in _chains(v)}.values())


def _trees(v):
    return v.kept("tree.build")


def _pts_per_leaf(v):
    trees = _trees(v)
    leaves = sum(len(t.codes[t.L]) for t in trees)
    return sum(len(t.points) for t in trees) / leaves if leaves else 0.0


def _ifo_gflop(v):
    # Computed, not measured: each pair is one k x k GEMV per level.
    chain = {c.leaf_side: c for c in _chains(v)}
    flop = 0
    for t in _trees(v):
        for lvl, pairs in ifo_pairs_per_level(t).items():
            k = chain[t.side_of(t.L)].ops[t.side_of(lvl)].skeleton.rank
            flop += 2 * k * k * pairs
    return flop / 1e9


SETUP_METRICS = {
    "green.table_build_s": ("s", ["green.table_build"], lambda v: v.total("green.table_build")),
    "green.phi_calls": ("count", ["green.phi"], lambda v: v.count("green.phi")),
    "green.phi_evals": ("count", ["green.phi"], _phi_evals),
    "green.phi_far_evals": ("count", ["green.phi"], _phi_far),
    "green.phi_s": ("s", ["green.phi"], lambda v: v.total("green.phi")),
    "skeleton.chain_build_s": ("s", ["skeleton.chain_build"], lambda v: v.total("skeleton.chain_build")),
    "skeleton.kernel_matrix_calls": ("count", ["skeleton.kernel_matrix"], lambda v: v.count("skeleton.kernel_matrix")),
    "skeleton.kernel_matrix_s": ("s", ["skeleton.kernel_matrix"], lambda v: v.total("skeleton.kernel_matrix")),
    "skeleton.rank_leaf": ("count", ["skeleton.shared_chain"], _rank_leaf),
    "skeleton.rank_max": ("count", ["skeleton.shared_chain"], _rank_max),
    "skeleton.shared_op_entries": ("count", ["skeleton.shared_chain"], _shared_entries),
}

OP_METRICS = {
    "tree.build_s": ("s", ["tree.build"], lambda v: v.total("tree.build")),
    "tree.depth": ("count", ["tree.build"], lambda v: max((t.L + 1 for t in _trees(v)), default=0)),
    "tree.leaves": ("count", ["tree.build"], lambda v: sum(len(t.codes[t.L]) for t in _trees(v))),
    "tree.boxes": ("count", ["tree.build"], lambda v: sum(len(c) for t in _trees(v) for c in t.codes)),
    "tree.pts_per_leaf": ("1", ["tree.build"], _pts_per_leaf),
    "fmm.calls": ("count", ["fmm.fmm_apply"], lambda v: v.count("fmm.fmm_apply")),
    "fmm.apply_s": ("s", ["fmm.apply"], lambda v: v.total("fmm.apply")),
    "fmm.self_s": ("s", ["fmm.fmm_apply"], lambda v: v.self_total("fmm.fmm_apply")),
    "fmm.near_pairs": ("count", ["tree.build"], lambda v: sum(near_pairs(t) for t in _trees(v))),
    "fmm.ifo_pairs": ("count", ["tree.build"], lambda v: sum(sum(ifo_pairs_per_level(t).values()) for t in _trees(v))),
    "fmm.ifo_gflop": ("gflop", ["tree.build", "skeleton.shared_chain"], _ifo_gflop),
    "fmm.op_entries": ("count", ["fmm.fmm_apply"], lambda v: sum(s["op_entries"] for s in v.kept("fmm.fmm_apply"))),
    "oracle.direct_sum_calls": ("count", ["oracle.direct_sum"], lambda v: v.count("oracle.direct_sum")),
    "oracle.direct_sum_rows": ("count", ["oracle.direct_sum"], lambda v: sum(v.kept("oracle.direct_sum"))),
    "oracle.direct_sum_s": ("s", ["oracle.direct_sum"], lambda v: v.total("oracle.direct_sum")),
    "defect.nodes": ("count", ["defect.solve_defect"], lambda v: sum(len(s.nodes) for s in v.kept("defect.solve_defect"))),
    "defect.apply_S_calls": ("count", ["defect.apply_S"], lambda v: v.count("defect.apply_S")),
    "defect.apply_S_s": ("s", ["defect.apply_S"], lambda v: v.total("defect.apply_S")),
    "defect.apply_B_calls": ("count", ["defect.apply_B"], lambda v: v.count("defect.apply_B")),
    "defect.apply_B_s": ("s", ["defect.apply_B"], lambda v: v.total("defect.apply_B")),
    "defect.gmres_self_s": ("s", ["defect.gmres"], lambda v: v.self_total("defect.gmres")),
    "defect.self_s": ("s", ["defect.solve_defect"], lambda v: v.self_total("defect.solve_defect")),
}

# Measured in the restart process (cache already holds the table).
LOAD_METRIC = "green.table_load_s"
OVERHEAD_METRIC = "trace.overhead_s"


def table_load_time(tracer: Tracer, op: int) -> float:
    """The outermost default_table call of the operation: with the cache
    pre-filled this is the table load."""
    first = OpView(tracer, op).outermost("green.default_table")
    if not first:
        raise KeyError("no default_table span")
    s = tracer.spans[first[0]]
    return s[2] - s[1]


def evaluate(tracer: Tracer, op: int, table: dict) -> tuple[dict, dict]:
    """Values of the metrics in ``table`` for one operation, and the names
    that are absent with the reason.  Drops the operation's kept data."""
    view = OpView(tracer, op)
    values, absent = {}, {}
    for name, (unit, needs, fn) in table.items():
        lacking = [n for n in needs if n not in tracer.installed]
        if lacking:
            absent[name] = "not wrapped: " + ", ".join(lacking)
            continue
        unreadable = [n for n in needs if n in tracer.unreadable]
        if unreadable:
            absent[name] = "call data unreadable: " + ", ".join(unreadable)
            continue
        try:
            values[name] = fn(view)
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            absent[name] = f"{type(exc).__name__}: {exc}"
    for i in view.idx:
        tracer.keep.pop(i, None)
    return values, absent


def median_metrics(per_op: list[dict], table: dict) -> dict:
    """Median over operations of each metric present in every one of them."""
    out = {}
    for name, (unit, _, _) in table.items():
        vals = [d[name] for d in per_op if name in d]
        if per_op and len(vals) == len(per_op):
            out[name] = {"value": statistics.median_low(vals), "unit": unit}
    return out
