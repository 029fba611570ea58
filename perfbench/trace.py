"""Spans around the calls into each layer of `balleans`, from outside it.

`install` wraps each public function listed in LAYERS and rebinds every
attribute of every `balleans.*` module that refers to it. Rebinding all of
them matters: `groups`, `suites` and `cli` import names directly (for example
`from .lattices import index_in`), so patching only the defining module would
miss their calls. Spans stay in memory and are written when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import gzip
import sys
import time
import types

# layer -> [(owner path inside balleans.<layer>, metric name)]
LAYERS = {
    "exactmat": [(f, f) for f in ("row_hnf", "left_kernel", "snf", "abs_det", "solve_integer")],
    "lattices": [(f, f) for f in ("lattice_from_generators", "member", "lattice_sum",
                                  "lattice_intersection", "index_in", "saturation",
                                  "commensurable", "log_subgroup_distance")],
    "groups": [(f, f) for f in ("FiniteAbelianGroup.from_orders", "FAGSubgroup.from_elements",
                                "FAGSubgroup.contains", "FAGSubgroup.elements",
                                "FAGSubgroup.order", "fag_log_distance", "all_subgroups")],
    "ballean": [(f, f) for f in ("mu_report", "exp_ball_enumerate_centered_identity",
                                 "exp_ball_membership", "exp_hyperballean_of",
                                 "validate_ballean", "cellularization", "connected_components")],
    "witnesses": [(f, f) for f in ("lz_exp_ball", "lz_log_ball", "prufer_ball",
                                   "cyclic_subgroup_tree", "elementary_abelian_correspondence",
                                   "iota", "dlog_closed_form")],
    "suites": [(f"suite_{n.replace('-', '_')}", n)
               for n in ("iota", "hamming", "elemab", "tree", "lzball", "mu-index",
                         "cellular", "axioms")],
    "cli": [("run", "run"), ("parse_group", "parse"), ("parse_subgroup", "parse")],
}

DISTANCES = {"lattices.log_subgroup_distance", "groups.fag_log_distance"}


class _Traced:
    """A callable standing in for one library function.

    It keeps the original's `__code__`, because `cli` and `suites` read a
    suite function's argument names from it, and binds like a function when
    stored on a class.
    """

    def __init__(self, tracer: "Tracer", name: str, fn):
        functools.update_wrapper(self, fn)
        self.__code__ = fn.__code__
        self._tracer = tracer
        self._name = name
        self._fn = fn

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._fn, args, kwargs)

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)


def _bits(value) -> int:
    """Largest bit length of any integer in a (nested) result."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, (list, tuple)):
        return max((_bits(v) for v in value), default=0)
    return 0


class Tracer:
    """Spans and counters for one traced pass.

    Spans are (id, name, start, end, parent, query) in parallel arrays. The
    root span of each query is named "query". Per-name call counts and self
    times are summed as spans close.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array.array("q")
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_query = array.array("q")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {"exactmat.out_bits_max": 0, "distance_calls": 0,
                         "exactmat_under_distance": 0, "subgroups_found": 0,
                         "subgroup_tuples": 0, "elements_found": 0,
                         "membership_tests": 0, "exp_members": 0, "exp_candidates": 0,
                         "lz_exp_members": 0, "lz_exp_candidates": 0,
                         "lz_log_members": 0, "lz_log_candidates": 0}
        self._depth = {"distance": 0, "elements": 0, "exp_ball": 0, "subgroups": 0}
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._query = -1

    def _record(self, sid, name, start, end, parent) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_query.append(self._query)

    def query(self, qid: int, fn, *args):
        """Run fn(*args) as the root span of query qid; return (seconds, result)."""
        self._query = qid
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        frame[1] = start
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, "query", start, end, -1)
            self.calls["query"] = self.calls.get("query", 0) + 1
            self.self_s["query"] = self.self_s.get("query", 0.0) + (end - start - frame[2])
        return end - start, result

    def call(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        kind = self._enter(name)
        frame = [sid, 0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        frame[1] = start
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if kind:
                self._depth[kind] -= 1
            self._record(sid, name, start, end, parent[0] if parent else -1)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - frame[2])
            if result is not None:
                self._count(name, args, result)
            if parent is not None:
                # the parent's self time excludes this call and its bookkeeping
                parent[2] += time.perf_counter() - start

    def _enter(self, name: str):
        c = self.counters
        if name.startswith("exactmat.") and self._depth["distance"]:
            c["exactmat_under_distance"] += 1
        elif name == "groups.FAGSubgroup.contains" and self._depth["elements"]:
            c["membership_tests"] += 1
        elif name == "ballean.exp_ball_membership" and self._depth["exp_ball"]:
            c["exp_candidates"] += 1
        elif name == "groups.FAGSubgroup.from_elements" and self._depth["subgroups"]:
            c["subgroup_tuples"] += 1
        kind = None
        if name in DISTANCES:
            if not self._depth["distance"]:
                c["distance_calls"] += 1
            kind = "distance"
        elif name == "groups.FAGSubgroup.elements":
            kind = "elements"
        elif name == "ballean.exp_ball_enumerate_centered_identity":
            kind = "exp_ball"
        elif name == "groups.all_subgroups":
            kind = "subgroups"
        if kind:
            self._depth[kind] += 1
        return kind

    def _count(self, name: str, args, result) -> None:
        c = self.counters
        if name.startswith("exactmat."):
            c["exactmat.out_bits_max"] = max(c["exactmat.out_bits_max"], _bits(result))
        elif name == "groups.all_subgroups":
            c["subgroups_found"] += len(result)
        elif name == "groups.FAGSubgroup.elements":
            c["elements_found"] += len(result)
        elif name == "ballean.exp_ball_enumerate_centered_identity":
            c["exp_members"] += len(result)
        elif name == "witnesses.lz_exp_ball":
            # the scan tests k = 1 .. n·|F| with F = [-m, m]
            n, m = args[0], args[1]
            c["lz_exp_candidates"] += n * (2 * m + 1)
            c["lz_exp_members"] += len(result)
        elif name == "witnesses.lz_log_ball":
            # the scan tests m = ceil(n/K) .. n·K
            n, k = args[0], args[1]
            c["lz_log_candidates"] += n * k - -(-n // k) + 1
            c["lz_log_members"] += len(result)

    def write(self, path: str) -> int:
        """Write the spans as gzipped CSV, times in microseconds from the
        first span; return how many."""
        t0 = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_us,end_us,parent,query\n")
            for sid, nid, start, end, parent, query in zip(
                    self.span_id, self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_query):
                fh.write(f"{sid},{names[nid]},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{parent},{query}\n")
        return len(self.span_id)


def install(tracer: Tracer) -> list:
    """Wrap every function in LAYERS; return the undo list for `uninstall`."""
    import balleans.cli  # noqa: F401  (loads every module that cli imports)

    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "balleans" or name.startswith("balleans.")) and m is not None]
    undo = []
    for layer, targets in LAYERS.items():
        module = sys.modules[f"balleans.{layer}"]
        for path, metric in targets:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            name = f"{layer}.{metric}"
            if isinstance(raw, classmethod):
                new = classmethod(_Traced(tracer, name, raw.__func__))
            elif isinstance(raw, property):
                new = property(_Traced(tracer, name, raw.fget))
            else:
                new = _Traced(tracer, name, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw and mod is not owner:
                        undo.append((mod, key, raw))
                        setattr(mod, key, new)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is raw:
                                undo.append((value, k, raw))
                                value[k] = new
    return undo


def uninstall(undo: list) -> None:
    for owner, key, raw in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = raw
        else:
            setattr(owner, key, raw)


def layer_metrics(tracer: Tracer, queries: int, query_s: float, cli_bytes: float) -> dict:
    """Per-layer metrics as per-query means, shares of query time and ratios."""
    out = {}
    for layer, targets in LAYERS.items():
        total = 0.0
        for metric in dict.fromkeys(m for _, m in targets):
            name = f"{layer}.{metric}"
            self_s = tracer.self_s.get(name, 0.0)
            total += self_s
            if layer not in ("suites", "cli"):
                out[f"{name}.calls"] = tracer.calls.get(name, 0) / queries
            out[f"{name}.self_ms"] = 1e3 * self_s / queries
        out[f"{layer}.self_share"] = total / query_s if query_s else 0.0
    c = tracer.counters
    # found over tried; an enumeration that tries no candidates at all, and so
    # counts none, yields 1. It is 0 where nothing was found, as on a workload
    # that never calls the function.
    ratio = lambda found, tried: c[found] / max(c[tried], c[found], 1)
    out["exactmat.out_bits_max"] = c["exactmat.out_bits_max"]
    out["lattices.exactmat_calls_per_distance"] = (
        c["exactmat_under_distance"] / c["distance_calls"] if c["distance_calls"] else 0.0)
    out["groups.all_subgroups.yield_ratio"] = ratio("subgroups_found", "subgroup_tuples")
    out["groups.elements.yield_ratio"] = ratio("elements_found", "membership_tests")
    out["ballean.exp_ball.yield_ratio"] = ratio("exp_members", "exp_candidates")
    out["witnesses.lz_exp_ball.yield_ratio"] = ratio("lz_exp_members", "lz_exp_candidates")
    out["witnesses.lz_log_ball.yield_ratio"] = ratio("lz_log_members", "lz_log_candidates")
    out["cli.out_bytes"] = cli_bytes
    return out
