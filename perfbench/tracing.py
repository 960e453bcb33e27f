"""Spans around the solver's layer boundaries, recorded from outside.

The tracer replaces public attributes of the mcsip modules (and the HiGHS
entry point inside scipy) with thin wrappers that record a span per call:
name, start, end, parent span and an optional count taken from the call's
arguments or result.  Only calls made inside a root span, which the
benchmark opens around each cell, are recorded.  A function is wrapped in every mcsip module that
holds a reference to it, so `sddp.solve_lp` and `ldr.solve_lp` are told
apart by the module that called them.  Spans stay in memory; `restore()`
puts every original attribute back.

Nothing in the solver is edited, so later in-program counters can take
over these metric names without changing what they mean.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

MODULES = ("cli", "lp_engine", "sddp", "ldr", "hdr", "aggregate", "model", "tree")


def _n_rows(args, kw, out):
    return len(args[1] if len(args) > 1 else kw["rows"])


def _n_returned(args, kw, out):
    return len(out)


# function name -> (layer, count taken from the call); wrapped in every
# mcsip module that references the function object
FUNCTIONS = {
    "build_hdr_msilp": ("hdr", None),
    "build_hdr_aggregated": ("hdr", None),
    "build_tree": ("tree", lambda a, k, out: len(out)),
    "build_aggregation": ("aggregate", lambda a, k, out: out.n_groups),
    "build_policy_graph": ("aggregate", lambda a, k, out: len(out.subproblems)),
    "build_aggregated_extensive_form": (
        "model", lambda a, k, out: (out.n, out.m, out.A.nnz)),
    "solve_lp": ("lp_engine", None),
    "add_rows": ("lp_engine", _n_rows),
    "infeasibility_lp": ("lp_engine", None),
    "branch_and_cut": ("lp_engine", lambda a, k, out: out.nodes),
    "solve_exact": ("sddp", None),
    "solve_lower_bound": ("sddp", None),
    "evaluate_policy": ("sddp", None),
    "build_master": ("sddp", None),
    "build_ldr_model": ("ldr", None),
    "benders_solve": ("ldr", None),
    "extract_policy": ("ldr", None),
}

# (module, class, method, span name, layer, count); "engine" keeps the
# SddpEngine so its cut pools can be counted after the pass
METHODS = (
    ("sddp", "SddpEngine", "__init__", "sddp.SddpEngine.__init__", "sddp", "engine"),
    ("sddp", "SddpEngine", "solve_sub", "sddp.SddpEngine.solve_sub", "sddp", None),
    ("sddp", "_MasterOracle", "separate", "sddp.oracle.separate", "sddp", _n_returned),
    ("ldr", "_BendersOracle", "separate", "ldr.oracle.separate", "ldr", _n_returned),
)

HIGHS = ("scipy.optimize._linprog_highs", "_highs_wrapper", "highs.run", "highs")

# span fields: name, start, end, parent index, count
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records spans while installed; `take()` hands over one pass's worth."""

    def __init__(self):
        self.spans: list[list] = []
        self.engines: list = []      # SddpEngine instances built while tracing
        self.kind_of: dict[str, str] = {}   # span name -> function or method
        self.layer_of: dict[str, str] = {}  # span name -> layer
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrapper(self, fn, name: str, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            if not stack:  # outside every benchmark root span: not a cell's work
                return fn(*args, **kw)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kw)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kw, out)
            return out

        traced.__perfbench_original__ = fn
        return traced

    def _keep_engine(self, args, kw, out):
        self.engines.append(args[0])

    def _patch(self, owner, attr: str, name: str, kind: str, layer: str, count) -> None:
        orig = vars(owner)[attr]
        self.kind_of[name], self.layer_of[name] = kind, layer
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrapper(orig, name, count))

    def install(self) -> None:
        mods = {m: importlib.import_module(f"mcsip.{m}") for m in MODULES}
        for fname, (layer, count) in FUNCTIONS.items():
            targets = {id(getattr(mod, fname)) for mod in mods.values()
                       if hasattr(mod, fname)}
            for short, mod in mods.items():
                if id(vars(mod).get(fname)) in targets:
                    self._patch(mod, fname, f"{short}.{fname}", fname, layer, count)
        for short, cls, meth, name, layer, count in METHODS:
            if count == "engine":
                count = self._keep_engine
            self._patch(getattr(mods[short], cls), meth, name, name, layer, count)
        mod, attr, name, layer = HIGHS
        self._patch(importlib.import_module(mod), attr, name, name, layer, None)

    def restore(self) -> None:
        """Put back every original attribute."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def root(self, name: str, layer: str):
        """Context manager for a span the benchmark opens around a call."""
        self.kind_of[name], self.layer_of[name] = name, layer
        return _RootSpan(self, name)

    def take(self) -> tuple[list[list], list]:
        """Spans and engines recorded so far; the tracer starts empty again."""
        spans, engines = list(self.spans), list(self.engines)
        self.spans.clear()
        self.engines.clear()
        return spans, engines


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.span = [self.name, 0.0, 0.0, t._stack[-1] if t._stack else -1, None]
        t._stack.append(len(t.spans))
        t.spans.append(self.span)
        self.span[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span[END] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def leftover_wrappers() -> list[str]:
    """Attributes of the traced modules that are still wrappers."""
    owners = [(f"mcsip.{m}", importlib.import_module(f"mcsip.{m}")) for m in MODULES]
    owners += [(f"mcsip.{m}.{cls}", getattr(importlib.import_module(f"mcsip.{m}"), cls))
               for m, cls, *_ in METHODS]
    owners.append((HIGHS[0], importlib.import_module(HIGHS[0])))
    return sorted({f"{label}.{attr}" for label, owner in owners
                   for attr, val in vars(owner).items()
                   if hasattr(val, "__perfbench_original__")})


# -- metrics -------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list], engines: list, kind_of: dict[str, str],
                  layer_of: dict[str, str]) -> dict:
    """Per-layer metrics of one pass, from the spans `Tracer.take()` returned."""
    selfs = self_times(spans)
    kind = [kind_of[s[NAME]] for s in spans]
    dur = [s[END] - s[START] for s in spans]

    def pick(*kinds):
        return [i for i, k in enumerate(kind) if k in kinds]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_total(idx):
        return sum(selfs[i] for i in idx)

    def counts(idx):
        return [spans[i][COUNT] for i in idx]

    lp = pick("solve_lp")
    bnb = pick("branch_and_cut")
    bnb_set = set(bnb)
    sub = pick("sddp.SddpEngine.solve_sub")
    sub_set = set(sub)
    sub_lp = [i for i in lp if spans[i][PARENT] in sub_set]
    sddp_oracle = pick("sddp.oracle.separate")
    ldr_oracle = pick("ldr.oracle.separate")
    ldr_lp = [i for i in lp if spans[i][NAME] == "ldr.solve_lp"]
    forms = counts(pick("build_aggregated_extensive_form"))
    lp_s = total([i for i in lp if spans[i][PARENT] < 0
                  or kind[spans[i][PARENT]] != "solve_lp"])
    highs_s = total(pick("highs.run"))
    sub_cuts = sum(e.cut_counts()["subproblem_cuts"] for e in engines)
    master_cuts = sum(e.cut_counts()["master_cuts"] for e in engines)
    ldr_cuts = sum(counts(ldr_oracle))

    out = {
        "hdr.build_s": total(pick("build_hdr_msilp", "build_hdr_aggregated")),
        "tree.build_s": total(pick("build_tree")),
        "tree.nodes": sum(counts(pick("build_tree"))),
        "aggregate.build_s": total(pick("build_aggregation")),
        "aggregate.groups": sum(counts(pick("build_aggregation"))),
        "aggregate.policy_graph_s": total(pick("build_policy_graph")),
        "aggregate.subproblems": sum(counts(pick("build_policy_graph"))),
        "model.assemble_s": total(pick("build_aggregated_extensive_form")),
        "model.cols": sum(f[0] for f in forms),
        "model.rows": sum(f[1] for f in forms),
        "model.nnz": sum(f[2] for f in forms),
        "lp_engine.lp_solves": len(lp),
        "lp_engine.lp_s": lp_s,
        "lp_engine.highs_s": highs_s,
        "lp_engine.wrapper_s": lp_s - highs_s,
        "lp_engine.lp_ms.median": 1e3 * statistics.median(dur[i] for i in lp) if lp else 0.0,
        "lp_engine.bb_nodes": sum(counts(bnb)),
        "lp_engine.bb_lp_solves": sum(1 for i in lp if spans[i][PARENT] in bnb_set),
        "lp_engine.bb_self_s": self_total(bnb),
        "lp_engine.rows_added": sum(counts(pick("add_rows"))),
        "lp_engine.add_rows_s": total(pick("add_rows")),
        "lp_engine.phase1_solves": len(pick("infeasibility_lp")),
        "sddp.build_master_s": total(pick("build_master")),
        "sddp.engine_init_s": total(pick("sddp.SddpEngine.__init__")),
        "sddp.oracle_calls": len(sddp_oracle),
        "sddp.oracle_s": total(sddp_oracle),
        "sddp.oracle_self_s": self_total(sddp_oracle),
        "sddp.sub_solves": len(sub),
        "sddp.sub_lp_solves": len(sub_lp),
        "sddp.memo_hit_frac": 1.0 - len(sub_lp) / len(sub) if sub else 0.0,
        "sddp.subproblem_cuts": sub_cuts,
        "sddp.master_cuts": master_cuts,
        "sddp.cuts_per_lp": (sub_cuts + master_cuts) / len(sub_lp) if sub_lp else 0.0,
        "ldr.build_s": total(pick("build_ldr_model")),
        "ldr.oracle_calls": len(ldr_oracle),
        "ldr.oracle_s": total(ldr_oracle),
        "ldr.oracle_self_s": self_total(ldr_oracle),
        "ldr.lp_solves": len(ldr_lp),
        "ldr.cuts": ldr_cuts,
        "ldr.cuts_per_lp": ldr_cuts / len(ldr_lp) if ldr_lp else 0.0,
    }
    by_layer: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        layer = layer_of[s[NAME]]
        by_layer[layer] = by_layer.get(layer, 0.0) + t
    for layer in ("cli", "hdr", "tree", "aggregate", "model", "lp_engine", "highs",
                  "sddp", "ldr"):
        out[f"self.{layer}_s"] = by_layer.get(layer, 0.0)
    out["self.sum_s"] = sum(by_layer.values())
    return out


# metrics that are counts of work: they must repeat exactly between passes
COUNT_METRICS = (
    "tree.nodes", "aggregate.groups", "aggregate.subproblems", "model.cols",
    "model.rows", "model.nnz", "lp_engine.lp_solves", "lp_engine.bb_nodes",
    "lp_engine.bb_lp_solves", "lp_engine.rows_added", "lp_engine.phase1_solves",
    "sddp.oracle_calls", "sddp.sub_solves", "sddp.sub_lp_solves", "sddp.memo_hit_frac",
    "sddp.subproblem_cuts", "sddp.master_cuts", "ldr.oracle_calls", "ldr.lp_solves",
    "ldr.cuts",
)


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds to a plain call, measured now."""
    def noop():
        return None

    tracer = Tracer()
    tracer._stack.append(-1)
    traced = tracer._wrapper(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
