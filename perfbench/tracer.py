"""Spans and counters recorded from outside the engine, for the traced run.

``install()`` replaces the public entry points of each layer with wrappers
that record a span (name, start, end, parent span, request id) and the
counters the engine's own result objects expose.  Every ``holant.*`` module
that copied one of those names at import time (``from .symfun import pin`` and
the like, and the re-exports in ``holant/__init__``) gets the wrapper too;
``install`` then fails if any module still holds an unwrapped original.

Spans are kept in flat arrays, because the traced ``cli-batch`` run records
several hundred thousand of them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import holant
import holant.approx
import holant.cli
import holant.exact
import holant.graphcore
import holant.instancefile
import holant.sepdecomp
import holant.symfun
import holant.values

# span name -> (module, attribute) of the function it wraps
FUNCTION_SPANS = {
    "sepdecomp.find_min_width": (holant.sepdecomp, "find_min_width"),
    "sepdecomp.balanced_separator": (holant.sepdecomp, "balanced_separator"),
    "sepdecomp.validate": (holant.sepdecomp, "validate"),
    "exact.simple_dp": (holant.exact, "simple_dp_hol"),
    "symfun.pin": (holant.symfun, "pin"),
    "symfun.peer_partition": (holant.symfun, "peer_partition"),
    "graphcore.edge_ball": (holant.graphcore, "edge_ball"),
    "graphcore.restrict_instance": (holant.graphcore, "restrict_instance"),
    "approx.fptas": (holant.approx, "fptas_hol"),
    "approx.marginal": (holant.approx, "marginal_distribution"),
    "approx.tractable_search": (holant.approx, "tractable_search"),
    "instancefile.parse": (holant.instancefile, "parse_instance_document"),
    "cli.main": (holant.cli, "main"),
}
# span name -> (class, method)
METHOD_SPANS = {
    "exact.fpt_init": (holant.exact.FptSolver, "__init__"),
    "exact.fpt_holant": (holant.exact.FptSolver, "holant"),
}
SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)
# GaussianRational operations counted (not spanned: there are ~10^5 per run).
# __rsub__ and __rtruediv__ call __sub__ and __truediv__, so they are not listed.
VALUE_OPS = {
    "__add__": "values.add",
    "__radd__": "values.add",
    "__sub__": "values.sub",
    "__mul__": "values.mul",
    "__rmul__": "values.mul",
    "__truediv__": "values.div",
}
COUNTERS = (
    "values.add", "values.mul", "values.sub", "values.div",
    "exact.memo_entries", "exact.terms", "exact.z0_entries",
    "sepdecomp.width", "sepdecomp.nodes", "graphcore.ball_edges",
    "approx.fptas.steps", "approx.radius_max", "approx.full_cover_steps",
    "approx.stabilized_steps", "cli.exit_0", "cli.exit_2", "cli.exit_3", "cli.exit_other",
)


class Recorder:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.names = array("H")
        self.parents = array("l")
        self.requests = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.current = -1
        self.request = -1

    def span_table(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        table = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i in range(n):
            row = table[SPAN_NAMES[self.names[i]]]
            dur = self.ends[i] - self.starts[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[i]
        return table

    def write_spans(self, path):
        """One line per span: id, parent id, request id, name, start and end seconds."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            for i in range(len(self.names)):
                fh.write(f"{i},{self.parents[i]},{self.requests[i]},{SPAN_NAMES[self.names[i]]},"
                         f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n")


def _span(rec, name, fn, after=None, before=None):
    name_id = SPAN_NAMES.index(name)
    names, parents, requests, starts, ends = (
        rec.names, rec.parents, rec.requests, rec.starts, rec.ends)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(names)
        parent = rec.current
        names.append(name_id)
        parents.append(parent)
        requests.append(rec.request)
        starts.append(0.0)
        ends.append(0.0)
        rec.current = idx
        snapshot = before(args) if before is not None else None
        starts[idx] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            rec.current = parent
        if after is not None:
            after(rec.counts, args, result, snapshot)
        return result

    wrapper.__wrapped_original__ = fn
    return wrapper


def _count(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(self, other):
        counts[key] += 1
        return fn(self, other)

    wrapper.__wrapped_original__ = fn
    return wrapper


def _after_find_min_width(counts, args, result, snapshot):
    decomp, _ = result
    counts["sepdecomp.width"] = max(counts["sepdecomp.width"], decomp.width)
    counts["sepdecomp.nodes"] += len(decomp.nodes)


def _after_edge_ball(counts, args, result, snapshot):
    counts["graphcore.ball_edges"] += len(result[0])


def _after_fptas(counts, args, result, snapshot):
    counts["approx.fptas.steps"] += len(result.steps)
    for step in result.steps:
        counts["approx.radius_max"] = max(counts["approx.radius_max"], step.report.r_used)
        counts["approx.full_cover_steps"] += step.report.full_cover
        counts["approx.stabilized_steps"] += step.report.stabilized


def _stats_before(args):
    st = args[0].stats
    return st.memo_entries, st.terms, st.z0_entries


def _after_fpt_holant(counts, args, result, snapshot):
    st = args[0].stats
    counts["exact.memo_entries"] += st.memo_entries - snapshot[0]
    counts["exact.terms"] += st.terms - snapshot[1]
    counts["exact.z0_entries"] += st.z0_entries - snapshot[2]


def _after_cli_main(counts, args, result, snapshot):
    key = f"cli.exit_{result}"
    counts[key if key in counts else "cli.exit_other"] += 1


# counter hooks: span name -> (after(counts, args, result, snapshot), before(args))
HOOKS = {
    "sepdecomp.find_min_width": (_after_find_min_width, None),
    "graphcore.edge_ball": (_after_edge_ball, None),
    "approx.fptas": (_after_fptas, None),
    "exact.fpt_holant": (_after_fpt_holant, _stats_before),
    "cli.main": (_after_cli_main, None),
}


def _holant_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "holant" or name.startswith("holant."))]


def install() -> Recorder:
    """Wrap every layer entry point; raise RuntimeError if a binding is missed."""
    rec = Recorder()
    replace = {}  # id(original) -> (original, wrapper)
    for name, (module, attr) in FUNCTION_SPANS.items():
        original = getattr(module, attr)
        replace[id(original)] = (original, _span(rec, name, original, *HOOKS.get(name, (None, None))))
    for name, (cls, attr) in METHOD_SPANS.items():
        original = cls.__dict__[attr]
        setattr(cls, attr, _span(rec, name, original, *HOOKS.get(name, (None, None))))
    gr = holant.values.GaussianRational
    for attr, key in VALUE_OPS.items():
        setattr(gr, attr, _count(rec.counts, key, gr.__dict__[attr]))

    modules = _holant_modules()
    for module in modules:
        for attr, value in list(vars(module).items()):
            got = replace.get(id(value))
            if got is not None and got[0] is value:
                setattr(module, attr, got[1])

    originals = [orig for orig, _ in replace.values()]
    originals += [cls.__dict__[attr].__wrapped_original__ for cls, attr in METHOD_SPANS.values()]
    originals += [gr.__dict__[attr].__wrapped_original__ for attr in VALUE_OPS]
    missed = []
    for module in modules:
        for attr, value in vars(module).items():
            holders = [value]
            if isinstance(value, (dict, list, tuple)):
                holders += list(value.values()) if isinstance(value, dict) else list(value)
            if isinstance(value, type):
                holders += list(vars(value).values())
            if any(h is o for h in holders for o in originals):
                missed.append(f"{module.__name__}.{attr}")
    if missed:
        raise RuntimeError("unwrapped layer entry points remain: " + ", ".join(missed))
    return rec
