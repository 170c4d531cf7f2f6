"""Spans around the calls into each layer of realwonder, recorded from
outside the program.

Each layer is a set of functions, wrapped under every name its callers
look it up by (a module global, a name imported into another module, or
a class attribute), so that a call goes through exactly one wrapper.
Spans are (layer, start_ns, end_ns, parent, job) tuples kept in memory;
a layer's self time is its span minus the spans of wrapped calls made
beneath it.  Some wrappers also count what the call produced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

_ns = time.perf_counter_ns


def _closure(args, result):
    # args: ambient, generators, ...
    return {"strata": len(result.strata), "found": len(result.strata) - len(args[1])}


def _validated(args, result):
    return {"strata": len(args[0].strata) + 1}


def _final_run(args, result):
    table = result.arrangement.table
    return {
        "strata_final": len(result.arrangement.strata),
        "table_entries_final": sum(len(row) for row in table.values()),
    }


def _json_mb(args, result):
    return {"mb": len(result) / 1e6}  # ASCII: json.dumps escapes the rest


# layer -> (sites "module:attr" or "module:Class.attr", counter or None)
LAYERS = {
    "subspaces.rref": (["subspaces:rref"], None),
    "subspaces.intersect": (["subspaces:intersect", "arrangement:sub_intersect"], None),
    "subspaces.linear_rank": (["subspaces:linear_rank", "models:linear_rank"], None),
    "partitions.join": (["partitions:SetPartition.join"], None),
    "partitions.int_rank": (["partitions:int_rank"], None),
    "arrangement.closure": (
        ["arrangement:close_under_intersection", "models:close_under_intersection"],
        _closure,
    ),
    "arrangement.building": (
        [
            "arrangement:building_violations",
            "arrangement:validate_building_set",
            "arrangement:order_building_set",
            "models:building_violations",
            "models:validate_building_set",
            "models:order_building_set",
            "models:_complete_building",
        ],
        None,
    ),
    "arrangement.validate_strata": (["arrangement:Arrangement.validate_strata"], _validated),
    "models.build": (
        [
            "models:build_dcp",
            "models:build_moduli",
            "models:build_fm",
            "cli:build_dcp",
            "cli:build_moduli",
            "cli:build_fm",
        ],
        None,
    ),
    "engine.run": (["engine:wonderful_run", "cli:wonderful_run"], _final_run),
    "engine.step": (["engine:blow_up_step"], None),
    "report.build": (["report:build_report", "cli:build_report"], None),
    "report.to_json": (["report:to_json", "cli:to_json"], _json_mb),
    "report.render_text": (["report:render_text", "cli:render_text"], None),
    "cli.load": (["cli:_load_json", "cli:_parse_generators"], None),
}

# calls counted without a span: intersections tried by the closure
COUNTED = {"arrangement.closure.meets": "arrangement:geom_meet"}

ROOT = "job"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + list(LAYERS)
        self.spans = []
        self.counts = {}  # (job, name) -> number
        self.stack = [-1]
        self.job = 0
        self.missing = []

    def _resolve(self, site):
        module_name, attr = site.split(":")
        module = importlib.import_module(f"realwonder.{module_name}")
        owner = module
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name, None)
        if owner is None or attr not in vars(owner):
            self.missing.append(site)
            return None, None
        return owner, attr

    def install(self):
        wrappers = {}  # id(original) -> wrapper, so each function is wrapped once
        for layer, (sites, counter) in LAYERS.items():
            index = self.names.index(layer)
            for site in sites:
                owner, attr = self._resolve(site)
                if owner is None:
                    continue
                original = vars(owner)[attr]
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = self._span_wrapper(original, index, layer, counter)
                    wrappers[id(original)] = wrapper
                setattr(owner, attr, wrapper)
        for name, site in COUNTED.items():
            owner, attr = self._resolve(site)
            if owner is not None:
                setattr(owner, attr, self._count_wrapper(vars(owner)[attr], name))

    def _bump(self, name, amount):
        key = (self.job, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span_wrapper(self, fn, index, layer, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _ns()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.job)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self._bump(f"{layer}.{key}", value)
            return result

        return traced

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._bump(name, 1)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def job_span(self, job: int):
        """The root span of one job; spans beneath it carry its id."""
        self.job = job
        slot = len(self.spans)
        self.spans.append(None)
        self.stack.append(slot)
        start = _ns()
        try:
            yield
        finally:
            end = _ns()
            self.stack.pop()
            self.spans[slot] = (0, start, end, -1, job)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": [[job, name, value] for (job, name), value in sorted(self.counts.items())],
            "missing": self.missing,
        }


def self_times(trace: dict) -> dict:
    """{(job, layer): [calls, self_ns]} from a dumped trace."""
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for index, start, end, parent, job in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    names = trace["names"]
    for slot, (index, start, end, parent, job) in enumerate(spans):
        entry = out.setdefault((job, names[index]), [0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[slot]
    return out
