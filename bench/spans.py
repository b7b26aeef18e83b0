"""Spans around the calls into the package's public functions.

The benchmark traces the package from outside: `install` rebinds each
traced function, in every namespace that holds a reference to it, to a
wrapper that records a span, and the function it returns puts every
original back.  `from ... import` copies references into other modules
(`harness`, `asymptotics`, `rotated_observables`, `pbklab/__init__`) and
`harness._RUNNERS` holds the runners, so rebinding only the defining
module would miss most calls.

A span is (name id, start, end, parent span, op id, size, work).  Spans
stay in memory; `summarize` turns them into per-layer statistics and
`write_jsonl` writes them out once the pass has ended.
"""
from __future__ import annotations

import functools
import json
import math
import time
from types import ModuleType
from typing import Callable

# (size, work) of a call, from its arguments, taken after the call returns
Measure = Callable[[tuple, dict], tuple[float, float]]


class Tracer:
    """Collects nested spans; one tracer per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             measure: Measure | None = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size, work = measure(args, kwargs) if measure else (0, 0)
                spans[index] = (name_id, start, end, parent, self.op_id,
                                size, work)
        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, op, size, work in self.spans:
                fh.write(json.dumps({
                    "name": self.names[name_id], "start": start, "end": end,
                    "parent": parent, "op": op, "size": size,
                    "work": work}) + "\n")


def install(tracer: Tracer, targets: list[tuple[str, object, str, Measure | None]],
            namespaces: list[ModuleType]) -> Callable[[], list[tuple]]:
    """Rebind every target wherever a namespace holds it.

    A target is (span name, owner, attribute, measure), where the owner is
    the defining module or class.  Module globals and the values of
    module-level dicts are searched.  Returns `restore`, which puts every
    original back and returns the (container, key, original) bindings it
    restored, so that a caller can check them.
    """
    wrappers = {}
    for name, owner, attr, measure in targets:
        original = vars(owner)[attr]
        wrappers[id(original)] = (original,
                                  tracer.wrap(name, original, measure))
    bound = []
    for name, owner, attr, _ in targets:
        if isinstance(owner, type):
            original = vars(owner)[attr]
            bound.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)][1])
    for module in namespaces:
        table = vars(module)
        containers = [table] + [v for v in table.values() if isinstance(v, dict)]
        for container in containers:
            for key, value in list(container.items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    bound.append((container, key, value))
                    container[key] = entry[1]

    def restore() -> list[tuple]:
        for container, key, original in reversed(bound):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original
        return bound
    return restore


def summarize(tracer: Tracer, groups: dict[str, str]) -> dict[str, dict]:
    """Per-key statistics of the finished spans.

    Each span counts under its own name and under groups[name] if listed.
    busy_s sums the spans of a key that have no ancestor of the same key,
    so nested calls are not counted twice; self_s sums span duration minus
    the time its direct child spans cover.
    """
    spans = tracer.spans
    names = tracer.names
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for index, (name_id, start, end, parent, _op, size, work) in enumerate(spans):
        name = names[name_id]
        for key in (name, groups.get(name)):
            if key is None:
                continue
            entry = stats.setdefault(key, {"calls": 0, "busy_s": 0.0,
                                           "self_s": 0.0, "work": 0.0,
                                           "samples": []})
            duration = end - start
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            entry["work"] += work
            if not _has_ancestor(spans, names, groups, parent, key):
                entry["busy_s"] += duration
            if size:
                entry["samples"].append((size, duration))
    return stats


def _has_ancestor(spans, names, groups, parent: int, key: str) -> bool:
    while parent >= 0:
        name = names[spans[parent][0]]
        if name == key or groups.get(name) == key:
            return True
        parent = spans[parent][3]
    return False


def size_exponent(samples: list[tuple[float, float]]) -> float:
    """Log-log slope of per-call time against size over the top decade.

    Per-size medians are fitted, so that a size called many times weighs
    as much as one called once.  0.0 when fewer than two sizes qualify.
    """
    if not samples:
        return 0.0
    top = max(size for size, _ in samples)
    by_size: dict[float, list[float]] = {}
    for size, duration in samples:
        if size >= top / 10.0 and duration > 0:
            by_size.setdefault(size, []).append(duration)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(size) for size in by_size]
    ys = [math.log(_median(durations)) for durations in by_size.values()]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
