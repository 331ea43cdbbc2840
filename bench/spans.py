"""Span tracing of resgraph from outside the package.

``Tracer.install`` replaces every public module-level function of every
imported ``resgraph`` module with a wrapper that records a span (name,
start, end, parent).  The replacement is made under every name the
function is bound to, so calls through a re-bound import such as
``resgraph.classgrp.cokernel`` are seen too.  Spans stay in memory;
``collect`` turns them into per-name call counts, total time and self time
and starts afresh.  Nothing is recorded unless a tracer is installed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACE_PREFIX = "#bench-trace "

# Spans whose arguments or results feed a counter; see Tracer.collect.
SNF = "exactlat.smith_normal_form"
CLASS_GROUP = "classgrp.class_group"
REPORT = "dualizing.dualizing_report"
DEFINITENESS = "exactlat.is_negative_definite"


def _max_bits(snf) -> int:
    return max((abs(x).bit_length() for m in (snf.u, snf.d, snf.v) for row in m.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, kept value]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import resgraph.cli  # noqa: F401  (imports every module of the package)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "resgraph" or name.startswith("resgraph."))]
        wrappers = {}
        for m in modules:
            short = m.__name__.rpartition(".")[2]
            for name, obj in vars(m).items():
                if inspect.isfunction(obj) and obj.__module__ == m.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for m in modules:
            for name, obj in list(vars(m).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(m, name, wrappers[obj])
                    self._patched.append((m, name, obj))

    def uninstall(self) -> None:
        for m, name, obj in self._patched:
            setattr(m, name, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in (SNF, CLASS_GROUP, REPORT)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if keep:
                spans[index][4] = (args, result)
            return result

        return wrapper

    def collect(self) -> dict:
        """Summarise the spans recorded since the last call and drop them.

        Bit lengths are measured here, after the traced call has returned,
        so that measuring them adds to no span.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        summary = empty_summary()
        funcs = summary["fn"]
        for i, (name, start, end, parent, kept) in enumerate(spans):
            entry = funcs.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
            if kept is None:  # not kept, or the call raised
                if name == DEFINITENESS and _under(spans, parent, REPORT):
                    summary["report_definiteness"] += 1
            elif name == SNF:
                summary["snf_bits"] = max(summary["snf_bits"], _max_bits(kept[1]))
            elif name == CLASS_GROUP:
                summary["order_bits"] = max(summary["order_bits"], kept[1].order().bit_length())
            elif name == REPORT:
                summary["report_points"] += len(kept[0][0].points)
        spans.clear()
        return summary


def _under(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def empty_summary() -> dict:
    return {"fn": {}, "snf_bits": 0, "order_bits": 0, "report_points": 0, "report_definiteness": 0}


def merge(into: dict, other: dict) -> None:
    for name, (calls, total, own) in other["fn"].items():
        entry = into["fn"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own
    for key in ("snf_bits", "order_bits"):
        into[key] = max(into[key], other[key])
    for key in ("report_points", "report_definiteness"):
        into[key] += other[key]
