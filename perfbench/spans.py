"""Spans and result hooks around library functions, installed from outside the library.

A span is (name, start, end, parent span id), kept in memory and written out
as JSON lines once the traced body has finished. Wrapping replaces the
module attribute, so every call that looks the function up through its
module is seen; that covers all cross-module calls in hyperrst and the
intra-module calls that go through module globals. A reference taken before
wrapping (a table of functions, say) is not seen.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent id]
        self.counts: dict = {}
        self.stack: list = []

    def count(self, name: str, k: int):
        self.counts[name] = self.counts.get(name, 0) + int(k)

    def write_jsonl(self, path: str, excluded: list = ()):
        """One JSON object per span, then one per excluded interval (see summarize)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
            for start, end in excluded:
                fh.write(json.dumps({"excluded": [start, end]}))
                fh.write("\n")


def wrap(module, fname: str, tracer: Tracer | None = None, name: str | None = None, on_result=()):
    """Replace module.fname with a wrapper that records a span in tracer (when
    given), then calls each of on_result with the result, outside the span.
    A function the module does not have is left alone."""
    fn = getattr(module, fname, None)
    if fn is None:
        return
    name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
    hooks = tuple(on_result)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            spans, stack = tracer.spans, tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        for hook in hooks:
            hook(result)
        return result

    setattr(module, fname, wrapped)


def summarize(spans: list, body_s: float, excluded: list = ()) -> dict:
    """Per span name: calls, busy_s and self_s; plus the share of the body
    that no top-level span covers.

    excluded holds (start, end) intervals that belong to no span, such as
    the speed probe's ticks; each span's duration drops its overlap with
    them. busy_s is inclusive time, counting only the outermost span of a
    name so that recursion is not counted twice. self_s subtracts the time
    covered by child spans.
    """
    duration = []
    for name, start, end, parent in spans:
        overlap = sum(max(0.0, min(end, t1) - max(start, t0)) for t0, t1 in excluded)
        duration.append(end - start - overlap)
    covered_by_children = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            covered_by_children[parent] += duration[i]
    out: dict = {}
    top = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += duration[i] - covered_by_children[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["busy_s"] += duration[i]
        if parent < 0:
            top += duration[i]
    uncovered = 1.0 - top / body_s if body_s > 0 else 0.0
    return {"by_name": out, "uncovered_frac": uncovered}
