"""Spans around the benchmark's calls into ltk, and profiled call counts.

A span records its name, start, end, parent and op id.  Every span the
benchmark opens is a child of its op's span, whose id is "op-<op id>".
Spans are kept in memory and written out once, when the run ends.  Only the
benchmark's own call sites are wrapped; nothing inside ltk is instrumented.
"""

import contextlib
import json
import statistics
import time


class NullTracer:
    """Tracing off: every hook is a no-op, so untraced runs pay nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans.append((self.name, self.start, time.perf_counter_ns(),
                         tr.op_id))
        return False


class Tracer:
    """Collects spans and per-op counted values; children of the op span."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op_id = None
        self._op_start = None

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_start = time.perf_counter_ns()

    def end_op(self):
        self.spans.append(("op", self._op_start, time.perf_counter_ns(),
                           self.op_id))
        self.op_id = None

    def span(self, name):
        return _Span(self, name)

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)

    def write(self, path):
        rows = [{"id": f"op-{op}" if n == "op" else str(i), "name": n,
                 "start_ns": s, "end_ns": e,
                 "parent": None if n == "op" else f"op-{op}", "op": op}
                for i, (n, s, e, op) in enumerate(self.spans)]
        path.write_text(json.dumps(rows))

    def summary(self, span_names, layers, counted):
        """Per-layer metrics: p50 and calls per op for each named span,
        each layer's busy share of op wall time, and medians of counts."""
        by_name = {}
        op_ns = 0
        n_ops = 0
        for name, start, end, _ in self.spans:
            if name == "op":
                op_ns += end - start
                n_ops += 1
            else:
                by_name.setdefault(name, []).append(end - start)
        out = {}
        for name in span_names:
            durs = by_name.get(name, [])
            out[f"{name}.p50_ms"] = (statistics.median(durs) / 1e6
                                     if durs else 0.0, "ms")
            out[f"{name}.calls"] = (len(durs) / max(n_ops, 1), "1/op")
        for layer in layers:
            busy = sum(sum(d) for n, d in by_name.items()
                       if n.split(".", 1)[0] == layer)
            out[f"{layer}.busy_share"] = (busy / op_ns if op_ns else 0.0,
                                          "frac")
        for name in counted:
            vals = self.counts.get(name, [])
            out[name] = (statistics.median(vals) if vals else 0, "count")
        return out


def profiled_counts(profiler, modules, functions):
    """Call counts from a cProfile.Profile: one total per ltk module (by
    source file) and one per named function (by code object identity)."""
    files = {m.__file__: name for name, m in modules.items()}
    codes = {fn.__code__: name for name, fn in functions.items()}
    out = dict.fromkeys([f"{n}.calls" for n in modules], 0)
    out.update(dict.fromkeys([f"{n}.calls" for n in functions], 0))
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # builtins are reported by name
            continue
        mod = files.get(code.co_filename)
        if mod is not None:
            out[f"{mod}.calls"] += entry.callcount
        fn = codes.get(code)
        if fn is not None:
            out[f"{fn}.calls"] += entry.callcount
    return out
