"""In-memory spans around the benchmark's calls into the package.

A span records a name, its start and end (perf_counter_ns), the index of
the span that encloses it (-1 at top level) and an op id.  Spans stay in
memory until the benchmark aggregates them after a pass.

Root spans group the calls of one op: ``op.<kind>`` for ops the workload
times, ``replay.<command>`` for a direct-call replay of a CLI command.
Every other span is a layer span named ``<module>.<function>`` (or
``cli.<command>``).
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter_ns

ROOT_PREFIXES = ("op.", "replay.")


def is_root(name: str) -> bool:
    return name.startswith(ROOT_PREFIXES)


class Tracer:
    """Records nested spans; use as ``with tracer.span(name): ...``."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start_ns, end_ns]
        self._open: list[int] = []
        self._pending: tuple[str, int | None] = ("", None)

    def span(self, name: str, op: int | None = None) -> "Tracer":
        self._pending = (name, op)
        return self

    def __enter__(self):
        name, op = self._pending
        parent = self._open[-1] if self._open else -1
        if op is None:
            op = self.spans[parent][2] if parent >= 0 else -1
        self._open.append(len(self.spans))
        self.spans.append([name, parent, op, 0, 0])
        self.spans[-1][3] = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = perf_counter_ns()
        self.spans[self._open.pop()][4] = end
        return False

    def drain(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """Stand-in for untraced passes: every span is a shared no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, op: int | None = None):
        return self._null


NULL_TRACER = NullTracer()


def aggregate(spans: list[list]) -> dict:
    """Per-name call count and busy time (ns), plus the layers' coverage.

    ``layer_ns`` sums the layer spans that sit directly under a root span
    or at top level: the time the named layers cover.  A root span's
    remainder is the benchmark's own glue between calls.  The benchmark
    calls one layer at a time, so a layer span's self time is its
    duration; the CLI's own time inside a command is the command span
    minus its ``replay.<command>`` span.
    """
    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    layer_ns = 0
    for name, parent, _op, start, end in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + dur
        if not is_root(name) and (parent < 0 or is_root(spans[parent][0])):
            layer_ns += dur
    return {"calls": calls, "busy_ns": busy, "layer_ns": layer_ns}
