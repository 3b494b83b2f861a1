"""Per-layer tracing from outside the program.

The tracer replaces chosen torifan functions by wrappers. A function is found
by object identity in every loaded ``torifan.*`` namespace, so a name that a
module imported from another (``from .fan import validate``) is wrapped as
well. Span targets record one span per call (id, parent id, request id,
name, start, end); count targets only count calls, for functions called
millions of times. Spans stay in memory until ``write``.

Self time of a span is its duration minus the durations of its direct child
spans. A function's total time counts only its outermost active call, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional


class _Stats:
    __slots__ = ("calls", "total", "self_time", "depth", "outcomes")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.outcomes: dict[str, int] = {}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter, prefix: str = "torifan"):
        self.clock = clock
        self.prefix = prefix
        self.stats: dict[str, _Stats] = {}
        self.counts: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.request = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _resolve(self, target: str):
        module_name, _, attr = target.rpartition(".")
        module = sys.modules.get(f"{self.prefix}.{module_name}")
        return getattr(module, attr, None) if module is not None else None

    def _replace(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.prefix or name.startswith(self.prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, spans: dict[str, Optional[Callable]], counts: tuple[str, ...]) -> None:
        """Wrap each span target (with an optional outcome observer) and count target."""
        for target, observe in spans.items():
            self.stats[target] = _Stats()
            original = self._resolve(target)
            if not callable(original):
                self.missing.append(target)
                continue
            self._replace(original, self._span_wrapper(target, original, observe))
        for target in counts:
            self.counts[target] = cell = [0]
            original = self._resolve(target)
            if not callable(original):
                self.missing.append(target)
                continue
            self._replace(original, self._count_wrapper(cell, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------------

    @staticmethod
    def _count_wrapper(cell: list[int], fn):
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn, observe):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            # frame: [span id, name, time covered by direct children]
            frame = [span_id, name, 0.0]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats.depth -= 1
                duration = end - start
                stats.calls += 1
                stats.self_time += duration - frame[2]
                if stats.depth == 0:
                    stats.total += duration
                if parent is not None:
                    parent[2] += duration
                spans.append((span_id, parent[0] if parent else 0, self.request, name, start, end))
            if observe is not None:
                for outcome in observe(result, parent[1] if parent else None):
                    stats.outcomes[outcome] = stats.outcomes.get(outcome, 0) + 1
            return result

        return traced

    # -- results -----------------------------------------------------------------

    def outcome(self, target: str, key: str) -> int:
        return self.stats[target].outcomes.get(key, 0)

    def write(self, path: str) -> None:
        """All spans as CSV: id, parent id, request id, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,request,name,start,end\n")
            for span in self.spans:
                out.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)
