"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start, an end, a parent span and the id of the
timed operation it belongs to. Spans are kept in memory and written out
once, when the run ends. Self time (a span's duration minus the time its
child spans cover) is folded per operation as spans close, so the
per-layer split of an operation is ready the moment it finishes.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts, attributed to the current operation."""

    def __init__(self) -> None:
        # (span_id, parent_id, op_id, name, start_s, end_s)
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self._stack: list[list] = []  # [span_id, name, start, child_s]
        self._next_id = 0
        self.op_id = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._cells: dict[str, list[int]] = {}

    def begin_op(self, name: str) -> None:
        """Start a timed operation; its root span is ``name``."""
        if self._stack:
            raise RuntimeError(f"operation {name} started inside a span")
        self.op_id += 1
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.open(name)

    def end_op(self) -> tuple[float, dict[str, float], dict[str, float]]:
        """Close the operation's root span. Returns (wall seconds, self
        seconds per layer, counts); the root's own self time is left out
        of the layers — it is the time no layer accounts for."""
        wall, _ = self.close()
        if self._stack:
            raise RuntimeError("operation ended with spans still open")
        for name, cell in self._cells.items():
            if cell[0]:
                self.counts[name] += cell[0]
                cell[0] = 0
        layers = dict(self.self_s)
        layers.pop(self.spans[-1][3], None)
        return wall, layers, dict(self.counts)

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> tuple[float, float]:
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append(
            (span_id, parent[0] if parent else None, self.op_id, name, start, end)
        )
        self.self_s[name] += dur - child_s
        return dur, dur - child_s

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def cell(self, name: str) -> list[int]:
        """A one-element counter for hot call sites: incrementing
        ``cell[0]`` costs less than :meth:`count`. It is folded into the
        operation's counts when the operation ends."""
        return self._cells.setdefault(name, [0])

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")
