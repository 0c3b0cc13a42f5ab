"""Items and spans shared by the three workloads."""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Item:
    """One unit of work in a workload's fixed list.

    `kind` names the item kind; `args` are the generated inputs the
    workload passes to udestats.
    """

    kind: str
    args: tuple


class Tracer:
    """Spans recorded around calls into udestats' public functions.

    Each span is (id, parent id, item index, item kind, name, start, end);
    an item's own span is the parent of every call made for it.  Counts
    are kept per item kind at the same boundaries.  Spans stay in memory
    until the run writes them out.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict[tuple[str, str], float] = {}
        self._item = None
        self._kind = None
        self._parent = None

    def begin_item(self, index: int, kind: str) -> None:
        self._item, self._kind = index, kind
        self._parent = len(self.spans)
        self.spans.append([self._parent, None, index, kind, "item",
                           time.perf_counter(), None])

    def end_item(self) -> None:
        self.spans[self._parent][6] = time.perf_counter()
        self._item = self._kind = self._parent = None

    def call(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.spans.append((len(self.spans), self._parent, self._item,
                           self._kind, name, t0, t1))
        return out

    def count(self, name: str, amount: float = 1) -> None:
        key = (name, self._kind)
        self.counts[key] = self.counts.get(key, 0) + amount

    def counted(self, name: str, kind: str | None = None) -> float:
        return sum(v for (n, k), v in self.counts.items()
                   if n == name and kind in (None, k))

    def busy(self, name: str, kind: str | None = None) -> tuple[float, int]:
        """Total seconds and number of spans with this name (and kind)."""
        total, calls = 0.0, 0
        for s in self.spans:
            if s[4] == name and kind in (None, s[3]):
                total += s[6] - s[5]
                calls += 1
        if not calls:
            raise KeyError(f"no spans named {name} for kind {kind}")
        return total, calls

    def mean(self, name: str, kind: str | None, scale: float) -> float:
        total, calls = self.busy(name, kind)
        return total / calls * scale

    def rate(self, count: str, span: str, kind: str | None = None) -> float:
        """A count made at a boundary per second spent in a span."""
        return self.counted(count, kind) / self.busy(span, kind)[0]

    def records(self) -> list[dict]:
        return [{"id": s[0], "parent": s[1], "item": s[2], "kind": s[3],
                 "name": s[4], "start": s[5], "end": s[6]}
                for s in self.spans]

