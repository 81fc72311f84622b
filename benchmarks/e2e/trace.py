"""Cross-process span merge, self time, layer attribution, Chrome trace.

A traced run leaves one span dump per fleet process
(:mod:`e2e.probes`) plus the bench's own client spans, one per request.
For every request this module

1. **merges** the spans carrying the request's trace id into one tree.
   Within a thread, a span's parent is the span that was open on that
   thread when it started.  Across threads and processes, the parent is
   the innermost span of the same trace whose interval encloses the
   span's start — looked for in the span's own process first, never
   among spans of its own layer (the parallel legs of one fan-out
   overlap in time), and, for a shard-side span, only among client legs
   addressed to that shard's port.  A child's interval
   is clipped to its parent's, so clock-edge effects (a shard's
   ``sendall`` returning after the client already read the reply) never
   let a child outlive its parent;
2. computes each span's **self time**: wall time minus the union of its
   children's intervals, so ``self + children == wall`` for every span
   (CPM-style own versus inherited delay);
3. **attributes** every nanosecond of the client's round trip to exactly
   one span: a parent hands an instant to the child it waits for there
   — of the children covering it, the one that ends last (the critical
   path) — and keeps the instants no child covers.  Without fan-out
   this is each span's self time; with fan-out the leg that finishes
   first is not charged for time the request spent waiting on the
   other.  Layer times therefore sum exactly to the client latency.

The client span's own share is ``serve.front_wire``: the bench->front
door round trip outside every span the server recorded.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

#: Name of the bench-side span of each request; its attributed time is
#: reported as the ``serve.front_wire`` layer.
CLIENT = "client"
FRONT_WIRE = "serve.front_wire"


@dataclass(eq=False)
class Span:
    """One timed call; ``key`` is ``(pid, span id)``."""

    key: tuple[int, int]
    name: str
    trace: str
    start: int
    end: int
    pid: int
    tid: int
    parent: tuple[int, int] | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    # filled by build_tree
    cstart: int = 0
    cend: int = 0
    children: list["Span"] = field(default_factory=list)

    @property
    def wall(self) -> int:
        return self.cend - self.cstart


def load_dumps(directory: str) -> tuple[list[Span], dict[int, str]]:
    """Every span dumped under ``directory`` and each process's role."""
    spans: list[Span] = []
    roles: dict[int, str] = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            payload = json.load(handle)
        pid = int(payload["pid"])
        roles[pid] = str(payload["role"])
        for span_id, parent, trace, label, start, end, tid, attrs in payload["spans"]:
            spans.append(
                Span(
                    key=(pid, span_id),
                    name=label,
                    trace=trace,
                    start=start,
                    end=end,
                    pid=pid,
                    tid=tid,
                    parent=(pid, parent) if parent is not None else None,
                    attrs=attrs,
                )
            )
    return spans, roles


def group_by_trace(spans: Iterable[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.trace].append(span)
    return grouped


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _enclosing(span: Span, placed: Sequence[Span]) -> Span | None:
    """Innermost placed span enclosing ``span``'s start (same process
    first; a shard-side span only under a leg addressed to its port).
    Spans of the span's own layer are its parallel siblings (the legs of
    one scatter), never its parent."""

    def inner(candidates: Iterable[Span]) -> Span | None:
        best = None
        for c in candidates:
            if (
                c.name != span.name
                and c.cstart <= span.start < c.cend
                and (best is None or (c.cstart, -c.cend) > (best.cstart, -best.cend))
            ):
                best = c
        return best

    same = inner(c for c in placed if c.pid == span.pid)
    if same is not None:
        return same
    others = [c for c in placed if c.pid != span.pid]
    port = span.attrs.get("port")
    if port is not None:
        legs = inner(c for c in others if c.attrs.get("peer") == port)
        if legs is not None:
            return legs
    return inner(others)


def build_tree(root: Span, spans: Sequence[Span]) -> int:
    """Link ``spans`` (one trace) under ``root``; returns the number of
    spans no enclosing parent was found for (attached to ``root``)."""
    root.cstart, root.cend, root.children = root.start, root.end, []
    by_key = {span.key: span for span in spans}
    placed: list[Span] = [root]
    placed_keys = {root.key}
    orphans = 0
    for span in sorted(spans, key=lambda s: (s.start, -s.end, s.key)):
        parent = by_key.get(span.parent) if span.parent is not None else None
        if parent is None or parent.key not in placed_keys:
            parent = _enclosing(span, placed)
        if parent is None:
            parent = root
            orphans += 1
        span.cstart = min(max(span.start, parent.cstart), parent.cend)
        span.cend = max(min(span.end, parent.cend), span.cstart)
        span.children = []
        parent.children.append(span)
        placed.append(span)
        placed_keys.add(span.key)
    return orphans


def union_length(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span) -> int:
    """Wall time minus the union of the children's intervals."""
    return span.wall - union_length((c.cstart, c.cend) for c in span.children)


def walk(root: Span) -> Iterable[Span]:
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def check_tree(root: Span) -> int:
    """Spans where ``self + children != wall`` (always 0 for a tree
    built by :func:`build_tree`)."""
    bad = 0
    for span in walk(root):
        inherited = union_length((c.cstart, c.cend) for c in span.children)
        if self_time(span) + inherited != span.wall or any(
            c.cstart < span.cstart or c.cend > span.cend for c in span.children
        ):
            bad += 1
    return bad


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def layer_of(span: Span) -> str:
    return FRONT_WIRE if span.name == CLIENT else span.name


def attribute(span: Span, lo: int, hi: int, owned: dict[str, int]) -> None:
    """Charge every instant of ``[lo, hi)`` to exactly one span of the
    subtree: the deepest span on the critical path covering it."""
    kids = []
    for child in span.children:
        a, b = max(child.cstart, lo), min(child.cend, hi)
        if a < b:
            kids.append((a, b, child))
    if not kids:
        owned[layer_of(span)] = owned.get(layer_of(span), 0) + hi - lo
        return
    bounds = sorted({lo, hi, *(a for a, _, _ in kids), *(b for _, b, _ in kids)})
    run_owner: Span | None = None
    run_start = lo

    def flush(owner: Span | None, a: int, b: int) -> None:
        if b <= a:
            return
        if owner is None:
            owned[layer_of(span)] = owned.get(layer_of(span), 0) + b - a
        else:
            attribute(owner, a, b, owned)

    for a, b in zip(bounds, bounds[1:]):
        cover = [k for k in kids if k[0] <= a and b <= k[1]]
        owner = (
            max(cover, key=lambda k: (k[2].cend, k[2].cstart, k[2].key))[2]
            if cover
            else None
        )
        if owner is not run_owner:
            flush(run_owner, run_start, a)
            run_owner, run_start = owner, a
    flush(run_owner, run_start, hi)


def owned_times(root: Span) -> dict[str, int]:
    """Layer -> ns of the root's wall time it owns; sums to the wall."""
    owned: dict[str, int] = {}
    attribute(root, root.cstart, root.cend, owned)
    return owned


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
@dataclass
class TraceReport:
    """Merged trees of one traced run, ready for metric extraction."""

    roots: list[Span]
    roles: dict[int, str]
    orphans: int = 0
    bad_spans: int = 0
    owned: dict[str, int] = field(default_factory=dict)
    by_name: dict[str, list[Span]] = field(default_factory=dict)

    @classmethod
    def merge(
        cls, roots: Sequence[Span], spans: Sequence[Span], roles: dict[int, str]
    ) -> "TraceReport":
        grouped = group_by_trace(spans)
        report = cls(roots=list(roots), roles=dict(roles))
        owned: dict[str, int] = defaultdict(int)
        by_name: dict[str, list[Span]] = defaultdict(list)
        for root in report.roots:
            report.orphans += build_tree(root, grouped.get(root.trace, []))
            report.bad_spans += check_tree(root)
            for layer, ns in owned_times(root).items():
                owned[layer] += ns
            for span in walk(root):
                by_name[span.name].append(span)
        report.owned, report.by_name = dict(owned), dict(by_name)
        return report

    def spans(self) -> Iterable[Span]:
        for root in self.roots:
            yield from walk(root)

    def coverage(self) -> float:
        """Share of client latency inside spans the server recorded."""
        total = sum(root.wall for root in self.roots)
        return 1.0 - self.owned.get(FRONT_WIRE, 0) / total if total else 0.0

    def layer_ms(self, layer: str) -> float:
        """Mean attributed ms per request of one layer."""
        return self.owned.get(layer, 0) / max(len(self.roots), 1) / 1e6

    def per_request(self, name: str) -> float:
        """Mean number of ``name`` spans per request."""
        return len(self.by_name.get(name, ())) / max(len(self.roots), 1)

    def attr_sum(self, name: str, attr: str) -> float:
        return float(sum(s.attrs.get(attr, 0) for s in self.by_name.get(name, ())))

    def walls_ms(self, name: str) -> list[float]:
        return [span.wall / 1e6 for span in self.by_name.get(name, ())]


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def write_chrome_trace(report: TraceReport, path: str) -> None:
    """Chrome ``traceEvents`` JSON (load in chrome://tracing or Perfetto):
    one pid per process, one complete event per span, with its trace id
    and self time in ``args``."""
    spans = list(report.spans())
    origin = min((span.cstart for span in spans), default=0)
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": role}}
        for pid, role in sorted(report.roles.items())
    ]
    for span in spans:
        events.append(
            {
                "name": layer_of(span),
                "ph": "X",
                "ts": (span.cstart - origin) / 1e3,
                "dur": span.wall / 1e3,
                "pid": span.pid,
                "tid": span.tid,
                "args": {
                    "trace": span.trace,
                    "self_us": self_time(span) / 1e3,
                    **span.attrs,
                },
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
