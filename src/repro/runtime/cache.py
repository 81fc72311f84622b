"""Content-keyed artifact caching for expensive derived tensors.

Feature extraction is the dominant fixed cost of every fit / serve /
optimize call: the same dataset snapshot swept over the same timeline
with the same feature grid always yields the same tensor.
:class:`ArtifactCache` memoises such artifacts under *content
fingerprints* — a key derived from the bytes of the inputs, not object
identity — so re-binding a fitted estimator to an unchanged snapshot
(:meth:`DomdEstimator.serve`) or constructing a second optimizer over
the same dataset skips the sweep entirely.

Entries are kept in insertion-refreshing LRU order with a bounded
entry count; hits and misses are reported to the owning
:class:`~repro.runtime.metrics.MetricsSink` when one is attached.

The cache is safe to share across a pool of worker threads:  all map
operations run under an internal lock, and :meth:`get_or_build` is
**single-flight** — when N threads ask for the same missing key at
once, exactly one executes the builder while the rest wait for its
result (counted as ``cache.coalesced``), so an expensive feature-tensor
sweep is never duplicated under concurrent load.  Builders run
*outside* the lock, so unrelated keys build in parallel.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from repro.runtime.metrics import MetricsSink


def fingerprint_bytes(*chunks: bytes) -> str:
    """Stable hex digest of a sequence of byte chunks."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()[:16]


def fingerprint_array(array: np.ndarray) -> str:
    """Content fingerprint of one numpy array (dtype + shape + bytes)."""
    array = np.asarray(array)
    if array.dtype == object:
        payload = "\x1f".join([str(v) for v in array.ravel().tolist()]).encode()
    else:
        payload = np.ascontiguousarray(array).tobytes()
    return fingerprint_bytes(
        str(array.dtype).encode(), str(array.shape).encode(), payload
    )


def fingerprint_of(*parts: Any) -> str:
    """Fingerprint heterogeneous parts (arrays, strings, numbers)."""
    chunks: list[bytes] = []
    for part in parts:
        if isinstance(part, np.ndarray):
            chunks.append(fingerprint_array(part).encode())
        elif isinstance(part, bytes):
            chunks.append(part)
        else:
            chunks.append(repr(part).encode())
    return fingerprint_bytes(*chunks)


class _Flight:
    """One in-progress build that followers wait on (single-flight)."""

    __slots__ = ("done", "value", "success")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.success = False


class ArtifactCache:
    """Bounded, thread-safe LRU cache keyed by content fingerprints."""

    def __init__(self, max_entries: int = 8, metrics: MetricsSink | None = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.metrics = metrics
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def _count(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"cache.{event}")

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            hit = key in self._entries
            entry = self._entries.get(key, default)
            if hit:
                self._entries.move_to_end(key)
        self._count("hits" if hit else "misses")
        return entry

    def put(self, key: Hashable, value: Any) -> Any:
        evictions = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evictions += 1
        for _ in range(evictions):
            self._count("evictions")
        return value

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the cached artifact or build, store and return it.

        Single-flight: concurrent callers for the same missing key
        coalesce onto one build — the first caller (the *leader*)
        executes ``build`` outside the lock, followers block until the
        leader finishes and then share its stored value.  If the
        leader's build raises, followers retry (one of them becomes the
        next leader) instead of receiving a poisoned result.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    value = self._entries[key]
                    self._count("hits")
                    return value
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = _Flight()
                    leader = True
                else:
                    leader = False
            if not leader:
                self._count("coalesced")
                flight.done.wait()
                if flight.success:
                    self._count("hits")
                    return flight.value
                continue  # leader failed; loop to contend for leadership
            self._count("misses")
            try:
                value = build()
            except BaseException:
                with self._lock:
                    del self._flights[key]
                flight.done.set()
                raise
            self._count("builds")
            flight.value = value
            flight.success = True
            self.put(key, value)
            with self._lock:
                del self._flights[key]
            flight.done.set()
            return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
