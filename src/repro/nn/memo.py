"""Per-shape/value memoization for derived inference-only arrays.

Transformer inference recomputes a handful of small derived arrays far
more often than their inputs actually change: every encoder layer
rebuilds the same additive attention mask from the same padding matrix,
and both classifier heads rebuild the same column pooling matrix from
the same ``(column_ids, padding_mask)`` pair — twice per table when
Phase 2 runs. :class:`ArrayKeyLRU` is a bounded, thread-safe LRU keyed
by the *contents* of the input arrays (shape + dtype + raw bytes), so
it is exact: two inputs share a cache entry only if they are equal
element for element, which makes the memoized result bitwise identical
to a fresh computation.

Cached values are returned by reference and marked read-only
(``setflags(write=False)``) — callers must treat them as immutable,
which all current consumers do (they only ever *read* masks and pooling
matrices). Hit/miss/eviction totals are exported per cache as
``nn.memo.{hits,misses,evictions}{cache=<name>}``; like the latent
cache, every metric is emitted strictly *outside* ``self._lock`` so the
memo's lock never nests around a metric lock (the observed lock order is
checked by ``tests/test_stack_lock_order.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..obs.metrics import global_registry

__all__ = ["ArrayKeyLRU"]


def _array_key(arrays: tuple[np.ndarray, ...]) -> tuple:
    parts: list = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        parts.append((array.shape, array.dtype.str, array.tobytes()))
    return tuple(parts)


class ArrayKeyLRU:
    """Bounded thread-safe LRU keyed by ndarray contents.

    ``get(inputs, build)`` returns ``build(*inputs)`` memoized on the
    exact bytes of ``inputs`` (a single ndarray or a tuple of them).
    Results are frozen read-only before being stored so a shared entry
    can never be mutated by one caller under another's feet.
    """

    def __init__(self, name: str, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._store: OrderedDict[tuple, np.ndarray] = OrderedDict()
        registry = global_registry()
        self._hit_counter = registry.counter("nn.memo.hits", cache=name)
        self._miss_counter = registry.counter("nn.memo.misses", cache=name)
        self._eviction_counter = registry.counter("nn.memo.evictions", cache=name)

    def get(
        self,
        inputs: "np.ndarray | tuple[np.ndarray, ...]",
        build: Callable[..., np.ndarray],
    ) -> np.ndarray:
        if isinstance(inputs, np.ndarray):
            inputs = (inputs,)
        key = _array_key(inputs)
        with self._lock:
            value = self._store.get(key)
            if value is not None:
                self._store.move_to_end(key)
                self.hits += 1
        if value is not None:
            self._hit_counter.inc()
            return value
        built = build(*inputs)
        built.setflags(write=False)
        evicted = 0
        with self._lock:
            self.misses += 1
            # Two racing misses on the same key may both build; insert via
            # setdefault so only the first build is kept and the capacity
            # accounting sees one entry — the loser returns the winner's
            # (bitwise-identical) array. The eviction loop runs while the
            # lock is still held, so the store can never exceed capacity
            # even when many threads insert concurrently.
            built = self._store.setdefault(key, built)
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        self._miss_counter.inc()
        if evicted:
            self._eviction_counter.inc(evicted)
        return built

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)
