"""Shared model cache keyed by analysis configuration fingerprints.

The paper's latency requirement hinges on never retraining a model the backend
has already fitted: toggling a driver off and back on, or two concurrent
sessions analysing the same use case, should reuse the trained estimator
instead of paying the training cost again.  :class:`ModelCache` provides that
reuse layer:

* :func:`frame_fingerprint` hashes a frame's *content* (column names, dtypes,
  and raw values), so two independently loaded copies of the same dataset map
  to the same cache key; the digest is computed once per frame object;
* :func:`model_fingerprint` extends the frame hash with the KPI definition,
  the ordered driver selection, the model parameter overrides, and the random
  seed — exactly the inputs that determine the trained model;
* :class:`ModelCache` is a thread-safe LRU map from fingerprint to fitted
  :class:`~repro.core.model_manager.ModelManager`, with per-key creation locks
  so concurrent callers asking for the same configuration fit exactly one
  model between them.

Sessions own a private cache by default; the server wires one shared cache
through every session it creates (see :mod:`repro.server.registry`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Callable, TypeVar

import numpy as np

from ..frame import DataFrame
from ..obs import metrics
from .kpi import KPI

__all__ = ["ModelCache", "frame_fingerprint", "model_fingerprint"]

T = TypeVar("T")

_CACHE_HITS = metrics.counter("repro_model_cache_events_total").labels("hit")
_CACHE_MISSES = metrics.counter("repro_model_cache_events_total").labels("miss")
_CACHE_EVICTIONS = metrics.counter("repro_model_cache_events_total").labels("evict")


def frame_fingerprint(frame: DataFrame) -> str:
    """Content hash of a frame: column names, dtypes, and values.

    Two frames with equal content (even when loaded independently) produce the
    same digest; any cell, column name, or dtype change produces a different
    one.  Frames are immutable, so each frame object is hashed once and the
    digest memoised on it; derived frames are new objects with their own.
    """
    if frame._digest is not None:
        return frame._digest
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{frame.n_rows}x{frame.n_columns}".encode())
    for name in frame.columns:
        column = frame.column(name)
        digest.update(name.encode())
        digest.update(column.dtype.encode())
        values = column.values
        if values.dtype == object:
            for value in values:
                digest.update(repr(value).encode())
                digest.update(b"\x1f")
        else:
            digest.update(np.ascontiguousarray(values).tobytes())
    frame._digest = digest.hexdigest()
    return frame._digest


def model_fingerprint(
    frame: DataFrame,
    kpi: KPI,
    drivers: list[str] | tuple[str, ...],
    model_params: dict[str, Any] | None,
    random_state: int | None,
) -> str:
    """Cache key for a trained model: everything that determines the fit."""
    config = json.dumps(
        {
            "frame": frame_fingerprint(frame),
            "kpi": kpi.to_dict(),
            "drivers": list(drivers),
            "model_params": {k: repr(v) for k, v in sorted((model_params or {}).items())},
            "random_state": random_state,
        },
        sort_keys=True,
    )
    return hashlib.blake2b(config.encode(), digest_size=16).hexdigest()


class ModelCache:
    """Thread-safe LRU cache of fitted models, shared across sessions.

    Parameters
    ----------
    max_size:
        Maximum number of cached models; the least recently used entry is
        evicted when the cap is exceeded.  ``0`` disables caching entirely
        (every lookup is a miss and nothing is stored).
    """

    def __init__(self, max_size: int = 32) -> None:
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = max_size
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._pending: dict[str, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Any | None:
        """Return the cached value for ``key`` (touching LRU order) or None."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                _CACHE_HITS.inc()
                return self._entries[key]
            self._misses += 1
            _CACHE_MISSES.inc()
            return None

    def put(self, key: str, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        if self.max_size == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1
                _CACHE_EVICTIONS.inc()

    def get_or_create(self, key: str, factory: Callable[[], T]) -> T:
        """Return the cached value for ``key``, building it once if absent.

        Concurrent callers with the same key serialise on a per-key creation
        lock so at most one factory runs at a time (exactly one when it
        succeeds); callers with different keys build in parallel.  Ownership
        of a build is decided under the cache lock, so a factory failure
        cleanly hands the key to the next caller instead of leaking the lock
        or double-building.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    _CACHE_HITS.inc()
                    return self._entries[key]
                creation_lock = self._pending.get(key)
                if creation_lock is None:
                    creation_lock = threading.Lock()
                    # repro: ignore[LCK002] -- first acquire of a freshly built lock cannot block
                    creation_lock.acquire()
                    self._pending[key] = creation_lock
                    self._misses += 1
                    _CACHE_MISSES.inc()
                    is_owner = True
                else:
                    is_owner = False
            if not is_owner:
                # wait for the owner to finish, then re-check from the top:
                # on success the entry is cached, on failure we may become
                # the new owner
                with creation_lock:
                    pass
                continue
            try:
                value = factory()
            except BaseException:
                with self._lock:
                    self._pending.pop(key, None)
                creation_lock.release()
                raise
            with self._lock:
                self.put(key, value)
                self._pending.pop(key, None)
            creation_lock.release()
            return value

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every cached model (stats are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, Any]:
        """Hit/miss/eviction counters plus current occupancy."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": self._hits / total if total else 0.0,
            }
