"""Cross-run functional result cache keyed by structural plan fingerprints.

The functional (numpy) work of a subplan depends only on the database
and the subplan's structure — never on placement, caching, users, or
any other simulated-hardware knob.  Memoising results under a
structural fingerprint therefore lets *different* queries and *repeated
runs* share the numpy work wherever they share a subplan (the classic
example: every SSB query starts from the same lineorder scan), while
the simulation still models every timing aspect of every execution
independently.

Entries are kept per database in a :class:`weakref.WeakKeyDictionary`,
so dropping a database drops its cached results.  ``invalidate`` is the
explicit escape hatch for code that mutates a database in place (e.g.
compression rewrites columns): it must be called so stale payloads can
never leak into a later — validated — run.
"""

from __future__ import annotations

from typing import Optional, Tuple
from weakref import WeakKeyDictionary

from repro.engine import caches

#: database -> {fingerprint: (payload, actual_rows, nominal_rows, width)}
_cache: "WeakKeyDictionary" = WeakKeyDictionary()

#: hit/miss counters for benchmarking and tests
stats = {"hits": 0, "misses": 0, "stores": 0}


def lookup(database, fingerprint) -> Optional[Tuple]:
    """Cached result tuple for ``fingerprint`` on ``database``, if any."""
    if fingerprint is None:
        return None
    per_db = _cache.get(database)
    if per_db is None:
        stats["misses"] += 1
        return None
    cached = per_db.get(fingerprint)
    if cached is None:
        stats["misses"] += 1
    else:
        stats["hits"] += 1
    return cached


def peek(database, fingerprint) -> Optional[Tuple]:
    """Like :func:`lookup`, but without touching the hit/miss counters.

    Used by the morsel layer's already-memoised check, which must not
    distort the statistics the executor loop reports."""
    if fingerprint is None:
        return None
    per_db = _cache.get(database)
    return None if per_db is None else per_db.get(fingerprint)


def store(database, fingerprint, cached: Tuple) -> None:
    """Memoise one result tuple under ``fingerprint``."""
    if fingerprint is None:
        return
    per_db = _cache.get(database)
    if per_db is None:
        per_db = {}
        _cache[database] = per_db
    per_db[fingerprint] = cached
    stats["stores"] += 1


def invalidate(database=None) -> None:
    """Drop cached results — all of them, or one database's.

    Must be called whenever a database is mutated in place after
    results were cached against it.
    """
    if database is None:
        _cache.clear()
    else:
        _cache.pop(database, None)


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0


def cache_size(database=None) -> int:
    """Number of memoised subplan results (for one or all databases)."""
    if database is not None:
        return len(_cache.get(database) or ())
    return sum(len(entries) for entries in _cache.values())


caches.register("plan", invalidate, cache_size)
