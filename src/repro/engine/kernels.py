"""Kernel-acceleration layer: cached join indexes and zone maps.

The functional (numpy) kernels are pure computations over immutable
column arrays, so derived access structures can be built once per
database and reused across queries and runs — exactly how GPU engines
amortise their data-parallel primitives:

* **Cached join indexes** — the stable argsort order (and sorted view)
  of a join-key column.  ``HashJoin`` re-sorted the build column on
  every execution; with the index cached, probing is a pair of
  ``searchsorted`` calls.  Key columns that are dense ascending ranges
  (dimension primary keys) skip the search entirely and join by
  positional lookup.
* **Zone maps** — per-block min/max statistics
  (:mod:`repro.storage.blocks`) letting ``ScanSelect`` skip blocks that
  wholly fail a predicate and short-circuit blocks that wholly pass.
  String predicates work through dictionary-code bounds, mirroring
  ``expressions._encode_literal`` exactly.

Everything here is a pure acceleration: the produced tid sets and masks
are byte-identical to the unaccelerated operators.  The cache registers
itself with :mod:`repro.engine.caches`, so ``compress_database`` and
``clear_database_caches`` invalidate it alongside the plan cache.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.engine import caches
from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
)
from repro.storage.blocks import DEFAULT_BLOCK_ROWS, ZoneMap, build_zone_map
from repro.storage.types import ColumnType

#: Environment knob: rows per zone-map block (default 64K).  The
#: simulation's actual arrays are small, so tests and benchmarks tune
#: this down to exercise pruning.
BLOCK_ENV = "REPRO_ZONE_BLOCK"

#: If the build side of a cached-index join would expand to more than
#: this many matches per probe row before mask filtering, fall back to
#: sorting the filtered values (the seed path) instead.
_EXPAND_FALLBACK_FACTOR = 4

_block_rows_override: Optional[int] = None

#: database -> KernelCache
_caches: "WeakKeyDictionary" = WeakKeyDictionary()

#: Event counters for benchmarks and tests.
stats = {
    "join_index_builds": 0,
    "join_index_hits": 0,
    "dense_joins": 0,
    "zone_map_builds": 0,
    "scans_pruned": 0,
    "blocks_skipped": 0,
    "blocks_short_circuited": 0,
    "masked_refines": 0,
    "masked_intersects": 0,
    "lookup_builds": 0,
    "lookup_hits": 0,
    "bounds_builds": 0,
}


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0


def snapshot_stats() -> Dict[str, int]:
    return dict(stats)


def default_block_rows() -> int:
    """Effective zone-map block size: override > $REPRO_ZONE_BLOCK > 64K."""
    if _block_rows_override is not None:
        return _block_rows_override
    raw = os.environ.get(BLOCK_ENV, "").strip()
    if raw:
        return max(int(raw), 1)
    return DEFAULT_BLOCK_ROWS


def set_block_rows(block_rows: Optional[int]) -> None:
    """Override the zone-map block size (None restores env/default).

    Existing caches keep their maps; call :func:`invalidate` to rebuild
    at the new granularity.
    """
    global _block_rows_override
    if block_rows is not None and int(block_rows) < 1:
        raise ValueError("block_rows must be >= 1")
    _block_rows_override = None if block_rows is None else int(block_rows)


class JoinIndex:
    """Reusable access structure over one join-key column.

    ``dense_base`` is set when the column is a dense ascending integer
    range (``base, base+1, ...``) — dimension primary keys — in which
    case matches are positional and no sort order is materialised.
    Otherwise ``order`` is the stable argsort of the column and
    ``sorted_values`` the column gathered through it.
    """

    __slots__ = ("order", "sorted_values", "dense_base")

    def __init__(self, order, sorted_values, dense_base):
        self.order = order
        self.sorted_values = sorted_values
        self.dense_base = dense_base


def _build_join_index(values: np.ndarray) -> JoinIndex:
    stats["join_index_builds"] += 1
    if len(values) and values.dtype.kind in "iu":
        base = int(values[0])
        if int(values[-1]) == base + len(values) - 1:
            expected = np.arange(base, base + len(values), dtype=values.dtype)
            if np.array_equal(values, expected):
                return JoinIndex(None, values, base)
    order = np.argsort(values, kind="stable")
    return JoinIndex(order, values[order], None)


#: A position lookup is only built when the key span is at most this
#: factor of the column length (plus slack for small tables): sparse
#: keys would waste memory for no probe-time gain over the sorted index.
_LOOKUP_SPAN_FACTOR = 4
_LOOKUP_SPAN_SLACK = 65536


class PositionLookup:
    """O(1) key→row-position table for a *unique* integer key column.

    ``table[key - base]`` is the row position of ``key`` (or -1).  This
    is the morsel pipeline's probe structure for non-dense primary keys
    (e.g. ``d_datekey``): one gather per morsel instead of two
    ``searchsorted`` passes.  Because every key is unique, the match
    expansion it implies is byte-identical to the sorted-index path.
    """

    __slots__ = ("base", "table", "n_rows")

    def __init__(self, base, table, n_rows):
        self.base = base
        self.table = table
        self.n_rows = n_rows


def _build_position_lookup(values: np.ndarray) -> Optional[PositionLookup]:
    n = len(values)
    if n == 0 or values.dtype.kind not in "iu":
        return None
    vmin = int(values.min())
    vmax = int(values.max())
    span = vmax - vmin + 1
    if span > _LOOKUP_SPAN_FACTOR * n + _LOOKUP_SPAN_SLACK:
        return None
    table = np.full(span, -1, dtype=np.int64)
    table[values.astype(np.int64) - vmin] = np.arange(n, dtype=np.int64)
    if int(np.count_nonzero(table >= 0)) != n:
        return None  # duplicate keys collided
    stats["lookup_builds"] += 1
    return PositionLookup(vmin, table, n)


class KernelCache:
    """Per-database store of join indexes and zone maps.

    Both are keyed by column key and validated against the column's
    current array length, but the authoritative invalidation is
    explicit (:func:`invalidate` via the cache registry) — exactly like
    the plan cache.
    """

    def __init__(self, block_rows: Optional[int] = None):
        self.block_rows = (
            int(block_rows) if block_rows is not None else default_block_rows()
        )
        self._join_indexes: Dict[str, JoinIndex] = {}
        self._zone_maps: Dict[str, ZoneMap] = {}
        self._lookups: Dict[str, Tuple[int, Optional[PositionLookup]]] = {}
        self._bounds: Dict[str, Tuple[int, Tuple[int, int]]] = {}

    def join_index(self, column) -> JoinIndex:
        index = self._join_indexes.get(column.key)
        if index is not None and len(index.sorted_values) == len(column.values):
            stats["join_index_hits"] += 1
            return index
        index = _build_join_index(column.values)
        self._join_indexes[column.key] = index
        return index

    def position_lookup(self, column) -> Optional[PositionLookup]:
        """Unique-key position table for ``column``, or None when the
        column has duplicates, is non-integer, or spans too wide a key
        range.  A failed build is memoised so the scan runs once."""
        entry = self._lookups.get(column.key)
        n_col = len(column.values)
        if entry is not None and entry[0] == n_col:
            if entry[1] is not None:
                stats["lookup_hits"] += 1
            return entry[1]
        lookup = _build_position_lookup(column.values)
        self._lookups[column.key] = (n_col, lookup)
        return lookup

    def column_bounds(self, column) -> Optional[Tuple[int, int]]:
        """Cached (min, max) of an integer column — the morsel
        aggregator's group-id radix source.  None for empty or
        non-integer columns."""
        entry = self._bounds.get(column.key)
        n_col = len(column.values)
        if entry is not None and entry[0] == n_col:
            return entry[1]
        values = column.values
        if n_col == 0 or values.dtype.kind not in "iu":
            bounds = None
        else:
            stats["bounds_builds"] += 1
            bounds = (int(values.min()), int(values.max()))
        self._bounds[column.key] = (n_col, bounds)
        return bounds

    def zone_map(self, column) -> ZoneMap:
        zone_map = self._zone_maps.get(column.key)
        if (
            zone_map is not None
            and zone_map.n_rows == len(column.values)
            and zone_map.block_rows == self.block_rows
        ):
            return zone_map
        stats["zone_map_builds"] += 1
        zone_map = build_zone_map(column.values, self.block_rows)
        self._zone_maps[column.key] = zone_map
        return zone_map

    def clear(self) -> None:
        self._join_indexes.clear()
        self._zone_maps.clear()
        self._lookups.clear()
        self._bounds.clear()

    def __len__(self) -> int:
        return (
            len(self._join_indexes)
            + len(self._zone_maps)
            + len(self._lookups)
            + len(self._bounds)
        )


def cache_for(database) -> KernelCache:
    """The database's kernel cache (created on first use)."""
    cache = _caches.get(database)
    if cache is None:
        cache = KernelCache()
        _caches[database] = cache
    return cache


def invalidate(database=None) -> None:
    """Drop cached kernels — all of them, or one database's."""
    if database is None:
        _caches.clear()
    else:
        _caches.pop(database, None)


def cache_size(database=None) -> int:
    """Number of cached kernel structures (one or all databases)."""
    if database is not None:
        cache = _caches.get(database)
        return len(cache) if cache is not None else 0
    return sum(len(cache) for cache in _caches.values())


# ---------------------------------------------------------------------------
# Zone-map pruned scans
# ---------------------------------------------------------------------------

class _BlockFrame:
    """Frame over one contiguous row range of a base table.

    Predicates are elementwise, so evaluating over a slice of the
    column arrays equals the full evaluation restricted to the slice.
    """

    __slots__ = ("_database", "_start", "_stop")

    def __init__(self, database):
        self._database = database
        self._start = 0
        self._stop = 0

    def set_range(self, start: int, stop: int) -> None:
        self._start = start
        self._stop = stop

    def array(self, key: str) -> np.ndarray:
        return self._database.column(key).values[self._start:self._stop]

    def column_meta(self, key: str):
        return self._database.column(key)


def _comparison_bounds(column, op: str, value):
    """Normalise a comparison literal the way ``Comparison.evaluate``
    does: string literals become dictionary codes, strict string
    inequalities become inclusive ones."""
    if isinstance(value, str):
        if column.ctype is not ColumnType.STRING:
            return None
        if op in ("=", "<>"):
            value = column.encode(value)
        elif op == "<=":
            value = column.encode_upper_bound(value)
        elif op == "<":
            value = column.encode_lower_bound(value) - 1
            op = "<="
        elif op == ">=":
            value = column.encode_lower_bound(value)
        elif op == ">":
            value = column.encode_upper_bound(value) + 1
            op = ">="
        else:
            return None
    elif isinstance(value, (list, tuple, np.ndarray)):
        return None
    return op, value


def _comparison_verdicts(zone_map: ZoneMap, op: str, value):
    """(all_pass, none_pass) block verdicts for ``column op value``."""
    mins, maxs = zone_map.mins, zone_map.maxs
    if op == "=":
        outside = (value < mins) | (value > maxs)
        return (mins == value) & (maxs == value), outside
    if op == "<>":
        outside = (value < mins) | (value > maxs)
        return outside, (mins == value) & (maxs == value)
    if op == "<":
        return maxs < value, mins >= value
    if op == "<=":
        return maxs <= value, mins > value
    if op == ">":
        return mins > value, maxs <= value
    if op == ">=":
        return mins >= value, maxs < value
    return None


def _literal_value(expr):
    return expr.value if isinstance(expr, Literal) else None


def _predicate_verdicts(database, table_name: str, predicate,
                        cache: KernelCache, n_blocks: int):
    """Recursive block classification.

    Returns ``(all_pass, none_pass)`` boolean arrays over blocks, or
    None when the predicate shape is not analysable.  Inside And/Or an
    unanalysable child degrades to all-partial (never wrong, only less
    pruning).
    """
    undecided = None  # lazily built (zeros, zeros) pair

    def _recurse(node):
        nonlocal undecided
        if isinstance(node, Comparison):
            op, ref, lit = node.op, node.left, node.right
            if isinstance(lit, ColumnRef) and isinstance(ref, Literal):
                ref, lit = lit, ref
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if not (isinstance(ref, ColumnRef) and isinstance(lit, Literal)):
                return None
            if ref.table != table_name:
                return None
            column = database.column(ref.key)
            bounds = _comparison_bounds(column, op, lit.value)
            if bounds is None:
                return None
            return _comparison_verdicts(cache.zone_map(column), *bounds)
        if isinstance(node, Between):
            lower = Comparison(">=", node.expr, node.low)
            upper = Comparison("<=", node.expr, node.high)
            return _recurse(And([lower, upper]))
        if isinstance(node, InList):
            if not isinstance(node.expr, ColumnRef):
                return None
            if node.expr.table != table_name or not node.values:
                return None
            column = database.column(node.expr.key)
            values = node.values
            if isinstance(values[0], str):
                if column.ctype is not ColumnType.STRING:
                    return None
                values = [column.encode(v) for v in values]
            zone_map = cache.zone_map(column)
            mins, maxs = zone_map.mins, zone_map.maxs
            none_pass = np.ones(len(mins), dtype=bool)
            for value in values:
                none_pass &= (value < mins) | (value > maxs)
            all_pass = (mins == maxs) & np.isin(mins, np.asarray(values))
            return all_pass, none_pass
        if isinstance(node, (And, Or)):
            child_verdicts = []
            for child in node.children:
                verdict = _recurse(child)
                if verdict is None:
                    if undecided is None:
                        undecided = (
                            np.zeros(n_blocks, dtype=bool),
                            np.zeros(n_blocks, dtype=bool),
                        )
                    verdict = undecided
                child_verdicts.append(verdict)
            alls = [v[0] for v in child_verdicts]
            nones = [v[1] for v in child_verdicts]
            if isinstance(node, And):
                # every row passes iff it passes every child; a block
                # fails outright as soon as one child rules it out.
                return (
                    np.logical_and.reduce(alls),
                    np.logical_or.reduce(nones),
                )
            return (
                np.logical_or.reduce(alls),
                np.logical_and.reduce(nones),
            )
        if isinstance(node, Not):
            verdict = _recurse(node.child)
            if verdict is None:
                return None
            return verdict[1], verdict[0]
        return None

    return _recurse(predicate)


def scan_mask(database, table_name: str, predicate,
              cache: KernelCache) -> Optional[np.ndarray]:
    """Zone-map accelerated predicate mask over a full base table.

    Returns the boolean row mask — bitwise identical to
    ``predicate.evaluate(Frame(database))`` — or None when pruning does
    not apply (single block, unanalysable predicate, or too few decided
    blocks to beat a plain full evaluation).
    """
    n_rows = database.table(table_name).actual_rows
    block_rows = cache.block_rows
    if n_rows <= block_rows:
        return None
    n_blocks = (n_rows + block_rows - 1) // block_rows
    verdicts = _predicate_verdicts(database, table_name, predicate, cache,
                                   n_blocks)
    if verdicts is None:
        return None
    all_pass, none_pass = verdicts
    partial = ~(all_pass | none_pass)
    n_partial = int(np.count_nonzero(partial))
    if n_partial * 2 > n_blocks:
        # Most blocks need row-level work anyway: one full vectorised
        # evaluation beats many per-block ones.
        return None
    stats["scans_pruned"] += 1
    stats["blocks_skipped"] += int(np.count_nonzero(none_pass))
    stats["blocks_short_circuited"] += int(np.count_nonzero(all_pass))
    mask = np.zeros(n_rows, dtype=bool)
    for block in np.flatnonzero(all_pass):
        start = block * block_rows
        mask[start:start + block_rows] = True
    if n_partial:
        frame = _BlockFrame(database)
        for block in np.flatnonzero(partial):
            start = block * block_rows
            stop = min(start + block_rows, n_rows)
            frame.set_range(start, stop)
            mask[start:stop] = np.asarray(
                predicate.evaluate(frame), dtype=bool
            )
    return mask


# ---------------------------------------------------------------------------
# Cached-index join expansion
# ---------------------------------------------------------------------------

def _empty_match():
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def expand_with_index(cache: KernelCache, probe_values: np.ndarray,
                      build_selection, build_column):
    """Match ``probe_values`` against a selected base column via the
    cached join index.

    ``build_selection`` is the build side's
    :class:`~repro.engine.intermediates.SelectionVector` over the
    column's table.  Returns ``(probe_idx, build_tids)`` — probe-side
    match indexes and *base-table* row positions of the matched build
    rows, byte-identical to the seed gather-sort-search expansion — or
    None when the cached path does not apply.
    """
    n_col = len(build_column.values)
    if build_selection.n != n_col:
        return None
    index = cache.join_index(build_column)
    full = build_selection.is_all
    mask = build_selection.mask

    if index.dense_base is not None:
        if probe_values.dtype.kind not in "iu":
            return None
        stats["dense_joins"] += 1
        pos = probe_values.astype(np.int64) - index.dense_base
        in_range = (pos >= 0) & (pos < n_col)
        if not full:
            hit = in_range & mask[np.where(in_range, pos, 0)]
        else:
            hit = in_range
        return np.flatnonzero(hit), pos[hit]

    lo = np.searchsorted(index.sorted_values, probe_values, side="left")
    hi = np.searchsorted(index.sorted_values, probe_values, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if not full and total > _EXPAND_FALLBACK_FACTOR * len(probe_values) + 1024:
        # The unfiltered expansion would dwarf the seed path's
        # filtered sort; let HashJoin re-sort the selected values.
        return None
    if total == 0:
        return _empty_match()
    probe_idx = np.repeat(np.arange(len(probe_values), dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    build_tids = index.order[starts + offsets]
    if full:
        return probe_idx, build_tids
    # Restricting the full-column stable order to the selected rows
    # preserves the seed ordering: selection tids ascend, so the stable
    # sort of the gathered values lists equal keys in the same order.
    keep = mask[build_tids]
    return probe_idx[keep], build_tids[keep]


caches.register("kernels", invalidate, cache_size)
