"""Fused morsel-driven execution.

The functional layer executes operator-at-a-time: every operator
materialises its full intermediate before the next one runs.  This
module fuses the hot mid-query chain — ``ScanSelect`` →
``RefineSelect``* → ``HashJoin``* → (``GroupByAggregate`` |
``Materialize``) — into a single per-morsel pipeline over cache-sized
row ranges of the fact table:

* the scan predicate is evaluated per morsel over column *slices*
  (elementwise, so restriction commutes with evaluation),
* join probes run through the kernel layer's cached access structures
  (dense positional, unique-key
  :class:`~repro.engine.kernels.PositionLookup`, or the stable sorted
  index), entirely on dictionary codes; cached probe-column bounds
  prove foreign-key containment and elide the range checks,
* grouped aggregates reduce through a mixed-radix *dense group id*
  (radixes from cached column bounds): pool workers ship sparse
  per-morsel partials that merge at the pipeline breaker, the
  sequential path reduces the fused chain's output in one
  ``bincount`` pass — either way skipping the reference path's
  ``np.unique`` sort.

Everything is byte-identical to the reference engine.  The proofs are
local: elementwise predicates commute with slicing; restricting the
stable join order to an ascending morsel and concatenating preserves
the full-run match order; ascending dense group ids enumerate groups in
exactly ``np.unique``'s lexicographic order; and integer sums are exact
in float64, so partial merging cannot reorder rounding (fusion
*declines* float ``sum``/``avg`` rather than risk it).

Sequential execution is *recording*: a fused run fills the
per-template result memo (and the cross-plan cache) of every covered
operator with the identical ``(payload, actual, nominal, width)``
tuples the normal path would produce, then
:func:`~repro.engine.execution.functional.execute_functional`'s
ordinary post-order loop serves them — tail operators
(Sort/Limit/Distinct/FrameFilter) and all bookkeeping run unchanged.
When a plan shape falls outside the fused form the pipeline declines
(reason-counted in :data:`decline_reasons`) and the plan runs on the
unfused path; when only the dense aggregation is ineligible the
scan/join chain still fuses and the breaker runs once at a barrier.

The path is opt-in: ``SystemConfig(morsels=True)`` / ``--morsels`` make
the harness pass a morsel size to
:func:`~repro.engine.execution.functional.execute_functional`; without
one, execution stays operator-at-a-time.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import kernels, plan_cache
from repro.engine.expressions import ColumnRef
from repro.engine.frame import Frame
from repro.engine.intermediates import (
    OperatorResult,
    ResultFrame,
    SelectionVector,
    TidSet,
)
from repro.engine.kernels import _BlockFrame
from repro.engine.operators.aggregate import GroupByAggregate
from repro.engine.operators.base import TID_BYTES, scaled_nominal_rows
from repro.engine.operators.frame_ops import Distinct, FrameFilter
from repro.engine.operators.join import HashJoin
from repro.engine.operators.materialize import Materialize
from repro.engine.operators.scan import RefineSelect, ScanSelect
from repro.engine.operators.sort import Limit, Sort
from repro.storage.types import ColumnType

#: Rows per morsel unless the config says otherwise: 64K, roughly the
#: L2-sized ranges morsel-driven schedulers hand out.
DEFAULT_MORSEL_ROWS = 65536

#: Dense group-id domains above this decline to the barrier aggregate:
#: the accumulators would outweigh the rows they summarise.
GROUP_DOMAIN_CAP = 1 << 21

#: Event counters for metrics, benchmarks, and tests.
stats = {
    "fused_queries": 0,
    "declined_queries": 0,
    "morsels": 0,
    "fused_operators": 0,
    "partial_merges": 0,
    "dense_probes": 0,
    "lookup_probes": 0,
    "sorted_probes": 0,
    "dense_aggregates": 0,
    "barrier_breakers": 0,
    "compensated_merges": 0,
    "limit_fused_queries": 0,
    "limit_early_stops": 0,
    "limit_rows_skipped": 0,
}

#: Why fusion declined, by reason (diagnostics; reset with the stats).
decline_reasons: Counter = Counter()


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0
    decline_reasons.clear()


def snapshot_stats() -> Dict[str, int]:
    return dict(stats)


def config_rows(config) -> int:
    """Rows per morsel under a :class:`~repro.hardware.SystemConfig`."""
    return config.morsel_rows or DEFAULT_MORSEL_ROWS


def same_result(a: OperatorResult, b: OperatorResult) -> bool:
    """True when two results are byte-identical: rows, actual and
    nominal row counts, and row width."""
    return (a.payload.row_tuples() == b.payload.row_tuples()
            and a.actual_rows == b.actual_rows
            and a.nominal_rows == b.nominal_rows
            and a.row_width_bytes == b.row_width_bytes)


class Decline(Exception):
    """Raised internally when a plan cannot run on the fused path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _EmptyFrame:
    """Zero-row frame: evaluates an expression for its result *dtype*.

    Running the breaker's expressions over empty column slices
    reproduces numpy's promotion (and the engine's int32→int64 widening)
    without interpreting expression trees.
    """

    __slots__ = ("_database",)

    def __init__(self, database):
        self._database = database

    def array(self, key: str) -> np.ndarray:
        return self._database.column(key).values[:0]

    def column_meta(self, key: str):
        return self._database.column(key)


# ---------------------------------------------------------------------------
# Join probers: one per cached access structure, all byte-identical to
# the operator-at-a-time expansion.
# ---------------------------------------------------------------------------

def _empty_match():
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def _as_int64(array: np.ndarray) -> np.ndarray:
    return array.astype(np.int64, copy=False)


class _DenseProber:
    """Positional probe against a dense ascending key column.

    ``checked`` is False when the cached probe-column bounds prove every
    foreign key lands inside the build key range (referential
    integrity), eliding the range test.  In that case a filtered build
    probes through ``key_mask`` — the selection mask pre-shifted to raw
    key space — so the hot path is one gather plus one ``flatnonzero``;
    the base is subtracted only from the surviving rows.
    """

    __slots__ = ("base", "n_col", "mask", "key_mask", "checked")

    def __init__(self, base: int, n_col: int, mask, checked: bool):
        self.base = base
        self.n_col = n_col
        self.mask = mask
        self.checked = checked
        self.key_mask = None
        if (not checked and mask is not None
                and 0 <= base <= n_col + kernels._LOOKUP_SPAN_SLACK):
            key_mask = np.zeros(base + n_col, dtype=bool)
            key_mask[base:] = mask
            self.key_mask = key_mask

    def probe(self, fk: np.ndarray):
        stats["dense_probes"] += 1
        if self.checked:
            pos = fk - self.base  # key dtype: dimension keys fit it
            hit = (pos >= 0) & (pos < self.n_col)
            if self.mask is not None:
                hit &= self.mask[np.where(hit, pos, 0)]
            return np.flatnonzero(hit), _as_int64(pos[hit])
        if self.key_mask is not None:
            probe_idx = np.flatnonzero(self.key_mask[fk])
            build_tids = fk[probe_idx].astype(np.int64)
            build_tids -= self.base
            return probe_idx, build_tids
        if self.mask is not None:  # large/offset base: no key_mask
            pos = fk - self.base
            hit = self.mask[pos]
            return np.flatnonzero(hit), _as_int64(pos[hit])
        # Unfiltered dense build with containment: every row hits.
        pos = fk.astype(np.int64)
        pos -= self.base
        return np.arange(len(fk), dtype=np.int64), pos


class _LookupProber:
    """O(1) probe through a unique-key position table.

    The build selection mask is folded into a copy of the table at
    pipeline build time (unselected keys map to -1), so the per-morsel
    work is one gather and one sign test.  Unique keys mean at most one
    match per probe row — same outputs as the sorted-index path.
    """

    __slots__ = ("base", "span", "table", "checked")

    def __init__(self, lookup, mask, checked: bool):
        self.base = lookup.base
        self.span = len(lookup.table)
        table = lookup.table
        if mask is not None:
            selected = mask[np.maximum(table, 0)] & (table >= 0)
            table = np.where(selected, table, -1)
        if lookup.n_rows < np.iinfo(np.int32).max:
            table = table.astype(np.int32)  # halve the gather bandwidth
        self.table = table
        self.checked = checked

    def probe(self, fk: np.ndarray):
        stats["lookup_probes"] += 1
        rel = fk - self.base
        if self.checked:
            in_span = (rel >= 0) & (rel < self.span)
            pos = self.table[np.where(in_span, rel, 0)]
            hit = in_span & (pos >= 0)
        else:
            pos = self.table[rel]
            hit = pos >= 0
        return np.flatnonzero(hit), _as_int64(pos[hit])


class _SortedProber:
    """General probe through the cached stable sort order."""

    __slots__ = ("order", "sorted_values", "mask")

    def __init__(self, index, mask):
        self.order = index.order
        self.sorted_values = index.sorted_values
        self.mask = mask

    def probe(self, fk: np.ndarray):
        stats["sorted_probes"] += 1
        lo = np.searchsorted(self.sorted_values, fk, side="left")
        hi = np.searchsorted(self.sorted_values, fk, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return _empty_match()
        probe_idx = np.repeat(np.arange(len(fk), dtype=np.int64), counts)
        starts = np.repeat(lo, counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        build_tids = self.order[starts + offsets]
        if self.mask is None:
            return probe_idx, build_tids
        keep = self.mask[build_tids]
        return probe_idx[keep], build_tids[keep]


class _Stage:
    """One fused join: probe key lineage plus the build-side prober."""

    __slots__ = ("op", "probe_table", "probe_values", "build_table",
                 "prober", "table_order")

    def __init__(self, op, probe_table, build_table, table_order):
        self.op = op
        self.probe_table = probe_table
        self.probe_values = None
        self.build_table = build_table
        self.prober = None
        self.table_order = table_order


class _GroupTerm:
    __slots__ = ("ref", "low", "radix", "stride", "dtype", "dictionary")

    def __init__(self, ref, low, radix, dtype, dictionary):
        self.ref = ref
        self.low = low
        self.radix = radix
        self.stride = 1  # filled once all radixes are known
        self.dtype = dtype
        self.dictionary = dictionary


class _AggTerm:
    __slots__ = ("aggregate", "is_integer", "compensated")

    def __init__(self, aggregate, is_integer, compensated=False):
        self.aggregate = aggregate
        self.is_integer = is_integer
        #: float sum/avg merged with Neumaier compensation (pool path);
        #: identity with the one-pass reference is gated at runtime
        self.compensated = compensated


class _DenseAggregate:
    """Mixed-radix dense-id plan for a GroupByAggregate breaker."""

    __slots__ = ("terms", "aggs", "domain", "grouped")

    def __init__(self, terms, aggs, domain, grouped):
        self.terms = terms
        self.aggs = aggs
        self.domain = domain
        self.grouped = grouped


class MorselPartial:
    """Picklable per-morsel result shipped from pool workers.

    ``kind`` is ``"agg"`` (sparse partial aggregates: present group
    ids, their row counts, and per-aggregate accumulator slices),
    ``"frame"`` (materialised column chunks), or ``"none"`` (recording
    runs carry their state in the sink instead).
    """

    __slots__ = ("index", "kind", "present", "counts", "values", "frame",
                 "chain_counts")

    def __init__(self, index, kind, present=None, counts=None, values=None,
                 frame=None, chain_counts=None):
        self.index = index
        self.kind = kind
        self.present = present
        self.counts = counts
        self.values = values
        self.frame = frame
        #: output row count per chain operator (scan, refines, joins) —
        #: summed across partials to replay the nominal-row arithmetic
        self.chain_counts = chain_counts


class _Accumulator:
    """Breaker-side merge state for one pooled execution."""

    __slots__ = ("kind", "counts", "sums", "extrema", "comps", "chunks",
                 "totals")

    def __init__(self, kind, n_chain):
        self.kind = kind
        self.counts = None
        self.sums: Dict[str, np.ndarray] = {}
        self.extrema: Dict[str, np.ndarray] = {}
        #: Neumaier compensation terms for float sum/avg aliases
        self.comps: Dict[str, np.ndarray] = {}
        self.chunks: List[MorselPartial] = []
        #: summed output rows per chain operator (see ``chain_counts``)
        self.totals: Tuple[int, ...] = (0,) * n_chain


class FusedPipeline:
    """A plan's fused form, bound to one database.

    Build with :func:`build`.  Two consumption styles:

    * *recording* (sequential): :meth:`run_recorded` executes every
      morsel, then fills the covered operators' memos with
      byte-identical result tuples.
    * *pooled*: :meth:`run_morsel` with ``collect=True`` returns a
      small picklable :class:`MorselPartial` per range; the scheduling
      side merges them with :meth:`absorb` and :meth:`finish`.
    """

    def __init__(self, plan, database, morsel_rows: int):
        self.plan = plan
        self.database = database
        self.morsel_rows = morsel_rows
        self.fact_table: str = ""
        self.fact_rows: int = 0
        self.scan_op: Optional[ScanSelect] = None
        self.fact_predicate = None
        self.refines: List[RefineSelect] = []
        self.stages: List[_Stage] = []
        self.breaker = None
        self.breaker_kind: str = ""  # "agg" | "frame"
        self.dense: Optional[_DenseAggregate] = None
        self.tail: List = []  # breaker → root, in execution order
        self.covered_ops: List = []

    # -- capability queries -------------------------------------------

    @property
    def supports_partials(self) -> bool:
        """True when morsels reduce to small partials a pool can ship
        (dense aggregation or plain materialisation)."""
        return self.breaker_kind == "frame" or self.dense is not None

    @property
    def compensated(self) -> bool:
        """True when any aggregate merges float partials with Neumaier
        compensation — pooled results then need the byte-identity gate."""
        return (self.dense is not None
                and any(term.compensated for term in self.dense.aggs))

    def ranges(self) -> List[Tuple[int, int]]:
        rows = self.fact_rows
        if rows == 0:
            return [(0, 0)]
        size = self.morsel_rows
        return [(start, min(start + size, rows))
                for start in range(0, rows, size)]

    # -- per-morsel execution -----------------------------------------

    def run_morsel(self, start: int, stop: int, index: int = 0,
                   sink: Optional[Dict[int, list]] = None,
                   collect: bool = False) -> MorselPartial:
        """Run the fused chain over fact rows ``[start, stop)``.

        With ``sink`` (op_id → chunk list), records the per-operator
        intermediate chunks the unfused path would have produced.  With
        ``collect``, reduces the breaker over the morsel and returns
        the partial result.
        """
        stats["morsels"] += 1
        database = self.database
        block = _BlockFrame(database)
        block.set_range(start, stop)

        chain_counts: Optional[List[int]] = [] if collect else None

        # Scan + refines: cumulative mask over the morsel's rows.
        fact_tids: Optional[np.ndarray] = None  # None = all of [start, stop)
        if self.fact_predicate is not None or self.refines:
            if self.fact_predicate is not None:
                cum = np.asarray(self.fact_predicate.evaluate(block),
                                 dtype=bool)
                if sink is not None:
                    sink[self.scan_op.op_id].append(cum)
                if chain_counts is not None:
                    chain_counts.append(int(np.count_nonzero(cum)))
            else:
                cum = np.ones(stop - start, dtype=bool)
                if chain_counts is not None:
                    chain_counts.append(stop - start)
            for refine in self.refines:
                cum = cum & np.asarray(refine.predicate.evaluate(block),
                                       dtype=bool)
                if sink is not None:
                    sink[refine.op_id].append(cum)
                if chain_counts is not None:
                    chain_counts.append(int(np.count_nonzero(cum)))
            fact_tids = start + np.flatnonzero(cum)
        elif chain_counts is not None:
            chain_counts.append(stop - start)

        # Join chain: keep aligned absolute tids per reachable table.
        current: Dict[str, Optional[np.ndarray]] = {self.fact_table: fact_tids}
        for stage in self.stages:
            probe_tids = current[stage.probe_table]
            if probe_tids is None:
                fk = stage.probe_values[start:stop]
            else:
                fk = stage.probe_values[probe_tids]
            probe_idx, build_tids = stage.prober.probe(fk)
            advanced: Dict[str, np.ndarray] = {}
            for name, tids in current.items():
                if tids is None:
                    advanced[name] = start + probe_idx
                else:
                    advanced[name] = tids[probe_idx]
            advanced[stage.build_table] = build_tids
            current = advanced
            if sink is not None:
                sink[stage.op.op_id].append(advanced)
            if chain_counts is not None:
                chain_counts.append(len(probe_idx))

        if not collect:
            return MorselPartial(index, "none")
        chain = tuple(chain_counts)

        # Breaker input frame.
        only_fact = len(current) == 1 and current[self.fact_table] is None
        if only_fact:
            frame = block
            n_rows = stop - start
        else:
            positions = {
                name: (np.arange(start, stop, dtype=np.int64)
                       if tids is None else tids)
                for name, tids in current.items()
            }
            frame = Frame(database, positions)
            first = next(iter(current.values()))
            n_rows = (stop - start) if first is None else len(first)

        if self.breaker_kind == "frame":
            partial = self._materialize_partial(index, frame)
        else:
            partial = self._aggregate_partial(index, frame, n_rows)
        partial.chain_counts = chain
        return partial

    def _materialize_partial(self, index, frame) -> MorselPartial:
        columns: Dict[str, np.ndarray] = {}
        gathered: Dict[str, np.ndarray] = {}
        for alias, expr in self.breaker.items:
            if isinstance(expr, ColumnRef):
                array = gathered.get(expr.key)
                if array is None:
                    array = np.asarray(expr.evaluate(frame))
                    gathered[expr.key] = array
                columns[alias] = array
            else:
                columns[alias] = np.asarray(expr.evaluate(frame))
        return MorselPartial(index, "frame", frame=columns)

    def _group_ids(self, frame, n_rows: int) -> np.ndarray:
        ids = np.zeros(n_rows, dtype=np.int64)
        for term in self.dense.terms:
            values = np.asarray(term.ref.evaluate(frame))
            ids += (values.astype(np.int64) - term.low) * term.stride
        return ids

    def _aggregate_partial(self, index, frame, n_rows) -> MorselPartial:
        """Sparse per-morsel partial: group ids compressed through a
        morsel-local ``np.unique`` (tiny — at most one morsel of rows),
        never touching the full dense domain."""
        ids = self._group_ids(frame, n_rows)
        present, inverse = np.unique(ids, return_inverse=True)
        n_local = len(present)
        counts = np.bincount(inverse, minlength=n_local)
        values_out: Dict[str, np.ndarray] = {}
        for term in self.dense.aggs:
            aggregate = term.aggregate
            if aggregate.func == "count":
                continue
            values = np.asarray(aggregate.expr.evaluate(frame))
            if values.dtype == np.int32:
                values = values.astype(np.int64)
            if aggregate.func in ("sum", "avg"):
                partial = np.bincount(inverse, weights=values,
                                      minlength=n_local)
            elif aggregate.func == "min":
                partial = np.full(n_local, np.inf)
                np.minimum.at(partial, inverse, values)
            else:  # max
                partial = np.full(n_local, -np.inf)
                np.maximum.at(partial, inverse, values)
            values_out[aggregate.alias] = partial
        return MorselPartial(index, "agg", present=present, counts=counts,
                             values=values_out)

    # -- merging (pooled) ---------------------------------------------

    def new_accumulator(self) -> _Accumulator:
        n_chain = len(self.covered_ops) - 1
        if self.breaker_kind == "frame":
            return _Accumulator("frame", n_chain)
        if self.dense is None:
            raise Decline("no_partials")
        acc = _Accumulator("agg", n_chain)
        acc.counts = np.zeros(self.dense.domain, dtype=np.int64)
        for term in self.dense.aggs:
            aggregate = term.aggregate
            if aggregate.func in ("sum", "avg"):
                acc.sums[aggregate.alias] = np.zeros(self.dense.domain)
                if term.compensated:
                    acc.comps[aggregate.alias] = np.zeros(self.dense.domain)
            elif aggregate.func == "min":
                acc.extrema[aggregate.alias] = np.full(self.dense.domain,
                                                       np.inf)
            elif aggregate.func == "max":
                acc.extrema[aggregate.alias] = np.full(self.dense.domain,
                                                       -np.inf)
        return acc

    def absorb(self, acc: _Accumulator, partial: MorselPartial) -> None:
        """Merge one morsel partial.  Aggregate merging is order-free
        (integer sums are exact, extrema commute); frame chunks are
        ordered by morsel index at finalisation."""
        if partial.kind == "none":
            return
        stats["partial_merges"] += 1
        acc.totals = tuple(a + b for a, b in
                           zip(acc.totals, partial.chain_counts))
        if partial.kind == "frame":
            acc.chunks.append(partial)
            return
        present = partial.present
        acc.counts[present] += partial.counts
        for term in self.dense.aggs:
            aggregate = term.aggregate
            if aggregate.func == "count":
                continue
            shipped = partial.values[aggregate.alias]
            if aggregate.func in ("sum", "avg"):
                if term.compensated:
                    # Neumaier: accumulate the rounding error of every
                    # merge so finalisation can add it back in one step.
                    stats["compensated_merges"] += 1
                    target = acc.sums[aggregate.alias]
                    old = target[present]
                    merged = old + shipped
                    lost = np.where(
                        np.abs(old) >= np.abs(shipped),
                        (old - merged) + shipped,
                        (shipped - merged) + old,
                    )
                    acc.comps[aggregate.alias][present] += lost
                    target[present] = merged
                else:
                    acc.sums[aggregate.alias][present] += shipped
            elif aggregate.func == "min":
                target = acc.extrema[aggregate.alias]
                target[present] = np.minimum(target[present], shipped)
            else:
                target = acc.extrema[aggregate.alias]
                target[present] = np.maximum(target[present], shipped)

    # -- finalisation --------------------------------------------------

    def finalize(self, acc: _Accumulator,
                 prev_nominal: int) -> OperatorResult:
        """Breaker result from merged partials (pooled executions)."""
        if acc.kind == "frame":
            return self._finalize_frame(acc, prev_nominal)
        return self._finalize_aggregate(acc.counts, acc.sums, acc.extrema,
                                        acc.comps)

    def _finalize_frame(self, acc: _Accumulator,
                        prev_nominal: int) -> OperatorResult:
        acc.chunks.sort(key=lambda partial: partial.index)
        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, list] = {}
        merged: Dict[str, np.ndarray] = {}
        for alias, expr in self.breaker.items:
            if isinstance(expr, ColumnRef):
                array = merged.get(expr.key)
                if array is None:
                    array = np.concatenate(
                        [chunk.frame[alias] for chunk in acc.chunks]
                    )
                    merged[expr.key] = array
                columns[alias] = array
                meta = self.database.column(expr.key)
                if meta.ctype is ColumnType.STRING:
                    dictionaries[alias] = meta.dictionary
            else:
                columns[alias] = np.concatenate(
                    [chunk.frame[alias] for chunk in acc.chunks]
                )
        frame_out = ResultFrame(columns, dictionaries)
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=prev_nominal,
            row_width_bytes=frame_out.width_bytes,
        )

    def _reduce_dense(self, payload: TidSet, n_rows: int) -> OperatorResult:
        """One-pass dense-id aggregation over the fused chain's output
        (the sequential path's breaker: no sort, no per-morsel work)."""
        frame = Frame(self.database, payload.tables)
        ids = self._group_ids(frame, n_rows)
        dense = self.dense
        counts = np.bincount(ids, minlength=dense.domain)
        sums: Dict[str, np.ndarray] = {}
        extrema: Dict[str, np.ndarray] = {}
        for term in dense.aggs:
            aggregate = term.aggregate
            if aggregate.func == "count":
                continue
            values = np.asarray(aggregate.expr.evaluate(frame))
            if values.dtype == np.int32:
                values = values.astype(np.int64)
            if aggregate.func in ("sum", "avg"):
                sums[aggregate.alias] = np.bincount(
                    ids, weights=values, minlength=dense.domain
                )
            elif aggregate.func == "min":
                out = np.full(dense.domain, np.inf)
                np.minimum.at(out, ids, values)
                extrema[aggregate.alias] = out
            else:
                out = np.full(dense.domain, -np.inf)
                np.maximum.at(out, ids, values)
                extrema[aggregate.alias] = out
        return self._finalize_aggregate(counts, sums, extrema)

    def _finalize_aggregate(self, counts, sums, extrema,
                            comps=None) -> OperatorResult:
        """Build the breaker frame from dense accumulators, replicating
        ``GroupByAggregate._aggregate``'s dtype and rounding rules."""
        dense = self.dense
        comps = comps or {}
        stats["dense_aggregates"] += 1
        if dense.grouped:
            present = np.flatnonzero(counts)
        else:
            present = np.arange(1)
        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, list] = {}
        for term in dense.terms:
            codes = term.low + (present // term.stride) % term.radix
            columns[term.ref.name] = codes.astype(term.dtype)
            if term.dictionary is not None:
                dictionaries[term.ref.name] = term.dictionary
        group_counts = counts[present]
        for term in dense.aggs:
            aggregate = term.aggregate
            if aggregate.func == "count":
                columns[aggregate.alias] = group_counts.astype(np.int64)
                continue
            if aggregate.func == "sum":
                totals = sums[aggregate.alias][present]
                if aggregate.alias in comps:
                    totals = totals + comps[aggregate.alias][present]
                if term.is_integer:
                    columns[aggregate.alias] = np.round(totals).astype(
                        np.int64
                    )
                else:
                    columns[aggregate.alias] = totals
                continue
            if aggregate.func == "avg":
                totals = sums[aggregate.alias][present]
                if aggregate.alias in comps:
                    totals = totals + comps[aggregate.alias][present]
                columns[aggregate.alias] = totals / np.maximum(
                    group_counts, 1
                )
                continue
            out = extrema[aggregate.alias][present]
            finite = np.isfinite(out)
            if term.is_integer:
                result = np.zeros(len(present), dtype=np.int64)
                result[finite] = out[finite].astype(np.int64)
                columns[aggregate.alias] = result
            else:
                out = out.copy()
                out[~finite] = 0.0
                columns[aggregate.alias] = out
        frame_out = ResultFrame(columns, dictionaries)
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=len(frame_out),
            row_width_bytes=frame_out.width_bytes,
        )

    def run_tail(self, result: OperatorResult) -> OperatorResult:
        """Apply the tail operators (Sort/Limit/...) above the breaker."""
        for op in self.tail:
            result = op.run(self.database, [result])
        return result

    def finish(self, acc: _Accumulator) -> OperatorResult:
        """Root result of a merged execution: replay the chain's nominal
        rows, build the breaker result, and apply the tail."""
        _, prev_nominal = self.replay_nominal(acc.totals)
        return self.run_tail(self.finalize(acc, prev_nominal))

    # -- chunked execution (worker side of the morsel pool) ------------

    def run_chunk(self, start: int, stop: int,
                  progress=None) -> MorselPartial:
        """Run every morsel of fact rows ``[start, stop)`` and merge
        them locally into ONE picklable partial — the pool ships a
        single message per worker chunk instead of one per morsel.

        ``progress`` (no-arg callable) fires after each morsel; pool
        workers heartbeat through it so the parent's watchdog can tell
        a slow chunk from a hung process.
        """
        acc = self.new_accumulator()
        size = self.morsel_rows
        spans = ([(start, stop)] if start == stop
                 else [(pos, min(pos + size, stop))
                       for pos in range(start, stop, size)])
        for span_start, span_stop in spans:
            partial = self.run_morsel(span_start, span_stop,
                                      index=span_start, collect=True)
            if progress is not None:
                progress()
            self.absorb(acc, partial)
        return self._pack_chunk(start, acc)

    def _pack_chunk(self, index: int, acc: _Accumulator) -> MorselPartial:
        if acc.kind == "frame":
            acc.chunks.sort(key=lambda partial: partial.index)
            frame = {
                alias: np.concatenate(
                    [chunk.frame[alias] for chunk in acc.chunks]
                )
                for alias, _ in self.breaker.items
            }
            return MorselPartial(index, "frame", frame=frame,
                                 chain_counts=acc.totals)
        present = np.flatnonzero(acc.counts)
        values: Dict[str, np.ndarray] = {}
        for term in self.dense.aggs:
            aggregate = term.aggregate
            if aggregate.func == "count":
                continue
            if aggregate.func in ("sum", "avg"):
                shipped = acc.sums[aggregate.alias][present]
                if aggregate.alias in acc.comps:
                    # Collapse the chunk-local compensation into the
                    # shipped value; the parent re-compensates merges.
                    shipped = shipped + acc.comps[aggregate.alias][present]
                values[aggregate.alias] = shipped
            else:
                values[aggregate.alias] = (
                    acc.extrema[aggregate.alias][present]
                )
        return MorselPartial(index, "agg", present=present,
                             counts=acc.counts[present], values=values,
                             chain_counts=acc.totals)

    def replay_nominal(self, totals: Tuple[int, ...]) -> Tuple[int, int]:
        """(actual, nominal) rows of the chain's last operator, replayed
        from summed per-op output counts — the same arithmetic the
        sequential path applies while recording."""
        table = self.database.table(self.fact_table)
        if self.fact_predicate is None:
            prev_actual, prev_nominal = table.actual_rows, table.nominal_rows
        else:
            n_out = totals[0]
            prev_nominal = scaled_nominal_rows(n_out, table.actual_rows,
                                               table.nominal_rows)
            prev_actual = n_out
        idx = 1
        for _ in self.refines:
            n_out = totals[idx]
            idx += 1
            prev_nominal = scaled_nominal_rows(n_out, max(prev_actual, 1),
                                               prev_nominal)
            prev_actual = n_out
        for _ in self.stages:
            n_out = totals[idx]
            idx += 1
            prev_nominal = scaled_nominal_rows(n_out, max(prev_actual, 1),
                                               prev_nominal)
            prev_actual = n_out
        return prev_actual, prev_nominal

    # -- recording -----------------------------------------------------

    def run_recorded(self) -> None:
        """Sequential fused execution: run every morsel, then fill every
        covered operator's memo with the byte-identical result tuple."""
        sink = {op.op_id: [] for op in self.covered_ops}
        for start, stop in self.ranges():
            self.run_morsel(start, stop, sink=sink)
        self._record(sink)

    def _record(self, sink: Dict[int, list]) -> None:
        database = self.database
        table = database.table(self.fact_table)

        if self.fact_predicate is None:
            entry = SelectionVector(n=table.actual_rows)
            cached = (TidSet({self.fact_table: entry}),
                      table.actual_rows, table.nominal_rows, 0)
        else:
            mask = np.concatenate(sink[self.scan_op.op_id])
            entry = SelectionVector(mask)
            n_out = len(entry)
            nominal = scaled_nominal_rows(n_out, table.actual_rows,
                                          table.nominal_rows)
            cached = (TidSet({self.fact_table: entry}),
                      n_out, nominal, TID_BYTES)
        self._memoise(self.scan_op, cached)
        prev_actual, prev_nominal = cached[1], cached[2]

        for refine in self.refines:
            mask = np.concatenate(sink[refine.op_id])
            entry = SelectionVector(mask)
            n_out = len(entry)
            nominal = scaled_nominal_rows(n_out, max(prev_actual, 1),
                                          prev_nominal)
            cached = (TidSet({self.fact_table: entry}),
                      n_out, nominal, TID_BYTES)
            self._memoise(refine, cached)
            prev_actual, prev_nominal = n_out, nominal

        last_cached = cached
        for stage in self.stages:
            chunks = sink[stage.op.op_id]
            tables = {
                name: np.concatenate([chunk[name] for chunk in chunks])
                for name in stage.table_order
            }
            n_out = len(next(iter(tables.values())))
            nominal = scaled_nominal_rows(n_out, max(prev_actual, 1),
                                          prev_nominal)
            cached = (TidSet(tables), n_out, nominal,
                      TID_BYTES * len(tables))
            self._memoise(stage.op, cached)
            prev_actual, prev_nominal = n_out, nominal
            last_cached = cached

        if self.breaker_kind == "agg" and self.dense is not None:
            stats["partial_merges"] += len(self.ranges())
            result = self._reduce_dense(last_cached[0], last_cached[1])
        else:
            # Materialise / non-dense aggregate: run the breaker once
            # at the barrier over the fused chain's recorded output.
            if self.breaker_kind == "agg":
                stats["barrier_breakers"] += 1
            child = OperatorResult(*last_cached)
            self.breaker.produce(database, [child])
            return  # produce() memoised the breaker itself
        cached = (result.payload, result.actual_rows, result.nominal_rows,
                  result.row_width_bytes)
        self._memoise(self.breaker, cached)

    def _memoise(self, op, cached) -> None:
        op._cached_result = cached
        plan_cache.store(self.database, op.fingerprint(), cached)


# ---------------------------------------------------------------------------
# Pipeline construction
# ---------------------------------------------------------------------------

_TAIL_OPS = (Sort, Limit, FrameFilter, Distinct)


def _analyze_structure(pipe: FusedPipeline) -> None:
    """Peel the plan into tail / breaker / join chain / scan, or decline."""
    node = pipe.plan.root
    tail = []
    while isinstance(node, _TAIL_OPS):
        tail.append(node)
        node = node.children[0]
    pipe.tail = list(reversed(tail))

    if isinstance(node, GroupByAggregate):
        pipe.breaker_kind = "agg"
    elif isinstance(node, Materialize):
        pipe.breaker_kind = "frame"
    else:
        raise Decline("breaker_shape")
    pipe.breaker = node

    joins: List[HashJoin] = []
    node = node.children[0]
    while isinstance(node, HashJoin):
        joins.append(node)
        node = node.children[0]
    while isinstance(node, RefineSelect):
        pipe.refines.append(node)
        node = node.children[0]
    if not isinstance(node, ScanSelect):
        raise Decline("leaf_shape")
    pipe.scan_op = node
    pipe.fact_table = node.table
    pipe.fact_predicate = node.predicate
    pipe.refines.reverse()
    for refine in pipe.refines:
        if refine.table != pipe.fact_table:
            raise Decline("refine_table")

    joins.reverse()  # execution order: bottom-up
    available = [pipe.fact_table]
    for join in joins:
        build = join.children[1]
        if not isinstance(build, ScanSelect):
            raise Decline("build_shape")
        if build.table != join.build_key.table:
            raise Decline("build_shape")
        if join.probe_key.table not in available:
            raise Decline("probe_lineage")
        if build.table in available:
            raise Decline("duplicate_table")
        available.append(build.table)
        pipe.stages.append(_Stage(join, join.probe_key.table, build.table,
                                  list(available)))

    pipe.covered_ops = ([pipe.scan_op] + pipe.refines
                        + [stage.op for stage in pipe.stages]
                        + [pipe.breaker])


def _prepare_probers(pipe: FusedPipeline, cache) -> None:
    """Run the build-side scans (memoised) and pick a prober each."""
    database = pipe.database
    for stage in pipe.stages:
        join = stage.op
        build_result = join.children[1].produce(database, [])
        selection = build_result.payload.selection(stage.build_table)
        if selection is None:
            raise Decline("build_not_lazy")
        build_column = database.column(join.build_key.key)
        if selection.n != len(build_column.values):
            raise Decline("build_stale")
        mask = None if selection.is_all else selection.mask
        probe_column = database.column(join.probe_key.key)
        stage.probe_values = probe_column.values
        index = cache.join_index(build_column)
        integer_probe = probe_column.values.dtype.kind in "iu"
        probe_bounds = (cache.column_bounds(probe_column)
                        if integer_probe else None)
        if index.dense_base is not None and integer_probe:
            base = index.dense_base
            n_col = len(build_column.values)
            checked = not (probe_bounds is not None
                           and probe_bounds[0] >= base
                           and probe_bounds[1] < base + n_col)
            stage.prober = _DenseProber(base, n_col, mask, checked)
            continue
        lookup = cache.position_lookup(build_column) if integer_probe else None
        if lookup is not None:
            checked = not (probe_bounds is not None
                           and probe_bounds[0] >= lookup.base
                           and probe_bounds[1] < lookup.base
                           + len(lookup.table))
            stage.prober = _LookupProber(lookup, mask, checked)
        else:
            stage.prober = _SortedProber(index, mask)


def _prepare_dense_aggregate(pipe: FusedPipeline, cache) -> None:
    """Plan the mixed-radix aggregation, or leave ``dense`` unset (the
    breaker then runs once at a barrier over the fused chain)."""
    breaker = pipe.breaker
    database = pipe.database
    available = ([pipe.fact_table]
                 + [stage.build_table for stage in pipe.stages])
    empty = _EmptyFrame(database)

    terms: List[_GroupTerm] = []
    domain = 1
    for ref in breaker.group_refs:
        if not isinstance(ref, ColumnRef) or ref.table not in available:
            return
        column = database.column(ref.key)
        bounds = cache.column_bounds(column)
        if bounds is None:
            return
        low, high = bounds
        radix = high - low + 1
        domain *= radix
        if domain > GROUP_DOMAIN_CAP:
            return
        dictionary = (column.dictionary
                      if column.ctype is ColumnType.STRING else None)
        terms.append(_GroupTerm(ref, low, radix, column.values.dtype,
                                dictionary))
    stride = 1
    for term in reversed(terms):
        term.stride = stride
        stride *= term.radix

    aggs: List[_AggTerm] = []
    for aggregate in breaker.aggregates:
        if aggregate.func == "count":
            aggs.append(_AggTerm(aggregate, True))
            continue
        try:
            probe = np.asarray(aggregate.expr.evaluate(empty))
        except Exception:
            return
        if probe.dtype == np.int32:
            probe = probe.astype(np.int64)
        is_integer = bool(np.issubdtype(probe.dtype, np.integer))
        if aggregate.func in ("sum", "avg") and not is_integer:
            if probe.dtype.kind not in "f":
                return
            # Float partial sums can reorder rounding across chunks;
            # merge them with Neumaier compensation and let the pool's
            # byte-identity gate decline queries where it still shows.
            aggs.append(_AggTerm(aggregate, False, compensated=True))
            continue
        if aggregate.func in ("min", "max") and probe.dtype.kind not in "iufb":
            return
        aggs.append(_AggTerm(aggregate, is_integer))

    pipe.dense = _DenseAggregate(terms, aggs, domain,
                                 grouped=bool(breaker.group_refs))


def build(plan, database,
          morsel_rows: int = DEFAULT_MORSEL_ROWS) -> FusedPipeline:
    """Analyse and bind ``plan`` to run ``morsel_rows`` fact rows per
    morsel; raises :class:`Decline` when the plan cannot run fused."""
    cache = kernels.cache_for(database)
    pipe = FusedPipeline(plan, database, morsel_rows)
    _analyze_structure(pipe)
    pipe.fact_rows = database.table(pipe.fact_table).actual_rows
    _prepare_probers(pipe, cache)
    if pipe.breaker_kind == "agg":
        _prepare_dense_aggregate(pipe, cache)
    return pipe


def execute_direct(plan, database,
                   morsel_rows: int) -> Optional[OperatorResult]:
    """Serve a ``Limit``-rooted plan straight from the fused chain with
    cross-chunk early termination, or return None.

    Eligible plans have a materialising breaker whose only tail
    operator is the root ``Limit``: morsels are consumed in ascending
    fact order, and once the merged frame holds ``n`` rows the
    remaining ranges never run.  Identity with the reference path is
    structural: the processed prefix's concatenation equals the full
    run's first rows (ascending chunk merge), and ``Limit``'s nominal
    count is ``min(child_nominal, n)`` — when the scan stops early the
    gathered rows already reach ``n`` and ``scaled_nominal_rows`` keeps
    every chain nominal at or above its actual count, so both the
    partial and the full child nominal clamp to ``n``.  Aggregating
    breakers (every input row matters) and extra tail operators (a
    ``Sort`` below the ``Limit`` needs all rows) are declined,
    reason-counted under ``limit_*``.

    The served result is **never memoised**: the covered operators'
    memos would hold prefix-only intermediates, poisoning later plans
    that share the chain.
    """
    root = plan.root
    if not isinstance(root, Limit):
        return None
    try:
        if root.n <= 0:
            raise Decline("limit_nonpositive")
        if (root._cached_result is not None
                or plan_cache.peek(database, root.fingerprint())
                is not None):
            # the ordinary path serves the memo for free — and the
            # direct path must never shadow recorded full results
            raise Decline("limit_memoised")
        pipe = build(plan, database, morsel_rows)
        if pipe.breaker_kind != "frame":
            raise Decline("limit_breaker")
        if pipe.tail != [root]:
            raise Decline("limit_tail")
        acc = pipe.new_accumulator()
        stopped_at: Optional[int] = None
        for start, stop in pipe.ranges():
            pipe.absorb(acc, pipe.run_morsel(start, stop, index=start,
                                             collect=True))
            if acc.totals[-1] >= root.n:
                stopped_at = stop
                break
        if not acc.chunks:
            raise Decline("limit_empty")
        result = pipe.finish(acc)
    except Decline as decline:
        reason = decline.reason
        if not reason.startswith("limit_"):
            reason = "limit_" + reason
        decline_reasons[reason] += 1
        return None
    except Exception:
        decline_reasons["limit_error"] += 1
        return None
    stats["limit_fused_queries"] += 1
    if stopped_at is not None and stopped_at < pipe.fact_rows:
        stats["limit_early_stops"] += 1
        stats["limit_rows_skipped"] += pipe.fact_rows - stopped_at
    return result


def prepare_fused(plan, database, morsel_rows: int) -> bool:
    """Record-mode fused execution: run the plan's fused chain and fill
    the covered operators' memos.  Returns True when the plan ran fused
    (the executor loop then serves memoised results), False when fusion
    declined or everything was already memoised."""
    try:
        pipe = build(plan, database, morsel_rows)
        if all(
            op._cached_result is not None
            or plan_cache.peek(database, op.fingerprint()) is not None
            for op in pipe.covered_ops
        ):
            return False
        pipe.run_recorded()
    except Decline as decline:
        stats["declined_queries"] += 1
        decline_reasons[decline.reason] += 1
        return False
    except Exception:
        # Never let the acceleration layer break a query: anything the
        # fused path trips over, the unfused path will surface properly.
        stats["declined_queries"] += 1
        decline_reasons["error"] += 1
        return False
    stats["fused_queries"] += 1
    stats["fused_operators"] += len(pipe.covered_ops)
    return True
