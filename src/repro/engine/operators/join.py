"""Hash join."""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.engine import kernels
from repro.engine.expressions import ColumnRef
from repro.engine.intermediates import OperatorResult, SelectionVector, TidSet
from repro.engine.operators.base import (
    PhysicalOperator,
    TID_BYTES,
    scaled_nominal_rows,
)
from repro.storage import Database


def _expand_matches(left_values: np.ndarray, right_values: np.ndarray):
    """Vectorised inner equi-join on value arrays.

    Returns aligned index arrays ``(left_idx, right_idx)`` covering
    every matching pair, including 1:N matches on the build side.
    """
    order = np.argsort(right_values, kind="stable")
    sorted_right = right_values[order]
    lo = np.searchsorted(sorted_right, left_values, side="left")
    hi = np.searchsorted(sorted_right, left_values, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_idx = np.repeat(np.arange(len(left_values), dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    right_idx = order[starts + offsets]
    return left_idx, right_idx


class HashJoin(PhysicalOperator):
    """Inner equi-join of two TidSet children.

    The left child is the probe side (usually the fact-table lineage),
    the right child the build side (usually a filtered dimension).  The
    output TidSet aligns the positions of every base table reachable
    from either side.
    """

    kind = "join"

    def __init__(
        self,
        probe: PhysicalOperator,
        build: PhysicalOperator,
        probe_key: ColumnRef,
        build_key: ColumnRef,
        label: str = "",
    ):
        super().__init__(
            children=[probe, build],
            label=label or "Join({}={})".format(probe_key.key, build_key.key),
        )
        self.probe_key = probe_key
        self.build_key = build_key

    def state_key(self):
        return (self.probe_key.key, self.build_key.key)

    def required_columns(self) -> Set[str]:
        return {self.probe_key.key, self.build_key.key}

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        probe, build = child_results
        key_width = database.column(self.probe_key.key).ctype.itemsize
        probe_bytes = probe.nominal_rows * (TID_BYTES + key_width)
        build_bytes = build.nominal_rows * (TID_BYTES + key_width)
        return max(probe_bytes + build_bytes, TID_BYTES)

    def estimate_input_nominal_bytes(self, database: Database) -> int:
        probe_rows = database.table(self.probe_key.table).nominal_rows
        build_rows = database.table(self.build_key.table).nominal_rows
        key_width = database.column(self.probe_key.key).ctype.itemsize
        return (probe_rows + build_rows) * (TID_BYTES + key_width)

    def device_footprint_bytes(self, profile, database, child_results) -> int:
        """Hash-join working memory: the hash table over the build side
        plus output buffers sized by the streamed probe side."""
        probe, build = child_results
        key_width = database.column(self.build_key.key).ctype.itemsize
        build_bytes = build.nominal_rows * (TID_BYTES + key_width)
        probe_bytes = probe.nominal_rows * (TID_BYTES + key_width)
        return int(2.0 * build_bytes + 0.5 * probe_bytes)

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        probe, build = child_results
        probe_payload = probe.payload
        build_payload = build.payload
        probe_column = database.column(self.probe_key.key)
        build_column = database.column(self.build_key.key)
        probe_values = probe_payload.gather(self.probe_key.table, probe_column)

        # Cached-index fast path: the build side is a (lazy) selection
        # over a single base table, so the memoised index of the full
        # key column replaces the per-execution argsort.  Output tids
        # are byte-identical to the seed expansion.
        cached = None
        build_selection = build_payload.selection(self.build_key.table)
        if build_selection is not None and len(build_payload.tables) == 1:
            cached = kernels.expand_with_index(
                kernels.cache_for(database), probe_values, build_selection,
                build_column
            )
        if cached is not None:
            probe_idx, build_tids = cached
            build_tables = {self.build_key.table: build_tids}
        else:
            build_values = build_payload.gather(
                self.build_key.table, build_column
            )
            probe_idx, build_idx = _expand_matches(probe_values, build_values)
            build_tables = {
                name: build_payload.positions(name)[build_idx]
                for name in build_payload.table_names
            }

        tables = {}
        for name in probe_payload.table_names:
            entry = probe_payload.tables[name]
            if isinstance(entry, SelectionVector) and entry.is_all:
                tables[name] = probe_idx
            else:
                tables[name] = probe_payload.positions(name)[probe_idx]
        for name, tids in build_tables.items():
            if name in tables:
                raise ValueError(
                    "table {} appears on both join sides".format(name)
                )
            tables[name] = tids

        nominal = scaled_nominal_rows(
            len(probe_idx), max(probe.actual_rows, 1), probe.nominal_rows
        )
        return OperatorResult(
            TidSet(tables),
            actual_rows=len(probe_idx),
            nominal_rows=nominal,
            row_width_bytes=TID_BYTES * len(tables),
        )
