"""The strategic optimizer: QuerySpec -> logical plan -> physical plan.

Join ordering uses a greedy heuristic in the spirit of CoGaDB's
Selinger-style optimizer: start from the largest (fact) table and
repeatedly join the connected table with the smallest estimated
filtered cardinality.  Selectivities are estimated by evaluating
filter predicates on a row sample — cheap at our data scale and far
more robust than magic constants.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.engine.expressions import ColumnRef, Expression
from repro.engine.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from repro.engine.operators import (
    Distinct,
    FrameFilter,
    GroupByAggregate,
    HashJoin,
    Limit,
    Materialize,
    PhysicalPlan,
    ScanSelect,
    Sort,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.binder import QuerySpec
from repro.storage import Database


class PlanningError(ValueError):
    """Raised when no valid plan exists for a QuerySpec."""


class Planner:
    """Builds logical and physical plans for bound queries."""

    def __init__(self, database: Database, sample_rows: int = 2048):
        self.database = database
        self.sample_rows = sample_rows

    # -- selectivity estimation ------------------------------------------

    def estimate_selectivity(self, table: str,
                             predicate: Optional[Expression]) -> float:
        """Fraction of ``table`` rows matching ``predicate`` (sampled)."""
        from repro.engine.cardinality import estimate_selectivity

        return estimate_selectivity(
            self.database, table, predicate, sample_rows=self.sample_rows
        )

    def estimate_filtered_rows(self, table: str,
                               predicate: Optional[Expression]) -> float:
        """Estimated nominal cardinality of a filtered scan."""
        nominal = self.database.table(table).nominal_rows
        return self.estimate_selectivity(table, predicate) * nominal

    # -- logical planning ----------------------------------------------------

    def logical_plan(self, spec: "QuerySpec") -> LogicalNode:
        """Build the logical plan (join order decided here)."""
        scans: Dict[str, LogicalNode] = {
            table: LogicalScan(table, spec.filters.get(table))
            for table in spec.tables
        }
        node = self._order_joins(spec, scans)
        if spec.is_aggregation:
            node = LogicalAggregate(node, spec.group_by, spec.aggregates)
            if spec.having is not None:
                node = LogicalHaving(node, spec.having)
        else:
            node = LogicalProject(node, spec.select_items)
            if spec.distinct:
                node = LogicalDistinct(node)
        if spec.order_by:
            node = LogicalSort(node, spec.order_by)
        if spec.limit is not None:
            node = LogicalLimit(node, spec.limit)
        return node

    def _order_joins(self, spec: "QuerySpec",
                     scans: Dict[str, LogicalNode]) -> LogicalNode:
        """Greedy join ordering starting from the largest table."""
        if len(spec.tables) == 1:
            return scans[spec.tables[0]]
        if not spec.join_edges:
            raise PlanningError(
                "query over {} tables without join predicates".format(
                    len(spec.tables)
                )
            )
        fact = max(spec.tables,
                   key=lambda t: self.database.table(t).nominal_rows)
        joined: Set[str] = {fact}
        node = scans[fact]
        remaining = [t for t in spec.tables if t != fact]
        estimates = {
            t: self.estimate_filtered_rows(t, spec.filters.get(t))
            for t in remaining
        }
        used_edges = 0
        while remaining:
            candidates = []
            for table in remaining:
                edge = self._connecting_edge(spec, joined, table)
                if edge is not None:
                    candidates.append((estimates[table], table, edge))
            if not candidates:
                raise PlanningError(
                    "join graph is disconnected: {} unreachable".format(remaining)
                )
            candidates.sort(key=lambda c: (c[0], c[1]))
            _, table, (probe_key, build_key) = candidates[0]
            node = LogicalJoin(node, scans[table], probe_key, build_key)
            joined.add(table)
            remaining.remove(table)
            used_edges += 1
        if used_edges != len(spec.join_edges):
            # Redundant edges (cycles) would be silently dropped, which
            # changes query semantics — refuse rather than guess.
            raise PlanningError(
                "join graph has {} edges but only {} were used; "
                "cyclic join conditions are not supported".format(
                    len(spec.join_edges), used_edges
                )
            )
        return node

    @staticmethod
    def _connecting_edge(
        spec: "QuerySpec", joined: Set[str], candidate: str
    ) -> Optional[Tuple[ColumnRef, ColumnRef]]:
        """Find a join edge between the joined set and ``candidate``.

        Returns the edge as (probe_key on the joined side, build_key on
        the candidate side).
        """
        for left, right in spec.join_edges:
            if left.table in joined and right.table == candidate:
                return (left, right)
            if right.table in joined and left.table == candidate:
                return (right, left)
        return None

    # -- lowering -----------------------------------------------------------

    def plan(self, spec: "QuerySpec") -> PhysicalPlan:
        """Full pipeline: logical plan, then 1:1 physical lowering."""
        root = self._lower(self.logical_plan(spec))
        return PhysicalPlan(root, name=spec.name)

    def _lower(self, node: LogicalNode):
        if isinstance(node, LogicalScan):
            return ScanSelect(node.table, node.predicate)
        if isinstance(node, LogicalJoin):
            return HashJoin(
                self._lower(node.children[0]),
                self._lower(node.children[1]),
                node.probe_key,
                node.build_key,
            )
        if isinstance(node, LogicalAggregate):
            return GroupByAggregate(
                self._lower(node.children[0]), node.group_by, node.aggregates
            )
        if isinstance(node, LogicalProject):
            return Materialize(self._lower(node.children[0]), node.items)
        if isinstance(node, LogicalHaving):
            return FrameFilter(self._lower(node.children[0]), node.predicate)
        if isinstance(node, LogicalDistinct):
            return Distinct(self._lower(node.children[0]))
        if isinstance(node, LogicalSort):
            return Sort(self._lower(node.children[0]), node.keys)
        if isinstance(node, LogicalLimit):
            return Limit(self._lower(node.children[0]), node.n)
        raise PlanningError("cannot lower {!r}".format(node))
