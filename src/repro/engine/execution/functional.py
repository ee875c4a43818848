"""Immediate (non-simulated) plan execution.

Runs the functional numpy implementations bottom-up with no hardware
model.  This is the correctness backbone: integration tests compare
its output (and the simulated executors' output) against the naive
reference evaluator.

When a morsel size is given, the fused morsel path
(:mod:`repro.engine.morsel`) runs first, in two steps: ``prepare_fused`` runs the plan's
scan→join→aggregate chain as per-morsel pipelines and *records* the
byte-identical result tuple of every covered operator into its memo;
the ordinary post-order loop below then serves those memos, runs any
unfused operators (tail sorts/limits, declined plans), and performs the
same per-operator statistics bookkeeping either way.  ``Limit``-rooted
materialisations short-circuit through ``execute_direct`` instead,
which stops scanning morsels once enough rows are gathered.  Without
a morsel size the only extra cost is one ``None`` check per plan.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine import morsel
from repro.engine.intermediates import OperatorResult
from repro.engine.operators import PhysicalOperator, PhysicalPlan
from repro.storage import Database


def execute_functional(plan: PhysicalPlan, database: Database,
                       morsel_rows: Optional[int] = None) -> OperatorResult:
    """Execute ``plan`` immediately; returns the root result.

    ``morsel_rows`` runs fusable chains as pipelines of that many fact
    rows per morsel; None executes operator-at-a-time."""
    statistics = database.statistics
    if morsel_rows is not None:
        direct = morsel.execute_direct(plan, database, morsel_rows)
        if direct is not None:
            # Limit-rooted plan served with cross-chunk early
            # termination; replay the per-operator access bookkeeping
            # the post-order loop below would have performed.
            for op in plan.operators:
                statistics.record_accesses(sorted(op.required_columns()))
            return direct
        morsel.prepare_fused(plan, database, morsel_rows)
    results: Dict[int, OperatorResult] = {}
    for op in plan.operators:  # post order: children first
        child_results = [results[c.op_id] for c in op.children]
        results[op.op_id] = op.produce(database, child_results)
        # required_columns() is a set: sort so recency ticks (and the
        # LFU tie-break order downstream) are hash-seed independent
        statistics.record_accesses(sorted(op.required_columns()))
    return results[plan.root.op_id]
