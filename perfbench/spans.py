"""Wall-clock spans around the program's layer entry points.

A :class:`Tracer` keeps every span in memory (name, start, end, parent,
run id) and writes them out once, as Chrome trace-event JSON that opens
in Perfetto or ``chrome://tracing``.  :meth:`Tracer.install` wraps each
layer's public entry point where its caller looks it up, so nothing in
``src/`` is edited; leaving the ``with`` block restores the originals.

The program is single-threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.run_id = ""
        #: per span: [name, start, end, parent index or -1, run id]
        self.spans: List[list] = []
        self._stack: List[int] = []

    # -- recording ----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, function, name: str):
        """``function`` with every call recorded as a ``name`` span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # -- installation -------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap every layer entry point for the duration of the block."""
        from repro.core.data_placement import DataPlacementManager
        from repro.engine.execution.split import SplitState
        from repro.engine.planner import Planner
        from repro.metrics import MetricsCollector
        from repro.sim import Environment
        from repro.storage import EpochStore

        runner = "repro.harness.runner"
        service = "repro.harness.service"
        targets = [
            ("repro.workloads.ssb", "generate", "workloads.generate"),
            ("repro.workloads.tpch", "generate", "workloads.generate"),
            ("repro.workloads.base", "bind", "sql.bind"),
            (Planner, "plan", "engine.planner.plan"),
            (runner, "execute_functional", "engine.functional"),
            (service, "execute_functional", "engine.functional"),
            # the split gate chunk-merges every template functionally
            (SplitState, "prepare", "engine.functional"),
            ("repro.engine", "execute_reference", "engine.reference"),
            (service, "reference_rows", "engine.reference"),
            (Environment, "run", "sim"),
            (DataPlacementManager, "apply_placement",
             "core.data_placement.apply"),
            (EpochStore, "advance", "storage.epochs.advance"),
            (runner, "validate_results", "harness.validate"),
            (service, "compare_rows", "harness.validate"),
            (MetricsCollector, "slo_ledger", "metrics.report"),
            (MetricsCollector, "tenant_ledger", "metrics.report"),
            (MetricsCollector, "tenant_fault_report", "metrics.report"),
        ]
        with contextlib.ExitStack() as stack:
            for owner, attribute, name in targets:
                if isinstance(owner, str):
                    owner = importlib.import_module(owner)
                stack.enter_context(patched(
                    owner, attribute,
                    self.wrap(getattr(owner, attribute), name)))
            for module in (runner, service):
                module = importlib.import_module(module)
                stack.enter_context(patched(
                    module, "get_strategy",
                    self._strategy_factory(module.get_strategy)))
            yield self

    def _strategy_factory(self, get_strategy):
        """Placement strategies are instances, so their per-query
        ``prepare_plan`` is wrapped on the instance each run gets."""

        @functools.wraps(get_strategy)
        def traced_get_strategy(*args, **kwargs):
            strategy = get_strategy(*args, **kwargs)
            strategy.prepare_plan = self.wrap(
                strategy.prepare_plan, "core.placement.prepare")
            return strategy

        return traced_get_strategy

    # -- views --------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over all spans."""
        child_seconds: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _run) in enumerate(
                self.spans):
            totals[name] += end - start - child_seconds[index]
        return dict(totals)

    def calls(self, name: str) -> int:
        """Outermost calls of ``name`` (a span nested in a span of the
        same name is part of that call)."""
        spans = self.spans
        return sum(
            1 for span in spans
            if span[0] == name and (span[3] < 0 or spans[span[3]][0] != name)
        )

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _name, start, end, parent, _run
                   in self.spans if parent < 0)

    def write_chrome_trace(self, path: str,
                           metadata: Optional[dict] = None) -> None:
        """Write every span as a complete ("X") trace event."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"run_id": run_id, "span": index, "parent": parent},
            }
            for index, (name, start, end, parent, run_id)
            in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata or {}}, handle)


@contextlib.contextmanager
def patched(owner, attribute: str, replacement):
    original = owner.__dict__[attribute] if isinstance(owner, type) \
        else getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)
