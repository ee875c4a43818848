"""Run a workload under one strategy on the simulated platform.

Mirrors the paper's methodology (Sec. 6.1): the database is pre-loaded
in host memory, access structures are pre-loaded into the GPU buffer
until it is full (the warm-up runs), then the workload executes and we
measure the makespan, per-query latencies, PCIe transfer times, aborts,
and wasted time.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.core import (
    ChoppingExecutor,
    DataPlacementManager,
    PlacementPrefetcher,
    get_strategy,
)
from repro.core.placement.base import PlacementStrategy
from repro.engine.execution import (
    AdmissionController,
    ExecutionContext,
    LifecycleConfig,
    QueryCancelled,
    QueryContext,
    VectorizedExecutor,
    deadline_watchdog,
    execute_functional,
    run_plan_eager,
)
from repro.hardware import HardwareSystem, SystemConfig
from repro.metrics import ExecutionTrace, MetricsCollector
from repro.sim import Environment, Interrupted, Resource
from repro.storage import Database
from repro.workloads.base import WorkloadQuery


@dataclass
class WorkloadResult:
    """Everything one workload run produced."""

    metrics: MetricsCollector
    #: last result payload per query name (for validation)
    results: Dict[str, object]
    strategy: str
    users: int
    #: per-operator timeline; populated when run with ``trace=True``
    trace: Optional["ExecutionTrace"] = None
    #: total faults the injector raised (0 when injection was off)
    faults_injected: int = 0
    #: order-sensitive sha256 of the run's fault schedule, or None when
    #: injection was off — the CI determinism gate compares these
    fault_digest: Optional[str] = None
    #: injected fault counts per class
    fault_classes: Optional[Dict[str, int]] = None
    #: True when the query-lifecycle layer (admission / deadlines /
    #: hedging) was active for this run
    lifecycle_enabled: bool = False

    @property
    def seconds(self) -> float:
        return self.metrics.workload_seconds


def run_workload(
    database: Database,
    queries: List[WorkloadQuery],
    strategy: str,
    config: Optional[SystemConfig] = None,
    users: int = 1,
    repetitions: int = 1,
    warm_cache: bool = True,
    placement_policy: str = "lfu",
    cpu_workers: int = 4,
    gpu_workers: int = 2,
    scheduling: str = "fifo",
    processing_model: str = "operator",
    collect_results: bool = False,
    trace: bool = False,
    validate: bool = False,
    algorithm_selection: bool = True,
    faults=None,
    lifecycle=None,
) -> WorkloadResult:
    """Execute ``queries`` x ``repetitions`` with ``users`` parallel
    sessions under the named placement strategy.

    The total amount of work is fixed; ``users`` only changes how many
    sessions issue it concurrently (the paper's Sec. 6.2.2 setup).

    With ``validate=True`` every SQL query's simulated result is
    cross-checked against the naive reference evaluator after the run;
    a mismatch raises :class:`ValidationError`.

    ``faults`` activates deterministic fault injection: a
    :class:`~repro.faults.FaultConfig`, a spec string
    (``"pcie=0.01,seed=42"`` — see :meth:`FaultConfig.parse`), or None
    (the default, no injection and zero overhead).

    ``lifecycle`` activates the overload-safe query lifecycle: a
    :class:`~repro.engine.execution.lifecycle.LifecycleConfig`, a spec
    string (``"max_inflight=4,policy=shed,deadline=0.5,hedge=3"`` — see
    :meth:`LifecycleConfig.parse`), or None (the default — and a config
    with every feature off is treated exactly like None, the
    zero-overhead path).
    """
    from repro.faults import FaultConfig, FaultInjector

    if users < 1 or repetitions < 1:
        raise ValueError("users and repetitions must be >= 1")
    config = config if config is not None else SystemConfig()
    fault_config = FaultConfig.coerce(faults)
    lifecycle_config = LifecycleConfig.coerce(lifecycle)
    if lifecycle_config is not None and not lifecycle_config.enabled:
        lifecycle_config = None
    env = Environment()
    metrics = MetricsCollector()
    hardware = HardwareSystem(env, config, metrics)
    hardware.gpu_cache.policy = placement_policy
    injector = None
    if fault_config is not None and fault_config.enabled:
        injector = FaultInjector(fault_config, clock=lambda: env.now)
        hardware.install_faults(injector)
    ctx = ExecutionContext(hardware, database)
    ctx.algorithm_selection = algorithm_selection
    if trace:
        ctx.trace = ExecutionTrace()
        if hardware.copy_engine is not None:
            hardware.copy_engine.trace = ctx.trace
    strategy_obj: PlacementStrategy = get_strategy(strategy)

    # -- warm-up: statistics, functional memoisation, cache pre-load ----
    warm_up(ctx, queries, strategy_obj, warm_cache, placement_policy,
            _memoise_templates)

    # -- partition the fixed workload over the user sessions -----------
    all_runs: List[WorkloadQuery] = [
        query for _ in range(repetitions) for query in queries
    ]
    sessions = [all_runs[i::users] for i in range(users)]

    if processing_model not in ("operator", "vectorized"):
        raise ValueError(
            "processing_model must be 'operator' or 'vectorized'"
        )
    chopper = None
    vectorizer = None
    if processing_model == "vectorized":
        # vector-at-a-time (Sec. 5.5): pipelines replace the
        # operator-at-a-time executors entirely
        vectorizer = VectorizedExecutor(ctx, strategy_obj)
    elif strategy_obj.executor == "chopping":
        chopper = ChoppingExecutor(
            ctx, strategy_obj, cpu_workers=cpu_workers,
            gpu_workers=gpu_workers, scheduling=scheduling,
            lifecycle=lifecycle_config,
        )
    admission = None
    if strategy_obj.admission_limit is not None:
        admission = Resource(env, capacity=strategy_obj.admission_limit)
    controller = None
    if lifecycle_config is not None and lifecycle_config.admission_enabled:
        controller = AdmissionController(
            env, hardware, lifecycle_config, metrics=metrics
        )

    if validate:
        collect_results = True
    results: Dict[str, object] = {}

    def run_query(user_id: int, query: WorkloadQuery, qctx):
        """Plan + submit + await one query (shared by both paths)."""
        plan_start = perf_counter()
        plan = query.instantiate()
        strategy_obj.prepare_plan(ctx, plan)
        metrics.record_phase("plan", perf_counter() - plan_start)
        if vectorizer is not None:
            result = yield vectorizer.submit(plan, qctx)
        elif chopper is not None:
            result = yield chopper.submit(plan, qctx)
        else:
            result = yield run_plan_eager(ctx, plan, strategy_obj, qctx)
        return result

    def lifecycle_query(user_id: int, query: WorkloadQuery, start: float):
        """One query under the lifecycle layer (admission / deadline)."""
        qctx = QueryContext(
            env, query.name, user=user_id, metrics=metrics,
            deadline_seconds=lifecycle_config.deadline_seconds,
        )
        watchdog = None
        if lifecycle_config.deadlines_enabled:
            # starts before admission: queue time counts toward the
            # deadline, so a query can be cancelled while still queued
            watchdog = env.process(deadline_watchdog(qctx))
            watchdog.defused = True
        decision = "run"
        if controller is not None:
            decision = yield from controller.admit(qctx)
        if decision in ("shed", "cancelled"):
            if watchdog is not None and watchdog.is_alive:
                watchdog.interrupt()
            if decision == "cancelled":
                metrics.record_cancelled_query(
                    query.name, user_id, start, env.now,
                    qctx.cancel_reason or "deadline",
                )
            return
        if decision == "degrade":
            qctx.force_cpu = True
        try:
            result = yield from run_query(user_id, query, qctx)
        except (QueryCancelled, Interrupted):
            result = None
            metrics.record_cancelled_query(
                query.name, user_id, start, env.now,
                qctx.cancel_reason or "cancelled",
            )
        else:
            metrics.record_query(query.name, user_id, start, env.now)
        qctx.finish()
        if watchdog is not None and watchdog.is_alive:
            watchdog.interrupt()
        if controller is not None:
            controller.release()
        if result is not None and collect_results:
            results[query.name] = result.payload

    def session(user_id: int, runs: List[WorkloadQuery]):
        for query in runs:
            # Latency is the response time from submission: time spent
            # queueing behind an admission control gate counts (that is
            # exactly the cost the paper attributes to it, Sec. 6.2.2).
            start = env.now
            if admission is not None:
                request = admission.request()
                yield request
            if lifecycle_config is not None:
                yield from lifecycle_query(user_id, query, start)
                if admission is not None:
                    admission.release(request)
                continue
            result = yield from run_query(user_id, query, None)
            metrics.record_query(query.name, user_id, start, env.now)
            if admission is not None:
                admission.release(request)
            if collect_results:
                results[query.name] = result.payload

    wall_start = perf_counter()
    for user_id, runs in enumerate(sessions):
        if runs:
            env.process(session(user_id, runs))
    env.run()
    # The DES bucket is the event-loop wall time minus the planning
    # slices timed inside the sessions.
    metrics.record_phase(
        "des",
        perf_counter() - wall_start - metrics.phase_seconds.get("plan", 0.0),
    )
    # Makespan ends with the last query (completed or cancelled), not
    # with trailing background prefetch traffic that may still drain
    # after it (identical to env.now when no prefetcher runs).
    ends = [query.end for query in metrics.queries]
    ends.extend(query.end for query in metrics.cancelled_queries)
    metrics.workload_seconds = max(ends, default=env.now)
    if validate:
        wall_start = perf_counter()
        validate_results(database, queries, results)
        metrics.record_phase("validate", perf_counter() - wall_start)
    return WorkloadResult(
        metrics=metrics, results=results, strategy=strategy, users=users,
        trace=ctx.trace,
        faults_injected=injector.total_injected if injector else 0,
        fault_digest=injector.schedule_digest() if injector else None,
        fault_classes=dict(injector.injected) if injector else None,
        lifecycle_enabled=lifecycle_config is not None,
    )


def _memoise_templates(database: Database, queries: List[WorkloadQuery],
                       morsel_rows: Optional[int]) -> None:
    for query in queries:
        execute_functional(query.template_plan(), database, morsel_rows)


def memoise_functional(config: SystemConfig, metrics: MetricsCollector,
                       database: Database, queries: List[WorkloadQuery],
                       execute) -> None:
    """Fill the functional result memos of ``queries`` on ``database``.

    ``execute(database, queries, morsel_rows)`` is the caller's loop
    over :func:`execute_functional`.  With ``config.morsels`` it runs
    fused at the config's morsel size and the fused-path and shm
    counter deltas land in ``metrics``; otherwise it runs
    operator-at-a-time (``morsel_rows=None``).
    """
    if not config.morsels:
        execute(database, queries, None)
        return
    from repro.engine import morsel
    from repro.storage import shm as shm_store

    morsel_before = morsel.snapshot_stats()
    shm_before = dict(shm_store.stats)
    execute(database, queries, morsel.config_rows(config))
    metrics.record_morsel_stats(
        {key: value - morsel_before[key]
         for key, value in morsel.snapshot_stats().items()},
        {key: value - shm_before[key]
         for key, value in shm_store.stats.items()},
    )


def warm_up(ctx: ExecutionContext, queries: List[WorkloadQuery],
            strategy: PlacementStrategy, warm_cache: bool,
            placement_policy: str, execute) -> None:
    """Prepare the platform before the first query arrives (batch and
    service runs alike): reset access statistics, memoise the
    functional results (see :func:`memoise_functional`), pre-load the
    device caches, start the prefetcher and gate templates for split
    execution."""
    hardware = ctx.hardware
    config = hardware.config
    metrics = ctx.metrics
    database = ctx.database
    wall_start = perf_counter()
    database.statistics.reset()
    memoise_functional(config, metrics, database, queries, execute)
    metrics.record_phase("numpy", perf_counter() - wall_start)
    placement = DataPlacementManager(
        database,
        caches=[device.cache for device in hardware.gpus],
        policy=placement_policy,
    )
    if warm_cache:
        placement.apply_placement()
        if not strategy.uses_data_placement:
            # Operator-driven data placement: the warm content is a
            # starting point, not pinned — operators insert and evict.
            for device in hardware.gpus:
                for key in device.cache.keys:
                    device.cache.unpin(key)
    elif strategy.uses_data_placement:
        # Data-driven placement needs the manager even for a cold
        # start; an empty cache simply keeps every operator on the CPU.
        placement.apply_placement()
    if hardware.copy_engine is not None and config.prefetch_depth > 0:
        # background prefetch rides the engine's idle h2d windows,
        # driven by the same LFU/LRU ranking the manager uses
        PlacementPrefetcher(
            hardware, placement, depth=config.prefetch_depth
        ).start()
    if config.split:
        # Intra-operator co-processing: gate each query template for
        # chunk-merge byte identity, then hang the split state off the
        # context — the dispatch hook consults it per operator.
        from repro.engine.execution.split import SplitState

        split_state = SplitState(config, ctx.cost_model, strategy)
        split_state.prepare(database, queries, metrics=metrics)
        ctx.split = split_state


class ValidationError(AssertionError):
    """A simulated query result disagreed with the reference evaluator."""


def validate_results(database: Database, queries: List[WorkloadQuery],
                     results: Dict[str, object]) -> None:
    """Cross-check collected payloads against the reference evaluator.

    Placement, caching, aborts, and fallbacks may change timing — never
    the answer.  Hand-built plans (no SQL) are skipped.
    """
    for query in queries:
        if query.spec is None or query.name not in results:
            continue
        got = sorted(map(canonical_row, results[query.name].row_tuples()))
        want = reference_rows(database, query)
        compare_rows(query.name, got, want)


def reference_rows(database: Database, query: WorkloadQuery):
    """Canonical, sorted reference-engine rows for one SQL query.

    Service mode caches these per (epoch, query) — every completion of
    the same query under the same snapshot checks against one
    evaluation."""
    from repro.engine import execute_reference

    return sorted(
        map(canonical_row, execute_reference(query.spec, database))
    )


def compare_rows(name: str, got, want) -> None:
    """Raise :class:`ValidationError` unless two canonical, sorted row
    lists agree (floats within 1e-9, everything else exactly)."""
    import math

    if len(got) != len(want):
        raise ValidationError(
            "{}: {} rows simulated vs {} rows reference".format(
                name, len(got), len(want)
            )
        )
    for got_row, want_row in zip(got, want):
        for a, b in zip(got_row, want_row):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(float(a), float(b), rel_tol=1e-9,
                                    abs_tol=1e-9):
                    raise ValidationError(
                        "{}: {} != {}".format(name, got_row, want_row)
                    )
            elif a != b:
                raise ValidationError(
                    "{}: {} != {}".format(name, got_row, want_row)
                )


def canonical_row(row):
    """Normalise one result row for comparison (str / float / int)."""
    return tuple(
        value if isinstance(value, str) else (
            float(value) if isinstance(value, float) else int(value)
        )
        for value in row
    )


def workload_footprint_bytes(queries: List[WorkloadQuery],
                             database: Database) -> int:
    """Paper-scale memory footprint of a workload (Fig. 16): the total
    size of every base column the workload touches."""
    keys = set()
    for query in queries:
        keys |= query.required_columns()
    return sum(database.column(key).nominal_bytes for key in keys)
