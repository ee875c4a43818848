"""Service mode: open-system multi-tenant traffic on the simulated machine.

Every other harness entry point replays a *closed* batch: a fixed set
of queries, issued by a fixed number of sessions, measured by makespan.
The paper's robustness claim only matters at *steady state*, so this
module runs the machine as a service:

* **Streaming arrivals** over simulated time — Poisson, diurnal
  (sinusoidally modulated rate), or a replayed trace of absolute
  arrival times — from N tenants partitioned into SLO classes.
* **SLO classes** (premium / standard / best-effort by default) with
  per-class deadline multipliers, p99 latency targets, fair-share
  weights, tenant queue caps, and per-class "nearing deadline"
  degradation thresholds (``SLOClass.deadline_safety`` overrides the
  ``SystemConfig.deadline_safety`` knob per query).
* **Fair-share admission** layered *on top of* the PR5 lifecycle: a
  weighted deficit-round-robin dispatcher over per-tenant FIFO queues
  decides *who* goes next; tenant-level shed/degrade (queue caps with
  per-class overflow policies) fires before the global
  :class:`AdmissionController` gate decides *whether the machine* can
  take another query; a starvation guard promotes any tenant whose
  queue head has aged past ``starvation_seconds`` regardless of
  deficits.
* **Concurrent data mutation**: append batches advance the table epoch
  through :class:`~repro.storage.epochs.EpochStore`.  In-flight
  queries stay pinned to the snapshot they were dispatched under (the
  executor runs them on a forked :class:`ExecutionContext`), so every
  completed query is byte-identical to the reference engine evaluated
  over *its* snapshot; drained snapshots retire through the cache
  registry, invalidating zone maps, join indexes, memoised plans, and
  shm manifests.
* **Chaos composition**: PR3 fault storms (``faults=``) hit mid-stream
  and are blamed per tenant; optionally each epoch's warm-up also runs
  through a PR8 self-healing :class:`MorselPool` under process chaos
  as an identity sidecar (``ServiceConfig.pool_chaos``).

Everything here is opt-in: no batch code path ever constructs these
objects, so disabling service mode is zero-overhead.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from random import Random
from time import perf_counter
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core import ChoppingExecutor, get_strategy
from repro.engine.execution import (
    AdmissionController,
    ExecutionContext,
    LifecycleConfig,
    QueryCancelled,
    QueryContext,
    deadline_watchdog,
    execute_functional,
    run_plan_eager,
)
from repro.harness.runner import (
    ValidationError,
    canonical_row,
    compare_rows,
    memoise_functional,
    reference_rows,
    warm_up,
)
from repro.hardware import HardwareSystem, SystemConfig
from repro.metrics import MetricsCollector
from repro.sim import Environment, Interrupted
from repro.storage import Database, EpochStore
from repro.workloads.base import WorkloadQuery


def _memoise_templates(database: Database, queries: List[WorkloadQuery],
                       morsel_rows: Optional[int]) -> None:
    for query in queries:
        execute_functional(query.template_plan(), database, morsel_rows)


# -- SLO classes -------------------------------------------------------


@dataclass(frozen=True)
class SLOClass:
    """One service tier: fairness weight, deadline, target, overflow."""

    name: str
    #: deficit-round-robin weight (queries per round relative to 1.0)
    weight: float = 1.0
    #: per-class deadline = base ``deadline_seconds`` x this
    deadline_multiplier: float = 1.0
    #: per-class p99 target = base ``latency_target_seconds`` x this
    target_multiplier: float = 1.0
    #: fraction of the aggregate arrival rate this class generates
    arrival_share: float = 1.0
    #: queued requests per tenant before the overflow policy fires
    queue_cap: int = 8
    #: what happens beyond the cap: "queue" (soft cap — keep
    #: queueing), "shed" (reject now), "degrade-to-cpu" (queue, but
    #: the query runs CPU-only)
    overflow_policy: str = "queue"
    #: per-class "nearing deadline" degradation threshold overriding
    #: ``SystemConfig.deadline_safety`` (None = use the config knob)
    deadline_safety: Optional[float] = None

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("SLO class weight must be positive")
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        if self.overflow_policy not in ("queue", "shed", "degrade-to-cpu"):
            raise ValueError(
                "overflow_policy must be queue/shed/degrade-to-cpu")


#: The default three-tier partition.  Premium pays for priority (a
#: dominant fair-share weight, generous deadline, early GPU-degradation
#: to protect the deadline) and generates the least traffic;
#: best-effort generates over half the traffic and is the first to
#: shed under overload.  The premium weight is sized for sustained
#: overload: its DRR share of a saturated machine (16/19 with all
#: three tiers backlogged) must exceed its offered load at the design
#: overload point (0.10 arrival share x 4x overload = 0.4x capacity,
#: with chaos retries inflating service times on top), or its queue
#: grows without bound and no deadline can save its p99.
PREMIUM = SLOClass(
    "premium", weight=16.0, deadline_multiplier=4.0,
    target_multiplier=4.0, arrival_share=0.10, queue_cap=16,
    overflow_policy="queue", deadline_safety=3.0,
)
STANDARD = SLOClass(
    "standard", weight=2.0, deadline_multiplier=2.0, target_multiplier=2.0,
    arrival_share=0.35, queue_cap=6, overflow_policy="degrade-to-cpu",
    deadline_safety=2.0,
)
BEST_EFFORT = SLOClass(
    "best_effort", weight=1.0, deadline_multiplier=1.0,
    target_multiplier=1.0, arrival_share=0.55, queue_cap=3,
    overflow_policy="shed", deadline_safety=1.0,
)
DEFAULT_CLASSES: Tuple[SLOClass, ...] = (PREMIUM, STANDARD, BEST_EFFORT)


# -- configuration -----------------------------------------------------


@dataclass(frozen=True)
class ServiceConfig:
    """Open-system traffic shape, tenancy, SLOs, and mutation knobs."""

    #: simulated seconds of arrival traffic (the run then drains)
    duration_seconds: float = 20.0
    #: arrival model: "poisson", "diurnal", or "trace"
    arrivals: str = "poisson"
    #: aggregate mean arrival rate (queries per simulated second)
    rate: float = 10.0
    #: diurnal modulation: rate(t) = rate * (1 + A sin(2 pi t / P))
    diurnal_amplitude: float = 0.75
    diurnal_period_seconds: float = 8.0
    #: replayed trace: absolute arrival times in simulated seconds
    trace_times: Optional[Tuple[float, ...]] = None
    #: tenants per SLO class (tenant names are "<class>-<i>")
    tenants_per_class: int = 2
    classes: Tuple[SLOClass, ...] = DEFAULT_CLASSES
    #: machine-level gate (the PR5 lifecycle layer underneath)
    max_inflight: int = 4
    heap_headroom_fraction: float = 0.0
    #: what the *global* gate does if fair share overruns it anyway
    global_overload_policy: str = "shed"
    #: base per-query deadline (x class deadline_multiplier); None
    #: disables deadlines and cancellation
    deadline_seconds: Optional[float] = None
    #: base p99 latency target (x class target_multiplier) for the
    #: attainment ledger; None disables attainment accounting
    latency_target_seconds: Optional[float] = None
    #: straggler hedging factor handed to the executor (None = off)
    hedge_factor: Optional[float] = None
    #: promote any tenant whose queue head waited this long
    starvation_seconds: float = 5.0
    #: deficit quantum per dispatcher round (queries per unit weight)
    quantum: float = 1.0
    #: append-batch cadence in simulated seconds (None = no mutation)
    mutation_interval_seconds: Optional[float] = None
    #: fraction of each target table appended per batch
    append_fraction: float = 0.05
    #: tables receiving appends (None = the largest/fact table)
    append_tables: Optional[Tuple[str, ...]] = None
    #: run each epoch warm-up through a PR8 self-healing MorselPool
    #: under process chaos as an identity sidecar (requires shm)
    pool_chaos: bool = False
    pool_jobs: int = 2
    #: cross-check every completed query against the reference engine
    #: evaluated over its pinned snapshot
    validate: bool = True
    seed: int = 11

    def __post_init__(self):
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.arrivals not in ("poisson", "diurnal", "trace"):
            raise ValueError("arrivals must be poisson/diurnal/trace")
        if self.arrivals == "trace" and not self.trace_times:
            raise ValueError("trace arrivals need trace_times")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.tenants_per_class < 1:
            raise ValueError("tenants_per_class must be >= 1")
        if not self.classes:
            raise ValueError("at least one SLO class is required")
        if self.global_overload_policy not in ("shed", "degrade-to-cpu"):
            # "queue" would block the dispatcher loop itself
            raise ValueError(
                "global_overload_policy must be shed or degrade-to-cpu")
        if self.starvation_seconds <= 0:
            raise ValueError("starvation_seconds must be positive")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_seconds <= 0:
            raise ValueError("diurnal_period_seconds must be positive")

    def targets(self) -> Dict[str, float]:
        """Per-class p99 latency targets in simulated seconds."""
        if self.latency_target_seconds is None:
            return {}
        return {
            cls.name: self.latency_target_seconds * cls.target_multiplier
            for cls in self.classes
        }


# -- arrival models ----------------------------------------------------


class _PoissonArrivals:
    def __init__(self, rate: float):
        self.rate = rate

    def next_interarrival(self, now: float, rng: Random) -> float:
        return rng.expovariate(self.rate)


class _DiurnalArrivals:
    """Poisson with a sinusoidal rate — a day cycle in miniature."""

    def __init__(self, rate: float, amplitude: float, period: float):
        self.rate = rate
        self.amplitude = amplitude
        self.period = period

    def rate_at(self, now: float) -> float:
        phase = math.sin(2.0 * math.pi * now / self.period)
        return max(self.rate * (1.0 + self.amplitude * phase),
                   0.05 * self.rate)

    def next_interarrival(self, now: float, rng: Random) -> float:
        return rng.expovariate(self.rate_at(now))


class _TraceArrivals:
    """Replay absolute arrival times (e.g. from a recorded trace)."""

    def __init__(self, times: Sequence[float]):
        self.times = sorted(float(t) for t in times)
        self.cursor = 0

    def next_interarrival(self, now: float, rng: Random) -> float:
        if self.cursor >= len(self.times):
            return math.inf
        t = self.times[self.cursor]
        self.cursor += 1
        return max(t - now, 0.0)


def _arrival_model(service: ServiceConfig):
    if service.arrivals == "poisson":
        return _PoissonArrivals(service.rate)
    if service.arrivals == "diurnal":
        return _DiurnalArrivals(service.rate, service.diurnal_amplitude,
                                service.diurnal_period_seconds)
    return _TraceArrivals(service.trace_times)


# -- tenancy -----------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, an index, and its SLO class."""

    name: str
    index: int
    slo: SLOClass
    #: this tenant's share of the aggregate arrival rate
    share: float


def build_tenants(service: ServiceConfig) -> List[TenantSpec]:
    """Partition tenants over the SLO classes with arrival shares
    normalised so they sum to 1 across all tenants."""
    total_share = sum(cls.arrival_share for cls in service.classes)
    tenants: List[TenantSpec] = []
    index = 0
    for cls in service.classes:
        per_tenant = (cls.arrival_share / total_share
                      / service.tenants_per_class)
        for i in range(service.tenants_per_class):
            tenants.append(TenantSpec(
                name="{}-{}".format(cls.name, i), index=index,
                slo=cls, share=per_tenant,
            ))
            index += 1
    return tenants


class _Request:
    """One arrived query travelling through fair-share admission."""

    __slots__ = ("tenant", "query_index", "arrived_at", "qctx",
                 "watchdog", "overflow_degraded")

    def __init__(self, tenant: TenantSpec, query_index: int,
                 arrived_at: float, qctx: QueryContext, watchdog):
        self.tenant = tenant
        self.query_index = query_index
        self.arrived_at = arrived_at
        self.qctx = qctx
        self.watchdog = watchdog
        #: tenant-level overflow already degraded this query to CPU
        self.overflow_degraded = False


class FairShareAdmission:
    """Weighted deficit-round-robin over per-tenant FIFO queues.

    Tenant-level policy (queue caps, shed/degrade overflow, starvation
    guard) lives here — *above* the global admission gate, so a noisy
    best-effort tenant sheds before it can push a premium query into
    the machine-level overload policy.
    """

    def __init__(self, tenants: Sequence[TenantSpec], quantum: float,
                 starvation_seconds: float, metrics: MetricsCollector):
        self.quantum = quantum
        self.starvation_seconds = starvation_seconds
        self.metrics = metrics
        self._queues: Dict[str, Deque[_Request]] = {
            t.name: deque() for t in tenants
        }
        self._weights = {t.name: t.slo.weight for t in tenants}
        self._deficits: Dict[str, float] = {t.name: 0.0 for t in tenants}
        self._ring = [t.name for t in tenants]
        self._cursor = 0

    # -- enqueue ------------------------------------------------------

    def offer(self, request: _Request) -> str:
        """Apply the tenant-level overflow policy; returns "queued",
        "shed", or "degraded" (queued CPU-only)."""
        tenant = request.tenant
        queue = self._queues[tenant.name]
        if len(queue) >= tenant.slo.queue_cap:
            policy = tenant.slo.overflow_policy
            if policy == "shed":
                self.metrics.record_shed(
                    request.qctx.name, tenant=tenant.name,
                    slo_class=tenant.slo.name)
                return "shed"
            if policy == "degrade-to-cpu":
                # degrade first, shed at twice the cap: an unbounded
                # CPU-only backlog would parasitise machine capacity
                # that higher tiers are paying for
                if len(queue) >= 2 * tenant.slo.queue_cap:
                    self.metrics.record_shed(
                        request.qctx.name, tenant=tenant.name,
                        slo_class=tenant.slo.name)
                    return "shed"
                request.overflow_degraded = True
                self.metrics.record_degraded(
                    request.qctx.name, tenant=tenant.name,
                    slo_class=tenant.slo.name)
                queue.append(request)
                return "degraded"
            # "queue": soft cap — keep queueing
        queue.append(request)
        return "queued"

    # -- dispatch -----------------------------------------------------

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def next_request(self, now: float) -> Optional[_Request]:
        """Pick the next request to dispatch, or None when idle.

        The starvation guard runs first: the oldest queue head that
        has waited past ``starvation_seconds`` is served regardless of
        deficit state, so weight-1 tenants cannot be starved by a
        persistent premium backlog."""
        starving: Optional[str] = None
        oldest = now - self.starvation_seconds
        for name, queue in self._queues.items():
            if queue and queue[0].arrived_at <= oldest:
                if (starving is None
                        or queue[0].arrived_at
                        < self._queues[starving][0].arrived_at):
                    starving = name
        if starving is not None:
            self.metrics.record_starvation_promotion()
            self._deficits[starving] = max(
                self._deficits[starving] - 1.0, 0.0)
            return self._queues[starving].popleft()
        if not self.pending():
            return None
        # deficit round-robin: each pass tops every backlogged tenant
        # up by quantum x weight; a tenant with deficit >= 1 serves one
        ring = self._ring
        n = len(ring)
        for _round in range(64):  # bounded: weights are positive
            for step in range(n):
                name = ring[(self._cursor + step) % n]
                queue = self._queues[name]
                if not queue:
                    # an idle tenant banks nothing (classic DRR)
                    self._deficits[name] = 0.0
                    continue
                if self._deficits[name] >= 1.0:
                    self._deficits[name] -= 1.0
                    self._cursor = (self._cursor + step + 1) % n
                    return queue.popleft()
            for name in ring:
                if self._queues[name]:
                    self._deficits[name] = min(
                        self._deficits[name]
                        + self.quantum * self._weights[name],
                        float(len(self._queues[name])),
                    )
        raise RuntimeError("deficit round-robin failed to converge")


# -- results -----------------------------------------------------------


@dataclass
class ServiceResult:
    """Everything one service run produced."""

    metrics: MetricsCollector
    #: per-SLO-class ledger (MetricsCollector.slo_ledger)
    ledger: Dict[str, Dict[str, float]]
    tenant_ledger: Dict[str, Dict[str, float]]
    #: chaos blame per tenant (fault classes, aborts, wasted, retries)
    tenant_faults: Dict[str, Dict[str, float]]
    #: per-class p99 targets used for attainment (empty = disabled)
    targets: Dict[str, float]
    arrivals: int
    completed: int
    shed: int
    degraded: int
    cancelled: int
    #: append epochs advanced during the run
    epochs: int
    #: True when every completed query matched the reference engine
    #: over its pinned snapshot (vacuously True when validate=False)
    identical: bool
    divergences: List[str]
    strategy: str
    faults_injected: int = 0
    fault_digest: Optional[str] = None
    lifecycle_enabled: bool = True

    @property
    def simulated_seconds(self) -> float:
        return self.metrics.workload_seconds

    def conserved(self) -> bool:
        """Every arrival is accounted for exactly once: completed,
        shed (tenant- or machine-level), or cancelled.  Hedging races
        and retries must never double-count."""
        return self.arrivals == self.completed + self.shed + self.cancelled


# -- the service loop --------------------------------------------------


class _ServiceRun:
    def __init__(self, database: Database,
                 workload_factory: Callable[[Database],
                                            List[WorkloadQuery]],
                 workload_name: str, strategy: str,
                 config: SystemConfig, service: ServiceConfig,
                 placement_policy: str, cpu_workers: int,
                 gpu_workers: int, scheduling: str, faults):
        from repro.faults import FaultConfig, FaultInjector

        self.service = service
        self.workload_factory = workload_factory
        self.workload_name = workload_name
        self.strategy_name = strategy
        self.config = config
        self.fault_config = FaultConfig.coerce(faults)
        self.env = Environment()
        self.metrics = MetricsCollector()
        self.hardware = HardwareSystem(self.env, config, self.metrics)
        self.hardware.gpu_cache.policy = placement_policy
        self.injector = None
        if self.fault_config is not None and self.fault_config.enabled:
            self.injector = FaultInjector(
                self.fault_config, clock=lambda: self.env.now)
            self.hardware.install_faults(self.injector)
        self.ctx = ExecutionContext(self.hardware, database)
        self.strategy = get_strategy(strategy)
        self.rng = Random(service.seed)
        self.tenants = build_tenants(service)
        self.store = EpochStore(database)
        self.queries = workload_factory(database)
        if not self.queries:
            raise ValueError("service mode needs a non-empty workload")
        self.epoch_queries: Dict[int, List[WorkloadQuery]] = {
            0: self.queries}
        self.epoch_ctx: Dict[int, ExecutionContext] = {0: self.ctx}
        self._references: Dict[Tuple[int, str], list] = {}
        self.divergences: List[str] = []
        self.completed = 0
        self._rr: Counter = Counter()  # per-tenant query round-robin
        self._stir = self.env.event()
        lifecycle = LifecycleConfig(
            max_inflight=service.max_inflight,
            overload_policy=service.global_overload_policy,
            heap_headroom_fraction=service.heap_headroom_fraction,
            hedge_factor=service.hedge_factor,
        )
        self.lifecycle = lifecycle
        self.controller = AdmissionController(
            self.env, self.hardware, lifecycle, metrics=self.metrics)
        self.fair = FairShareAdmission(
            self.tenants, service.quantum, service.starvation_seconds,
            self.metrics)
        self.chopper: Optional[ChoppingExecutor] = None
        if self.strategy.executor == "chopping":
            self.chopper = ChoppingExecutor(
                self.ctx, self.strategy, cpu_workers=cpu_workers,
                gpu_workers=gpu_workers, scheduling=scheduling,
                lifecycle=lifecycle,
            )

    # -- arrivals -----------------------------------------------------

    def _arrivals(self):
        service = self.service
        model = _arrival_model(service)
        names = [t.name for t in self.tenants]
        shares = [t.share for t in self.tenants]
        by_name = {t.name: t for t in self.tenants}
        while True:
            dt = model.next_interarrival(self.env.now, self.rng)
            if not math.isfinite(dt):
                return
            if self.env.now + dt >= service.duration_seconds:
                return
            yield self.env.timeout(dt)
            tenant = by_name[
                self.rng.choices(names, weights=shares)[0]]
            self._on_arrival(tenant)

    def _on_arrival(self, tenant: TenantSpec) -> None:
        service = self.service
        queries = self.epoch_queries[self.store.epoch]
        query_index = (tenant.index + self._rr[tenant.name]) \
            % len(queries)
        self._rr[tenant.name] += 1
        name = queries[query_index].name
        self.metrics.record_arrival(tenant.name, tenant.slo.name)
        deadline = None
        if service.deadline_seconds is not None:
            deadline = (service.deadline_seconds
                        * tenant.slo.deadline_multiplier)
        qctx = QueryContext(
            self.env, name, user=tenant.index, metrics=self.metrics,
            deadline_seconds=deadline, tenant=tenant.name,
            slo_class=tenant.slo.name,
            deadline_safety=tenant.slo.deadline_safety,
        )
        watchdog = None
        if deadline is not None:
            # starts at arrival: tenant-queue time counts toward the
            # deadline, exactly like the PR5 admission queue
            watchdog = self.env.process(deadline_watchdog(qctx))
            watchdog.defused = True
        request = _Request(tenant, query_index, self.env.now, qctx,
                           watchdog)
        outcome = self.fair.offer(request)
        if outcome == "shed":
            self._finish_request(request)
            return
        self._wake()

    # -- dispatcher ---------------------------------------------------

    def _dispatcher(self):
        while True:
            while self.controller.has_capacity():
                request = self.fair.next_request(self.env.now)
                if request is None:
                    break
                if request.qctx.cancelled:
                    # deadline fired while queued at the tenant level
                    self._record_cancelled(request)
                    self._finish_request(request)
                    continue
                decision = yield from self.controller.admit(request.qctx)
                tenant = request.tenant
                if decision == "shed":
                    # machine-level shed: the global gate lost the
                    # headroom race; blame the tenant class too
                    self.metrics.sheds_by_tenant[tenant.name] += 1
                    self.metrics.sheds_by_class[tenant.slo.name] += 1
                    self._finish_request(request)
                    continue
                if decision == "cancelled":
                    self._record_cancelled(request)
                    self._finish_request(request)
                    continue
                if decision == "degrade":
                    request.qctx.force_cpu = True
                    self.metrics.degraded_by_tenant[tenant.name] += 1
                    self.metrics.degraded_by_class[tenant.slo.name] += 1
                if request.overflow_degraded:
                    request.qctx.force_cpu = True
                self.env.process(self._serve(request))
            yield self._stir
            self._stir = self.env.event()

    def _wake(self) -> None:
        if not self._stir.triggered:
            self._stir.succeed()

    # -- per-query execution ------------------------------------------

    def _serve(self, request: _Request):
        admitted_at = self.env.now
        epoch = self.store.pin()
        queries = self.epoch_queries[epoch]
        query = queries[request.query_index % len(queries)]
        rctx = self.epoch_ctx[epoch]
        qctx = request.qctx
        tenant = request.tenant
        result = None
        try:
            wall = perf_counter()
            plan = query.instantiate()
            self.strategy.prepare_plan(rctx, plan)
            self.metrics.record_phase("plan", perf_counter() - wall)
            if self.chopper is not None:
                result = yield self.chopper.submit(
                    plan, qctx, ctx=rctx if epoch > 0 else None)
            else:
                result = yield run_plan_eager(rctx, plan, self.strategy,
                                              qctx)
        except (QueryCancelled, Interrupted):
            self._record_cancelled(request)
        else:
            self.metrics.record_query(
                query.name, tenant.index, request.arrived_at,
                self.env.now, tenant=tenant.name,
                slo_class=tenant.slo.name, admitted_at=admitted_at,
            )
            self.completed += 1
            if self.service.validate and query.spec is not None:
                self._check_identity(epoch, query, result)
        self._finish_request(request)
        self.controller.release()
        for _ in range(self.store.unpin(epoch)):
            self.metrics.record_snapshot_retired()
        self._wake()

    def _record_cancelled(self, request: _Request) -> None:
        self.metrics.record_cancelled_query(
            request.qctx.name, request.tenant.index, request.arrived_at,
            self.env.now, request.qctx.cancel_reason or "cancelled",
            tenant=request.tenant.name,
            slo_class=request.tenant.slo.name,
        )

    def _finish_request(self, request: _Request) -> None:
        request.qctx.finish()
        if request.watchdog is not None and request.watchdog.is_alive:
            request.watchdog.interrupt()

    def _check_identity(self, epoch: int, query: WorkloadQuery,
                        result) -> None:
        wall = perf_counter()
        key = (epoch, query.name)
        want = self._references.get(key)
        if want is None:
            want = reference_rows(self.store.snapshot(epoch), query)
            self._references[key] = want
        got = sorted(map(canonical_row, result.payload.row_tuples()))
        try:
            compare_rows(query.name, got, want)
        except ValidationError as error:
            self.divergences.append(
                "epoch {}: {}".format(epoch, error))
        self.metrics.record_phase("validate", perf_counter() - wall)

    # -- concurrent mutation ------------------------------------------

    def _mutator(self):
        service = self.service
        interval = service.mutation_interval_seconds
        while True:
            yield self.env.timeout(interval)
            if self.env.now >= service.duration_seconds:
                return
            wall = perf_counter()
            snapshot = self.store.advance(
                service.append_fraction, service.append_tables)
            queries = self.workload_factory(snapshot)
            memoise_functional(self.config, self.metrics, snapshot, queries,
                               _memoise_templates)
            if service.pool_chaos:
                self._pool_sidecar(snapshot, queries)
            self.epoch_queries[self.store.epoch] = queries
            self.epoch_ctx[self.store.epoch] = \
                self.ctx.with_database(snapshot)
            self.metrics.record_service_epoch()
            self.metrics.record_phase("mutate", perf_counter() - wall)

    def _pool_sidecar(self, snapshot: Database,
                      queries: List[WorkloadQuery]) -> None:
        """Run the new epoch through a self-healing MorselPool under
        process chaos and cross-check its answers against the reference
        engine — PR8 composition as an identity sidecar."""
        from repro.storage import shm

        if not shm.available():
            return
        from repro.engine import morsel
        from repro.harness.parallel import MorselPool

        workload = (self.workload_name
                    if self.workload_name in ("ssb", "tpch") else "sql")
        sql_queries = [q for q in queries if q.sql is not None]
        if workload == "sql" and not sql_queries:
            return
        with MorselPool(snapshot, sql_queries or queries,
                        workload=workload, jobs=self.service.pool_jobs,
                        faults=self.fault_config,
                        morsel_rows=morsel.config_rows(self.config)) as pool:
            results = pool.run_queries()
            pool.record_metrics(self.metrics)
        for query in (sql_queries or queries):
            if query.spec is None or query.name not in results:
                continue
            key = (self.store.epoch, query.name)
            want = self._references.get(key)
            if want is None:
                want = reference_rows(snapshot, query)
                self._references[key] = want
            got = sorted(map(
                canonical_row, results[query.name].payload.row_tuples()))
            try:
                compare_rows(query.name, got, want)
            except ValidationError as error:
                self.divergences.append(
                    "epoch {} (chaos pool): {}".format(
                        self.store.epoch, error))

    # -- run ----------------------------------------------------------

    def run(self) -> ServiceResult:
        env = self.env
        env.process(self._arrivals())
        env.process(self._dispatcher())
        if self.service.mutation_interval_seconds is not None:
            env.process(self._mutator())
        wall = perf_counter()
        env.run()
        self.metrics.record_phase(
            "des",
            perf_counter() - wall
            - self.metrics.phase_seconds.get("plan", 0.0)
            - self.metrics.phase_seconds.get("validate", 0.0)
            - self.metrics.phase_seconds.get("mutate", 0.0),
        )
        metrics = self.metrics
        ends = [q.end for q in metrics.queries]
        ends.extend(q.end for q in metrics.cancelled_queries)
        metrics.workload_seconds = max(ends, default=env.now)
        targets = self.service.targets()
        shed = int(sum(metrics.sheds_by_tenant.values()))
        return ServiceResult(
            metrics=metrics,
            ledger=metrics.slo_ledger(targets),
            tenant_ledger=metrics.tenant_ledger(),
            tenant_faults=metrics.tenant_fault_report(),
            targets=targets,
            arrivals=int(sum(metrics.arrivals_by_tenant.values())),
            completed=self.completed,
            shed=shed,
            degraded=int(sum(metrics.degraded_by_tenant.values())),
            cancelled=len(metrics.cancelled_queries),
            epochs=self.store.epoch,
            identical=not self.divergences,
            divergences=self.divergences,
            strategy=self.strategy_name,
            faults_injected=(self.injector.total_injected
                            if self.injector else 0),
            fault_digest=(self.injector.schedule_digest()
                          if self.injector else None),
        )


def resolve_workload_factory(
    workload: str,
    names: Optional[Sequence[str]] = None,
) -> Callable[[Database], List[WorkloadQuery]]:
    """Workload-module factory: rebuilt per epoch snapshot."""
    from repro.workloads import ssb, tpch

    modules = {"ssb": ssb, "tpch": tpch}
    if workload not in modules:
        raise ValueError("workload must be one of {}".format(
            sorted(modules)))
    module = modules[workload]
    name_list = list(names) if names else None

    def factory(database: Database) -> List[WorkloadQuery]:
        if name_list:
            return module.workload(database, name_list)
        return module.workload(database)

    return factory


def run_service(
    database: Database,
    workload_factory=None,
    strategy: str = "critical_path",
    config: Optional[SystemConfig] = None,
    service: Optional[ServiceConfig] = None,
    workload: str = "ssb",
    query_names: Optional[Sequence[str]] = None,
    warm_cache: bool = True,
    placement_policy: str = "lfu",
    cpu_workers: int = 4,
    gpu_workers: int = 2,
    scheduling: str = "fifo",
    faults=None,
) -> ServiceResult:
    """Run the simulated machine as a multi-tenant service.

    ``workload_factory`` (``database -> [WorkloadQuery]``) is called
    once per table epoch so queries always bind to their snapshot;
    when omitted it is resolved from ``workload``/``query_names``.
    All other knobs mirror :func:`run_workload`.
    """
    config = config if config is not None else SystemConfig()
    service = service if service is not None else ServiceConfig()
    if workload_factory is None:
        workload_factory = resolve_workload_factory(workload, query_names)
    run = _ServiceRun(
        database, workload_factory, workload, strategy, config, service,
        placement_policy, cpu_workers, gpu_workers, scheduling, faults,
    )
    warm_up(run.ctx, run.queries, run.strategy, warm_cache,
            placement_policy, _memoise_templates)
    return run.run()


__all__ = [
    "BEST_EFFORT",
    "DEFAULT_CLASSES",
    "FairShareAdmission",
    "PREMIUM",
    "STANDARD",
    "SLOClass",
    "ServiceConfig",
    "ServiceResult",
    "TenantSpec",
    "build_tenants",
    "resolve_workload_factory",
    "run_service",
]
