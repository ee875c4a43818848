"""The benchmark's workloads: set-up, one timed run, and its checks.

Each workload is a frozen spec.  ``setup`` builds one database and its
bound, planned query templates from one seed; ``run`` makes one timed
call into the program's public entry point (``run_workload`` or
``run_service``), inside the optional ``timer`` context, and returns
an :class:`Outcome` holding the wall time, the correctness verdict, the
simulated statistics read from the public
``MetricsCollector``/``ServiceResult`` summaries, and a digest of those
statistics and of the result rows.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from random import Random
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.hardware import SystemConfig
from repro.harness import runner, service as service_mode
from repro.harness.runner import ValidationError, canonical_row
from repro.workloads import ssb, tpch

from spans import patched

#: chaos for the service soak: about 10% of operator executions fault
SERVICE_CHAOS = "pcie=0.04,heap=0.03,kernel=0.03,seed={}"


class Seeds(NamedTuple):
    """The seeds one sub-run derives from the benchmark's ``--seed``."""

    data: int
    service: int
    faults: int


def derive_seeds(seed: int, count: int) -> List[Seeds]:
    """``count`` sub-run seed triples, a pure function of ``seed``."""
    rng = Random(seed)
    return [Seeds(*(rng.randrange(1 << 31) for _ in range(3)))
            for _ in range(count)]


class Instance(NamedTuple):
    """A set-up database with its bound and planned query templates."""

    seeds: Seeds
    database: object
    queries: list


@dataclass
class Outcome:
    """What one timed run produced."""

    wall: float
    attempted: int
    completed: int = 0
    #: correctness failures (oracle mismatches, lost arrivals)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    makespan: float = 0.0
    #: completed within the latency target (batch: every completion)
    within_target: int = 0
    shed: int = 0
    cancelled: int = 0
    simulated: Dict[str, float] = field(default_factory=dict)
    digest: str = ""

    @property
    def correct(self) -> bool:
        return not self.problems


GENERATORS = {"ssb": ssb, "tpch": tpch}


def _plan_templates(queries) -> None:
    for query in queries:
        query.spec
        query.template_plan()


def simulated_counters(metrics, faults_injected: int) -> Dict[str, float]:
    """Additive simulated statistics of one run, read after it ends."""
    busy = metrics.busy_seconds
    lifecycle = metrics.lifecycle_summary()
    split = metrics.split_summary()
    service = metrics.service_summary()
    completed = metrics.queries
    return {
        "h2d_s": metrics.cpu_to_gpu_seconds,
        "d2h_s": metrics.gpu_to_cpu_seconds,
        "queue_s": metrics.transfer_queue_seconds,
        "bytes": float(metrics.cpu_to_gpu_bytes + metrics.gpu_to_cpu_bytes),
        "overlapped_s": metrics.overlapped_transfer_seconds,
        "prefetch_hits": float(metrics.prefetch_hits),
        "coalesced": float(metrics.coalesced_transfers),
        "cache_hits": float(metrics.cache_hits),
        "cache_misses": float(metrics.cache_misses),
        "evictions": float(metrics.cache_evictions),
        "peak_heap_bytes": float(metrics.peak_heap_bytes),
        "cpu_busy_s": busy.get("cpu", 0.0),
        "gpu_busy_s": sum(v for k, v in busy.items() if k != "cpu"),
        "aborts": float(metrics.aborts),
        "wasted_s": metrics.wasted_seconds,
        "retries": float(metrics.retries),
        "selections": float(sum(metrics.algorithms.values())),
        "split_operators": split["split_operators"],
        "split_declines": split["split_declines"],
        "admission_waits": lifecycle["admission_waits"],
        "hedges": lifecycle["hedges_started"],
        "hedge_wins": lifecycle["hedge_wins"],
        "degraded": service["tenant_degrades"],
        "epochs": service["service_epochs"],
        "retired": service["snapshots_retired"],
        "injected": float(faults_injected),
        "wait_s": sum(q.wait_seconds for q in completed),
        "service_s": sum(q.service_seconds for q in completed),
        "latency_s": sum(q.latency for q in completed),
    }


def _hash(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _records(metrics) -> list:
    return [(q.name, q.user, q.start, q.end, q.aborts, q.retries,
             q.wasted_seconds, q.tenant, q.admitted_at)
            for q in metrics.queries]


@dataclass(frozen=True)
class Batch:
    """A closed loop: ``users`` sessions share ``repetitions`` passes
    over the query list, validated against the reference engine."""

    name: str
    benchmark: str
    scale_factor: float
    data_scale: float
    query_names: Optional[Tuple[str, ...]]
    strategy: str
    users: int
    repetitions: int
    #: SystemConfig keyword arguments
    system: Tuple[Tuple[str, object], ...] = ()

    def setup(self, seeds: Seeds, span=contextlib.nullcontext) -> Instance:
        module = GENERATORS[self.benchmark]
        with span("harness.setup"):
            database = module.generate(scale_factor=self.scale_factor,
                                       data_scale=self.data_scale,
                                       seed=seeds.data)
            names = list(self.query_names) if self.query_names else None
            queries = module.workload(database, names)
            _plan_templates(queries)
        return Instance(seeds, database, queries)

    def run(self, instance: Instance, span=contextlib.nullcontext,
            timer=contextlib.nullcontext) -> Outcome:
        attempted = len(instance.queries) * self.repetitions
        start = perf_counter()
        try:
            with timer(), span("harness.run"):
                result = runner.run_workload(
                    instance.database, instance.queries, self.strategy,
                    config=SystemConfig(**dict(self.system)),
                    users=self.users, repetitions=self.repetitions,
                    validate=True)
        except ValidationError as error:
            return Outcome(perf_counter() - start, attempted, failed=1,
                           problems=["oracle mismatch: {}".format(error)])
        wall = perf_counter() - start
        metrics = result.metrics
        outcome = Outcome(wall, attempted, completed=len(metrics.queries))
        if outcome.completed != attempted:
            outcome.failed = attempted - outcome.completed
            outcome.problems.append("{} of {} queries completed".format(
                outcome.completed, attempted))
        missing = {q.name for q in instance.queries} - set(result.results)
        if missing:
            outcome.problems.append("no result for {}".format(
                sorted(missing)))
        with span("metrics.report"):
            outcome.latencies = [q.latency for q in metrics.queries]
            outcome.makespan = metrics.workload_seconds
            outcome.within_target = outcome.completed
            outcome.simulated = simulated_counters(
                metrics, result.faults_injected)
        rows = [(name, sorted(map(canonical_row,
                                  result.results[name].row_tuples())))
                for name in sorted(result.results)]
        outcome.digest = _hash(sorted(metrics.summary().items()),
                               _records(metrics), result.fault_digest, rows)
        return outcome


@dataclass(frozen=True)
class Service:
    """An open loop: Poisson arrivals from tenants in three SLO classes,
    append epochs, chaos, deadlines and hedging, with every completed
    query checked against the reference engine over its snapshot."""

    name: str
    data_scale: float
    #: aggregate Poisson arrival rate, queries per simulated second
    rate: float
    duration_seconds: float
    mutation_interval_seconds: float

    def setup(self, seeds: Seeds, span=contextlib.nullcontext) -> Instance:
        with span("harness.setup"):
            database = ssb.generate(scale_factor=1, data_scale=self.data_scale,
                                    seed=seeds.data)
            queries = ssb.workload(database)
            _plan_templates(queries)
        return Instance(seeds, database, queries)

    def run(self, instance: Instance, span=contextlib.nullcontext,
            timer=contextlib.nullcontext) -> Outcome:
        config = service_mode.ServiceConfig(
            duration_seconds=self.duration_seconds, arrivals="poisson",
            rate=self.rate, tenants_per_class=2, max_inflight=4,
            deadline_seconds=0.5, latency_target_seconds=0.2,
            hedge_factor=3.0,
            mutation_interval_seconds=self.mutation_interval_seconds,
            append_fraction=0.05, validate=True, seed=instance.seeds.service,
        )

        def factory(database):
            # the base snapshot reuses the templates set-up planned
            if database is instance.database:
                return instance.queries
            return ssb.workload(database)

        # Every completion is compared against the reference rows of its
        # (epoch, query); the first comparison per reference list records
        # the simulated rows for the digest.
        result_rows = {}
        compare = service_mode.compare_rows

        def compare_and_record(name, got, want):
            if id(want) not in result_rows:
                result_rows[id(want)] = (name, _hash(got))
            return compare(name, got, want)

        start = perf_counter()
        with patched(service_mode, "compare_rows", compare_and_record), \
                timer(), span("harness.run"):
            result = service_mode.run_service(
                instance.database, workload_factory=factory,
                strategy="critical_path", service=config,
                faults=SERVICE_CHAOS.format(instance.seeds.faults))
        wall = perf_counter() - start
        metrics = result.metrics
        outcome = Outcome(wall, result.arrivals, completed=result.completed,
                          failed=len(result.divergences),
                          shed=result.shed, cancelled=result.cancelled)
        if not result.identical:
            outcome.problems.extend(result.divergences[:5])
        if not result.conserved():
            lost = result.arrivals - (result.completed + result.shed
                                      + result.cancelled)
            outcome.failed += abs(lost)
            outcome.problems.append(
                "arrivals not conserved: {} arrived, {} completed, {} shed, "
                "{} cancelled".format(result.arrivals, result.completed,
                                      result.shed, result.cancelled))
        if result.completed < 1:
            outcome.problems.append("no query completed")
        with span("metrics.report"):
            outcome.latencies = [q.latency for q in metrics.queries]
            outcome.makespan = result.simulated_seconds
            targets = result.targets
            outcome.within_target = sum(
                1 for q in metrics.queries
                if q.latency <= targets[q.slo_class])
            outcome.simulated = simulated_counters(
                metrics, result.faults_injected)
        outcome.digest = _hash(
            sorted(result.ledger.items()), _records(metrics),
            [(c.name, c.start, c.end, c.reason) for c in
             metrics.cancelled_queries],
            (result.arrivals, result.completed, result.shed,
             result.degraded, result.cancelled, result.epochs),
            result.fault_digest, list(result_rows.values()))
        return outcome


WORKLOADS = {
    spec.name: spec for spec in (
        Batch("ssb-batch", "ssb", scale_factor=30, data_scale=1e-4,
              query_names=None, strategy="data_driven_chopping", users=20,
              repetitions=200),
        # 20-s soaks with one append each: the benchmark's eight sub-runs
        # pool ~8000 arrivals, which steadies a p99 that varies by 30%
        # between the seeds of any single soak.  The reference engine
        # runs once per (query, epoch) and costs most of the host time,
        # so a smaller database pays for the longer soaks.
        Service("ssb-service", data_scale=5e-3, rate=50.0,
                duration_seconds=20.0, mutation_interval_seconds=10.0),
        Batch("tpch-coproc", "tpch", scale_factor=10, data_scale=1e-3,
              query_names=("Q2", "Q3", "Q4", "Q5", "Q6", "Q7"),
              strategy="runtime", users=8, repetitions=170,
              system=(("copy_engine", True), ("morsels", True),
                      ("split", True))),
    )
}
