"""Fused morsel-driven execution and shared-memory parallel columns.

Covers the morsel tentpole end to end:

* fused SSB/TPC-H batches are byte-identical to the reference engine
  across morsel sizes, including a hypothesis sweep of random
  join/group-by queries;
* the shared-memory column store round-trips a database (export →
  attach) with read-only zero-copy views and tears segments down with
  ``clear_database_caches``;
* :class:`MorselPool` answers every workload query identically to
  sequential execution (payload *and* sizing metadata) and degrades to
  an in-process fallback when workers fail;
* the fused warm-up composes with fault injection and the query
  lifecycle without changing a simulated timing or a result byte;
* MetricsCollector surfaces the morsel counters; SystemConfig
  validates and round-trips the knobs.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Planner, kernels, morsel, plan_cache
from repro.engine.execution import execute_functional
from repro.engine.operators import PhysicalPlan, ScanSelect
from repro.faults import FaultConfig
from repro.harness import experiments as E
from repro.harness.runner import run_workload
from repro.hardware import SystemConfig
from repro.sql import bind
from repro.storage import ColumnType, Database, shm
from repro.workloads import ssb, tpch

FORK_OK = "fork" in multiprocessing.get_all_start_methods()


def _batch(database, queries, morsel_rows=None):
    """Every query's rows from a fresh execution (plan cache dropped
    first), fused at ``morsel_rows`` or operator-at-a-time."""
    plan_cache.invalidate(database)
    return {
        query.name: execute_functional(
            query.instantiate(), database, morsel_rows).payload.row_tuples()
        for query in queries
    }


def _stat_deltas(action):
    """Fused-path counter increments while ``action()`` runs."""
    before = morsel.snapshot_stats()
    action()
    return {key: value - before[key]
            for key, value in morsel.snapshot_stats().items()}


# ---------------------------------------------------------------------------
# Byte identity: fused vs reference engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module,fixture", [(ssb, "ssb_db"),
                                            (tpch, "tpch_db")])
@pytest.mark.parametrize("rows_per_morsel", [1000, 1_000_000_000])
def test_fused_workload_identity(module, fixture, rows_per_morsel, request):
    db = request.getfixturevalue(fixture)
    queries = module.workload(db)
    reference = _batch(db, queries)
    fused = {}
    stats = _stat_deltas(
        lambda: fused.update(_batch(db, queries, rows_per_morsel)))
    assert fused == reference
    assert stats["fused_queries"] > 0


def test_fused_ssb_zero_declines(ssb_db):
    """Every SSB query fuses — the benchmark's speedup covers them all."""
    stats = _stat_deltas(lambda: _batch(ssb_db, ssb.workload(ssb_db),
                                        morsel.DEFAULT_MORSEL_ROWS))
    assert stats["declined_queries"] == 0
    assert stats["fused_queries"] == len(ssb.QUERIES)
    assert stats["fused_operators"] > stats["fused_queries"]


def test_unfusable_plan_declines_cleanly(ssb_db):
    """A plan without a breaker is declined, never wrongly fused."""
    plan = PhysicalPlan(ScanSelect("lineorder"), name="bare_scan")
    with pytest.raises(morsel.Decline):
        morsel.build(plan, ssb_db)
    # ... and the execution path silently falls back:
    result = execute_functional(
        PhysicalPlan(ScanSelect("lineorder"), name="bare_scan2"),
        ssb_db, morsel.DEFAULT_MORSEL_ROWS)
    assert result.actual_rows == ssb_db.table("lineorder").actual_rows


# ---------------------------------------------------------------------------
# Hypothesis: random join/group-by queries, morsels on vs off
# ---------------------------------------------------------------------------

def _rand_db(seed):
    rng = np.random.default_rng(seed)
    db = Database("rand{}".format(seed))
    n = 3000
    fact = db.create_table("f", nominal_rows=100_000)
    fact.add_column("fk", ColumnType.INT32, rng.integers(1, 11, n))
    fact.add_column("x", ColumnType.INT32, rng.integers(-20, 21, n))
    fact.add_column("y", ColumnType.INT32, rng.integers(0, 100, n))
    dim = db.create_table("d", nominal_rows=10)
    dim.add_column("id", ColumnType.INT32, np.arange(1, 11))
    dim.add_column("w", ColumnType.INT32, rng.integers(0, 5, 10))
    return db


RAND_DBS = {seed: _rand_db(seed) for seed in range(2)}

TEMPLATES = (
    "select w, sum(x), count(*) from f, d where f.fk = d.id and {} "
    "group by w",
    "select sum(y), min(x), max(x) from f where {}",
    "select w, count(*) from f, d where f.fk = d.id and {} group by w",
)


@given(seed=st.integers(0, 1),
       template=st.sampled_from(TEMPLATES),
       op=st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]),
       literal=st.integers(-25, 105),
       rows_per_morsel=st.sampled_from([64, 1000, 65536, 1_000_000_000]))
@settings(max_examples=40, deadline=None)
def test_random_queries_identical_across_morsel_sizes(
        seed, template, op, literal, rows_per_morsel):
    db = RAND_DBS[seed]
    sql = template.format("y {} {}".format(op, literal))

    def run(morsel_rows):
        plan_cache.invalidate(db)
        plan = Planner(db).plan(bind(sql, db, name="rand"))
        result = execute_functional(plan, db, morsel_rows)
        return (result.payload.row_tuples(), result.actual_rows,
                result.nominal_rows, result.row_width_bytes)

    assert run(rows_per_morsel) == run(None), sql


# ---------------------------------------------------------------------------
# Shared-memory column store
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not shm.available(), reason="no shared memory")
def test_shm_roundtrip_and_cleanup():
    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=5)
    manifest = shm.export_database(db)
    assert shm.export_database(db) is manifest  # memoised
    assert shm.export_count(db) == 1

    attached = shm.attach_database(manifest)
    assert attached.name == db.name
    for table in db.tables:
        twin = attached.table(table.name)
        assert twin.actual_rows == table.actual_rows
        assert twin.nominal_rows == table.nominal_rows
        for column in table.columns:
            view = twin.column(column.name).values
            np.testing.assert_array_equal(view, column.values)
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 0
    for table in attached.tables:
        for column in table.columns:
            if column.dictionary is not None:
                assert column.dictionary == (
                    db.table(table.name).column(column.name).dictionary)

    shm.detach_all()
    from repro.harness.experiments import clear_database_caches
    clear_database_caches()
    assert shm.export_count() == 0


@pytest.mark.skipif(not shm.available(), reason="no shared memory")
def test_shm_attached_database_answers_queries():
    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=6)
    queries = ssb.workload(db)
    reference = _batch(db, queries)
    attached = shm.attach_database(shm.export_database(db))
    try:
        assert _batch(attached, ssb.workload(attached)) == reference
        assert _batch(attached, ssb.workload(attached), 1000) == reference
    finally:
        kernels.invalidate(attached)
        shm.invalidate(db)
        shm.detach_all()


# ---------------------------------------------------------------------------
# MorselPool: intra-query parallelism
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not (FORK_OK and shm.available()),
                    reason="needs fork + shared memory")
def test_morsel_pool_matches_sequential():
    from repro.harness.parallel import MorselPool

    db = ssb.generate(scale_factor=0.01, data_scale=0.02, seed=11)
    queries = ssb.workload(db)
    expected = {}
    for query in queries:
        result = execute_functional(query.instantiate(), db)
        expected[query.name] = (result.payload.row_tuples(),
                                result.actual_rows, result.nominal_rows,
                                result.row_width_bytes)
    try:
        with MorselPool(db, queries, workload="ssb", jobs=2) as pool:
            pool.warm()
            results = pool.run_queries()
            assert pool.fallbacks == 0
    finally:
        shm.invalidate(db)
    got = {
        name: (result.payload.row_tuples(), result.actual_rows,
               result.nominal_rows, result.row_width_bytes)
        for name, result in results.items()
    }
    assert got == expected


@pytest.mark.skipif(not (FORK_OK and shm.available()),
                    reason="needs fork + shared memory")
def test_morsel_pool_falls_back_on_worker_failure():
    """A worker-*reported* error (engine bug, mid-run decline) falls
    back in-process; process deaths are self-healed, not fallen back."""
    from repro.harness import parallel
    from repro.harness.parallel import MorselPool

    db = ssb.generate(scale_factor=0.01, data_scale=0.01, seed=12)
    queries = ssb.workload(db)
    reference = _batch(db, queries)
    try:
        with MorselPool(db, queries, workload="ssb", jobs=2) as pool:
            def boom(name, pipe, tasks):
                raise parallel._PoolTaskError("worker lost")

            pool._run_pooled = boom
            results = pool.run_queries()
            assert pool.fallbacks == len(queries)
    finally:
        shm.invalidate(db)
    got = {name: result.payload.row_tuples()
           for name, result in results.items()}
    assert got == reference


@pytest.mark.skipif(not (FORK_OK and shm.available()),
                    reason="needs fork + shared memory")
def test_morsel_pool_survives_worker_kill():
    """SIGKILLing a live worker re-queues its chunks and respawns —
    results stay byte-identical with ZERO fallbacks."""
    import os
    import signal

    from repro.harness.parallel import MorselPool

    db = ssb.generate(scale_factor=0.01, data_scale=0.02, seed=13)
    queries = ssb.workload(db)
    reference = _batch(db, queries)
    try:
        with MorselPool(db, queries, workload="ssb", jobs=2) as pool:
            pool.warm()
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            results = pool.run_queries()
            assert pool.fallbacks == 0
            assert pool.degraded is None
            assert pool.counters["worker_restarts"] >= 1
    finally:
        shm.invalidate(db)
    got = {name: result.payload.row_tuples()
           for name, result in results.items()}
    assert got == reference


# ---------------------------------------------------------------------------
# run_workload: composition with faults and the query lifecycle
# ---------------------------------------------------------------------------

def _sim_run(db, config, **kwargs):
    plan_cache.invalidate(db)
    run = run_workload(db, ssb.workload(db), "runtime", config=config,
                       users=2, repetitions=1, collect_results=True,
                       **kwargs)
    results = {name: tuple(table.row_tuples())
               for name, table in run.results.items()}
    return run, results


def test_run_workload_morsels_identical_simulation():
    db = E.ssb_database(1)
    base_run, base_results = _sim_run(db, E.FULL_CONFIG)
    fused_run, fused_results = _sim_run(db, E.FULL_CONFIG.with_morsels(True))
    assert fused_results == base_results
    assert fused_run.seconds == base_run.seconds
    assert fused_run.metrics.fused_queries > 0


def test_run_workload_morsels_with_faults_identical():
    db = E.ssb_database(1)
    spec = FaultConfig.uniform(0.05, seed=7)
    base_run, base_results = _sim_run(db, E.FULL_CONFIG, faults=spec)
    fused_run, fused_results = _sim_run(
        db, E.FULL_CONFIG.with_morsels(True), faults=spec)
    assert fused_results == base_results
    assert fused_run.fault_digest == base_run.fault_digest
    assert fused_run.seconds == base_run.seconds


def test_run_workload_morsels_with_lifecycle_identical():
    from repro.engine.execution import LifecycleConfig

    db = E.ssb_database(1)
    lifecycle = LifecycleConfig(max_inflight=2)
    base_run, base_results = _sim_run(db, E.FULL_CONFIG,
                                      lifecycle=lifecycle)
    fused_run, fused_results = _sim_run(
        db, E.FULL_CONFIG.with_morsels(True), lifecycle=lifecycle)
    assert fused_results == base_results
    assert fused_run.seconds == base_run.seconds


# ---------------------------------------------------------------------------
# Metrics and configuration
# ---------------------------------------------------------------------------

def test_metrics_surface_morsel_counters():
    db = E.ssb_database(1)
    plan_cache.invalidate(db)
    run = run_workload(db, ssb.workload(db), "runtime",
                       config=E.FULL_CONFIG.with_morsels(True))
    summary = run.metrics.morsel_summary()
    assert summary["fused_queries"] == len(ssb.QUERIES)
    assert summary["morsels_executed"] >= summary["fused_queries"]
    assert summary["fused_chain_length"] > 1.0
    assert summary["declined_queries"] == 0

    plan_cache.invalidate(db)
    baseline = run_workload(db, ssb.workload(db), "runtime",
                            config=E.FULL_CONFIG)
    assert not any(baseline.metrics.morsel_summary().values())


def test_system_config_morsel_knobs():
    config = SystemConfig()
    assert config.morsels is False
    fused = config.with_morsels(True, morsel_rows=8192)
    assert fused.morsels and fused.morsel_rows == 8192
    assert fused.with_morsels(False).morsels is False
    with pytest.raises(ValueError):
        SystemConfig(morsel_rows=0)


def test_same_result_checks_every_field():
    from repro.engine.intermediates import OperatorResult, ResultFrame

    frame = ResultFrame({"a": np.arange(3, dtype=np.int64)})
    base = OperatorResult(frame, actual_rows=3, nominal_rows=30,
                          row_width_bytes=8)
    assert morsel.same_result(base, OperatorResult(frame, 3, 30, 8))
    assert not morsel.same_result(base, OperatorResult(frame, 3, 30, 16))
    assert not morsel.same_result(base, OperatorResult(frame, 3, 31, 8))
    other = ResultFrame({"a": np.arange(1, 4, dtype=np.int64)})
    assert not morsel.same_result(base, OperatorResult(other, 3, 30, 8))


def test_morsel_rows_override(ssb_db):
    """The morsel size is an argument: the config's value or the 64K
    default, never a process-wide setting."""
    assert morsel.config_rows(SystemConfig()) == morsel.DEFAULT_MORSEL_ROWS
    assert morsel.config_rows(SystemConfig(morsel_rows=512)) == 512
    (query,) = [q for q in ssb.workload(ssb_db) if q.name == "Q1.1"]
    pipe = morsel.build(query.instantiate(), ssb_db, 512)
    assert all(stop - start <= 512 for start, stop in pipe.ranges())
    assert len(pipe.ranges()) == -(-pipe.fact_rows // 512)
    assert len(morsel.build(query.instantiate(), ssb_db).ranges()) == 1


def test_morsel_config_does_not_leak_into_later_runs():
    """A fused run leaves no process state behind: a default run after
    it in the same process executes operator-at-a-time."""
    db = E.ssb_database(1)
    plan_cache.invalidate(db)
    run_workload(db, ssb.workload(db), "runtime",
                 config=SystemConfig(morsels=True, morsel_rows=512))
    plan_cache.invalidate(db)
    stats = _stat_deltas(
        lambda: run_workload(db, ssb.workload(db), "runtime"))
    assert stats["fused_queries"] == 0
