"""Intra-operator co-processing: morsel-grained CPU/GPU split execution.

Covers the split tentpole end to end:

* the chunk-merge substrate yields byte-identical results for any cut
  ratio and any rebalance schedule (fixed sweep + hypothesis);
* DES runs with split enabled validate against the reference across
  ratio overrides and round counts, and compose with fault injection
  (breaker opens mid-split) and cancellation (both halves roll back);
* the ratio comes from the HyPE split-cost model, shifts toward the
  GPU on the coupled-platform preset, and feeds per-device realized
  throughput back into the observation store;
* ``Limit``-rooted plans fuse with cross-chunk early termination
  behind the same identity gate;
* the load tracker re-snapshots breaker penalties on ``refresh()``;
* metrics/CLI surface the split summary; disabled runs pay nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import get_strategy
from repro.core.placement import STRATEGY_NAMES, SplitHype
from repro.engine import morsel, plan_cache
from repro.engine.execution import QueryContext, execute_functional
from repro.engine.execution.split import (
    SPLIT_KINDS,
    SplitState,
    merged_split_result,
)
from repro.harness.runner import run_workload
from repro.hardware import SystemConfig
from repro.hype.load import LoadTracker
from repro.hype.models import SplitCostModel
from repro.metrics import MetricsCollector
from repro.workloads import ssb, sql_workload

from tests.conftest import make_context


def _signature(result):
    return (result.payload.row_tuples(), result.actual_rows,
            result.nominal_rows, result.row_width_bytes)


def _split_pipes(database):
    """(query, reference, pipe) for every SSB query whose fused
    pipeline supports partial merging."""
    out = []
    for query in ssb.workload(database):
        reference = execute_functional(query.instantiate(), database)
        try:
            pipe = morsel.build(query.instantiate(), database)
        except morsel.Decline:
            continue
        if pipe.supports_partials:
            out.append((query, reference, pipe))
    return out


# ---------------------------------------------------------------------------
# Chunk-merge identity: any ratio, any schedule
# ---------------------------------------------------------------------------

def test_merged_split_identity_every_ratio(ssb_db):
    gated = _split_pipes(ssb_db)
    assert gated  # the SSB suite must offer splittable plans
    for _, reference, pipe in gated:
        rows = pipe.fact_rows
        for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
            merged = merged_split_result(pipe, [int(rows * ratio)])
            assert _signature(merged) == _signature(reference)


def test_merged_split_identity_materialising_plan(ssb_db):
    """A frame breaker takes its nominal rows from the chain counts
    summed over every chunk, so a multi-chunk merge must match too."""
    sql = ("select lo_orderkey, lo_quantity from lineorder "
           "where lo_discount >= 5")
    (query,) = sql_workload(ssb_db, {"q": sql})
    reference = execute_functional(query.instantiate(), ssb_db)
    pipe = morsel.build(query.instantiate(), ssb_db, 100)
    assert pipe.breaker_kind == "frame"
    rows = pipe.fact_rows
    merged = merged_split_result(pipe, [rows // 3, (2 * rows) // 3])
    assert _signature(merged) == _signature(reference)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_merged_split_identity_any_schedule(ssb_db, data):
    """Any rebalance schedule — arbitrary, unordered, duplicated, or
    out-of-range cut points — merges byte-identically."""
    gated = _split_pipes(ssb_db)
    _, reference, pipe = data.draw(st.sampled_from(gated))
    rows = pipe.fact_rows
    boundaries = data.draw(
        st.lists(st.integers(min_value=-5, max_value=rows + 5), max_size=6))
    merged = merged_split_result(pipe, boundaries)
    assert _signature(merged) == _signature(reference)


def test_gate_accepts_ssb_suite(ssb_db):
    """Every SSB query passes the warm-up identity gate."""
    metrics = MetricsCollector()
    state = SplitState(SystemConfig(split=True), None)
    state.prepare(ssb_db, ssb.workload(ssb_db), metrics=metrics)
    assert state.ungated == set()
    assert len(state.splittable) == len(ssb.QUERIES)
    assert sum(metrics.split_declines.values()) == 0


# ---------------------------------------------------------------------------
# DES execution: validated runs across ratios, rounds, strategies
# ---------------------------------------------------------------------------

def _run_split(db, config, **kwargs):
    kwargs.setdefault("strategy", "runtime")
    strategy = kwargs.pop("strategy")
    kwargs.setdefault("validate", True)
    return run_workload(db, ssb.workload(db), strategy,
                        config=config, **kwargs)


@pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75, 1.0])
def test_split_ratio_override_validates(ssb_db, ratio):
    run = _run_split(ssb_db, SystemConfig(split=True, split_ratio=ratio))
    assert run.metrics.split_operators > 0
    summary = run.metrics.split_summary()
    assert summary["split_mean_chosen_ratio"] == pytest.approx(ratio)
    assert 0.0 <= summary["split_mean_realized_ratio"] <= 1.0


@pytest.mark.parametrize("rounds", [1, 2, 7])
def test_split_rounds_validate(ssb_db, rounds):
    run = _run_split(ssb_db,
                     SystemConfig(split=True, split_rounds=rounds))
    assert run.metrics.split_operators > 0


def test_split_adaptive_ratio_validates_and_rebalances(ssb_db):
    run = _run_split(ssb_db, SystemConfig(split=True), repetitions=2)
    summary = run.metrics.split_summary()
    assert summary["split_operators"] > 0
    assert 0.0 < summary["split_mean_chosen_ratio"] < 1.0
    # the adaptive path must actually exercise mid-operator rebalancing
    assert summary["split_rebalances"] > 0


def test_split_strategy_registered_and_runs(ssb_db):
    assert "split" in STRATEGY_NAMES
    assert isinstance(get_strategy("split"), SplitHype)
    run = _run_split(ssb_db, SystemConfig(split=True), strategy="split")
    assert run.metrics.split_operators > 0


def test_split_vectorized_model_validates(ssb_db):
    run = _run_split(ssb_db, SystemConfig(split=True),
                     processing_model="vectorized")
    assert run.seconds > 0


# ---------------------------------------------------------------------------
# Zero overhead when disabled / declined
# ---------------------------------------------------------------------------

def test_split_summary_all_zero_when_disabled(ssb_db):
    run = _run_split(ssb_db, SystemConfig(), validate=False)
    summary = run.metrics.split_summary()
    assert all(value == 0 for value in summary.values())


def test_declined_split_changes_nothing(ssb_db):
    """split_ratio=0 declines every operator at the ratio floor before
    any simulated time passes — the makespan must match the pure run
    exactly."""
    pure = _run_split(ssb_db, SystemConfig(), validate=False)
    declined = _run_split(ssb_db,
                          SystemConfig(split=True, split_ratio=0.0),
                          validate=False)
    assert declined.metrics.split_operators == 0
    assert declined.metrics.split_declines["ratio_floor"] > 0
    assert declined.seconds == pure.seconds


# ---------------------------------------------------------------------------
# Composition: faults (PR3) and cancellation / deadlines (PR5)
# ---------------------------------------------------------------------------

def test_split_composes_with_faults(ssb_db):
    """Kernel faults mid-split degrade the operator to pure CPU (the
    round's GPU share is wasted work) and still validate."""
    run = _run_split(ssb_db, SystemConfig(split=True),
                     faults="kernel=0.6,seed=11", repetitions=2)
    assert run.faults_injected > 0
    assert run.metrics.split_degrades > 0
    assert run.metrics.split_wasted_seconds > 0


def test_split_declines_when_breaker_open(ssb_db):
    """With the breaker certain to open, later split attempts decline
    up front instead of feeding work to a dead device.  (Cost-based
    strategies route around the device entirely; gpu_only keeps
    dispatching to it, so the decline path is what protects the run.)"""
    run = _run_split(ssb_db, SystemConfig(split=True),
                     faults="kernel=1.0,seed=3", repetitions=2,
                     strategy="gpu_only")
    assert run.metrics.split_declines["breaker_open"] > 0
    assert run.metrics.split_degrades > 0


def _manual_split(db, config, deadline_seconds=None):
    """Drive one try_split as a raw DES process; returns
    (env, ctx, device, process, qctx)."""
    env, hardware, ctx = make_context(db, config)
    state = SplitState(config, ctx.cost_model)
    queries = ssb.workload(db)[:1]
    state.prepare(db, queries)
    ctx.split = state
    plan = queries[0].instantiate()

    def produce(op):
        return op.produce(db, [produce(c) for c in op.children])

    target = next(op for op in plan.operators
                  if op.kind in SPLIT_KINDS
                  and not op.cpu_only and op.children)
    children = [produce(c) for c in target.children]
    input_bytes = target.input_nominal_bytes(db, children)
    device = hardware.device("gpu")
    qctx = QueryContext(env, queries[0].name, metrics=ctx.metrics,
                        deadline_seconds=deadline_seconds)
    process = env.process(state.try_split(
        ctx, device, target, children, input_bytes, qctx))
    process.defused = True
    qctx.register(process)
    return env, ctx, device, process, qctx


SPLIT_HALF = dict(split=True, split_ratio=0.5, split_rounds=4)


def test_manual_split_completes_and_observes(ssb_db):
    env, ctx, device, process, _ = _manual_split(
        ssb_db, SystemConfig(**SPLIT_HALF))
    env.run()
    assert env.now > 0
    result = process.value
    assert result is not None and result.location == "cpu"
    # both halves released their device memory
    assert device.heap.used == 0
    assert not device.heap.live_allocations
    assert ctx.metrics.split_operators == 1


def test_split_observations_tagged(ssb_db):
    env, ctx, device, process, _ = _manual_split(
        ssb_db, SystemConfig(**SPLIT_HALF))
    env.run()
    tagged = [
        obs
        for key in ctx.cost_model.store.keys()
        for obs in ctx.cost_model.store.get(*key)
        if obs.source == "split"
    ]
    # one CPU + one GPU share observation for the single split operator
    assert len(tagged) == 2


def test_cancellation_rolls_back_both_halves(ssb_db):
    # measure the uncancelled duration first, then cancel halfway
    env, _, _, _, _ = _manual_split(ssb_db, SystemConfig(**SPLIT_HALF))
    env.run()
    duration = env.now
    assert duration > 0

    env, ctx, device, process, qctx = _manual_split(
        ssb_db, SystemConfig(**SPLIT_HALF))

    def canceller():
        yield env.timeout(duration / 2)
        qctx.cancel("test")

    env.process(canceller())
    env.run()
    assert qctx.cancelled
    assert not process.ok
    # the rollback freed every staged and working allocation
    assert device.heap.used == 0
    assert not device.heap.live_allocations
    assert ctx.metrics.split_operators == 0


def test_deadline_pressure_degrades_to_cpu(ssb_db):
    env, _, _, _, _ = _manual_split(ssb_db, SystemConfig(**SPLIT_HALF))
    env.run()
    duration = env.now

    # a deadline the split cannot safely meet: degrade at the first
    # round boundary, finish pure-CPU, never cancel
    env, ctx, device, process, qctx = _manual_split(
        ssb_db, SystemConfig(**SPLIT_HALF),
        deadline_seconds=duration * 0.6)
    env.run()
    assert process.value is not None
    assert ctx.metrics.split_operators == 1
    assert ctx.metrics.split_degrades == 1
    assert device.heap.used == 0


# ---------------------------------------------------------------------------
# Coupled-platform preset: the ratio shifts toward the GPU
# ---------------------------------------------------------------------------

def test_coupled_preset_fields():
    config = SystemConfig.coupled_gpu()
    assert config.coupled and config.split
    pcie = SystemConfig()
    assert (config.pcie_bandwidth_bytes_per_second
            > pcie.pcie_bandwidth_bytes_per_second)
    override = SystemConfig.coupled_gpu(split_rounds=2)
    assert override.split_rounds == 2 and override.coupled


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(split_ratio=1.5)
    with pytest.raises(ValueError):
        SystemConfig(split_rounds=0)
    toggled = SystemConfig().with_split(True, split_ratio=0.5)
    assert toggled.split and toggled.split_ratio == 0.5


def test_coupled_ratio_shifts_toward_gpu(ssb_db):
    """arXiv 1307.1955's headline effect: with the PCIe transfer term
    gone, the split-cost model assigns the GPU a larger share."""
    pcie = _run_split(ssb_db, SystemConfig(split=True), validate=False)
    coupled = _run_split(ssb_db, SystemConfig.coupled_gpu(),
                         validate=False)
    assert pcie.metrics.split_operators > 0
    assert coupled.metrics.split_operators > 0
    assert (coupled.metrics.split_summary()["split_mean_chosen_ratio"]
            > pcie.metrics.split_summary()["split_mean_chosen_ratio"])


# ---------------------------------------------------------------------------
# Split cost model + load tracker units
# ---------------------------------------------------------------------------

def test_split_cost_model_balance():
    model = SplitCostModel(None)
    assert model.balance(0.0, 0.0, 0.0) == 0.5
    assert model.balance(1.0, 1.0, 0.0) == 0.5
    # transfer cost shrinks the GPU share
    assert model.balance(1.0, 1.0, 2.0) == 0.25
    # a fast GPU earns a larger share
    assert model.balance(3.0, 1.0, 0.0) == 0.75


def test_split_cost_model_rebalance():
    model = SplitCostModel(None)
    inf = float("inf")
    assert model.rebalance(0.0, 0.7, 1.0, 1.0, 0.0, 0.0, 0.0) == 0.7
    # an unavailable (open-breaker) device gets nothing
    assert model.rebalance(0.5, 0.7, 1.0, 1.0, 0.0, 0.0, inf) == 0.0
    assert model.rebalance(0.5, 0.7, 1.0, 1.0, 0.0, inf, 0.0) == 1.0
    # balanced devices, no queues: keep an even division
    even = model.rebalance(0.5, 0.5, 1.0, 1.0, 0.0, 0.0, 0.0)
    assert even == pytest.approx(0.5)
    # a loaded CPU pushes work to the GPU
    loaded = model.rebalance(0.5, 0.5, 1.0, 1.0, 0.0, 1.0, 0.0)
    assert loaded > even


class _StubResilience:
    enabled = True

    def __init__(self):
        self.penalty = 0.0

    def placement_penalty(self, name, now):
        return self.penalty


def test_load_tracker_refresh_resnapshots():
    tracker = LoadTracker()
    resilience = _StubResilience()
    tracker.attach_resilience(resilience, clock=lambda: 0.0)
    tracker.assign("gpu", 1.0)
    assert tracker.estimated_completion("gpu") == 1.0
    # the breaker opens, but the snapshot is stale until refresh()
    resilience.penalty = float("inf")
    assert tracker.estimated_completion("gpu") == 1.0
    tracker.refresh("gpu")
    assert tracker.estimated_completion("gpu") == float("inf")
    # it closes again; a no-argument refresh re-reads all known names
    resilience.penalty = 0.0
    tracker.refresh()
    assert tracker.estimated_completion("gpu") == 1.0
    tracker.reset()
    assert tracker.estimated_completion("gpu") == 0.0


# ---------------------------------------------------------------------------
# Limit fusion: cross-chunk early termination
# ---------------------------------------------------------------------------

LIMIT_SQL = ("select lo_orderkey, lo_quantity from lineorder "
             "where lo_discount >= 5 limit 50")


def _run_sql(db, sql, morsel_rows=None):
    (query,) = sql_workload(db, {"q": sql})
    return execute_functional(query.instantiate(), db, morsel_rows)


def _fresh_sql(db, sql, morsel_rows=None):
    """:func:`_run_sql` after dropping the plan cache, with the fused
    path's counter and decline-reason increments."""
    plan_cache.invalidate(db)
    stats = morsel.snapshot_stats()
    reasons = morsel.decline_reasons.copy()
    result = _run_sql(db, sql, morsel_rows)
    deltas = {key: value - stats[key]
              for key, value in morsel.snapshot_stats().items()}
    return result, deltas, morsel.decline_reasons - reasons


@pytest.mark.parametrize("rows_per_morsel", [100, 1000, 1_000_000_000])
def test_limit_fused_identity(ssb_db, rows_per_morsel):
    reference, _, _ = _fresh_sql(ssb_db, LIMIT_SQL)
    fused, stats, _ = _fresh_sql(ssb_db, LIMIT_SQL, rows_per_morsel)
    assert _signature(fused) == _signature(reference)
    assert stats["limit_fused_queries"] == 1


def test_limit_early_stop_skips_morsels(ssb_db):
    _, stats, _ = _fresh_sql(ssb_db, LIMIT_SQL, 100)
    assert stats["limit_early_stops"] == 1
    assert stats["limit_rows_skipped"] > 0


def test_limit_no_early_stop_with_one_chunk(ssb_db):
    _, stats, _ = _fresh_sql(ssb_db, LIMIT_SQL, 1_000_000_000)
    assert stats["limit_fused_queries"] == 1
    assert stats["limit_early_stops"] == 0
    assert stats["limit_rows_skipped"] == 0


def test_limit_over_sort_declines_but_matches(ssb_db):
    sql = ("select lo_orderkey from lineorder where lo_discount >= 5 "
           "order by lo_orderkey limit 10")
    reference, _, _ = _fresh_sql(ssb_db, sql)
    fused, stats, reasons = _fresh_sql(ssb_db, sql, 100)
    assert _signature(fused) == _signature(reference)
    assert stats["limit_fused_queries"] == 0
    assert reasons["limit_tail"] >= 1


def test_limit_never_memoises_prefix(ssb_db):
    """An early-stopped run must not poison shared-chain memos: the
    same scan re-run without the limit yields the full result."""
    no_limit = LIMIT_SQL.rsplit(" limit", 1)[0]
    full_reference, _, _ = _fresh_sql(ssb_db, no_limit)
    limited, _, _ = _fresh_sql(ssb_db, LIMIT_SQL, 100)
    full = _run_sql(ssb_db, no_limit, 100)
    assert limited.actual_rows == 50
    assert _signature(full) == _signature(full_reference)


# ---------------------------------------------------------------------------
# Metrics + CLI surface
# ---------------------------------------------------------------------------

def test_metrics_split_summary():
    metrics = MetricsCollector()
    summary = metrics.split_summary()
    assert summary["split_operators"] == 0
    assert summary["split_mean_chosen_ratio"] == 0
    metrics.record_split(chosen_ratio=0.6, realized_ratio=0.4,
                         rebalances=2, gpu_seconds=1.0, cpu_seconds=2.0)
    metrics.record_split(chosen_ratio=0.2, realized_ratio=0.0,
                         rebalances=0, gpu_seconds=0.0, cpu_seconds=3.0,
                         degraded=True)
    metrics.record_split_decline("ratio_floor")
    metrics.record_split_wasted(0.25)
    summary = metrics.split_summary()
    assert summary["split_operators"] == 2
    assert summary["split_mean_chosen_ratio"] == pytest.approx(0.4)
    assert summary["split_mean_realized_ratio"] == pytest.approx(0.2)
    assert summary["split_rebalances"] == 2
    assert summary["split_degrades"] == 1
    assert summary["split_declines"] == 1
    assert summary["split_gpu_seconds"] == pytest.approx(1.0)
    assert summary["split_cpu_seconds"] == pytest.approx(5.0)
    assert summary["split_wasted_seconds"] == pytest.approx(0.25)


def test_metrics_hedge_wasted():
    metrics = MetricsCollector()
    assert metrics.lifecycle_summary()["hedge_wasted_seconds"] == 0.0
    metrics.record_hedge_wasted(0.5)
    metrics.record_hedge_wasted(0.25)
    assert metrics.lifecycle_summary()["hedge_wasted_seconds"] == (
        pytest.approx(0.75))


def test_cli_split_report(capsys):
    code = main([
        "run", "--scale-factor", "1", "--repetitions", "1",
        "--strategy", "runtime", "--split",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "split execution" in out
    assert "split_operators" in out


def test_cli_coupled_implies_split(capsys):
    code = main([
        "run", "--scale-factor", "1", "--repetitions", "1",
        "--strategy", "runtime", "--coupled", "--split-rounds", "2",
    ])
    assert code == 0
    assert "split execution" in capsys.readouterr().out
