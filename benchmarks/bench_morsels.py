"""Fused morsel execution: speedup, scaling, identity, zero overhead.

Exercises ``repro.engine.morsel`` and the shared-memory
:class:`~repro.harness.parallel.MorselPool` end to end and gates the
tentpole guarantees:

* **fused speedup** — the SSB batch on the fused morsel path beats the
  operator-at-a-time engine (plan cache dropped before every query so
  every run re-executes) by at least ``FUSED_TARGET``;
* **parallel speedup** — a pre-started pool of fused workers over
  shared-memory columns beats the sequential baseline by at least
  ``PARALLEL_TARGET`` at ``jobs=2`` (pool start-up, the shm export,
  and per-worker plan builds happen outside the timed region and are
  reported as ``setup_seconds``);
* **byte identity** — every SSB and TPC-H query returns exactly the
  same rows with morsels on and off, across morsel sizes from 1000
  rows to one morsel spanning the whole fact table;
* **zero overhead when disabled** — with ``morsels=False`` the fused
  path is never consulted: its counters stay zero, and varying the
  inert ``morsel_rows`` knob cannot change a simulated timing or a
  result byte.

The exit code is nonzero iff any gate fails.  Writes ``BENCH_PR6.json``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_morsels.py
Or under pytest: PYTHONPATH=src python -m pytest benchmarks/bench_morsels.py

``REPRO_FAST=1`` shrinks sizes and relaxes the speedup targets (CI
smoke machines are small and noisy; the committed full-mode report is
what the trajectory gate enforces).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.engine import kernels, morsel, plan_cache  # noqa: E402
from repro.hardware import SystemConfig  # noqa: E402
from repro.engine.execution.functional import execute_functional  # noqa: E402
from repro.workloads import ssb, tpch  # noqa: E402

FAST = os.environ.get("REPRO_FAST", "").strip() not in ("", "0")

OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_PR6.json"
)

SIZES = {
    "reps": 2 if FAST else 5,
    "data_scale": 0.02 if FAST else 0.1,
    "identity_scale": 0.01 if FAST else 0.02,
    "jobs": 2,
}

#: fused sequential SSB batch vs the operator-at-a-time engine
FUSED_TARGET = 1.3 if FAST else 3.0
#: morsel pool at jobs=2 vs the sequential baseline.  Smoke machines
#: (1 vCPU, shared) only gate against catastrophic regression; the
#: full-mode target is the real bar.
PARALLEL_TARGET = 0.2 if FAST else 1.5

#: identity sweep: tiny morsels (many partials), the default, and one
#: morsel covering the entire fact table (degenerate single range)
MORSEL_SIZES = (1000, morsel.DEFAULT_MORSEL_ROWS, 1_000_000_000)


def _best(fn, reps):
    best = None
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, result


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _run(database, query, morsel_rows):
    plan_cache.invalidate(database)  # every run must re-execute
    return execute_functional(query.instantiate(), database,
                              morsel_rows).payload.row_tuples()


def _batch(database, queries, morsel_rows=None):
    return {query.name: _run(database, query, morsel_rows)
            for query in queries}


# ---------------------------------------------------------------------------
# Gates 1 + 2: fused sequential speedup and pool scaling
# ---------------------------------------------------------------------------

def bench_speedups():
    from repro.harness.parallel import MorselPool
    from repro.storage import shm

    database = ssb.generate(scale_factor=1.0,
                            data_scale=SIZES["data_scale"], seed=42)
    queries = ssb.workload(database)

    _batch(database, queries)  # warm the kernel caches
    base_seconds, base_rows = _best(
        lambda: _batch(database, queries), SIZES["reps"])
    digests = {name: _digest(rows) for name, rows in base_rows.items()}

    morsel.reset_stats()
    rows = morsel.DEFAULT_MORSEL_ROWS
    _batch(database, queries, rows)  # warm the fused-path caches
    fused_seconds, fused_rows = _best(
        lambda: _batch(database, queries, rows), SIZES["reps"])
    stats = morsel.snapshot_stats()
    fused_digests = {name: _digest(rows)
                     for name, rows in fused_rows.items()}

    fused_gate = {
        "queries": len(queries),
        "fact_rows": database.table("lineorder").actual_rows,
        "baseline_seconds": round(base_seconds, 6),
        "fused_seconds": round(fused_seconds, 6),
        "speedup": round(base_seconds / fused_seconds, 4),
        "target": FUSED_TARGET,
        "declined_queries": stats["declined_queries"],
        "identical": (fused_digests == digests
                      and base_seconds / fused_seconds >= FUSED_TARGET),
    }

    if ("fork" not in multiprocessing.get_all_start_methods()
            or not shm.available()):
        parallel_gate = {
            "jobs": 1,
            "speedup": 1.0,
            "target": PARALLEL_TARGET,
            "identical": True,
            "note": "fork/shm unavailable; parallel gate skipped",
        }
        return fused_gate, parallel_gate, stats

    setup_start = time.perf_counter()
    pool = MorselPool(database, queries, workload="ssb",
                      jobs=SIZES["jobs"])
    try:
        pool.warm()
        pool.run_queries()  # build per-worker pipelines outside timing
        setup_seconds = time.perf_counter() - setup_start
        pool_seconds, pool_results = _best(
            pool.run_queries, SIZES["reps"])
        fallbacks = pool.fallbacks
    finally:
        pool.close()
        shm.invalidate(database)
    pool_digests = {
        name: _digest(result.payload.row_tuples())
        for name, result in pool_results.items()
    }
    parallel_gate = {
        "jobs": SIZES["jobs"],
        "sequential_seconds": round(base_seconds, 6),
        "parallel_seconds": round(pool_seconds, 6),
        "setup_seconds": round(setup_seconds, 6),
        "speedup": round(base_seconds / pool_seconds, 4),
        "target": PARALLEL_TARGET,
        "fallbacks": fallbacks,
        "identical": (pool_digests == digests and fallbacks == 0
                      and base_seconds / pool_seconds >= PARALLEL_TARGET),
    }
    return fused_gate, parallel_gate, stats


# ---------------------------------------------------------------------------
# Gate 3: byte identity across morsel sizes, SSB and TPC-H
# ---------------------------------------------------------------------------

def gate_identity():
    checked = 0
    diverged = []
    for module, seed in ((ssb, 123), (tpch, 321)):
        database = module.generate(scale_factor=1.0,
                                   data_scale=SIZES["identity_scale"],
                                   seed=seed)
        queries = module.workload(database)
        reference = _batch(database, queries)
        for rows_per_morsel in MORSEL_SIZES:
            fused = _batch(database, queries, rows_per_morsel)
            for name in reference:
                checked += 1
                if fused[name] != reference[name]:
                    diverged.append("{}:{}@{}".format(
                        module.__name__, name, rows_per_morsel))
    return {
        "comparisons": checked,
        "morsel_sizes": list(MORSEL_SIZES),
        "diverged": diverged,
        "identical": not diverged,
    }


# ---------------------------------------------------------------------------
# Gate 4: disabled path costs nothing and its knob is inert
# ---------------------------------------------------------------------------

def gate_zero_overhead():
    from repro.harness import experiments as E
    from repro.harness.runner import run_workload

    # Engine level: with morsels off, the fused path is never consulted.
    database = ssb.generate(scale_factor=1.0,
                            data_scale=SIZES["identity_scale"], seed=99)
    queries = ssb.workload(database)
    morsel.reset_stats()
    _batch(database, queries)
    counters = morsel.snapshot_stats()
    counters_zero = not any(counters.values())

    # Simulation level: morsel_rows is inert while morsels=False.
    sim_db = E.ssb_database(1)
    runs = []
    for config in (SystemConfig(),
                   SystemConfig().with_morsels(False, morsel_rows=4096)):
        plan_cache.invalidate(sim_db)
        run = run_workload(sim_db, ssb.workload(sim_db), "runtime",
                           config=config, collect_results=True)
        runs.append((run.seconds, _digest(sorted(
            (name, tuple(table.row_tuples()))
            for name, table in run.results.items()
        ))))
    (plain_seconds, plain_digest), (knob_seconds, knob_digest) = runs
    disabled_by_default = not SystemConfig().morsels
    return {
        "engine_counters_zero": counters_zero,
        "disabled_by_default": disabled_by_default,
        "plain_seconds": plain_seconds,
        "inert_knob_seconds": knob_seconds,
        "timings_identical": plain_seconds == knob_seconds,
        "results_identical": plain_digest == knob_digest,
        "identical": (counters_zero and disabled_by_default
                      and plain_seconds == knob_seconds
                      and plain_digest == knob_digest),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    print("morsel benchmark: jobs={}, cpus={}{}".format(
        SIZES["jobs"], os.cpu_count(), ", REPRO_FAST" if FAST else ""))
    try:
        report = {
            "benchmark": "fused_morsels",
            "cpu_count": os.cpu_count(),
            "fast_mode": FAST,
            "morsel_rows": morsel.DEFAULT_MORSEL_ROWS,
            "gates": {},
        }

        fused, parallel, stats = bench_speedups()
        report["gates"]["fused_speedup"] = fused
        print("fused ssb batch: {speedup:.2f}x vs operator-at-a-time "
              "(target {target}x, declines {declined_queries})"
              .format(**fused))
        report["gates"]["parallel_speedup"] = parallel
        print("morsel pool:     {speedup:.2f}x at jobs={jobs} "
              "(target {target}x)".format(**parallel))

        report["gates"]["byte_identity"] = gate_identity()
        print("byte identity:   {comparisons} comparisons across "
              "morsel sizes {morsel_sizes}, identical={identical}"
              .format(**report["gates"]["byte_identity"]))

        report["gates"]["zero_overhead"] = gate_zero_overhead()
        print("zero overhead:   identical={identical} "
              "(counters_zero={engine_counters_zero}, "
              "{plain_seconds:.4f}s plain vs {inert_knob_seconds:.4f}s "
              "inert knob)".format(**report["gates"]["zero_overhead"]))

        report["morsel_stats"] = stats
    finally:
        kernels.invalidate()

    report["all_gates_pass"] = all(
        gate["identical"] for gate in report["gates"].values()
    )
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote {}".format(os.path.normpath(OUTPUT)))
    return 0 if report["all_gates_pass"] else 1


def test_morsel_gates():
    """Pytest entry point: every fused-morsel gate holds; the report is
    written."""
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
