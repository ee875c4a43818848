"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload ssb-batch --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--seed`` derives the seeds of eight sub-runs (database generation,
service arrivals, fault schedule), each set up once.  With ``--trace 0``
the sub-runs are cycled through the program's public entry point for
``--seconds`` seconds and the end-to-end metrics are printed; host
timings are scaled to a reference host speed (see ``speed.py``).  With
``--trace 1`` each sub-run is set up and run once untraced and once
traced, and the per-layer metrics are printed: wall time per layer from
the spans, simulated time per layer from the run's metrics.

A human-readable report precedes the last line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run
also writes its record (and, traced, a Chrome trace) under
``perfbench/out/``.  The exit code is 0 only if every completed query
matched the reference engine, every arrival was accounted for, and every
sub-run reproduced the same digest on each repetition, traced or not.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: seeded sub-runs per benchmark run
SUBRUNS = 8
GIB = float(1 << 30)

SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import repro
except ImportError as error:
    sys.exit("perfbench: cannot import the program from {}: {}".format(
        SRC, error))
if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    sys.exit("perfbench: repro was imported from {}, not {}".format(
        repro.__file__, SRC))

import numpy  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import Reading, Speedometer  # noqa: E402
from suite import WORKLOADS, derive_seeds  # noqa: E402


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def rank(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile, as ``MetricsCollector`` computes it."""
    index = min(int(fraction * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def samples_beyond(count: int, fraction: float) -> int:
    return count - min(int(fraction * count), count - 1) - 1


def timed_setup(workload, sub, setup_seconds: List[float]):
    start = perf_counter()
    instance = workload.setup(sub)
    setup_seconds.append(perf_counter() - start)
    return instance


def total(outcomes, key: str) -> float:
    return sum(outcome.simulated[key] for outcome in outcomes)


def end_to_end(cycle, rates: List[float],
               setup_seconds: List[float]) -> Dict[str, float]:
    """Host metrics over every repetition, in reference-host seconds;
    simulated metrics over the first pass through the sub-runs (exact
    for a given seed)."""
    latencies = sorted(x for outcome in cycle for x in outcome.latencies)
    return {
        "setup_s": statistics.median(setup_seconds),
        "host_qps": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_makespan_s": statistics.median(o.makespan for o in cycle),
        "sim_p50_s": rank(latencies, 0.50),
        "sim_p99_s": rank(latencies, 0.99),
        "slo_attainment": (sum(o.within_target for o in cycle)
                           / sum(o.attempted for o in cycle)),
    }


def per_layer(cycle, tracer: Tracer, traced_wall: float,
              untraced_wall: float) -> Dict[str, float]:
    host = tracer.self_seconds()
    wall = tracer.root_seconds()
    completed = sum(o.completed for o in cycle)
    attempted = sum(o.attempted for o in cycle)
    busy = total(cycle, "cpu_busy_s") + total(cycle, "gpu_busy_s")
    wire = total(cycle, "h2d_s") + total(cycle, "d2h_s")
    lookups = total(cycle, "cache_hits") + total(cycle, "cache_misses")
    hedges = total(cycle, "hedges")
    latencies = sum(len(o.latencies) for o in cycle)
    harness_self = host.get("harness.setup", 0.0) + host.get(
        "harness.run", 0.0)
    return {
        "workloads.generate_s": host.get("workloads.generate", 0.0),
        "sql.bind_s": host.get("sql.bind", 0.0),
        "engine.planner.plan_s": host.get("engine.planner.plan", 0.0),
        "engine.functional_s": host.get("engine.functional", 0.0),
        "engine.reference.self_s": host.get("engine.reference", 0.0),
        "engine.reference.calls": float(tracer.calls("engine.reference")),
        "sim.self_s": host.get("sim", 0.0),
        "sim.us_per_query": host.get("sim", 0.0) * 1e6 / max(completed, 1),
        "core.placement.prepare_s": host.get("core.placement.prepare", 0.0),
        "core.data_placement.apply_s": host.get(
            "core.data_placement.apply", 0.0),
        "storage.epochs.advance_frac": host.get(
            "storage.epochs.advance", 0.0) / wall,
        "harness.validate_s": host.get("harness.validate", 0.0),
        "metrics.report_s": host.get("metrics.report", 0.0),
        "harness.self_s": harness_self,
        "harness.self_frac": harness_self / wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "hardware.bus.wire_s": wire,
        "hardware.bus.h2d_frac": total(cycle, "h2d_s") / wire,
        "hardware.bus.queue_s": total(cycle, "queue_s"),
        "hardware.bus.gib": total(cycle, "bytes") / GIB,
        "hardware.cache.hit_rate": (total(cycle, "cache_hits") / lookups
                                    if lookups else 0.0),
        "hardware.cache.evictions": total(cycle, "evictions"),
        "hardware.heap.peak_gib": max(
            o.simulated["peak_heap_bytes"] for o in cycle) / GIB,
        "hardware.cpu.busy_s": total(cycle, "cpu_busy_s"),
        "hardware.gpu.busy_s": total(cycle, "gpu_busy_s"),
        "hardware.copy_engine.overlap_ratio": (
            total(cycle, "overlapped_s") / wire if wire else 0.0),
        "hardware.copy_engine.prefetch_hits": total(cycle, "prefetch_hits"),
        "hardware.copy_engine.coalesced": total(cycle, "coalesced"),
        "hype.selections": total(cycle, "selections"),
        "engine.execution.aborts": total(cycle, "aborts"),
        "engine.execution.wasted_s": total(cycle, "wasted_s"),
        "engine.execution.useful_frac": (
            busy / (busy + total(cycle, "wasted_s")) if busy else 0.0),
        "engine.execution.split.operators": total(cycle, "split_operators"),
        "engine.execution.split.declines": total(cycle, "split_declines"),
        "engine.execution.lifecycle.admission_waits": total(
            cycle, "admission_waits"),
        "engine.execution.lifecycle.hedges": hedges,
        "engine.execution.lifecycle.hedge_win_frac": (
            total(cycle, "hedge_wins") / hedges if hedges else 0.0),
        "engine.execution.lifecycle.retries": total(cycle, "retries"),
        "harness.service.shed": float(sum(o.shed for o in cycle)),
        "harness.service.degraded": total(cycle, "degraded"),
        "harness.service.wait_frac": (total(cycle, "wait_s")
                                      / total(cycle, "latency_s")),
        "harness.service.service_s": (total(cycle, "service_s")
                                      / max(completed, 1)),
        "storage.epochs.epochs": total(cycle, "epochs"),
        "storage.epochs.retired": total(cycle, "retired"),
        "faults.injected": total(cycle, "injected"),
        "harness.failed_frac": sum(
            o.shed + o.cancelled + o.failed for o in cycle) / attempted,
        "harness.latency_samples": float(latencies),
        "harness.samples_beyond_p99": float(samples_beyond(latencies, 0.99)),
    }


def digest_check(name: str, seeds, outcomes) -> Tuple[str, List[str]]:
    """Combined digest over the sub-runs, and any sub-run whose
    repetitions disagreed."""
    seen: Dict[int, str] = {}
    problems = []
    for index, outcome in outcomes:
        first = seen.setdefault(index, outcome.digest)
        if outcome.digest != first:
            problems.append("{} sub-run {} (data seed {}) is not "
                            "deterministic".format(name, index,
                                                   seeds[index].data))
    combined = hashlib.sha256(
        "".join(seen[i] for i in sorted(seen)).encode()).hexdigest()
    return combined, problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            workload=None, subruns: int = SUBRUNS):
    """Run one workload; returns the result payload (the last line of
    output), the run's record, and the tracer of a traced run."""
    workload = workload or WORKLOADS[name]
    seeds = derive_seeds(seed, subruns)
    first_setup_seconds: List[float] = []
    setup_seconds: List[float] = []
    run_readings: List[Reading] = []
    outcomes = []
    tracer = None
    if trace:
        # Each sub-run runs untraced and then traced, both freshly set up,
        # so a drift in host speed affects both sides of the overhead.
        tracer = Tracer()
        for index, sub in enumerate(seeds):
            outcomes.append((index, workload.run(workload.setup(sub))))
            tracer.run_id = "{}/{}/{}".format(name, seed, index)
            with tracer.install():
                instance = workload.setup(sub, tracer.span)
                outcomes.append((index, workload.run(instance, tracer.span)))
            del instance
        cycle = [outcome for _, outcome in outcomes[0::2]]
        traced = [outcome for _, outcome in outcomes[1::2]]
    else:
        instances = [timed_setup(workload, sub, first_setup_seconds)
                     for sub in seeds]
        speed = Speedometer()
        timer = functools.partial(speed.section, run_readings)
        start = perf_counter()
        while len(outcomes) < subruns or perf_counter() - start < seconds:
            index = len(outcomes) % subruns
            outcome = workload.run(instances[index], timer=timer)
            outcomes.append((index, outcome))
            if not outcome.correct:
                break
            # Set-up time is sampled between runs: spread over the whole
            # run, a short burst of host load cannot cover every sample,
            # and the first set-ups of a fresh process, which also pay for
            # growing its heap, are left out.  Each is scaled by the host
            # speed of the run just before it.
            timed_setup(workload, seeds[index], setup_seconds)
        cycle = [outcome for _, outcome in outcomes[:subruns]]
    digest, problems = digest_check(name, seeds, outcomes)
    for _, outcome in outcomes:
        problems.extend(outcome.problems)
    if problems or len(cycle) < subruns:
        metrics = {}
    elif tracer is not None:
        metrics = per_layer(cycle, tracer, sum(o.wall for o in traced),
                            sum(o.wall for o in cycle))
    else:
        metrics = end_to_end(
            cycle, [o.completed / r.seconds
                    for (_, o), r in zip(outcomes, run_readings)],
            [s / r.slowdown for s, r in zip(setup_seconds, run_readings)])
    payload = {
        "correct": not problems,
        "attempted": sum(o.attempted for _, o in outcomes),
        "failed": sum(o.failed for _, o in outcomes),
        "metrics": metrics,
    }
    latencies = sum(len(o.latencies) for o in cycle)
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "seconds": seconds, "subruns": subruns,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "digest": digest, "problems": problems[:10],
        "latency_samples": latencies,
        "samples_beyond_p99": samples_beyond(latencies, 0.99),
        "repetitions": len(outcomes),
        "first_setup_seconds": first_setup_seconds,
        "setup_seconds": setup_seconds,
        "run_readings": [r._asdict() for r in run_readings],
        "walls": [o.wall for _, o in outcomes],
        "shed": sum(o.shed for o in cycle),
        "cancelled": sum(o.cancelled for o in cycle),
    }
    return payload, record, tracer


def labelled(metrics: Dict[str, float], definitions: List[dict]) -> dict:
    """Attach units; the metric names must be exactly the defined ones."""
    units = {d["name"]: d["unit"] for d in definitions}
    if metrics and set(metrics) != set(units):
        raise RuntimeError("metric names differ from BENCHMARK.json: "
                           "{}".format(sorted(set(metrics) ^ set(units))))
    return {key: {"value": metrics[key], "unit": units[key]}
            for key in sorted(metrics)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(
        WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    definition = load_definition()
    why = {w["name"]: w["why"] for w in definition["workloads"]}
    payload, record, tracer = measure(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    payload["metrics"] = labelled(payload["metrics"], definition[section])
    record["why"] = why[args.workload]
    record["metrics"] = payload["metrics"]

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "{}-seed{}-trace{}".format(
        args.workload, args.seed, args.trace))
    if tracer is not None:
        tracer.write_chrome_trace(stem + ".trace.json", record)
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)

    print("{} seed={} nproc={} python={} numpy={}".format(
        args.workload, args.seed, record["nproc"], record["python"],
        record["numpy"]))
    print("  why: {}".format(record["why"]))
    print("  digest: {}".format(record["digest"]))
    print("  latency samples: {} ({} beyond p99)".format(
        record["latency_samples"], record["samples_beyond_p99"]))
    for problem in record["problems"]:
        print("  FAILED: {}".format(problem))
    for key, entry in payload["metrics"].items():
        print("  {:<44} {:>16.6g} {}".format(key, entry["value"],
                                             entry["unit"]))
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
