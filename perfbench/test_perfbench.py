"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import speed
from repro.harness import runner, service as service_mode
from suite import WORKLOADS, derive_seeds

TINY = {
    "ssb-batch": dict(scale_factor=1, data_scale=1e-3, users=4,
                      repetitions=2),
    "ssb-service": dict(data_scale=1e-3, rate=20.0, duration_seconds=2.0,
                        mutation_interval_seconds=1.0),
    "tpch-coproc": dict(scale_factor=1, data_scale=1e-3, users=2,
                        repetitions=2),
}


def tiny(name, trace=False, seed=5):
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    return run.measure(name, seed, 0.0, trace, workload=workload,
                       subruns=2)


def first_row_duplicated(rows):
    rows = list(rows)
    return rows + [rows[0] if rows else ("corrupt",)]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    payload, record, _ = tiny(name, trace)
    assert payload["correct"], record["problems"]
    assert payload["failed"] == 0 and payload["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    definitions = run.load_definition()[section]
    labelled = run.labelled(payload["metrics"], definitions)
    assert sorted(d["name"] for d in definitions) == sorted(labelled)
    for definition in definitions:
        entry = labelled[definition["name"]]
        assert entry["unit"] == definition["unit"]
        assert isinstance(entry["value"], float)
    json.dumps(payload)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_reproduce_one_digest(name):
    untraced = tiny(name, trace=False)[1]
    traced = tiny(name, trace=True)[1]
    assert traced["digest"] == untraced["digest"]
    assert tiny(name, seed=6)[1]["digest"] != untraced["digest"]


def test_corrupted_batch_payload_fails_the_check(monkeypatch):
    validate = runner.validate_results

    class Corrupted:
        def __init__(self, payload):
            self.payload = payload

        def row_tuples(self):
            return first_row_duplicated(self.payload.row_tuples())

    def corrupting_validate(database, queries, results):
        name = sorted(results)[0]
        results[name] = Corrupted(results[name])
        return validate(database, queries, results)

    monkeypatch.setattr(runner, "validate_results", corrupting_validate)
    payload = tiny("ssb-batch")[0]
    assert not payload["correct"]
    assert payload["failed"] >= 1 and payload["metrics"] == {}


def test_corrupted_service_rows_fail_the_check(monkeypatch):
    compare = service_mode.compare_rows

    def corrupting_compare(name, got, want):
        return compare(name, first_row_duplicated(got), want)

    monkeypatch.setattr(service_mode, "compare_rows", corrupting_compare)
    payload = tiny("ssb-service")[0]
    assert not payload["correct"]
    assert payload["failed"] >= 1 and payload["metrics"] == {}


def test_a_section_is_scaled_by_the_kernel_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    readings = []
    meter = speed.Speedometer(interval=0.005)
    with meter.section(readings):
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    (reading,) = readings
    assert reading.samples >= 5
    assert 0 < reading.wall < 0.1
    assert reading.seconds == pytest.approx(reading.wall / reading.slowdown)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_seeds_derive_from_the_run_seed_alone():
    assert derive_seeds(3, 4) == derive_seeds(3, 4)
    assert derive_seeds(3, 4) != derive_seeds(4, 4)
    assert len(set(derive_seeds(3, 8))) == 8


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "suite.py", "spans.py", "speed.py"):
        shutil.copy(os.path.join(run.HERE, name), tmp_path / "perfbench")
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ssb-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
