"""Self-tests of the benchmark itself.

Run with: python3 -m pytest -q bench/selftest.py

They check that the benchmark reports what ``BENCHMARK.json`` promises, that
tracing leaves the package as it found it, that the exact counts the layer
metrics rest on hold, and that the output checks catch a wrong answer.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

import checkout
import metrics
import references
import run
import workloads
from tracer import Tracer

import sqw
import sqw.cli  # noqa: F401  (loaded up front so the bindings snapshot covers it)
from sqw import linalg, permworld, s3world, twoqubit


def _spec():
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bindings():
    return {
        (name, attr): id(obj)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "sqw" or name.startswith("sqw."))
        for attr, obj in vars(mod).items()
    }


def test_benchmark_json_matches_definitions():
    spec = _spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [m._asdict() for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {k: v for k, v in m._asdict().items() if k != "bound"} for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(checkout.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    defs = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in defs]
    for m in defs:
        entry = result["metrics"][m.name]
        assert entry["unit"] == m.unit
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0


def test_wrappers_are_removed_after_tracing():
    before = _bindings()
    original = linalg.herm_eigen
    with pytest.raises(RuntimeError):
        with Tracer():
            assert twoqubit.herm_eigen is not original
            assert sqw.herm_eigen is not original
            raise RuntimeError("leave the traced block early")
    assert _bindings() == before

    wl = workloads.Cli(3)
    wl.items = wl.items[: wl.cycle_len]
    run.traced_batch(wl, run.Tally(), checkout.OUT / "spans-selftest.csv")
    assert _bindings() == before


def test_exact_counts():
    raw = s3world.assemble_s3(s3world.ie_state())
    with Tracer() as tr:
        twoqubit.concurrence_oracle(raw)
    assert tr.children_per_call("twoqubit.concurrence_oracle", "linalg.herm_eigen") == [3]

    dm = twoqubit.validate_density(raw)
    with Tracer() as tr:
        twoqubit.concurrence_oracle(dm)
    assert tr.children_per_call("twoqubit.concurrence_oracle", "linalg.herm_eigen") == [2]

    permworld.enumerate_subgroups.cache_clear()
    with Tracer() as tr:
        permworld.enumerate_subgroups()
        permworld.enumerate_subgroups()
    assert tr.summary()["permworld.generate"]["calls"] == 301
    assert tr.cache_hits["permworld.enumerate_subgroups"] == 1

    with Tracer() as tr:
        for axis in s3world.MeasurementAxis:
            s3world.maximize_gain(axis)
    per_call = tr.children_per_call("s3world.maximize_gain", "s3world.gain")
    assert len(per_call) == 3 and all(10_036 <= n <= 10_044 for n in per_call)


def _failures(wl, items):
    tally = run.Tally()
    for item in items:
        tally.run(wl.run_inprocess, item)
    return tally.failed


WRONG_REFERENCES = {
    "crosscheck": ("swap_concurrence", lambda b, c, d: 2 * min(abs(d), 1.0) + 1e-6),
    "gain_scan": ("GAIN_MAXIMA", {"h1": (0.0, 0.7), "h2": (math.inf, 0.7), "h3": (0.0, 0.4)}),
    "cli": ("S4_SUBGROUP_COUNT", 31),
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_a_wrong_reference_is_caught(monkeypatch, workload):
    wl = workloads.WORKLOADS[workload](5)
    cycle = wl.items[: wl.cycle_len]
    assert _failures(wl, cycle) == 0
    monkeypatch.setattr(references, *WRONG_REFERENCES[workload])
    assert _failures(wl, cycle) > 0


def test_a_wrong_reference_raises_failed_frac(monkeypatch):
    monkeypatch.setattr(references, "SPECTRUM_TOL", -1.0)
    tally = run.Tally()
    run.closed_loop(workloads.Crosscheck(2), 0.2, tally)
    # Every state fails its spectrum check except the first of each generic
    # pair, whose checks run with its local-unitary copy: 85 of 100.
    assert tally.failed >= 0.8 * tally.attempted > 0
