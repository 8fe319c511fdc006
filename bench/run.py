"""Benchmark entry point.

Usage:
    python3 bench/run.py --workload crosscheck --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload's closed loop untraced for ``--seconds`` and
reports every end-to-end metric. ``--trace 1`` runs a fixed batch of the
workload (whole cycles, so counts repeat exactly) to warm up, untraced, traced
and untraced again, and reports every per-layer metric. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checkout

checkout.require_sources()

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 20
#: ``workloads.calibrate_interpreter`` on the 2-core host the bounds were set
#: on. ``setup_s`` is each probe's time over the calibration run just before
#: it, times this: set-up seconds at that host's speed. Raw set-up seconds
#: spread by up to 0.37 (IQR/median) over ten seeds, and their median moved by
#: 30% between two sets of runs of the same code, with the host's speed.
REFERENCE_INTERPRETER_S = 0.1
CALIBRATION_WINDOW = 3
IMPORT_SAMPLES = 5

_IMPORT_PROBE = (
    "import time; import numpy; t = time.perf_counter(); "
    "import sqw.cli; print(time.perf_counter() - t)"
)


class Tally:
    """Items attempted and failed; an item fails on any failed check or an exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = False

    def run(self, fn, item):
        """Run one item; return its latency in ns, or None if it raised."""
        self.attempted += 1
        try:
            elapsed, bad = fn(item)
        except Exception:
            self.failed += 1
            if not self._reported:
                self._reported = True
                traceback.print_exc(file=sys.stderr)
            return None
        self.failed += bad > 0
        return elapsed


class SetupProbe:
    """Times a fresh interpreter from spawn until its first item is ready.

    Each probe runs right after one ``workloads.calibrate_interpreter``, and
    keeps both times, so that the host's speed at that moment can be divided
    out.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(checkout.ROOT / "bench" / "probe.py"),
                     workload, str(seed)]
        self.samples: list[tuple[float, float]] = []

    def __call__(self) -> float:
        reference = workloads.calibrate_interpreter() / 1e9
        start = time.perf_counter()
        with subprocess.Popen(self.argv, cwd=checkout.ROOT, env=checkout.child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {self.argv[2:]} failed")
        self.samples.append((elapsed, reference))
        return elapsed + reference

    def setup_s(self) -> float:
        """Median set-up time, in seconds at the reference host's speed."""
        return statistics.median(e / r for e, r in self.samples) * REFERENCE_INTERPRETER_S


def import_seconds() -> float:
    """Median ``import sqw.cli`` time beyond ``import numpy`` in fresh interpreters.

    One extra first run warms file caches and is dropped.
    """
    times = []
    for _ in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=checkout.ROOT,
                              env=checkout.child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(wl, seconds: float, tally: Tally, probe=None):
    """Send items one at a time for ``seconds`` of item time; per-part figures.

    Every ``wl.calibration_period_s`` of item time the loop times one
    calibration task: work of the benchmark's own that the package under test
    cannot change, so it tracks only the host's speed. Each item's latency is
    also kept relative to the median of the last ``CALIBRATION_WINDOW``
    calibrations. ``probe``, if given, runs ``SETUP_SAMPLES`` times at even
    intervals between items, so set-up is sampled across the same stretch of
    time as the items. Neither counts as item time. Returns the latency
    histograms (part 0 is the calibration), the relative ones and the item
    time in seconds.
    """
    items = wl.items
    for item in items[: wl.warmup_cycles * wl.cycle_len]:
        wl.run(item)
    latencies = {part: metrics.Latencies() for part in (0, 1, 2, 3)}
    relative = {part: metrics.Latencies() for part in (1, 2, 3)}
    recent = collections.deque(maxlen=CALIBRATION_WINDOW)
    probes = SETUP_SAMPLES if probe else 0
    aside_s = 0.0
    next_calibration = 0.0
    start = time.perf_counter()
    i = 0
    # Whole cycles only, at least two, so every run sends the same mix.
    while True:
        busy = time.perf_counter() - start - aside_s
        if busy >= seconds and i >= 2 * wl.cycle_len and i % wl.cycle_len == 0:
            break
        if busy >= next_calibration:
            next_calibration = busy + wl.calibration_period_s
            aside = time.perf_counter()
            recent.append(wl.calibrate())
            latencies[0].add(recent[-1])
            host = statistics.median(recent)
            aside_s += time.perf_counter() - aside
        if probes and busy >= (SETUP_SAMPLES - probes) * seconds / SETUP_SAMPLES:
            probes -= 1
            aside_s += probe()
        item = items[i % len(items)]
        i += 1
        elapsed = tally.run(wl.run, item)
        if elapsed is not None:
            latencies[item.part].add(elapsed)
            relative[item.part].add(elapsed / host)
    while probes:
        probes -= 1
        aside_s += probe()
    return latencies, relative, time.perf_counter() - start - aside_s


def traced_batch(wl, tally: Tally, spans_path):
    """Warm-up, untraced, traced and untraced passes over the same fixed batch."""
    batch = wl.items[: wl.trace_cycles * wl.cycle_len]

    def one_pass():
        start = time.perf_counter()
        for item in batch:
            tally.run(wl.run_inprocess, item)
        return time.perf_counter() - start

    one_pass()  # warm-up
    plain = one_pass()
    tracer = Tracer()
    with tracer:
        traced = one_pass()
    plain = (plain + one_pass()) / 2
    tracer.write(spans_path)
    return tracer, traced / plain - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl_class = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        wl = wl_class(args.seed)
        spans = checkout.OUT / f"spans-{args.workload}.csv"
        tracer, overhead = traced_batch(wl, tally, spans)
        values = metrics.per_layer(tracer, overhead, import_seconds())
        defs = metrics.PER_LAYER
    else:
        probe = SetupProbe(args.workload, args.seed)
        probe()  # warms file caches and bytecode; not counted
        probe.samples.clear()
        wl = wl_class(args.seed)
        latencies, relative, elapsed = closed_loop(wl, args.seconds, tally, probe)
        # For cli the user-visible process is ``python -m sqw``, not this client.
        rss = wl.peak_rss_mb if isinstance(wl, workloads.Cli) else self_peak_rss_mb()
        values = metrics.end_to_end(relative, probe.setup_s(), rss)
        defs = metrics.END_TO_END
        print(f"# setup_raw_s = {statistics.median(e for e, _ in probe.samples):.6g} s (ungated)")
        raw = {f"part{part}_p50_us": latencies[part] for part in (1, 2, 3)}
        raw["calibration_p50_us"] = latencies[0]
        for name, lat in raw.items():
            print(f"# {name} = {lat.percentile(50) / 1e3:.6g} us (ungated)")
        for name, (value, unit) in wl.report(latencies, elapsed).items():
            print(f"# {name} = {value:.6g} {unit} (ungated)")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / max(tally.attempted, 1):.6g}")
    for part, label in enumerate(wl.parts, start=1):
        print(f"# part{part}: {label}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in defs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
