"""Metric definitions: names, units, bounds and the layer map.

``BENCHMARK.json`` lists the same names; the self-test keeps the two equal.
Every workload reports every end-to-end metric. The three ``part*`` metrics
are latencies of the workload's three item kinds (see each workload's
``parts``):

=============  ===================  ==================  ==================
metric         crosscheck           gain_scan           cli
=============  ===================  ==================  ==================
part1_p50_rel  swap-family state    grid point          ``check s4``
part2_p50_rel  X-state              ``maximize_gain``   other commands
part3_p50_rel  generic state        channel check       ``sweep``
=============  ===================  ==================  ==================

Each is the median, over the part's items, of the item's latency divided by
the median of the last ``run.CALIBRATION_WINDOW`` samples of a calibration task
timed between the items (``calibrate`` of each workload). The calibration is
the benchmark's own code, so a change to the package cannot move it; it only
tracks the host. On the shared 2-core host the benchmark was tuned on, the
processor ran up to 1.6 times slower for seconds at a time, and whole runs
were slower than their neighbours, for the items and the calibration alike.
Over six seeds a part's raw 10th-percentile latency spread by up to 0.35
(IQR/median), its median by more; the paired ratio spread by 0.02-0.04. Raw
latencies, medians, tails and throughput are still printed
(``Workload.report``), ungated.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    #: Median over fresh processes, spawn to first item ready (interpreter,
    #: imports, input generation), in seconds at a reference host speed.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("part1_p50_rel", "ratio", "lower", 0.2),
    Metric("part2_p50_rel", "ratio", "lower", 0.2),
    Metric("part3_p50_rel", "ratio", "lower", 0.2),
)

#: Traced functions whose call count and self time are reported.
COUNTED = ("linalg.herm_eigen", "linalg.sqrt_psd", "twoqubit.validate_density",
           "twoqubit.concurrence_oracle", "s3world.gain", "permworld.generate")
TIMED = (
    "linalg.herm_eigen", "linalg.sqrt_psd",
    "twoqubit.validate_density", "twoqubit.concurrence_oracle",
    "xworld.assemble_x", "xworld.x_spectrum", "xworld.check_x_relations",
    "s3world.gain", "s3world.gain_closed_form", "s3world.maximize_gain",
    "s3world.measure_update", "s3world.measure_update_matrix",
    "s3world.assemble_s3", "s3world.s3_spectrum", "s3world.check_s3_relations",
    "permworld.enumerate_subgroups",
    "cli.main.check", "cli.main.state", "cli.main.measure", "cli.main.sweep",
)

PER_LAYER = (
    *(Metric(f"{n}.calls", "count", "lower") for n in COUNTED),
    *(Metric(f"{n}.self_s", "s", "lower") for n in TIMED),
    Metric("linalg.eigh_per_state", "calls/state", "lower"),
    Metric("twoqubit.concurrence_oracle.eigh_per_call", "calls/call", "lower"),
    Metric("twoqubit.concurrence_oracle.errors", "count", "lower"),
    Metric("s3world.maximize_gain.gain_calls_per_call", "calls/call", "lower"),
    Metric("permworld.enumerate_subgroups.cache_hit_ratio", "ratio", "higher"),
    Metric("cli.import_sqw_s", "s", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
)

#: Which end-to-end metric each layer should move, on which workload, and
#: where it is predicted not to move. Written before any optimisation.
LAYER_MAP = {
    "linalg": {
        "moves": {"crosscheck": ["part1_p50_rel", "part2_p50_rel", "part3_p50_rel"]},
        "no_move": {"gain_scan": "all: zero herm_eigen calls"},
    },
    "twoqubit": {
        "moves": {"crosscheck": ["part1_p50_rel", "part2_p50_rel", "part3_p50_rel"],
                  "cli": ["part2_p50_rel (slightly: state and measure commands)"]},
        "no_move": {"gain_scan": "all: zero oracle calls"},
    },
    "xworld": {
        "moves": {"crosscheck": ["part2_p50_rel"], "cli": ["part2_p50_rel (check x)"]},
        "no_move": {"gain_scan": "all"},
    },
    "s3world": {
        "moves": {"gain_scan": ["part1_p50_rel", "part2_p50_rel", "part3_p50_rel"],
                  "cli": ["part3_p50_rel (sweep)"],
                  "crosscheck": ["part1_p50_rel (slightly)"]},
        "no_move": {"crosscheck": "part2_p50_rel, part3_p50_rel"},
    },
    "permworld": {
        "moves": {"cli": ["part1_p50_rel (check s4, cold enumerate_subgroups)"]},
        "no_move": {"crosscheck": "all", "gain_scan": "all"},
    },
    "cli": {
        "moves": {"cli": ["setup_s", "part2_p50_rel"]},
        "no_move": {"crosscheck": "all but setup_s", "gain_scan": "all but setup_s"},
    },
}


class Latencies:
    """Histogram of positive values (latencies in ns, or ratios), log-spaced bins 0.05% wide.

    Its memory stays flat however many items a run sends, so the benchmark's
    own bookkeeping does not grow ``peak_rss_mb`` with throughput (raw sample
    arrays moved it by 4% between fast and slow runs).
    """

    BINS_PER_E = 2000

    def __init__(self, *parts: "Latencies"):
        self.bins: Counter = Counter()
        self.count = 0
        self.total = 0
        for part in parts:
            self.bins.update(part.bins)
            self.count += part.count
            self.total += part.total

    def add(self, value: float) -> None:
        self.bins[math.floor(math.log(max(value, 1e-12)) * self.BINS_PER_E)] += 1
        self.count += 1
        self.total += value

    def percentile(self, pct: float) -> float:
        """Value below which ``pct`` percent of the samples fall (bin centre)."""
        rank, seen = pct / 100 * self.count, 0
        for b in sorted(self.bins):
            seen += self.bins[b]
            if seen >= rank:
                return math.exp((b + 0.5) / self.BINS_PER_E)
        raise ValueError("no samples")


def end_to_end(relative, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end values; ``relative`` maps each part to its histogram of item/calibration."""
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    for part in (1, 2, 3):
        values[f"part{part}_p50_rel"] = relative[part].percentile(50)
    return values


def _mean(counts: list[int]) -> float:
    return sum(counts) / len(counts) if counts else 0.0


def per_layer(tracer, overhead_frac: float, import_s: float) -> dict[str, float]:
    summary = tracer.summary()

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    values = {f"{n}.calls": calls(n) for n in COUNTED}
    values.update(
        {f"{n}.self_s": summary[n]["self_s"] if n in summary else 0.0 for n in TIMED}
    )
    oracle = calls("twoqubit.concurrence_oracle")
    enum = calls("permworld.enumerate_subgroups")
    values.update({
        "linalg.eigh_per_state": calls("linalg.herm_eigen") / oracle if oracle else 0.0,
        "twoqubit.concurrence_oracle.eigh_per_call": _mean(tracer.children_per_call(
            "twoqubit.concurrence_oracle", "linalg.herm_eigen")),
        "twoqubit.concurrence_oracle.errors": tracer.errors["twoqubit.concurrence_oracle"],
        "s3world.maximize_gain.gain_calls_per_call": _mean(tracer.children_per_call(
            "s3world.maximize_gain", "s3world.gain")),
        "permworld.enumerate_subgroups.cache_hit_ratio": (
            tracer.cache_hits["permworld.enumerate_subgroups"] / enum if enum else 0.0),
        "cli.import_sqw_s": import_s,
        "trace.overhead_frac": overhead_frac,
    })
    return values
