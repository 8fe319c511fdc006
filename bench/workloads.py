"""The three closed-loop workloads.

Each workload is a fixed, seeded list of items that one client sends one at a
time, the next only after the previous returns. ``run(item)`` times the
package calls only and then checks their outputs against ``references``; it
returns ``(elapsed_ns, failed_checks)``. Every item belongs to one of three
parts, reported as ``part1_p50_rel`` .. ``part3_p50_rel`` against the
workload's ``calibrate`` task; ``report`` gives the ungated figures under their
own names.

Only the package's public functions are called, always through their module
(``linalg.herm_eigen``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns

import checkout

checkout.require_sources()

import numpy as np  # noqa: E402

import references as ref  # noqa: E402
from metrics import Latencies  # noqa: E402
import samplers  # noqa: E402
from sqw import linalg, permworld, s3world, twoqubit, xworld  # noqa: E402


@dataclass(frozen=True)
class Item:
    part: int
    kind: str
    payload: tuple


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


#: A fixed Hermitian 4x4 matrix for the calibration task; not built by sqw.
_CALIBRATION_MATRIX = np.array([
    [2.0, 1j, 0.0, 0.5],
    [-1j, 3.0, 0.2, 0.0],
    [0.0, 0.2, 1.0, -0.3j],
    [0.5, 0.0, 0.3j, 4.0],
])


def calibrate_numpy() -> int:
    """Time the crosscheck calibration task, in ns (about 0.1 ms).

    It mixes the two kinds of work crosscheck does, small LAPACK calls through
    numpy and plain Python arithmetic, and calls no sqw code. An untimed first
    pass warms the caches, so the time does not depend on the item before it.
    """
    for _ in range(2):
        start = perf_counter_ns()
        for _ in range(8):
            np.linalg.eigh(_CALIBRATION_MATRIX)
        acc = 0.0
        for k in range(300):
            acc += math.sqrt(k) * 0.5
    return perf_counter_ns() - start


@dataclass(frozen=True)
class _Triple:
    b: float
    c: float
    d: float


def calibrate_objects() -> int:
    """Time the gain_scan calibration task, in ns (about 0.4 ms).

    Like the closed forms of ``s3world``, it builds small frozen dataclasses
    and does scalar math on their fields; it calls no sqw code.
    """
    start = perf_counter_ns()
    acc = 0.0
    for k in range(1, 150):
        p = _Triple(0.1 * k, 0.2, -0.05 * k)
        q = _Triple(p.b * 0.5, p.c + p.d, p.d / k)
        acc += math.sqrt(abs(q.b * q.c)) + min(abs(q.d), 1.0)
    return perf_counter_ns() - start


# -- crosscheck --------------------------------------------------------------


class Crosscheck:
    """Acceptance-loop traffic: assemble, validate, spectrum, Wootters oracle."""

    name = "crosscheck"
    parts = ("swap-family state", "X-state", "generic state")
    #: Units per cycle: 30 mixed swap, 7 random + 3 fixed pure swap, 30 X and
    #: 15 generic pairs (a state and its local-unitary copy), 100 states.
    cycle_len = 100
    cycles = 40
    warmup_cycles = 1
    trace_cycles = 40
    calibration_period_s = 0.01
    calibrate = staticmethod(calibrate_numpy)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.items: list[Item] = []
        for _ in range(self.cycles):
            units = [[self._swap(*samplers.swap_point(rng))] for _ in range(30)]
            ts = [*samplers.FIXED_PURE_T, *(samplers.pure_t(rng) for _ in range(7))]
            units += [[Item(1, "swap_pure", (t,))] for t in ts]
            for _ in range(30):
                e, p, s = samplers.x_point(rng)
                units.append([Item(2, "x", (xworld.XCoeffs(e, p, s), e, p, s))])
            for _ in range(15):
                rho = samplers.ginibre_state(rng)
                copy = samplers.local_unitary_copy(rng, rho)
                units.append([Item(3, "generic", (rho,)), Item(3, "generic_lu", (copy,))])
            for k in rng.permutation(len(units)):
                self.items.extend(units[k])
        self._last_generic = None

    @staticmethod
    def report(lat, elapsed_s):
        every = Latencies(lat[1], lat[2], lat[3])
        return {
            "states_per_s": (every.count / elapsed_s, "1/s"),
            "state_p99_us": (every.percentile(99) / 1e3, "us"),
            "s3_state_p50_us": (lat[1].percentile(50) / 1e3, "us"),
            "x_state_p50_us": (lat[2].percentile(50) / 1e3, "us"),
            "generic_state_p50_us": (lat[3].percentile(50) / 1e3, "us"),
        }

    @staticmethod
    def _swap(b, c, d) -> Item:
        return Item(1, "swap_mixed", (s3world.S3Coeffs(1.0, b, c, d),))

    def run(self, item: Item):
        kind, payload = item.kind, item.payload
        start = perf_counter_ns()
        if kind == "swap_mixed" or kind == "swap_pure":
            coeffs = payload[0] if kind == "swap_mixed" else s3world.t_param(payload[0])
            dm = twoqubit.validate_density(s3world.assemble_s3(coeffs))
            closed = s3world.s3_spectrum(coeffs)
        elif kind == "x":
            dm = xworld.assemble_x(payload[0])
            closed = xworld.x_spectrum(payload[0])
        else:
            dm = twoqubit.validate_density(payload[0])
            closed = None
        w, _ = linalg.herm_eigen(dm.m)
        conc = twoqubit.concurrence_oracle(dm).concurrence
        elapsed = perf_counter_ns() - start

        bad = 0
        if kind == "swap_mixed" or kind == "swap_pure":
            b, c, d = coeffs.b, coeffs.c, coeffs.d
            expect = ref.swap_eigenvalues(b, c, d)
            bad += abs(conc - ref.swap_concurrence(b, c, d)) > ref.CONCURRENCE_TOL
            if kind == "swap_pure":
                bad += abs(conc - ref.pure_swap_concurrence(payload[0])) > ref.CONCURRENCE_TOL
        elif kind == "x":
            _, e, p, s = payload
            expect = ref.x_eigenvalues(e, p, s)
            bad += abs(conc - ref.x_concurrence(e, p, s)) > ref.CONCURRENCE_TOL
        elif kind == "generic":
            self._last_generic = (w, conc)
            return elapsed, 0
        else:
            expect, conc_orig = self._last_generic
            bad += abs(conc - conc_orig) > ref.LU_TOL
        if closed is not None:
            bad += _max_dev(closed, expect) > ref.SPECTRUM_TOL
        bad += _max_dev(w, expect) > ref.SPECTRUM_TOL
        return elapsed, bad

    run_inprocess = run


# -- gain_scan ---------------------------------------------------------------


class GainScan:
    """Closed-form work in s3world: gain curves, maximizer, measurement channel."""

    name = "gain_scan"
    parts = ("grid point", "maximize_gain call", "channel check")
    grid_points = 1001
    channel_states = 100
    cycles = 4
    warmup_cycles = 1
    trace_cycles = 1
    calibration_period_s = 0.01
    calibrate = staticmethod(calibrate_objects)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n = self.grid_points
        grid = [
            math.inf if k == n else math.tan(k / n * math.pi - math.pi / 2)
            for k in range(1, n + 1)
        ]
        axes = [s3world.MeasurementAxis(v) for v in ("h1", "h2", "h3")]
        self.items: list[Item] = []
        for _ in range(self.cycles):
            for a in rng.permutation(3):
                axis = axes[a]
                self.items.extend(Item(1, "grid", (axis, t)) for t in grid)
                self.items.append(Item(2, "max", (axis,)))
                for _ in range(self.channel_states):
                    b, c, d = samplers.swap_point(rng, interior=False)
                    coeffs = s3world.S3Coeffs(1.0, b, c, d)
                    self.items.append(Item(3, "channel", (axis, coeffs)))
        self.cycle_len = len(self.items) // self.cycles

    @staticmethod
    def report(lat, elapsed_s):
        return {
            "gain_evals_per_s": (lat[1].count / (lat[1].total / 1e9), "1/s"),
            "maximize_gain_p50_s": (lat[2].percentile(50) / 1e9, "s"),
            "channel_checks_per_s": (lat[3].count / (lat[3].total / 1e9), "1/s"),
        }

    def run(self, item: Item):
        kind, payload = item.kind, item.payload
        axis = payload[0]
        if kind == "grid":
            t = payload[1]
            start = perf_counter_ns()
            g = s3world.gain(axis, t).delta_c
            closed = s3world.gain_closed_form(axis, t)
            elapsed = perf_counter_ns() - start
            return elapsed, int(abs(g - closed) > ref.GAIN_TOL)
        if kind == "max":
            start = perf_counter_ns()
            best = s3world.maximize_gain(axis)
            elapsed = perf_counter_ns() - start
            t_star, delta = ref.GAIN_MAXIMA[axis.value]
            bad = best.t_star != t_star or abs(best.delta_c - delta) > ref.MAXIMUM_TOL
            return elapsed, int(bad)
        coeffs = payload[1]
        start = perf_counter_ns()
        by_coeffs = s3world.assemble_s3(s3world.measure_update(coeffs, axis))
        by_matrix = s3world.measure_update_matrix(s3world.assemble_s3(coeffs), axis)
        elapsed = perf_counter_ns() - start
        expect = ref.swap_matrix(*ref.channel_coeffs(axis.value, coeffs.b, coeffs.c, coeffs.d))
        bad = (_max_dev(by_coeffs, by_matrix) > ref.CHANNEL_TOL) + (
            _max_dev(by_matrix, expect) > ref.CHANNEL_TOL
        )
        return elapsed, int(bad)

    run_inprocess = run


# -- cli -----------------------------------------------------------------------

#: The fixed command script: (part, argv). ``{out}`` is the sweep output file.
#: Parts: 1 the one command that enumerates subgroups, 2 the light commands,
#: 3 the sweep. Parts 1 and 3 have one command each, so they run three times a
#: pass: their median then rests on more than half as many samples as part 2's.
CLI_SCRIPT = (
    (2, ("check", "x")),
    (2, ("check", "s3")),
    (2, ("state", "--ie", "--format", "json")),
    (2, ("state", "--t", "1")),
    (2, ("measure", "--axis", "h1", "--t", "0", "--format", "json")),
    *3 * ((1, ("check", "s4", "--format", "json")),),
    *3 * ((3, ("sweep", "--axis", "h2", "--points", "1001", "--out", "{out}")),),
)


def _text_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def check_cli_output(argv, code: int, out: str, sweep_text: str | None) -> int:
    """Failed checks of one command: exit code plus the facts its output must state.

    Fields are parsed, never diffed byte for byte, so added output fields do
    not count as failures.
    """
    if code != 0:
        return 1
    try:
        cmd = argv[0]
        if cmd == "check" and "--format" in argv:
            payload = json.loads(out)
            return int(
                payload["all_pass"] is not True
                or payload["subgroup_count"] != ref.S4_SUBGROUP_COUNT
            )
        if cmd == "check":
            lines = out.splitlines()
            return int(any(l.startswith("FAIL") for l in lines) or "all checks passed" not in lines[-1])
        if cmd == "state" and "--ie" in argv:
            oracle = json.loads(out)["concurrence_oracle"]
            return int(abs(oracle - ref.IE_ORACLE_CONCURRENCE) > ref.CONCURRENCE_TOL)
        if cmd == "state":
            t = float(argv[argv.index("--t") + 1])
            fields = _text_fields(out)
            oracle = float(fields["concurrence_oracle"])
            return int(
                fields["pure"] != "true"
                or abs(oracle - ref.pure_swap_concurrence(t)) > ref.CONCURRENCE_TOL
            )
        if cmd == "measure":
            payload = json.loads(out)
            before, after = payload["before"]["coeffs"], payload["after"]["coeffs"]
            axis = argv[argv.index("--axis") + 1]
            expect = ref.channel_coeffs(axis, before["b"], before["c"], before["d"])
            got = (after["b"], after["c"], after["d"])
            oracle = payload["after"]["concurrence_oracle"]
            return int(
                _max_dev(got, expect) > ref.CONCURRENCE_TOL
                or abs(oracle - ref.swap_concurrence(*got)) > ref.CONCURRENCE_TOL
            )
        # sweep: one row per grid point, then the maximum.
        axis = argv[argv.index("--axis") + 1]
        points = int(argv[argv.index("--points") + 1])
        lines = sweep_text.splitlines()
        best = dict(f.split("=") for f in lines[-1].removeprefix("# max ").split())
        t_star, delta = ref.GAIN_MAXIMA[axis]
        return int(
            len(lines) != points + 2
            or float(best["t"]) != t_star
            or abs(float(best["delta_c"]) - delta) > ref.MAXIMUM_TOL
        )
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return 1


def _spawn(argv):
    """Run a child in the checkout to its end: ns taken, exit code, stdout, rusage.

    It blocks in ``os.wait4``, which also gives the child's own peak memory.
    ``Popen.wait`` with a timeout would poll, in sleeps of up to 50 ms, and
    round the times up to that step; the timer kills a child that hangs.
    """
    start = perf_counter_ns()
    with subprocess.Popen(argv, cwd=checkout.ROOT, env=checkout.child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        guard = threading.Timer(60, proc.kill)
        guard.start()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter_ns() - start
        guard.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage


def calibrate_interpreter() -> int:
    """Time a fresh interpreter that imports numpy and exits, in ns.

    It pays what every command pays before sqw's own imports: spawn,
    interpreter start-up and numpy from the same file caches.
    """
    elapsed, code, _, _ = _spawn([sys.executable, "-c", "import numpy"])
    if code != 0:
        raise RuntimeError("calibration interpreter failed")
    return elapsed


class Cli:
    """The command-line front end, one fresh ``python -m sqw`` per command."""

    name = "cli"
    parts = ("check s4 command", "other commands", "sweep command")
    cycle_len = len(CLI_SCRIPT)
    cycles = 20
    warmup_cycles = 0
    trace_cycles = 1
    calibration_period_s = 0.4
    calibrate = staticmethod(calibrate_interpreter)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.out_path = checkout.OUT / "sweep.csv"
        self.items = []
        for _ in range(self.cycles):
            for k in rng.permutation(len(CLI_SCRIPT)):
                part, argv = CLI_SCRIPT[k]
                argv = tuple(a.format(out=self.out_path) for a in argv)
                self.items.append(Item(part, argv[0], argv))
        # Imported here, not at the top, so only this workload's set-up pays it.
        import sqw.cli

        self._cli = sqw.cli
        # The cached function itself, even while the tracer wraps the name.
        self._enumerate = permworld.enumerate_subgroups
        #: Largest resident memory of any ``python -m sqw`` child so far, in MB.
        self.peak_rss_mb = 0.0

    @staticmethod
    def report(lat, elapsed_s):
        every = Latencies(lat[1], lat[2], lat[3])
        return {
            "cmd_p50_s": (every.percentile(50) / 1e9, "s"),
            "cmd_p90_s": (every.percentile(90) / 1e9, "s"),
            "sweep_cmd_s": (lat[3].percentile(50) / 1e9, "s"),
        }

    def _sweep_text(self, argv):
        if argv[0] != "sweep":
            return None
        with open(self.out_path, encoding="utf-8") as fh:
            return fh.read()

    def run(self, item: Item):
        argv = item.payload
        self.out_path.unlink(missing_ok=True)
        elapsed, code, out, usage = _spawn([sys.executable, "-m", "sqw", *argv])
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return elapsed, check_cli_output(argv, code, out, self._sweep_text(argv))

    def run_inprocess(self, item: Item):
        """``sqw.cli.main(argv)`` in this process, subgroup cache cleared first.

        Clearing the cache reproduces the cold ``enumerate_subgroups`` every
        fresh CLI process pays.
        """
        argv = item.payload
        self.out_path.unlink(missing_ok=True)
        self._enumerate.cache_clear()
        buf = io.StringIO()
        start = perf_counter_ns()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self._cli.main(list(argv))
        elapsed = perf_counter_ns() - start
        return elapsed, check_cli_output(argv, code, buf.getvalue(), self._sweep_text(argv))


WORKLOADS = {w.name: w for w in (Crosscheck, GainScan, Cli)}
