"""Command-line front end: verification, state analysis, measurement, sweeps.

Exit codes: 0 success, 1 invalid state or failed verification, 2 usage
error (including unwritable output paths and an unwritable standard output).
Numbers in machine-readable output carry 12 significant digits; identical
invocations produce byte-identical output.
``twoqubit``, ``xworld`` and ``permworld`` are imported only by the
subcommands that run them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import InvalidState
from .linalg import PURE_TOL
from .report import CheckResult, Report
from .s3world import (
    A,
    B,
    H1,
    H2,
    H3,
    UNIT,
    MeasurementAxis,
    S3Coeffs,
    assemble_s3,
    check_s3_relations,
    concurrence_closed,
    gain_curve,
    ie_state,
    is_pure,
    is_unit_a,
    maximize_gain,
    mean_values,
    measure_update,
    t_grid,
    t_param,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Help raises a failed write's OSError, which argparse swallows (exit 0).
    # Subparsers inherit the class.
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _sig(x: float) -> float:
    """Round to 12 significant digits (stable under JSON round-trips)."""
    return float(f"{float(x):.12g}")


def _state_report(coeffs: S3Coeffs) -> dict:
    from .twoqubit import concurrence_oracle, purity, validate_density

    dm = validate_density(assemble_s3(coeffs))
    oracle = concurrence_oracle(dm)
    if is_unit_a(coeffs):
        pure = is_pure(coeffs)
        criterion_r = _sig(mean_values(coeffs).r)
        closed = _sig(concurrence_closed(coeffs))
    else:
        pure = abs(purity(dm) - 1.0) <= PURE_TOL
        criterion_r = None
        closed = None
    return {
        "coeffs": {
            "a": _sig(coeffs.a),
            "b": _sig(coeffs.b),
            "c": _sig(coeffs.c),
            "d": _sig(coeffs.d),
        },
        "eigenvalues": [_sig(v) for v in dm.eigenvalues],
        "pure": bool(pure),
        "criterion_R": criterion_r,
        "concurrence_closed": closed,
        "concurrence_oracle": _sig(oracle.concurrence),
        "eof": _sig(oracle.eof),
    }


def _print_state_text(report: dict, indent: str = ""):
    co = report["coeffs"]
    print(f"{indent}coeffs: a={co['a']:.12g} b={co['b']:.12g} "
          f"c={co['c']:.12g} d={co['d']:.12g}")
    eig = " ".join(f"{v:.12g}" for v in report["eigenvalues"])
    print(f"{indent}eigenvalues: {eig}")
    print(f"{indent}pure: {str(report['pure']).lower()}")
    for key in ("criterion_R", "concurrence_closed", "concurrence_oracle", "eof"):
        val = report[key]
        text = "n/a" if val is None else f"{val:.12g}"
        print(f"{indent}{key}: {text}")


def _add_state_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--a", type=float, default=None, help="identity coefficient (default 1)")
    parser.add_argument("--b", type=float, default=None)
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--d", type=float, default=None)
    parser.add_argument(
        "--t", type=float, default=None, help="pure-state parameter; 'inf' allowed"
    )
    parser.add_argument(
        "--ie", action="store_true", help="the irreducible symmetric mixed state"
    )


def _coeffs_from_args(args) -> S3Coeffs:
    coefficient_mode = any(v is not None for v in (args.a, args.b, args.c, args.d))
    modes = int(args.ie) + int(args.t is not None) + int(coefficient_mode)
    if modes != 1:
        raise _UsageError("give exactly one of --ie, --t, or --b/--c/--d")
    if args.ie:
        return ie_state()
    if args.t is not None:
        if math.isnan(args.t):
            raise _UsageError("--t must be a number or 'inf'")
        return t_param(args.t)
    if any(v is None for v in (args.b, args.c, args.d)):
        raise _UsageError("coefficient mode needs all of --b, --c and --d")
    a = 1.0 if args.a is None else args.a
    if not all(math.isfinite(v) for v in (a, args.b, args.c, args.d)):
        raise _UsageError("coefficients must be finite")
    return S3Coeffs(a, args.b, args.c, args.d)


def _report_payload(world: str, report: Report, extra: dict | None = None) -> dict:
    payload = {"world": world, "all_pass": report.all_pass}
    if extra:
        payload.update(extra)
    payload["checks"] = [
        {"name": c.name, "passed": c.passed, "deviation": _sig(c.deviation)}
        for c in report
    ]
    return payload


def _s4_report() -> tuple[Report, dict]:
    from .permworld import classify, enumerate_subgroups, perm_matrix, stabilizer

    subgroups = enumerate_subgroups()
    order6 = [s for s in subgroups if s.order == 6]
    generator_set = {
        m.real.astype(np.int8).tobytes() for m in (UNIT, H1, H2, H3, A, B)
    }
    stab_set = {
        perm_matrix(p).real.astype(np.int8).tobytes() for p in stabilizer(4)
    }
    checks = (
        CheckResult("subgroup count = 30", len(subgroups) == 30),
        CheckResult("order-6 subgroup count = 4", len(order6) == 4),
        CheckResult(
            "every order-6 subgroup is S3",
            all(classify(s) == "S3" for s in order6),
        ),
        CheckResult(
            "stabilizer(4) matrices = generator set", stab_set == generator_set
        ),
        CheckResult(
            "every subgroup order divides 24",
            all(24 % s.order == 0 for s in subgroups),
        ),
    )
    extra = {"subgroup_count": len(subgroups), "order6_count": len(order6)}
    return Report(checks), extra


def _cmd_check(args) -> int:
    if args.world == "x":
        from .xworld import check_x_relations

        report, extra = check_x_relations(), None
    elif args.world == "s3":
        report, extra = check_s3_relations(), None
    else:
        report, extra = _s4_report()
    if args.format == "json":
        print(json.dumps(_report_payload(args.world, report, extra)))
    else:
        for c in report:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}")
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}")
        status = "all checks passed" if report.all_pass else "FAILURES PRESENT"
        print(f"{args.world}: {status} ({len(report)} checks)")
    return 0 if report.all_pass else 1


def _cmd_state(args) -> int:
    coeffs = _coeffs_from_args(args)
    report = _state_report(coeffs)
    if args.format == "json":
        print(json.dumps(report))
    else:
        _print_state_text(report)
    return 0


def _cmd_measure(args) -> int:
    axis = MeasurementAxis(args.axis)
    before = _coeffs_from_args(args)
    after = measure_update(before, axis)
    before_report = _state_report(before)
    after_report = _state_report(after)
    delta = _sig(concurrence_closed(after) - concurrence_closed(before))
    if args.format == "json":
        payload = {
            "axis": axis.value,
            "before": before_report,
            "after": after_report,
            "delta_c": delta,
        }
        print(json.dumps(payload))
    else:
        print(f"axis: {axis.value}")
        print("before:")
        _print_state_text(before_report, indent="  ")
        print("after:")
        _print_state_text(after_report, indent="  ")
        print(f"delta_c: {delta:.12g}")
    return 0


def _sweep_rows(axis: MeasurementAxis, points: int):
    """``(t, c_before, c_after, delta_c)`` float rows over ``t_grid(points)``."""
    ts = t_grid(points)
    c_before, c_after = gain_curve(axis, ts)
    columns = (ts, c_before, c_after, c_after - c_before)
    return zip(*(col.tolist() for col in columns))


def _sweep_record(t: float, c_before: float, c_after: float, delta_c: float) -> dict:
    return {
        "t": "inf" if math.isinf(t) else _sig(t),
        "c_before": _sig(c_before),
        "c_after": _sig(c_after),
        "delta_c": _sig(delta_c),
    }


def _cmd_sweep(args) -> int:
    if args.points < 2:
        raise _UsageError("--points must be at least 2")
    axis = MeasurementAxis(args.axis)
    rows = _sweep_rows(axis, args.points)
    best = maximize_gain(axis)
    if args.format == "json":
        payload = {
            "axis": axis.value,
            "records": [_sweep_record(*row) for row in rows],
            "max": _sweep_record(best.t_star, best.c_before, best.c_after, best.delta_c),
        }
        text = json.dumps(payload) + "\n"
    else:
        lines = ["t,c_before,c_after,delta_c"]
        for t, c_before, c_after, delta_c in rows:
            t_text = "inf" if math.isinf(t) else f"{t:.12g}"
            lines.append(f"{t_text},{c_before:.12g},{c_after:.12g},{delta_c:.12g}")
        best_t = "inf" if math.isinf(best.t_star) else f"{best.t_star:.12g}"
        lines.append(
            f"# max t={best_t} c_before={best.c_before:.12g} "
            f"c_after={best.c_after:.12g} delta_c={best.delta_c:.12g}"
        )
        text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqw",
        description="Restricted two-qubit families: verification and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify generator algebras / group facts")
    p_check.add_argument("world", choices=["x", "s3", "s4"])
    p_check.add_argument("--format", choices=["text", "json"], default="text")

    p_state = sub.add_parser("state", help="analyze one state of the swap family")
    _add_state_flags(p_state)
    p_state.add_argument("--format", choices=["text", "json"], default="text")

    p_measure = sub.add_parser("measure", help="apply one measurement channel")
    p_measure.add_argument("--axis", choices=["h1", "h2", "h3"], required=True)
    _add_state_flags(p_measure)
    p_measure.add_argument("--format", choices=["text", "json"], default="text")

    p_sweep = sub.add_parser("sweep", help="tabulate gain curves over t")
    p_sweep.add_argument("--axis", choices=["h1", "h2", "h3"], required=True)
    p_sweep.add_argument("--points", type=int, default=1001)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a failed write to stdout exits 2, like a bad ``--out``."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # Else the flush at interpreter exit fails again on what is buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handlers = {
        "check": _cmd_check,
        "state": _cmd_state,
        "measure": _cmd_measure,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidState as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
