"""Command-line front end: verification, state analysis, measurement, sweeps.

Exit codes: 0 success, 1 invalid state or failed verification, 2 usage
error (including unwritable output paths and an unwritable standard output).
With ``--format json`` an invalid state is reported on standard error as
one JSON object: the error's class name, message and violation.
Each subcommand builds one payload of raw values; JSON, text and CSV are
renderings of it, and each rounds numbers to 12 significant digits once.
Identical invocations produce byte-identical output.
Only ``errors`` and ``report`` are imported here; ``s3world``, ``linalg``,
``twoqubit``, ``xworld`` and ``permworld``, and with them numpy, only by
the subcommands that run them. ``sqw check s4``, ``--help`` and usage
errors run without numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from .errors import InvalidState
from .report import SUITES

if TYPE_CHECKING:
    from .s3world import MeasurementAxis, S3Coeffs

#: The ``--axis`` choices: the values of ``s3world.MeasurementAxis``.
_AXES = ("h1", "h2", "h3")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Help raises a failed write's OSError, which argparse swallows (exit 0).
    # Subparsers inherit the class.
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _rounded(value):
    """The JSON rule: floats to 12 significant digits, a non-finite one as text."""
    if isinstance(value, float):
        text = format(value, ".12g")
        return float(text) if math.isfinite(value) else text
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _json_text(payload) -> str:
    """The JSON rendering; only commands that print JSON import ``json``."""
    import json

    return json.dumps(_rounded(payload))


def _text(value) -> str:
    """The text rule for one value."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return " ".join(f"{key}={_text(item)}" for key, item in value.items())
    if isinstance(value, list):
        return " ".join(_text(item) for item in value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _text_lines(payload: dict, indent: str = "") -> list[str]:
    """``key: value`` lines; a dict holding dicts or lists is an indented block."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict) and any(isinstance(v, (dict, list)) for v in value.values()):
            lines.append(f"{indent}{key}:")
            lines += _text_lines(value, indent + "  ")
        else:
            lines.append(f"{indent}{key}: {_text(value)}")
    return lines


def _print_payload(payload: dict, fmt: str):
    print(_json_text(payload) if fmt == "json" else "\n".join(_text_lines(payload)))


def _state_report(coeffs: S3Coeffs) -> dict:
    from .linalg import PURE_TOL
    from .s3world import assemble_s3, concurrence_closed, is_pure, is_unit_a, mean_values
    from .twoqubit import concurrence_oracle, purity, validate_density

    dm = validate_density(assemble_s3(coeffs))
    oracle = concurrence_oracle(dm)
    unit_a = is_unit_a(coeffs)
    return {
        "coeffs": coeffs._asdict(),
        "eigenvalues": dm.eigenvalues.tolist(),
        "pure": bool(is_pure(coeffs) if unit_a else abs(purity(dm) - 1.0) <= PURE_TOL),
        "criterion_R": mean_values(coeffs).r if unit_a else None,
        "concurrence_closed": concurrence_closed(coeffs) if unit_a else None,
        "concurrence_oracle": oracle.concurrence,
        "eof": oracle.eof,
    }


_STATE_FLAGS = ("--a", "--b", "--c", "--d", "--t")


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


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--t -inf`` as ``--t=-inf``, for each state flag followed by a negative number.

    argparse would read the separate ``-inf`` or ``-1e-3`` as an option.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _STATE_FLAGS and re.match(r"-[\d.in]", arg, re.IGNORECASE):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _coeffs_from_args(args) -> S3Coeffs:
    """The state the flags name; each usage error is raised before ``s3world`` loads."""
    coefficient_mode = any(v is not None for v in (args.a, args.b, args.c, args.d))
    modes = int(args.ie) + int(args.t is not None) + int(coefficient_mode)
    if modes != 1:
        raise _UsageError("give exactly one of --ie, --t, or --b/--c/--d")
    if args.t is not None and math.isnan(args.t):
        raise _UsageError("--t must be a number or 'inf'")
    a = 1.0 if args.a is None else args.a
    if coefficient_mode:
        if any(v is None for v in (args.b, args.c, args.d)):
            raise _UsageError("coefficient mode needs all of --b, --c and --d")
        if not all(math.isfinite(v) for v in (a, args.b, args.c, args.d)):
            raise _UsageError("coefficients must be finite")
    from .s3world import S3Coeffs, ie_state, t_param

    if args.ie:
        return ie_state()
    if args.t is not None:
        return t_param(args.t)
    return S3Coeffs(a, args.b, args.c, args.d)


def _cmd_check(args) -> int:
    report, extra = SUITES[args.world]()
    if args.format == "json":
        checks = [c._asdict() for c in report]
        payload = {"world": args.world, "all_pass": report.all_pass, **extra, "checks": checks}
        print(_json_text(payload))
    else:
        lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}" for c in report]
        status = "all checks passed" if report.all_pass else "FAILURES PRESENT"
        lines += [*_text_lines(extra), f"{args.world}: {status} ({len(report)} checks)"]
        print("\n".join(lines))
    return 0 if report.all_pass else 1


def _cmd_state(args) -> int:
    _print_payload(_state_report(_coeffs_from_args(args)), args.format)
    return 0


def _cmd_measure(args) -> int:
    before = _coeffs_from_args(args)
    from .s3world import MeasurementAxis, concurrence_closed, measure_update, swap_concurrence

    axis = MeasurementAxis(args.axis)
    after = measure_update(before, axis)
    payload = {
        "axis": axis.value,
        "before": _state_report(before),
        "after": _state_report(after),
        "delta_c": concurrence_closed(after) - concurrence_closed(before),
        "delta_c_verified": swap_concurrence(after) - swap_concurrence(before),
    }
    _print_payload(payload, args.format)
    return 0


#: Most grid points ``sweep`` takes; the grid is the one array of that size it holds.
_MAX_POINTS = 10**6
#: Grid points ``sweep`` computes and formats at once; no format holds a record per point.
_SLICE = 4096


def _sweep_rows(axis: MeasurementAxis, ts):
    """The rows (t, c_before, c_after, delta_c) over ``ts``, ``_SLICE`` points at a time."""
    from .s3world import gain_curve

    for start in range(0, len(ts), _SLICE):
        t = ts[start:start + _SLICE]
        c_before, c_after = gain_curve(axis, t)
        yield zip(*(c.tolist() for c in (t, c_before, c_after, c_after - c_before)))


def _sweep_json(axis: str, slices, best: dict):
    """``_json_text`` of ``{axis, records, max}``, one record a point, a slice at a time."""
    # The JSON with one placeholder record, split around it.
    head, tail = _json_text({"axis": axis, "records": ["*"], "max": best}).split('"*"')
    yield head
    sep = ""
    for rows in slices:
        # A dict literal a row: dict(zip(...)) takes about three times as long.
        records = [{"t": t, "c_before": b, "c_after": a, "delta_c": d} for t, b, a, d in rows]
        yield sep + _json_text(records)[1:-1]
        sep = ", "
    yield tail + "\n"


def _sweep_csv(slices, best: dict):
    """The ``max`` keys as header, one row a point, then the ``# max`` line, a slice at a time."""
    yield ",".join(best) + "\n"
    for rows in slices:
        # One f-string a row: a per-value join takes about a third longer.
        yield "".join([f"{t:.12g},{b:.12g},{a:.12g},{d:.12g}\n" for t, b, a, d in rows])
    yield f"# max {_text(best)}\n"


def _cmd_sweep(args) -> int:
    if args.points < 2:
        raise _UsageError("--points must be at least 2")
    if args.points > _MAX_POINTS:
        raise _UsageError(f"--points must be at most {_MAX_POINTS}")
    from .s3world import MeasurementAxis, maximize_gain, t_grid

    axis = MeasurementAxis(args.axis)
    slices = _sweep_rows(axis, t_grid(args.points))
    top = maximize_gain(axis)
    best = dict(t=top.t_star, c_before=top.c_before, c_after=top.c_after, delta_c=top.delta_c)
    text = (_sweep_json(axis.value, slices, best) if args.format == "json"
            else _sweep_csv(slices, best))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(text)
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
    p_check.add_argument("world", choices=list(SUITES))
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(run=_cmd_check)

    p_state = sub.add_parser("state", help="analyze one state of the swap family")
    _add_state_flags(p_state)
    p_state.add_argument("--format", choices=["text", "json"], default="text")
    p_state.set_defaults(run=_cmd_state)

    p_measure = sub.add_parser("measure", help="apply one measurement channel")
    p_measure.add_argument("--axis", choices=_AXES, required=True)
    _add_state_flags(p_measure)
    p_measure.add_argument("--format", choices=["text", "json"], default="text")
    p_measure.set_defaults(run=_cmd_measure)

    p_sweep = sub.add_parser("sweep", help="tabulate gain curves over t")
    p_sweep.add_argument("--axis", choices=_AXES, required=True)
    p_sweep.add_argument("--points", type=int, default=1001)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(run=_cmd_sweep)

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
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidState as exc:
        if args.format == "json":
            error = {"error": type(exc).__name__, "message": str(exc), "violation": exc.violation}
            print(_json_text(error), file=sys.stderr)
        else:
            print(f"invalid state: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
