import contextlib
import io
import json
import math
import os
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqw import cli, report, s3world
from sqw.cli import main
from sqw.report import CheckResult, Report
from sqw.s3world import MeasurementAxis, gain, gain_curve, maximize_gain, t_grid

from draws import theta_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- check ----

@pytest.mark.parametrize("world", ["x", "s3", "s4"])
def test_check_passes(capsys, world):
    code, out, _ = run(capsys, "check", world)
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "s4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["subgroup_count"] == 30
    assert payload["order6_count"] == 4
    assert [c["deviation"] for c in payload["checks"]] == [0.0] * 5


def test_check_x_json(capsys):
    code, out, _ = run(capsys, "check", "x", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 48
    assert all(c["deviation"] <= 1e-12 for c in payload["checks"])


def test_failing_check_exits_one(capsys, monkeypatch):
    failing = Report((CheckResult("H1 H2 = H3", False, 0.12345678901234567),))
    monkeypatch.setattr(report, "check_s3_relations", lambda: failing)
    code, out, _ = run(capsys, "check", "s3")
    assert code == 1
    assert out.splitlines() == ["FAIL H1 H2 = H3", "s3: FAILURES PRESENT (1 checks)"]
    code, out, _ = run(capsys, "check", "s3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    assert payload["checks"] == [
        {"name": "H1 H2 = H3", "passed": False, "deviation": 0.123456789012}
    ]


# ---- state ----

def test_state_ie(capsys):
    code, out, _ = run(capsys, "state", "--ie", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pure"] is False
    assert payload["concurrence_closed"] == pytest.approx(2 / 3, abs=1e-9)
    assert payload["criterion_R"] == pytest.approx(3.0, abs=1e-9)


def test_state_t_zero(capsys):
    code, out, _ = run(capsys, "state", "--t", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pure"] is True
    assert payload["concurrence_closed"] == 0.0
    assert payload["criterion_R"] == pytest.approx(4.5, abs=1e-12)
    assert payload["eigenvalues"] == pytest.approx([0, 0, 0, 1], abs=1e-9)


def test_state_t_inf(capsys):
    code, out, _ = run(capsys, "state", "--t", "inf", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"]["b"] == -0.5
    assert payload["pure"] is True


def test_state_coefficient_mode(capsys):
    code, out, _ = run(
        capsys, "state", "--b", "-0.1666666666666667", "--c", "-0.1666666666666667",
        "--d", "-0.1666666666666666", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["concurrence_closed"] == pytest.approx(2 / 3, abs=1e-9)


def test_state_invalid_exits_one(capsys):
    code, _, err = run(capsys, "state", "--b", "-0.5", "--c", "-0.5", "--d", "0.5")
    assert code == 1
    assert "invalid state" in err


def test_state_not_normalized_exits_one(capsys):
    code, _, err = run(capsys, "state", "--b", "0.5", "--c", "0.5", "--d", "0.5")
    assert code == 1


def test_state_json_error_is_one_json_line(capsys):
    # The coefficient sum overflows: its violation is inf, written as text.
    code, out, err = run(
        capsys, "state", "--a", "1e308", "--b", "1e308", "--c", "0", "--d", "0",
        "--format", "json",
    )
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {
        "error": "NormalizationViolated",
        "message": "a + b + c + d differs from 1/2 by inf",
        "violation": "inf",
    }


@pytest.mark.parametrize("big", ["1e155", "1e20"])
def test_state_cancelling_coefficients_report_not_psd(capsys, big):
    # a + b + c + d = 1/2, but the assembled diagonal rounds the 0.5 away:
    # the matrix is not positive, and its trace defect is rounding.
    code, _, err = run(capsys, "state", f"--a={big}", f"--b=-{big}", "--c=0.5", "--d=0")
    assert code == 1
    assert "negative eigenvalue" in err
    assert "trace" not in err


def test_state_conflicting_modes_exits_two(capsys):
    code, _, err = run(capsys, "state", "--ie", "--t", "0")
    assert code == 2
    assert "error" in err


def test_state_incomplete_coefficients_exits_two(capsys):
    code, _, _ = run(capsys, "state", "--b", "0.0")
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    code = main(["state", "--unknown", "1"])
    capsys.readouterr()
    assert code == 2


def test_state_nan_parameter_exits_two(capsys):
    code, _, err = run(capsys, "state", "--t", "nan")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "spaced, attached",
    [
        (["--t", "-inf"], ["--t=-inf"]),
        (["--t", "-1e-3"], ["--t=-1e-3"]),
        (["--b", "-2.5e-1", "--c", "-0.25", "--d", "0"],
         ["--b=-2.5e-1", "--c=-0.25", "--d", "0"]),
        (["--a", "-1e0", "--b", "0.5", "--c", "0.5", "--d", "0.5"],
         ["--a=-1e0", "--b", "0.5", "--c", "0.5", "--d", "0.5"]),
    ],
    ids=["t-minus-inf", "t-exponent", "bcd", "a"],
)
@pytest.mark.parametrize("command", [["state"], ["measure", "--axis", "h2"]])
def test_negative_value_after_a_space_reads_as_attached(capsys, command, spaced, attached):
    results = [run(capsys, *command, *flags) for flags in (spaced, attached)]
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)


def test_state_general_identity_coefficient(capsys):
    # away from the unit-a slice the closed-form fields are absent
    code, out, _ = run(
        capsys, "state", "--a", "0.5", "--b", "0", "--c", "0", "--d", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pure"] is False
    assert payload["criterion_R"] is None
    assert payload["concurrence_closed"] is None
    assert payload["concurrence_oracle"] == 0.0


def test_state_json_round_trip_idempotent(capsys):
    _, out, _ = run(capsys, "state", "--ie", "--format", "json")
    line = out.strip()
    assert json.dumps(json.loads(line)) == line


def test_state_deterministic(capsys):
    _, first, _ = run(capsys, "state", "--t", "0.3", "--format", "json")
    _, second, _ = run(capsys, "state", "--t", "0.3", "--format", "json")
    assert first == second


def test_state_text_format(capsys):
    code, out, _ = run(capsys, "state", "--ie")
    assert code == 0
    assert "pure: false" in out
    assert "concurrence_closed: 0.666666666667" in out


# ---- measure ----

def test_measure_case_one(capsys):
    code, out, _ = run(
        capsys, "measure", "--axis", "h1", "--t", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    after = payload["after"]["coeffs"]
    assert after["b"] == 0.0 and after["c"] == -0.25 and after["d"] == -0.25
    assert payload["delta_c"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_measure_ie_fixed_point(capsys):
    code, out, _ = run(capsys, "measure", "--axis", "h3", "--ie", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["before"]["coeffs"] == payload["after"]["coeffs"]
    assert payload["delta_c"] == 0.0


@pytest.mark.parametrize(
    "state", [["--t", "0"], ["--t", "-2.5"], ["--t", "inf"], ["--ie"],
              ["--b", "-0.1", "--c", "-0.3", "--d", "-0.1"]],
)
@pytest.mark.parametrize("axis", ["h1", "h2", "h3"])
def test_measure_delta_c_verified_is_the_oracle_change(capsys, state, axis):
    # delta_c stays the paper's closed form; delta_c_verified is the change of
    # the verified form 2|d|, which the oracle reproduces on the whole disk.
    code, out, _ = run(capsys, "measure", "--axis", axis, *state, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[-2:] == ["delta_c", "delta_c_verified"]
    oracle = payload["after"]["concurrence_oracle"] - payload["before"]["concurrence_oracle"]
    assert payload["delta_c_verified"] == pytest.approx(oracle, abs=1e-10)


def test_measure_delta_c_verified_at_the_window_edge(capsys):
    # A pure state whose pair sum is just below 0, which the window's tolerance
    # admits. H3 keeps d, so the verified concurrence 2|d| does not move, and
    # the oracle moves by rounding only.
    state = ("--b", "-3.0230071792203272e-06", "--c", "-0.49999999998352285",
             "--d", "3.0229907021506186e-06")
    code, out, _ = run(capsys, "measure", "--axis", "h3", *state)
    assert code == 0
    assert out.splitlines()[-1] == "delta_c_verified: 0"
    code, out, _ = run(capsys, "measure", "--axis", "h3", *state, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_c_verified"] == 0.0
    oracle = payload["after"]["concurrence_oracle"] - payload["before"]["concurrence_oracle"]
    assert abs(oracle) <= 1e-11


def test_measure_h2_at_zero(capsys):
    code, out, _ = run(capsys, "measure", "--axis", "h2", "--t", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["delta_c"] == 0.0


# ---- sweep ----

def test_sweep_small_csv(capsys, tmp_path):
    out_path = tmp_path / "h3.csv"
    code, _, _ = run(capsys, "sweep", "--axis", "h3", "--points", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,c_before,c_after,delta_c"
    assert len(lines) == 5  # header + 3 rows + max comment
    assert lines[3].startswith("inf,")
    assert lines[4].startswith("# max t=0 ")
    for row in lines[1:4]:
        fields = row.split(",")
        assert len(fields) == 4
        before, after, delta = map(float, fields[1:])
        assert delta == pytest.approx(after - before, abs=1e-12)


@pytest.mark.parametrize("axis", ["h1", "h2", "h3"])
def test_sweep_csv_rows_match_scalar_gain(capsys, tmp_path, axis):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--axis", axis, "--points", "101", "--out", str(out_path))
    assert code == 0
    expected = []
    for t in theta_grid(101):
        r = gain(MeasurementAxis(axis), t)
        t_text = "inf" if math.isinf(t) else f"{t:.12g}"
        expected.append(f"{t_text},{r.c_before:.12g},{r.c_after:.12g},{r.delta_c:.12g}")
    assert out_path.read_text().splitlines()[1:-1] == expected


def test_sweep_h1_max_line(capsys, tmp_path):
    out_path = tmp_path / "h1.csv"
    code, _, _ = run(
        capsys, "sweep", "--axis", "h1", "--points", "1001", "--out", str(out_path)
    )
    assert code == 0
    max_line = out_path.read_text().strip().splitlines()[-1]
    assert max_line.startswith("# max t=0 ")
    delta = float(max_line.split("delta_c=")[1])
    assert delta == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_sweep_h2_json_max_at_infinity(capsys, tmp_path):
    out_path = tmp_path / "h2.json"
    code, _, _ = run(
        capsys, "sweep", "--axis", "h2", "--points", "101", "--out", str(out_path),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["max"]["t"] == "inf"
    assert payload["max"]["delta_c"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert payload["records"][-1]["t"] == "inf"
    assert len(payload["records"]) == 101


def test_sweep_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--axis", "h1", "--points", "51", "--out", str(a))
    run(capsys, "sweep", "--axis", "h1", "--points", "51", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_bad_points_exits_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--axis", "h1", "--points", "1", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "error" in err


def test_sweep_points_above_the_bound_exit_two_before_any_grid(capsys, monkeypatch, tmp_path):
    # The grid builder stands in for the real one: at the bound it is called
    # with the bound and builds two points; above it, never. The warm memo
    # keeps maximize_gain's own grid out of the count.
    maximize_gain(MeasurementAxis.H1)
    calls = []
    real = s3world.t_grid
    monkeypatch.setattr(s3world, "t_grid", lambda n: calls.append(n) or real(2))
    out = tmp_path / "x.csv"
    for points in (cli._MAX_POINTS + 1, 10**15):
        code, _, err = run(capsys, "sweep", "--axis", "h1", "--points", str(points),
                           "--out", str(out))
        assert (code, err) == (2, "error: --points must be at most 1000000\n")
    assert calls == [] and not out.exists()
    code, _, _ = run(capsys, "sweep", "--axis", "h1", "--points", str(cli._MAX_POINTS),
                     "--out", str(out))
    assert code == 0 and calls == [10**6] and out.exists()


def test_sweep_holds_no_grid_sized_array_but_the_grid(capsys, tmp_path):
    # The grid is 8 bytes a point and t_grid's array of angles 8 more while
    # it builds; one more column over the whole grid would pass 24.
    points = 200_000
    maximize_gain(MeasurementAxis.H2)
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "sweep", "--axis", "h2", "--points", str(points),
                         "--out", str(tmp_path / "big.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 24 * points


def test_sweep_unwritable_path_exits_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--axis", "h1", "--points", "3",
        "--out", str(tmp_path / "missing-dir" / "x.csv"),
    )
    assert code == 2


# ---- golden outputs ----

GOLDEN = pathlib.Path(__file__).parent / "golden"
AXES = [axis.value for axis in MeasurementAxis]


@pytest.mark.parametrize("world", ["x", "s3", "s4"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_matches_golden_bytes(capsys, world, fmt):
    code, out, _ = run(capsys, "check", world, "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN / f"check_{world}.{fmt}").read_bytes()


STATE_GOLDENS = {
    "ie": ["--ie"],
    "t0": ["--t", "0"],
    "tinf": ["--t", "inf"],
    "coeffs": ["--b", "-0.25", "--c", "-0.25", "--d", "0"],
    "a_half": ["--a", "0.5", "--b", "0", "--c", "0", "--d", "0"],
}


@pytest.mark.parametrize("name", STATE_GOLDENS)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_state_matches_golden_bytes(capsys, name, fmt):
    code, out, _ = run(capsys, "state", *STATE_GOLDENS[name], "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN / f"state_{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("axis", ["h1", "h2", "h3"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_measure_matches_golden_bytes(capsys, axis, fmt):
    code, out, _ = run(capsys, "measure", "--axis", axis, "--t", "0", "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN / f"measure_{axis}_t0.{fmt}").read_bytes()


@pytest.mark.parametrize("axis", ["h1", "h2", "h3"])
@pytest.mark.parametrize("points", [2, 3, 7, 101])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_matches_golden_bytes(capsys, tmp_path, axis, points, fmt):
    out, golden = tmp_path / "sweep", GOLDEN / f"sweep_{axis}_{points}.{fmt}"
    code, _, _ = run(
        capsys, "sweep", "--axis", axis, "--points", str(points),
        "--out", str(out), "--format", fmt,
    )
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", [1, 7, 101])
def test_sweep_slices_join_to_the_golden_bytes(capsys, monkeypatch, tmp_path, size, fmt):
    # Slices of one point, of a size that leaves a remainder, and of the whole grid.
    monkeypatch.setattr(cli, "_SLICE", size)
    out = tmp_path / "sweep"
    code, _, _ = run(capsys, "sweep", "--axis", "h3", "--points", "101", "--out", str(out),
                     "--format", fmt)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"sweep_h3_101.{fmt}").read_bytes()


def test_sweep_json_is_the_dump_of_one_record_a_point(capsys, monkeypatch, tmp_path):
    # 10^4 points in slices of 4,096 against json.dumps of the whole record list.
    monkeypatch.setattr(cli, "_SLICE", 4096)
    out = tmp_path / "sweep.json"
    code, _, _ = run(capsys, "sweep", "--axis", "h2", "--points", "10000", "--out", str(out),
                     "--format", "json")
    assert code == 0
    ts = t_grid(10_000)
    c_before, c_after = gain_curve(MeasurementAxis.H2, ts)
    best = maximize_gain(MeasurementAxis.H2)
    payload = {
        "axis": "h2",
        "records": [
            {"t": t, "c_before": b, "c_after": a, "delta_c": a - b}
            for t, b, a in zip(ts.tolist(), c_before.tolist(), c_after.tolist())
        ],
        "max": {"t": best.t_star, "c_before": best.c_before, "c_after": best.c_after,
                "delta_c": best.delta_c},
    }
    assert out.read_text(encoding="utf-8") == json.dumps(cli._rounded(payload)) + "\n"


def _golden_payload(name: str) -> dict:
    # JSON writes a non-finite float as its text; read it back as the float.
    def floats(obj):
        return {k: math.inf if v == "inf" else v for k, v in obj.items()}

    return json.loads((GOLDEN / name).read_text(encoding="utf-8"), object_hook=floats)


@pytest.mark.parametrize(
    "stem", [f"state_{name}" for name in STATE_GOLDENS] + [f"measure_{a}_t0" for a in AXES]
)
def test_text_golden_renders_the_json_golden(stem):
    text = "\n".join(cli._text_lines(_golden_payload(f"{stem}.json"))) + "\n"
    assert text == (GOLDEN / f"{stem}.text").read_text(encoding="utf-8")


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("points", [2, 3, 7, 101])
def test_csv_golden_renders_the_json_golden(axis, points):
    stem = f"sweep_{axis}_{points}"
    payload = _golden_payload(f"{stem}.json")
    best = payload["max"]
    rows = [[tuple(r[key] for key in best) for r in payload["records"]]]
    csv = "".join(cli._sweep_csv(rows, best))
    assert csv == (GOLDEN / f"{stem}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("help", ["--help"], 0),
        ("check", ["check", "--help"], 0),
        ("state", ["state", "--help"], 0),
        ("measure", ["measure", "--help"], 0),
        ("sweep", ["sweep", "--help"], 0),
        ("sweep_points_1", ["sweep", "--axis", "h1", "--points", "1", "--out", os.devnull], 2),
    ],
)
def test_usage_matches_golden_bytes(capsys, monkeypatch, name, argv, code):
    # argparse wraps help text to the terminal width, read from COLUMNS first.
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, err = run(capsys, *argv)
    assert got_code == code
    golden = (GOLDEN / f"usage_{name}.txt").read_text(encoding="utf-8")
    assert (out, err) == ((golden, "") if code == 0 else ("", golden))


def test_axis_choices_are_the_measurement_axes():
    # cli writes the choices out, so that building the parser imports no s3world.
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for command in ("measure", "sweep"):
        axis = next(a for a in subcommands[command]._actions if a.dest == "axis")
        assert list(axis.choices) == [a.value for a in MeasurementAxis]


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("state_not_psd", ["state", "--b", "0.3", "--c", "0.3", "--d", "-1.1"], 1),
        ("measure_off_unit_a", ["measure", "--axis", "h2", "--a", "0.5", "--b", "0",
                                "--c", "0", "--d", "0"], 1),
        ("state_t_nan", ["state", "--t", "nan"], 2),
        ("measure_axis_h4", ["measure", "--axis", "h4", "--t", "0"], 2),
        ("state_not_psd_json", ["state", "--b", "0.3", "--c", "0.3", "--d", "-1.1",
                                "--format", "json"], 1),
        ("measure_off_unit_a_json", ["measure", "--axis", "h2", "--a", "0.5", "--b", "0",
                                     "--c", "0", "--d", "0", "--format", "json"], 1),
    ],
)
def test_error_matches_golden_bytes(capsys, monkeypatch, name, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (
        code, "", (GOLDEN / f"error_{name}.txt").read_text(encoding="utf-8")
    )


# ---- argv fuzzing ----

_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0", "1e-320", "1e155", "-1e155", "1e308", "-1e308",
     "1", "-1", "-0.5", "0.25", "x"]
) | st.floats().map(repr)


def _flags(names: str):
    """One ``--<name>=<value>`` argument per letter of ``names``."""
    return st.tuples(*(_VALUES.map(f"--{n}={{}}".format) for n in names)).map(list)


# Each input mode, then no mode, incomplete coefficients and conflicting modes.
_STATE_FLAGS = st.one_of(
    st.just(["--ie"]),
    _flags("t"),
    _flags("bcd"),
    _flags("abcd"),
    st.sampled_from(["", "b", "ad", "tbcd"]).flatmap(_flags),
    _flags("t").map(lambda args: args + ["--ie"]),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["check", "state", "measure", "sweep"]))
    fmt = draw(st.sampled_from(["csv" if command == "sweep" else "text", "json"]))
    axis = draw(st.sampled_from(["h1", "h2", "h3", "h4"]))
    if command == "check":
        args = [draw(st.sampled_from(["x", "s3", "s4", "y"]))]
    elif command == "sweep":
        # The grid is allocated in memory: keep --points small.
        points = draw(st.integers(-3, 50))
        args = [f"--axis={axis}", f"--points={points}", f"--out={os.devnull}"]
    else:
        args = draw(_STATE_FLAGS)
        if command == "measure":
            args.append(f"--axis={axis}")
    return [command, *args, f"--format={fmt}"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_argv())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
