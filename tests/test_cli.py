import json
import math

import pytest

from sqw.cli import main
from sqw.s3world import MeasurementAxis, gain


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
    for k in range(1, 102):
        t = math.inf if k == 101 else math.tan((k / 101) * math.pi - math.pi / 2)
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


def test_sweep_unwritable_path_exits_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--axis", "h1", "--points", "3",
        "--out", str(tmp_path / "missing-dir" / "x.csv"),
    )
    assert code == 2
