import json
import subprocess
import sys
from pathlib import Path

import pytest

from vortexlens import cli, lattice
from vortexlens.cli import (
    CSV_COLUMNS,
    EXIT_CHECK_FAILED,
    EXIT_DESIGN,
    EXIT_OK,
    EXIT_OVERFOCUS,
    EXIT_RELATIVISTIC,
    EXIT_SCHEMA,
    ScenarioError,
    load_scenario,
    main,
    serialize_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_dict(**overrides):
    base = {
        "schema_version": 1,
        "particle": {"mass_eV": 510998.95, "charge_sign": -1},
        "packet": {"n": 0, "l": -4, "sigma_r_um": 0.622, "focus_time_ns": 0.0},
        "p0_eV": 0.43,
        "beamline": [
            {"type": "drift", "duration_ns": 1.0},
            {
                "type": "lens",
                "H0_gauss": 85.06580222335472,
                "E0_V_per_m": 0.0,
                "kappa_M": 0.0,
                "kappa_E": 0.0,
                "length_m": 0.1,
                "duration_ns": 8.4,
                "n_prime": 0,
            },
        ],
        "output": {"sample_dt_ns": 0.05},
    }
    base.update(overrides)
    return base


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_propagate_stable_scenario(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 100
    # oscillating radius column inside the lens
    rho2 = [float(line.split(",")[4]) for line in lines[1:]]
    assert max(rho2) / min(rho2) > 2.0


def test_propagate_deterministic_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out1)])
    main(["propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_propagate_overfocus_truncates(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["propagate", str(SCENARIOS / "overfocus.json"), "-o", str(out)])
    assert code == EXIT_OVERFOCUS
    lines = out.read_text().splitlines()
    last = lines[-1].split(",")
    assert "OVERFOCUS" in last[-1].split(";")
    # truncated well before the configured 22.5 ns end
    assert float(last[0]) < 10.0


def test_propagate_twelve_significant_digits(tmp_path):
    out = tmp_path / "traj.csv"
    main(["propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out)])
    row = out.read_text().splitlines()[5].split(",")
    rho_rms = float(row[5])
    rho2 = float(row[4])
    assert rho_rms**2 == pytest.approx(rho2, rel=1e-10)
    # 12 significant digits survive the round trip
    assert f"{rho2:.12g}" == row[4] or f"{rho2:.12g}" == f"{float(row[4]):.12g}"


def test_propagate_strict_relativistic_abort(tmp_path):
    data = scenario_dict(
        beamline=[
            {"type": "drift", "duration_ns": 0.1},
            {
                "type": "lens",
                "H0_gauss": 85.0,
                "E0_V_per_m": 2.5e7,
                "length_m": 0.1,
                "duration_ns": 0.05,
            },
        ],
        output={"sample_dt_ns": 0.002},
    )
    path = write_scenario(tmp_path, data)
    out = tmp_path / "t.csv"
    assert main(["propagate", path, "-o", str(out)]) == EXIT_OK
    code = main(["--strict", "propagate", path, "-o", str(out)])
    assert code == EXIT_RELATIVISTIC
    rows = out.read_text().splitlines()[1:]
    assert all("RELATIVISTIC" not in r.split(",")[-1] for r in rows[:-1])


def test_schema_errors(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_dict(beamline=[]))
    assert main(["propagate", path]) == EXIT_SCHEMA
    assert "beamline" in capsys.readouterr().err

    bad = scenario_dict()
    del bad["packet"]["sigma_r_um"]
    path = write_scenario(tmp_path, bad)
    assert main(["propagate", path]) == EXIT_SCHEMA
    assert "sigma_r_um" in capsys.readouterr().err

    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}', encoding="utf-8")
    assert main(["propagate", str(path)]) == EXIT_SCHEMA
    assert "line 1" in capsys.readouterr().err

    path = write_scenario(tmp_path, scenario_dict(schema_version=2))
    assert main(["propagate", path]) == EXIT_SCHEMA


@pytest.mark.parametrize("p0_ev", [float("nan"), float("inf"), 1e30, -510998.95])
def test_p0_must_be_finite_and_below_the_rest_energy(tmp_path, capsys, p0_ev):
    path = write_scenario(tmp_path, scenario_dict(p0_eV=p0_ev))
    with pytest.raises(ScenarioError, match=r"^scenario\.p0_eV: "):
        load_scenario(path)
    assert main(["propagate", path, "-o", str(tmp_path / "t.csv")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.p0_eV: ") and err.count("\n") == 1


def drift_after_lens(last_drift_ns):
    """A lens leaves <rho^2><u^2> < <rho.u>^2; <rho^2> of the drift after it
    reaches zero 1.755 ns past its entry, and its waist lies 2.895 ns in."""
    return scenario_dict(
        beamline=[
            {"type": "drift", "duration_ns": 0.2368703763536476},
            {
                "type": "lens",
                "H0_gauss": 38.34808058714767,
                "duration_ns": 7.695783497242621,
                "length_m": 0.1,
            },
            {"type": "drift", "duration_ns": last_drift_ns},
        ]
    )


@pytest.mark.parametrize(
    "command",
    [
        ["propagate"],
        ["check"],
        ["design", "--mode", "capture"],
        ["sweep", "--param", "H0_gauss", "--range", "38:39", "--steps", "3"],
    ],
)
@pytest.mark.parametrize("last_drift_ns", [16.91191255983274, 2.5])
def test_drift_to_zero_radius_is_config_error(tmp_path, capsys, command, last_drift_ns):
    path = write_scenario(tmp_path, drift_after_lens(last_drift_ns))
    argv = [command[0], path, *command[1:]]
    if command[0] == "propagate":
        argv += ["-o", str(tmp_path / "t.csv")]
    assert main(argv) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: beamline[2]: <rho^2> falls to zero")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_drift_ending_before_zero_radius_runs(tmp_path):
    path = write_scenario(tmp_path, drift_after_lens(1.0))
    assert main(["propagate", path, "-o", str(tmp_path / "t.csv")]) == EXIT_OK


@pytest.mark.parametrize(
    "command, message",
    [
        (["propagate"], "error: up to "),
        (["check"], "error: beamline[0]: exit state: rho_sq must be positive, got inf"),
        (["design", "--mode", "capture"], "error: beamline[0]: exit state: rho_sq"),
        (["sweep", "--param", "H0_gauss", "--range", "85:86", "--steps", "3"], "error: beamline[0]: exit state: rho_sq"),
    ],
)
def test_overflowing_drift_is_config_error(tmp_path, capsys, command, message):
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["beamline"][0]["duration_ns"] = 1e300  # <rho^2> at the lens entry overflows to inf
    path = write_scenario(tmp_path, data)
    argv = [command[0], path, *command[1:]]
    if command[0] == "propagate":
        argv += ["-o", str(tmp_path / "t.csv")]
    assert main(argv) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_overflowing_last_drift_is_config_error(tmp_path, capsys):
    # few enough samples for MAX_SAMPLES, but <rho^2> overflows to inf at the
    # drift's end, alone or before a lens; the run stops there, before numpy
    # can warn on the drift's offset array
    for beamline in (scenario_dict()["beamline"][:1], scenario_dict()["beamline"]):
        data = scenario_dict(beamline=beamline, output={"sample_dt_ns": 1e156})
        data["beamline"][0]["duration_ns"] = 1e160
        path = write_scenario(tmp_path, data)
        code = main(["propagate", path, "-o", str(tmp_path / "t.csv")])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.err == "error: beamline[0]: rho_sq must be positive, got inf\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "options, drift_ns", [(["--sample-dt-ns", "1e-300"], 1.0), ([], 1e300)]
)
def test_sample_count_over_cap_is_config_error(
    tmp_path, capsys, monkeypatch, options, drift_ns
):
    def walk_must_not_start(beamline):
        raise AssertionError("the element walk started")

    monkeypatch.setattr(lattice, "walk", walk_must_not_start)
    path = write_scenario(
        tmp_path, scenario_dict(beamline=[{"type": "drift", "duration_ns": drift_ns}])
    )
    assert main([*options, "propagate", path, "-o", str(tmp_path / "t.csv")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"MAX_SAMPLES = {lattice.MAX_SAMPLES}" in err


def test_check_matched_line(capsys):
    code = main(["check", str(SCENARIOS / "capture_transport.json")])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "matched: true" in captured
    assert "transportable: true" in captured
    assert "matching_ratio_required: 4/5" in captured
    assert "all_pass: true" in captured


def test_check_overfocusing_line(tmp_path, capsys):
    data = json.loads((SCENARIOS / "overfocus.json").read_text())
    data["beamline"][0]["duration_ns"] = 2.1
    path = write_scenario(tmp_path, data)
    code = main(["check", path])
    captured = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "transportable: false" in captured


def test_design_matching_field(tmp_path, capsys):
    data = scenario_dict(packet={"n": 0, "l": -4, "sigma_r_um": 0.574, "focus_time_ns": 0.0})
    path = write_scenario(tmp_path, data)
    code = main(["design", path, "--mode", "matching-field"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    field = float([l for l in out.splitlines() if l.startswith("H0_gauss:")][0].split(":")[1])
    assert field == pytest.approx(100.0, rel=5e-3)


def test_design_capture_mode(tmp_path, capsys):
    # over-focusing first lens ended early, then a long drift: the designed
    # second lens captures at the waist
    data = json.loads((SCENARIOS / "two_lens_recapture.json").read_text())
    data["beamline"] = data["beamline"][:2] + [{"type": "drift", "duration_ns": 3.0}]
    path = write_scenario(tmp_path, data)
    emitted = tmp_path / "designed.json"
    code = main(["design", path, "--mode", "capture", "--emit-scenario", str(emitted)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "focal_time_ns:" in out
    field = float([l for l in out.splitlines() if l.startswith("H0_gauss:")][0].split(":")[1])
    assert field > 0
    # the emitted scenario propagates to completion and holds the radius
    # constant inside the appended lens
    csv_path = tmp_path / "designed.csv"
    assert main(["propagate", str(emitted), "-o", str(csv_path)]) == EXIT_OK
    rows = [r.split(",") for r in csv_path.read_text().splitlines()[1:]]
    last_lens_index = max(int(r[1]) for r in rows)
    rho2 = [float(r[4]) for r in rows if int(r[1]) == last_lens_index]
    assert max(rho2) / min(rho2) - 1.0 < 1e-9


def test_design_capture_no_focus(tmp_path, capsys):
    data = scenario_dict(
        packet={"n": 0, "l": -4, "sigma_r_um": 0.622, "focus_time_ns": -1.0},
        beamline=[{"type": "drift", "duration_ns": 2.0}],
    )
    path = write_scenario(tmp_path, data)
    assert main(["design", path, "--mode", "capture"]) == EXIT_DESIGN
    assert "no focal point" in capsys.readouterr().err


def test_sweep_t1_boundary(tmp_path, capsys):
    data = json.loads((SCENARIOS / "overfocus.json").read_text())
    path = write_scenario(tmp_path, data)
    code = main(["sweep", path, "--param", "t1_ns", "--range", "0.5:3.0", "--steps", "26"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = [r.split(",") for r in out.splitlines()[1:]]
    flags = {float(r[0]): r[1] == "true" for r in rows}
    assert flags[1.9]
    assert not flags[2.0]
    # boundary between the bracketing grid points sits at the known threshold
    assert all(flags[v] for v in flags if v <= 1.9)
    assert all(not flags[v] for v in flags if v >= 2.0)


def test_sweep_h0_and_zero_width(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_dict())
    code = main(["sweep", path, "--param", "H0_gauss", "--range", "85.0658:85.0658", "--steps", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2  # header plus one row

    code = main(["sweep", path, "--param", "bogus", "--range", "0:1", "--steps", "2"])
    assert code == EXIT_SCHEMA


def test_sweep_sigma_and_n_prime(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_dict())
    assert main(["sweep", path, "--param", "sigma_r_um", "--range", "0.3:0.9", "--steps", "4"]) == EXIT_OK
    capsys.readouterr()
    assert main(["sweep", path, "--param", "n_prime", "--range", "0:3", "--steps", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize(
    "param, spec_range, value",
    [
        ("sigma_r_um", "0:1", "0"),
        ("t1_ns", "0:2", "0"),
        ("H0_gauss", "nan:nan", "nan"),
        ("n_prime", "-2:0", "-2"),
    ],
)
def test_sweep_invalid_point_is_schema_error(tmp_path, capsys, param, spec_range, value):
    path = write_scenario(tmp_path, scenario_dict())
    code = main(["sweep", path, "--param", param, f"--range={spec_range}", "--steps", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: sweep point {param}={value}: ")


def test_sweep_steps_over_cap_is_schema_error(capsys, monkeypatch):
    def no_point_may_be_evaluated(beamline):
        raise AssertionError("a sweep point was evaluated")

    monkeypatch.setattr(cli, "walk", no_point_may_be_evaluated)
    path = str(SCENARIOS / "capture_transport.json")
    steps = str(lattice.MAX_SAMPLES + 1)
    code = main(["sweep", path, "--param", "H0_gauss", "--range", "80:90", "--steps", steps])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --steps: ")


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["design", "--mode", "matching-field"],
        ["sweep", "--param", "H0_gauss", "--range", "85:86", "--steps", "3"],
    ],
)
def test_negative_n_prime_is_schema_error(tmp_path, capsys, command):
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["beamline"][1]["n_prime"] = -1
    path = write_scenario(tmp_path, data)
    assert main([command[0], path, *command[1:]]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: beamline[1].n_prime: must be non-negative, got -1\n"


def test_scenario_serialize_round_trip():
    scenario = load_scenario(SCENARIOS / "capture_transport.json")
    once = serialize_scenario(scenario.raw)
    again = serialize_scenario(json.loads(once))
    assert once == again


def test_sample_dt_override(tmp_path):
    out = tmp_path / "t.csv"
    main(["propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out)])
    n_default = len(out.read_text().splitlines())
    main(["--sample-dt-ns", "0.5", "propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out)])
    n_coarse = len(out.read_text().splitlines())
    assert n_coarse < n_default


def test_console_invocation_round_trip(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "vortexlens.cli",
            "propagate",
            str(SCENARIOS / "capture_transport.json"),
            "-o",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_shipped_direct_capture_scenario_holds_radius(tmp_path):
    out = tmp_path / "dc.csv"
    assert main(["propagate", str(SCENARIOS / "direct_capture.json"), "-o", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    capture = [float(r[4]) for r in rows if int(r[1]) == 3]
    assert len(capture) > 100
    assert max(capture) / min(capture) - 1.0 < 1e-12


def test_shipped_recapture_scenario_matches_predicted_minimum(tmp_path, capsys):
    out = tmp_path / "rc.csv"
    assert main(["propagate", str(SCENARIOS / "two_lens_recapture.json"), "-o", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    lens2 = [float(r[4]) for r in rows if int(r[1]) == 3]
    assert main(["check", str(SCENARIOS / "two_lens_recapture.json")]) == EXIT_CHECK_FAILED
    report = capsys.readouterr().out
    predicted = float(
        [l for l in report.splitlines() if l.startswith("lens[3].rho2_min_um2")][0].split(":")[1]
    )
    # sampling can only overshoot the true minimum, and only by the grid
    # granularity (quadratic near the turning point)
    assert predicted > 0
    assert predicted <= min(lens2) <= predicted + 1e-2 * max(lens2)


def test_gradient_scenario_fills_correction_column(tmp_path):
    out = tmp_path / "grad.csv"
    code = main(["propagate", str(SCENARIOS / "gradient_perturbed.json"), "-o", str(out)])
    assert code == EXIT_OK
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    lens_rows = [r for r in rows if int(r[1]) == 1]
    assert all(r[8] != "" for r in lens_rows)
    assert any(float(r[8]) != 0.0 for r in lens_rows[1:])
    drift_rows = [r for r in rows if int(r[1]) == 0]
    assert all(r[8] == "" for r in drift_rows)


def swept_field(data, lens, param):
    """The scenario object and key that a sweep over param sets."""
    return {
        "H0_gauss": (data["beamline"][lens], "H0_gauss"),
        "sigma_r_um": (data["packet"], "sigma_r_um"),
        "t1_ns": (data["beamline"][0], "duration_ns"),
        "n_prime": (data["beamline"][lens], "n_prime"),
    }[param]


@pytest.mark.parametrize("param", cli.SWEEP_PARAMS)
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_sweep_row_is_the_check_report_of_the_substituted_scenario(tmp_path, capsys, name, param):
    data = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    lens = next(i for i, e in enumerate(data["beamline"]) if e["type"] == "lens")
    obj, key = swept_field(data, lens, param)
    spec_range = "0:3" if param == "n_prime" else f"{0.95 * obj[key]!r}:{1.05 * obj[key]!r}"
    path = str(SCENARIOS / name)
    assert main(["sweep", path, "--param", param, "--range", spec_range, "--steps", "4"]) == EXIT_OK
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    values = cli._sweep_values(spec_range, 4)
    assert len(rows) == len(values) == 4
    for value, (_, transportable, rho2_min) in zip(values, rows):
        point = json.loads(json.dumps(data))
        obj, key = swept_field(point, lens, param)
        obj[key] = int(value) if param == "n_prime" else value
        assert main(["check", write_scenario(tmp_path, point, "point.json")]) in (EXIT_OK, EXIT_CHECK_FAILED)
        report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert report[f"lens[{lens}].transportable"] == transportable
        assert report[f"lens[{lens}].rho2_min_um2"] == rho2_min
