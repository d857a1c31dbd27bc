import contextlib
import io
import json
import math
import sys
import warnings
from dataclasses import replace as dc_replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from vortexlens import cli, lattice, units
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
from vortexlens.elements import InhomogeneityWarning
from vortexlens.lattice import EVENT_OVERFOCUS, EVENT_RELATIVISTIC, solve_matching, walk
from vortexlens.moments import LensOrbit, MomentState, transport_check
from vortexlens.packet import LGPacket

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


@pytest.fixture(scope="module", autouse=True)
def sweeps_walk_at_most_their_bisection_bound():
    """A sweep of k grid points walks at most ceil(log2 k) + 2 times (one array walk, then a
    bisection): the walk past that bound fails the test at once, so a bisection that does not
    converge cannot hang.  Module-scoped, so that hypothesis's tests may run under it."""
    budget = [math.inf]
    grid, walk_line, load = cli._sweep_values, cli.walk, cli.load_scenario

    def load_scenario(path):
        budget[0] = math.inf  # a new command: no sweep yet
        return load(path)

    def sweep_values(spec_range, steps):
        budget[0] = math.ceil(math.log2(max(steps, 1))) + 2
        return grid(spec_range, steps)

    def bounded(line):
        budget[0] -= 1
        if budget[0] < 0:
            raise AssertionError("the sweep walked past ceil(log2 steps) + 2 walks")
        return walk_line(line)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_scenario", load_scenario)
        patch.setattr(cli, "_sweep_values", sweep_values)
        patch.setattr(cli, "walk", bounded)
        yield


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


def test_scenario_that_is_not_utf8_is_schema_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(scenario_dict()).replace('"drift"', '"dr\xe9ft"').encode("latin-1"))
    assert main(["check", str(path)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read scenario: 'utf-8' codec can't decode byte 0xe9")
    assert captured.err.count("\n") == 1


def test_scenario_text_is_decoded_as_utf8(tmp_path, capsys):
    data = scenario_dict()
    data["note"] = "\u00e9\u03c3"  # unknown keys ride along in raw
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(data, ensure_ascii=False, indent=2).replace("\n", "\r\n").encode("utf-8"))
    assert load_scenario(path).raw == data
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(data).encode())  # a byte-order mark is not JSON
    assert main(["check", str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == "error: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"


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


@pytest.mark.parametrize("index", [0, 1], ids=["drift", "lens"])
@pytest.mark.parametrize(
    "command",
    [["check"], ["design", "--mode", "capture"], ["sweep", "--param", "H0_gauss", "--range", "85:86", "--steps", "3"]],
    ids=["check", "design", "sweep"],
)
def test_infinite_duration_is_config_error(tmp_path, capsys, command, index):
    # duration_ns = 1e308 is inf in natural units; the exit state of an element
    # that is not last fails the offset's guard: one error line, no traceback
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["beamline"][index]["duration_ns"] = 1e308
    data["beamline"].append({"type": "drift", "duration_ns": 1.0})
    path = write_scenario(tmp_path, data)
    assert main([command[0], path, *command[1:]]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == f"error: beamline[{index}]: exit state: dt must be non-negative, got inf\n"
    assert captured.out == ""


def test_overflowing_last_drift_is_config_error(tmp_path, capsys):
    # few enough samples for MAX_SAMPLES, but <rho^2> overflows to inf at the
    # drift's end, alone or before a lens; the validation of the drift's
    # offset array stops the run, and numpy's overflow warnings stay silent
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
    "lens_fields, message",
    [
        ({"E0_V_per_m": 1e5}, "error: beamline[1]: z must be finite, got inf\n"),
        ({"kappa_M": 0.05, "kappa_E": 0.05}, "error: beamline[1]: rho_sq_corr1 must be finite, got inf\n"),
    ],
)
def test_overflowing_lens_is_config_error(tmp_path, capsys, lens_fields, message):
    # the orbit's <rho^2> stays finite, but z (accelerated) or the gradient
    # correction overflows before the end of a 1e160 ns lens; the validation
    # of the lens's arrays stops the run, and numpy's warnings stay silent
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["beamline"][1].update(lens_fields, duration_ns=1e160)
    data["output"] = {"sample_dt_ns": 1e156}
    path = write_scenario(tmp_path, data)
    assert main(["propagate", path, "-o", str(tmp_path / "t.csv")]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    [
        ["propagate", "-o", "t.csv"],
        ["check"],
        ["design", "--mode", "capture"],
        ["design", "--mode", "matching-field"],
        ["sweep", "--param", "H0_gauss", "--range", "85:86", "--steps", "3"],
    ],
)
@pytest.mark.parametrize(
    "block, key, value, message",
    [
        ("lens", "H0_gauss", 1e-300, "error: beamline[1]: omega0 * omega0 must be positive, got 0.0\n"),
        ("packet", "sigma_r_um", 1e-300, "error: packet: (m sigma_r)^2 must be positive, got 0.0\n"),
        ("packet", "sigma_r_um", 1e300, "error: packet: (m sigma_r)^2 must be positive, got inf\n"),
        # <u^2> = (2n+|l|+1) / (m sigma_r)^2 reaches c^2 below a 1e-6 um waist
        ("packet", "sigma_r_um", 1e-7, "error: packet: u_perp_sq must be subluminal, got 74.559490023558\n"),
        ("packet", "sigma_r_um", 1e-150, "error: packet: u_perp_sq must be subluminal, got 7.455949002355802e+287\n"),
        # the gradient model has one kappa
        ("lens", "kappa_M", 0.05, "error: beamline[1]: kappa is only defined for kappa_m == kappa_e (got 0.05 and 0.0)\n"),
        # l is stored as int64, and 2n+|l|+1 must stay exact in a float
        ("packet", "l", 10**30, f"error: packet: mode order 2n+|l|+1 must not exceed 2**53, got {10**30 + 1}\n"),
    ],
)
def test_value_out_of_the_natural_float_range_is_schema_error(
    tmp_path, capsys, monkeypatch, command, block, key, value, message
):
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    (data["beamline"][1] if block == "lens" else data["packet"])[key] = value
    path = write_scenario(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    assert main([command[0], path, *command[1:]]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""
    with pytest.raises(ScenarioError):
        load_scenario(path)


BLOCK_KEYS = (("particle", "mass_eV", "a number"), ("particle", "charge_sign", "an integer"),
              ("packet", "n", "an integer"), ("packet", "l", "an integer"), ("packet", "sigma_r_um", "a number"),
              ("packet", "focus_time_ns", "a number"))


@pytest.mark.parametrize(
    "block, key, value, message",
    [pytest.param(block, key, ..., f"{block}.{key}: required field is missing", id=f"{block}.{key}-missing")
     for block, key, _ in BLOCK_KEYS if key != "focus_time_ns"]  # optional: a missing focus time is 0
    + [pytest.param(block, key, "x", f"{block}.{key}: expected {kind}, got 'x'", id=f"{block}.{key}-mistyped")
       for block, key, kind in BLOCK_KEYS],
)
def test_a_particle_or_packet_field_error_names_its_path_once(tmp_path, capsys, block, key, value, message):
    data = scenario_dict()
    if value is ...:
        del data[block][key]
    else:
        data[block][key] = value
    path = write_scenario(tmp_path, data)
    assert main(["check", path]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: {message}\n"


KAPPA_VALUES = st.one_of(st.floats(-0.2, 0.2), st.sampled_from([math.nan, math.inf, -math.inf, 0.3, -0.3, -0.0]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(KAPPA_VALUES, KAPPA_VALUES)
@example(0.05, 0.05)
@example(0.15, 0.15)
@example(-0.0, 0.0)
@example(0.05, 0.02)
@example(math.nan, math.nan)
@example(0.3, 0.05)
@example(0.05, -0.3)
@example(0.15, 0.05)
@example(-0.15, 0.2)
@example(0.2, 0.1)  # a kappa_M at the hard limit still needs an equal kappa_E
def test_the_kappa_pair_loads_when_equal_and_in_range(tmp_path, kappa_m, kappa_e):
    data = scenario_dict()
    data["beamline"][1].update(kappa_M=kappa_m, kappa_E=kappa_e)
    path = write_scenario(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not abs(kappa_m) <= 0.2:  # NaN is out of range too
            message = f"beamline[1]: |kappa| must not exceed 0.2, got {kappa_m}"
        elif not abs(kappa_e) <= 0.2:
            message = f"beamline[1]: |kappa_e| must not exceed 0.2, got {kappa_e}"
        elif kappa_m != kappa_e:
            message = f"beamline[1]: kappa is only defined for kappa_m == kappa_e (got {kappa_m} and {kappa_e})"
        else:
            assert load_scenario(path).line.elements[1].kappa == kappa_m
            # the lens that loads warns once past the soft limit
            assert [w.category for w in caught] == [InhomogeneityWarning] * (abs(kappa_m) > 0.1)
            return
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path)
    assert str(excinfo.value) == message
    assert caught == []  # no warning about a lens that is rejected


@pytest.mark.parametrize(
    "block, key", [("packet", "focus_time_ns"), ("drift", "duration_ns")]
)
def test_free_waist_that_cancels_to_zero_fails_the_match(tmp_path, capsys, block, key):
    # 1e150 ns from the waist, rho_sq - drho_sq_dt^2 / (4 u^2) cancels to 0.0
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    (data["packet"] if block == "packet" else data["beamline"][0])[key] = 1e150
    path = write_scenario(tmp_path, data)
    assert main(["check", path]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "lens[1].matching_ratio_actual: inf\nlens[1].matched: false\n" in captured.out
    assert captured.err == ""
    # an orbit of arrays, as a sweep builds, gives the same ratio for that point
    scenario = load_scenario(path)
    leg = next(leg for leg in walk(scenario.beamline()) if leg.orbit is not None)
    entry = leg.entry
    points = dc_replace(entry, rho_sq=np.array([entry.rho_sq]), drho_sq_dt=np.array([entry.drho_sq_dt]))
    with np.errstate(divide="ignore"):
        ratio = transport_check(LensOrbit.from_entry(points, leg.element, scenario.particle)).matching_ratio_actual
    assert transport_check(leg.orbit).matching_ratio_actual == ratio[0] == math.inf


@pytest.mark.parametrize(
    "n_prime, code", [(0, EXIT_DESIGN), (10**24, EXIT_DESIGN), (10**30, EXIT_DESIGN), (10**40, EXIT_DESIGN)]
)
def test_matching_field_out_of_the_float_range_is_design_failure(tmp_path, capsys, n_prime, code):
    # a 1e140 m waist: the field's omega0^2 underflows to 0 at every n_prime, and
    # rho_H^2 = ratio * sigma_r^2 overflows once n_prime, and with it the ratio,
    # is large enough (a waist that small that it would underflow makes the
    # packet superluminal, which load rejects)
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["packet"]["sigma_r_um"] = 1e146
    data["beamline"][1]["n_prime"] = n_prime
    path = write_scenario(tmp_path, data)
    assert main(["design", path, "--mode", "matching-field"]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("design: the matching field for sigma_r_m = ")
    assert captured.err.count("\n") == 1 and captured.out == ""


# the widest waist whose matching field (n_prime 0) a lens can use; a float wider, omega0 * omega0 underflows
USABLE_EDGE_UM = 4.923487084420574e77


@pytest.mark.parametrize(
    "sigma_r_um, code",
    [(1e77, EXIT_OK), (USABLE_EDGE_UM, EXIT_OK), (math.nextafter(USABLE_EDGE_UM, math.inf), EXIT_DESIGN),
     (1e78, EXIT_DESIGN)],
)
def test_matching_field_is_one_a_lens_can_use(tmp_path, capsys, sigma_r_um, code):
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["packet"]["sigma_r_um"] = sigma_r_um
    path = write_scenario(tmp_path, data)
    assert main(["design", path, "--mode", "matching-field"]) == code
    captured = capsys.readouterr()
    if code == EXIT_DESIGN:
        assert captured.err == (
            f"design: the matching field for sigma_r_m = {sigma_r_um * 1e-6} is one no lens can use: "
            "omega0 * omega0 must be positive, got 0.0\n"
        )
        return
    assert captured.err == ""
    data["beamline"][1]["H0_gauss"] = float(captured.out.splitlines()[-1].removeprefix("H0_gauss: "))
    path = write_scenario(tmp_path, data)  # the field, written into the lens, loads and walks
    assert main(["check", path]) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sigma_r_um", [1e146, 1e120])
def test_capture_field_no_lens_can_use_is_design_failure(tmp_path, capsys, sigma_r_um):
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["packet"]["sigma_r_um"] = sigma_r_um
    path = write_scenario(tmp_path, data)
    emitted = tmp_path / "designed.json"
    assert main(["design", path, "--mode", "capture", "--emit-scenario", str(emitted)]) == EXIT_DESIGN
    captured = capsys.readouterr()
    assert captured.out == "" and not emitted.exists()
    assert captured.err == (
        "design: no cyclotron frequency a lens can use fits this state: omega0 * omega0 must be positive, got 0.0\n"
    )


MIRROR_COMMANDS = (
    ["propagate", "-o", "-"],
    ["check"],
    ["design", "--mode", "capture"],
    ["design", "--mode", "matching-field"],
    ["sweep", "--param", "H0_gauss", "--range", "50:150", "--steps", "11"],
    ["sweep", "--param", "sigma_r_um", "--range", "0.4:0.8", "--steps", "11"],
)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_positive_charge_with_l_mirrors_negative_charge_with_minus_l(tmp_path, capsys, name):
    # the model sees the OAM only through -s l, s the charge sign
    data = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    assert data["packet"]["l"] != 0  # else the mirror shows nothing
    outputs = {}
    for sign in (1, -1):
        point = json.loads(json.dumps(data))
        point["particle"]["charge_sign"] = sign
        point["packet"]["l"] = sign * data["packet"]["l"]
        path = write_scenario(tmp_path, point, f"charge{sign}.json")
        for command in MIRROR_COMMANDS:
            code = main([command[0], path, *command[1:]])
            captured = capsys.readouterr()
            outputs.setdefault(" ".join(command), []).append((code, captured.out, captured.err))
    for command, (positive, negative) in outputs.items():
        assert positive == negative, command


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: None)()  # Python 3.10.7 and later
# JSON members before the integer, with digit runs past the limit that json reads: a string, a fraction, an exponent
_DECOYS = f'"note": "see {"7" * 5001}", "fraction": 0.{"1" * 5001}, "exponent": 1e{"0" * 5000}1, '


@pytest.mark.parametrize(
    "key, literal, decoys, message",
    [
        # float() of a JSON integer past the float range raised OverflowError
        pytest.param(
            "H0_gauss", "1" + "0" * 400, "", "beamline[1].H0_gauss: 401-digit integer is out of the float range",
            id="float_range",
        ),
        # json.loads raised a ValueError with no position past int()'s digit limit
        *(
            pytest.param("n_prime", "-1" + "0" * 5000, decoys, None, id=name, marks=pytest.mark.skipif(
                _DIGIT_LIMIT is None, reason="int() has no digit limit before Python 3.10.7"
            ))
            for name, decoys in (
                ("digit_limit", ""),
                ("digit_limit_after_decoys", _DECOYS),
                ("digit_limit_after_one_at_the_limit", f'"at_limit": {"7" * (_DIGIT_LIMIT or 0)}, '),
            )
        ),
    ],
)
def test_integer_literal_too_large_is_one_schema_error(tmp_path, capsys, key, literal, decoys, message):
    data = scenario_dict()
    data["beamline"][1][key] = "@"
    text = "{" + decoys + json.dumps(data)[1:].replace('"@"', literal)
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    if message is None:
        message = f"line 1, column {text.index(literal) + 1}: integer over {_DIGIT_LIMIT} digits"
    assert main(["check", str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: {message}\n"


def test_typed_fields_name_the_expected_kind(tmp_path, capsys):
    cases = [
        (scenario_dict(particle=[]), "error: scenario.particle: expected an object, got []\n"),
        (scenario_dict(packet="p"), "error: scenario.packet: expected an object, got 'p'\n"),
        (scenario_dict(beamline={}), "error: scenario.beamline: expected an array, got {}\n"),
        (scenario_dict(output=3), "error: scenario.output: expected an object, got 3\n"),
        (scenario_dict(output={"csv_path": 5}), "error: output.csv_path: expected a string, got 5\n"),
        (scenario_dict(beamline=[{"type": 5}]), "error: beamline[0].type: expected a string, got 5\n"),
        (scenario_dict(p0_eV=True), "error: scenario.p0_eV: expected a number, got True\n"),
    ]
    for data, message in cases:
        assert main(["check", write_scenario(tmp_path, data)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == message
    assert load_scenario(write_scenario(tmp_path, scenario_dict(output={"csv_path": None}))).csv_path is None


def test_strict_truncation_drops_the_events_after_the_cut(tmp_path):
    # an accelerating lens passes 0.1 c long before it over-focuses
    data = json.loads((SCENARIOS / "overfocus.json").read_text(encoding="utf-8"))
    data["beamline"][1]["E0_V_per_m"] = 2.5e7
    path = write_scenario(tmp_path, data)
    scenario = load_scenario(path)
    trajectory = lattice.run(scenario.beamline(), scenario.sample_dt_ns * 1e-9)
    (rel,), (over,) = trajectory.events_of(EVENT_RELATIVISTIC), trajectory.events_of(EVENT_OVERFOCUS)
    assert rel.t < over.t
    cut = cli._truncate_at_event(trajectory, rel.t)
    assert cut.events == tuple(e for e in trajectory.events if e.t <= rel.t)
    assert rel in cut.events and over not in cut.events
    assert np.all(cut.samples.t <= rel.t) and not cut.completed
    assert main(["--strict", "propagate", path, "-o", str(tmp_path / "t.csv")]) == EXIT_RELATIVISTIC


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
    assert_emitted_lens_holds_radius(tmp_path, emitted)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_design_capture_emits_a_loadable_scenario(tmp_path, name):
    # on every shipped scenario the waist is the launch instant, where the
    # emitted beamline needs no drift before the designed lens
    emitted = tmp_path / "designed.json"
    code = main(["design", str(SCENARIOS / name), "--mode", "capture", "--emit-scenario", str(emitted)])
    assert code == EXIT_OK
    assert load_scenario(emitted).raw["beamline"][-1]["type"] == "lens"
    assert_emitted_lens_holds_radius(tmp_path, emitted)


def assert_emitted_lens_holds_radius(tmp_path, emitted):
    # the appended lens runs three cyclotron periods of its field; the emitted scenario
    # propagates to completion and holds the radius constant inside that lens
    lens = load_scenario(emitted).raw["beamline"][-1]
    period_ns = 2.0 * math.pi / units.cyclotron_frequency(lens["H0_gauss"], units.Particle.electron()) * 1e9
    assert lens["duration_ns"] == pytest.approx(3.0 * period_ns, rel=1e-12)
    csv_path = tmp_path / "designed.csv"
    assert main(["propagate", str(emitted), "-o", str(csv_path)]) == EXIT_OK
    rows = [r.split(",") for r in csv_path.read_text().splitlines()[1:]]
    last_lens_index = max(int(r[1]) for r in rows)
    rho2 = [float(r[4]) for r in rows if int(r[1]) == last_lens_index]
    assert max(rho2) / min(rho2) - 1.0 < 1e-9


@pytest.mark.parametrize(
    "command, source",
    [
        (["propagate", "-o", "{missing}"], "-o"),
        (["propagate", "-o", "{directory}"], "-o"),
        (["design", "--mode", "capture", "--emit-scenario", "{missing}"], "--emit-scenario"),
        (["propagate"], "output.csv_path"),
    ],
    ids=["missing-directory", "a-directory", "emit-scenario", "scenario-csv-path"],
)
def test_unwritable_output_path_is_schema_error(tmp_path, capsys, command, source):
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    missing = str(tmp_path / "missing" / "out")
    data["output"]["csv_path"] = missing
    path = write_scenario(tmp_path, data)
    argv = [arg.format(missing=missing, directory=tmp_path) for arg in command]
    assert main([argv[0], path, *argv[1:]]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {source}: cannot write: ")


@pytest.mark.parametrize("csv_path", [None, "scenario.csv"])
def test_empty_output_path_is_a_path_that_cannot_be_written(tmp_path, capsys, csv_path):
    # -o "" is given, so neither stdout nor the scenario's own csv_path takes the CSV
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    if csv_path is not None:
        data["output"]["csv_path"] = str(tmp_path / csv_path)
    path = write_scenario(tmp_path, data)
    assert main(["propagate", path, "-o", ""]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: -o: cannot write: [Errno 2] No such file or directory: ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def off_waist_design(state, particle):
    # the focal state moved off its waist, which design_direct_capture refuses with a ValueError
    return lattice.design_direct_capture(dc_replace(state, drho_sq_dt=state.rho_sq), particle)


@pytest.mark.parametrize(
    "data, design, message",
    [
        (
            scenario_dict(
                packet={"n": 0, "l": -4, "sigma_r_um": 0.622, "focus_time_ns": -1.0},
                beamline=[{"type": "drift", "duration_ns": 2.0}],
            ),
            None,
            "design: no focal point found in any drift\n",
        ),
        (scenario_dict(), off_waist_design, "design: state is not at a focal point: d<rho^2>/dt = "),
    ],
    ids=["no-focal-point", "off-waist"],
)
def test_capture_design_failure_is_one_design_line(tmp_path, capsys, monkeypatch, data, design, message):
    if design is not None:
        monkeypatch.setattr(cli, "design_direct_capture", design)
    emitted = tmp_path / "designed.json"
    path = write_scenario(tmp_path, data)
    assert main(["design", path, "--mode", "capture", "--emit-scenario", str(emitted)]) == EXIT_DESIGN
    captured = capsys.readouterr()
    assert captured.out == "" and not emitted.exists()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_capture_design_walks_the_whole_line_first(capsys, monkeypatch):
    # a walk error past the focal point exits 1 with its error line: it is not a design failure
    def walk_then_fail(line):
        yield from walk(line)
        raise lattice.BeamlineConfigError("beamline[9]: no exit state")

    monkeypatch.setattr(cli, "walk", walk_then_fail)
    assert main(["design", str(SCENARIOS / "capture_transport.json"), "--mode", "capture"]) == EXIT_SCHEMA
    assert capsys.readouterr() == ("", "error: beamline[9]: no exit state\n")


@pytest.mark.parametrize(
    "edits, focal_time_ns",
    [
        # two_lens_recapture.json launches at a waist; cut to 1 ns, the drift after its
        # over-focusing first lens holds the next waist, and that one is designed
        ({2: {"duration_ns": 1.0}}, "2.8325352174"),
        # a waist 1.23e6 natural time units into a drift that starts at 0.91e6: the
        # entry time plus the offset, not their difference, places it past the launch
        (
            {0: {"duration_ns": 0.5}, 1: {"H0_gauss": 300.0, "duration_ns": 0.1}, 2: {"duration_ns": 20.0}},
            "1.41016160017",
        ),
    ],
    ids=["cut-drift", "waist-past-its-drift-entry"],
)
def test_design_capture_prefers_a_waist_past_the_launch(tmp_path, capsys, edits, focal_time_ns):
    data = json.loads((SCENARIOS / "two_lens_recapture.json").read_text(encoding="utf-8"))
    for index, fields in edits.items():
        data["beamline"][index].update(fields)
    emitted = tmp_path / "designed.json"
    argv = ["design", write_scenario(tmp_path, data), "--mode", "capture", "--emit-scenario", str(emitted)]
    assert main(argv) == EXIT_OK
    assert f"\nfocal_time_ns: {focal_time_ns}\n" in capsys.readouterr().out
    assert_emitted_lens_holds_radius(tmp_path, emitted)


def test_emitted_scenario_path_is_printed_as_given(tmp_path, capsys):
    emitted = tmp_path / "Designed Lens.JSON"
    assert main(["design", str(SCENARIOS / "capture_transport.json"), "--mode", "capture",
                 "--emit-scenario", str(emitted)]) == EXIT_OK
    assert capsys.readouterr().out.endswith(f"\nscenario_written: {emitted}\n")
    assert emitted.exists()


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "true"),
        (np.bool_(False), "false"),
        (0.1 + 0.2, "0.3"),
        (np.float64(-1.0) / 3.0, "-0.333333333333"),
        (Fraction(8, 1), "8/1"),
        (Fraction(4, 5), "4/5"),
        (3, "3"),
        ("Mixed/Case.JSON", "Mixed/Case.JSON"),
    ],
)
def test_report_value_rule(value, text):
    assert cli._report_text(value) == text


def test_integer_at_the_float_maximum_loads_and_one_past_it_is_refused(tmp_path):
    data = scenario_dict(output={"sample_dt_ns": int(sys.float_info.max)})
    assert load_scenario(write_scenario(tmp_path, data)).sample_dt_ns == sys.float_info.max
    data["output"]["sample_dt_ns"] += 1
    with pytest.raises(ScenarioError, match=r"^output\.sample_dt_ns: 309-digit integer is out of the float range$"):
        load_scenario(write_scenario(tmp_path, data))


def test_a_json_integer_field_is_a_float_in_the_report(tmp_path, capsys):
    data = scenario_dict()
    data["beamline"][1]["H0_gauss"] = 10**12
    assert main(["check", write_scenario(tmp_path, data)]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out.splitlines()[0] == "lens[1].H0_gauss: 1e+12"


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
        ("n_prime", "0:2e302", "1e+302"),  # past the 2**1000 that load_scenario allows a lens
        ("H0_gauss", "50:inf", "inf"),  # an infinite span: the k = 0 point is lo, not inf * 0
        ("n_prime", "0:inf", "inf"),
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


CAPTURE = str(SCENARIOS / "capture_transport.json")


USAGE_ERRORS = [
    (["sweep", CAPTURE, "--param", "H0_gauss", "--range", "80:90", "--steps", "abc"], "--steps"),
    (["propagate"], "scenario"),
    (["--sample-dt-ns", "x", "propagate", CAPTURE], "--sample-dt-ns"),
    (["sweep", CAPTURE, "--param", "t1_ns", "--range", "-0:2", "--steps", "3"], "--range"),
    (["design", CAPTURE], "--mode"),
    (["design", CAPTURE, "--mode", "nowhere"], "--mode"),
    ([], "command"),
    (["no-such-command", CAPTURE], "no-such-command"),
    (["check", CAPTURE, "extra"], "extra"),
]


@pytest.mark.parametrize("argv, fragment", USAGE_ERRORS)
def test_usage_error_exits_1_with_one_error_line(capsys, argv, fragment):
    assert main(argv) == EXIT_SCHEMA  # not argparse's 2, which is EXIT_OVERFOCUS here
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert fragment in lines[0]


LENS = scenario_dict()["beamline"][1]
ONLY_DRIFTS = [{"type": "drift", "duration_ns": 1.0}]


@pytest.mark.parametrize(
    "data, command, code, out, err",
    [
        ([scenario_dict()], ["check"], EXIT_SCHEMA, "", "error: top level: expected an object\n"),
        (scenario_dict(beamline=[3]), ["check"], EXIT_SCHEMA, "", "error: beamline[0]: expected an object\n"),
        (
            scenario_dict(beamline=[{"type": "quad"}]),
            ["check"],
            EXIT_SCHEMA,
            "",
            "error: beamline[0].type: unknown element type 'quad'\n",
        ),
        (
            scenario_dict(particle={"mass_eV": 510998.95, "charge_sign": 2}),
            ["check"],
            EXIT_SCHEMA,
            "",
            "error: particle: charge_sign must be -1 or +1, got 2\n",
        ),
        (
            scenario_dict(),
            ["sweep", "--param", "H0_gauss", "--range", "5", "--steps", "3"],
            EXIT_SCHEMA,
            "",
            "error: --range: expected a:b, got '5'\n",
        ),
        (
            scenario_dict(),
            ["sweep", "--param", "H0_gauss", "--range", "80:90", "--steps", "0"],
            EXIT_SCHEMA,
            "",
            "error: --steps: must be >= 1\n",
        ),
        (
            scenario_dict(beamline=ONLY_DRIFTS),
            ["sweep", "--param", "H0_gauss", "--range", "80:90", "--steps", "3"],
            EXIT_SCHEMA,
            "",
            "error: beamline: sweep needs at least one lens\n",
        ),
        (
            scenario_dict(beamline=[LENS]),
            ["sweep", "--param", "t1_ns", "--range", "0.5:1", "--steps", "3"],
            EXIT_SCHEMA,
            "",
            "error: beamline[0]: t1_ns sweep needs a leading drift\n",
        ),
        (scenario_dict(beamline=ONLY_DRIFTS), ["check"], EXIT_OK, "lenses: none\nall_pass: true\n", ""),
        (scenario_dict(beamline=[]), ["check"], EXIT_SCHEMA, "", "error: scenario.beamline: expected a non-empty array\n"),
        # with no lens to name a target level, the matching field is for n' = 0
        (
            scenario_dict(beamline=ONLY_DRIFTS),
            ["design", "--mode", "matching-field"],
            EXIT_OK,
            "mode: matching-field\nn_prime: 0\nH0_gauss: 85.0658022234\n",
            "",
        ),
        (
            scenario_dict(),
            ["sweep", "--param", "n_prime", "--range=-2:0", "--steps", "3"],
            EXIT_SCHEMA,
            "",
            "error: sweep point n_prime=-2: n_prime must be a non-negative integer\n",
        ),
        (
            scenario_dict(),
            ["sweep", "--param", "n_prime", "--range", "0:inf", "--steps", "2"],
            EXIT_SCHEMA,
            "",
            "error: sweep point n_prime=inf: n_prime must be a non-negative integer\n",
        ),
        # the span overflows to inf, and inf * 0 is NaN: the first point is still lo
        (
            scenario_dict(),
            ["sweep", "--param", "H0_gauss", "--range=-1e308:1e308", "--steps", "3"],
            EXIT_SCHEMA,
            "",
            "error: sweep point H0_gauss=-1e+308: h0_gauss must be positive, got -1e+308\n",
        ),
        # 2**1000 itself is the largest n_prime a lens may name
        (
            scenario_dict(),
            ["sweep", "--param", "n_prime", "--range", f"0:{2.0**1000!r}", "--steps", "2"],
            EXIT_OK,
            "n_prime,transportable,rho2_min_um2\n0,true,0.458701718063\n1.07150860719e+301,true,0.458701718063\n",
            "",
        ),
        # lo + 0 * span turns -0 into 0, which prints as 0
        (
            scenario_dict(),
            ["sweep", "--param", "n_prime", "--range=-0:2", "--steps", "3"],
            EXIT_OK,
            "n_prime,transportable,rho2_min_um2\n" + "".join(f"{k},true,0.458701718063\n" for k in range(3)),
            "",
        ),
        # the matching field needs no walk, so a line that cannot be walked does not stop it
        (
            scenario_dict(beamline=[{"type": "drift", "duration_ns": 1e308}, LENS]),
            ["design", "--mode", "matching-field"],
            EXIT_OK,
            "mode: matching-field\nn_prime: 0\nH0_gauss: 85.0658022234\n",
            "",
        ),
        (
            scenario_dict(beamline=[{"type": "drift", "duration_ns": 1e308}, LENS]),
            ["design", "--mode", "capture"],
            EXIT_SCHEMA,
            "",
            "error: beamline[0]: exit state: dt must be non-negative, got inf\n",
        ),
        *(
            (
                scenario_dict(packet={"n": 0, "l": -4, "sigma_r_um": 0.622, "focus_time_ns": value}),
                ["check"],
                EXIT_SCHEMA,
                "",
                f"error: packet: focus_time_s must be finite, got {value}\n",
            )
            for value in (math.nan, math.inf)
        ),
    ],
    ids=[
        "array", "element", "type", "charge", "range", "steps", "sweep-no-lens", "t1-no-drift", "check-no-lens",
        "empty-beamline", "design-no-lens", "n-prime-negative", "n-prime-inf", "span-overflow", "n-prime-2-to-1000",
        "minus-zero-label", "matching-field-unwalkable-line", "capture-unwalkable-line", "focus-nan", "focus-inf",
    ],
)
def test_scenario_and_sweep_guards_give_their_exact_output(tmp_path, capsys, data, command, code, out, err):
    path = write_scenario(tmp_path, data)
    assert main([command[0], path, *command[1:]]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", [["-h"], ["propagate", "--help"], ["sweep", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: vortexlens")


COMMANDS = [
    ["propagate", CAPTURE],
    ["propagate", CAPTURE, "-o", "-"],
    ["check", CAPTURE],
    ["design", CAPTURE, "--mode", "matching-field"],
    ["design", CAPTURE, "--mode", "capture", "--emit-scenario", "designed.json"],
    ["sweep", CAPTURE, "--param", "n_prime", "--range", "0:999", "--steps", "1000"],
    ["sweep", CAPTURE, "--param", "t1_ns", "--range=-1:2", "--steps", "3"],
]
GLOBAL_OPTIONS = [[], ["--strict"], ["--sample-dt-ns", "0.01"], ["--strict", "--sample-dt-ns", "1e-3"]]


def parsed_or_error(parse, argv):
    try:
        return parse(argv)
    except ScenarioError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in USAGE_ERRORS] + [options + command for command in COMMANDS for options in GLOBAL_OPTIONS],
)
def test_the_direct_route_parses_as_the_top_level_parser(argv):
    expected = parsed_or_error(cli.build_parser().parse_args, argv)
    assert parsed_or_error(cli.parse_argv, argv) == expected
    if not isinstance(expected, str):
        assert vars(expected)["command"] == next(a for a in argv if a in cli.build_parser().commands)


@pytest.mark.parametrize("argv", [["-h"], ["propagate", "--help"], ["sweep", "-h"], ["check", CAPTURE, "-h"]])
def test_the_direct_route_prints_the_same_help(capsys, argv):
    texts = []
    for parse in (cli.build_parser().parse_args, cli.parse_argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: vortexlens")


def test_negative_range_start_after_an_equals_sign_reaches_the_sweep(capsys):
    assert main(["sweep", CAPTURE, "--param", "t1_ns", "--range=-1:2", "--steps", "3"]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: sweep point t1_ns=-1: ")


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


@pytest.mark.parametrize(
    "command, code",
    [
        (["check"], EXIT_CHECK_FAILED),
        (["sweep", "--param", "n_prime", "--range", "0:3", "--steps", "4"], EXIT_OK),
        (["sweep", "--param", "H0_gauss", "--range", "50:150", "--steps", "5"], EXIT_OK),
        # at 2**1000 the matching field's omega0 * omega0 underflows: no lens can use it
        (["design", "--mode", "matching-field"], EXIT_DESIGN),
    ],
)
def test_n_prime_past_2_to_the_1000_is_schema_error(tmp_path, capsys, command, code):
    # the matching ratio 4 (2n'+|l|+l+1)/(2n+|l|+1) must stay a finite float:
    # float() of it overflowed in transport_check on a 401-digit n_prime
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    for n_prime, digits in ((10**400, 401), (2**1000 + 1, 302)):
        data["beamline"][1]["n_prime"] = n_prime
        path = write_scenario(tmp_path, data)
        assert main([command[0], path, *command[1:]]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: beamline[1].n_prime: must not exceed 2**1000, got a {digits}-digit integer\n"
    data["beamline"][1]["n_prime"] = 2**1000  # the bound itself gives the command's verdict
    path = write_scenario(tmp_path, data)
    assert main([command[0], path, *command[1:]]) == code
    err = capsys.readouterr().err
    if code == EXIT_DESIGN:
        assert err == (
            "design: the matching field for sigma_r_m = 6.219999999999999e-07 is one no lens can use: "
            "omega0 * omega0 must be positive, got 0.0\n"
        )
    else:
        assert err == ""


def test_scenario_serialize_round_trip():
    scenario = load_scenario(SCENARIOS / "capture_transport.json")
    once = serialize_scenario(scenario.raw)
    again = serialize_scenario(json.loads(once))
    assert once == again


@st.composite
def raw_scenarios(draw):
    """Scenario JSON that load_scenario accepts: drifts and lenses with every
    optional field present or absent."""
    data = scenario_dict(p0_eV=draw(st.floats(0.0, 1.0)))
    data["packet"] = {
        "n": draw(st.integers(0, 3)),
        "l": draw(st.integers(-6, 6)),
        "sigma_r_um": draw(st.floats(0.3, 1.0)),
        **draw(st.dictionaries(st.just("focus_time_ns"), st.floats(-2.0, 2.0))),
    }
    drift = st.builds(lambda d: {"type": "drift", "duration_ns": d}, st.floats(0.01, 5.0))
    lens = st.builds(
        lambda required, optional: {"type": "lens", **required, **optional},
        st.fixed_dictionaries({"H0_gauss": st.floats(10.0, 200.0), "duration_ns": st.floats(0.01, 5.0),
                               "length_m": st.floats(0.05, 0.2)}),
        st.fixed_dictionaries({}, optional={"E0_V_per_m": st.floats(0.0, 1e5), "n_prime": st.integers(0, 3)}),
    )
    data["beamline"] = draw(st.lists(st.one_of(drift, lens), min_size=1, max_size=4))
    data["output"] = draw(st.fixed_dictionaries({}, optional={"sample_dt_ns": st.floats(0.01, 1.0)}))
    return data


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw_scenarios())
def test_serialize_scenario_is_idempotent(tmp_path, data):
    once = serialize_scenario(data)
    assert serialize_scenario(json.loads(once)) == once
    # and the serialized file loads as the same scenario
    original = load_scenario(write_scenario(tmp_path, data, "original.json"))
    reloaded = load_scenario(write_scenario(tmp_path, json.loads(once), "serialized.json"))
    assert reloaded == original


def test_sample_dt_override(tmp_path):
    out = tmp_path / "t.csv"
    main(["propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out)])
    n_default = len(out.read_text().splitlines())
    main(["--sample-dt-ns", "0.5", "propagate", str(SCENARIOS / "capture_transport.json"), "-o", str(out)])
    n_coarse = len(out.read_text().splitlines())
    assert n_coarse < n_default


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


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["propagate", "-o", "t.csv"],
        ["design", "--mode", "matching-field"],
        ["design", "--mode", "capture"],
        *(["sweep", "--param", param, "--range", spec_range, "--steps", "5"]
          for param, spec_range in zip(cli.SWEEP_PARAMS, ("50:150", "0.3:1.0", "0.1:1.0", "0:4"))),
    ],
)
def test_a_lens_past_the_soft_kappa_limit_warns_once_per_command(tmp_path, capsys, monkeypatch, command):
    data = json.loads((SCENARIOS / "gradient_perturbed.json").read_text(encoding="utf-8"))
    data["beamline"][1].update(kappa_M=0.15, kappa_E=0.15)
    path = write_scenario(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command[0], path, *command[1:]]) in (EXIT_OK, EXIT_CHECK_FAILED)
    assert [w.category for w in caught] == [InhomogeneityWarning]
    assert str(caught[0].message) == "kappa = 0.15 is beyond the comfortable first-order regime (> 0.1)"
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize(
    "param, spec_range, first_bad",
    [
        ("n_prime", "inf:inf", "inf"),
        ("sigma_r_um", "1e300:1e301", "1e+300"),
        ("sigma_r_um", "1e-300:1e-299", "1e-300"),
        ("sigma_r_um", "1e-7:0.6", "1e-07"),  # a superluminal packet
        ("H0_gauss", "1e-300:1e-299", "1e-300"),
        ("H0_gauss", "1e300:1e301", "1e+300"),
        ("sigma_r_um", "0.622:1e300", "5e+299"),
        ("H0_gauss", "85:1e301", "5e+300"),
    ],
)
def test_sweep_point_past_the_float_range_names_the_first(capsys, param, spec_range, first_bad):
    path = str(SCENARIOS / "capture_transport.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the array walk overflows without a numpy warning
        code = main(["sweep", path, "--param", param, f"--range={spec_range}", "--steps", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: sweep point {param}={first_bad}: ")


def test_unknown_sweep_parameter_is_schema_error(capsys):
    path = str(SCENARIOS / "capture_transport.json")
    assert main(["sweep", path, "--param", "E0", "--range", "0:1", "--steps", "2"]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --param: unknown parameter 'E0'; choose from {cli.SWEEP_PARAMS}\n"


@pytest.mark.parametrize("param", cli.SWEEP_PARAMS)
def test_sweep_walks_once(capsys, monkeypatch, param):
    calls = {"walk": 0, "transport_check": 0}

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    path = str(SCENARIOS / "capture_transport.json")
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    obj, key = swept_field(data, 1, param)
    spec_range = "0:999" if param == "n_prime" else f"{0.5 * obj[key]!r}:{1.5 * obj[key]!r}"
    assert main(["sweep", path, "--param", param, "--range", spec_range, "--steps", "1000"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1001
    assert calls["walk"] == 1
    assert calls["transport_check"] <= 1


def per_point_sweep_error(path, param, spec_range, steps):
    """The stderr of a failing sweep as one scalar walk per grid point finds it:
    the first point that fails names the error, and one that fails downstream
    of the lens passes its own line through; None if no point fails."""
    scenario = load_scenario(path)
    for value in cli._sweep_values(spec_range, steps):
        try:
            with np.errstate(all="ignore"):
                legs = list(walk(cli._swept_beamline(scenario, param, np.array([value]))))
                orbit = next(leg.orbit for leg in legs if leg.orbit is not None)
                transport_check(orbit, n=scenario.line.packet.n, n_prime=scenario.lens_n_primes[0])
        except lattice.BeamlineConfigError as exc:
            return f"error: {exc}\n"
        except ValueError as exc:
            return f"error: sweep point {param}={value:.12g}: {exc}\n"
    return None


def capture_transport(first_drift_ns=1.0):
    """capture_transport.json with its leading drift set to first_drift_ns (1.0 as shipped)."""
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["beamline"][0]["duration_ns"] = first_drift_ns
    return data


FAILING_SWEEPS = [  # scenario data, param, range, steps
    pytest.param(capture_transport(), "H0_gauss", "0:1", 1000, id="first-point"),
    pytest.param(capture_transport(), "H0_gauss", "1:-1", 1001, id="middle-point"),
    pytest.param(capture_transport(), "H0_gauss", "1:1e-153", 1000, id="last-point-orbit"),
    pytest.param(capture_transport(), "t1_ns", "1:-1", 11, id="middle-drift"),
    pytest.param(capture_transport(), "sigma_r_um", "0.6:-0.6", 101, id="middle-packet"),
    pytest.param(capture_transport(), "sigma_r_um", "1e-7:0.6", 3, id="superluminal-packet"),
    pytest.param(drift_after_lens(2.5), "H0_gauss", "1:200", 60, id="middle-downstream"),
    pytest.param(drift_after_lens(2.5), "t1_ns", "0.01:5", 60, id="first-downstream"),
    pytest.param(drift_after_lens(2.5), "sigma_r_um", "-0.1:3", 60, id="packet-before-downstream"),
    pytest.param(capture_transport(1e308), "n_prime", "0:3", 4, id="n_prime-failing-line"),
    pytest.param(capture_transport(1e308), "H0_gauss", "50:150", 101, id="H0-failing-line"),
]


@pytest.mark.parametrize("data, param, spec_range, steps", FAILING_SWEEPS)
def test_failing_sweep_gives_the_per_point_walks_error(tmp_path, capsys, data, param, spec_range, steps):
    path = write_scenario(tmp_path, data)
    expected = per_point_sweep_error(path, param, spec_range, steps)
    assert expected is not None
    assert main(["sweep", path, "--param", param, f"--range={spec_range}", "--steps", str(steps)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == expected


@pytest.mark.parametrize("spec_range, steps", [("0:1", 1000), ("1:-1", 1001), ("1:1e-153", 1000), ("1:1e-153", 50_000)])
def test_failing_sweep_bisects_for_its_first_failing_point(capsys, monkeypatch, spec_range, steps):
    calls, bounded = [], cli.walk

    def counted(beamline):
        calls.append(beamline)
        return bounded(beamline)

    monkeypatch.setattr(cli, "walk", counted)
    argv = ["sweep", CAPTURE, "--param", "H0_gauss", f"--range={spec_range}", "--steps", str(steps)]
    assert main(argv) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: sweep point H0_gauss=")
    assert len(calls) <= math.ceil(math.log2(steps)) + 2


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(FINITE, FINITE, st.integers(2, 10_000))
@example(100.0, 1e-11, 2)
@example(1.0, 1e-153, 1000)
@example(-1e308, 1e308, 3)  # the span overflows
@example(-0.0, 1.0, 2)
@example(0.0, 1.0, lattice.MAX_SAMPLES)  # the most points a sweep may have
def test_the_sweep_grid_ends_at_b(lo, hi, steps):
    values = cli._sweep_values(f"{lo!r}:{hi!r}", steps)
    if lo == hi:
        assert values.tobytes() == np.array([lo]).tobytes()
    else:
        assert len(values) == steps
        assert values[-1].tobytes() == np.float64(hi).tobytes()


def test_the_last_sweep_row_is_b(capsys):
    assert main(["sweep", CAPTURE, "--param", "H0_gauss", "--range=100:1e-11", "--steps", "2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "H0_gauss,transportable,rho2_min_um2\n100,true,0.426541672122\n1e-11,false,0\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "command, launches",
    [
        (["propagate", "-o", "-"], 1),
        (["check"], 1),
        (["design", "--mode", "matching-field"], 1),
        (["design", "--mode", "capture"], 1),
        (["sweep", "--param", "n_prime", "--range", "0:3", "--steps", "4"], 1),
        (["sweep", "--param", "H0_gauss", "--range", "50:150", "--steps", "101"], 1),
        (["sweep", "--param", "t1_ns", "--range", "0.1:1.0", "--steps", "101"], 1),
        # the scalar launch state at load, then the swept one of the array walk
        (["sweep", "--param", "sigma_r_um", "--range", "0.3:1.0", "--steps", "101"], 2),
    ],
)
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_one_launch_state_per_command(capsys, monkeypatch, name, command, launches):
    from_packet = MomentState.from_packet.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return from_packet(cls, *args, **kwargs)

    monkeypatch.setattr(MomentState, "from_packet", classmethod(counted))
    assert main([command[0], str(SCENARIOS / name), *command[1:]]) in (EXIT_OK, EXIT_OVERFOCUS, EXIT_CHECK_FAILED)
    assert capsys.readouterr().err == ""
    assert len(calls) == launches


def row_per_point_n_prime_sweep(name, spec_range, steps):
    """The n_prime sweep's output as one "%.12g,%s,%.12g" row per grid point,
    over the verdict broadcast to the grid."""
    scenario = load_scenario(SCENARIOS / name)
    values = cli._sweep_values(spec_range, steps)
    with np.errstate(all="ignore"):
        orbit = next(leg.orbit for leg in walk(scenario.beamline()) if leg.orbit is not None)
        report = transport_check(orbit, n=scenario.line.packet.n, n_prime=scenario.lens_n_primes[0])
    transportable = np.broadcast_to(report.transportable, len(values)).tolist()
    rho2_min = np.broadcast_to(units.area_from_natural(report.rho_sq_min) * 1e12, len(values)).tolist()
    rows = ["n_prime,transportable,rho2_min_um2"] + [
        "%.12g,%s,%.12g" % (value, "true" if ok else "false", r)
        for value, ok, r in zip(values.tolist(), transportable, rho2_min)
    ]
    return "\n".join(rows) + "\n"


@st.composite
def n_prime_grids(draw):
    """A shipped scenario and an n_prime grid of whole numbers: a random
    range (either way round, maybe lo == hi) whose span the step count
    divides, or one step; some at 1e12 and above, where %.12g writes an exponent."""
    name = draw(st.sampled_from(sorted(p.name for p in SCENARIOS.glob("*.json"))))
    lo = draw(st.one_of(st.integers(0, 1000), st.integers(10**12 - 50, 10**15)))
    intervals = draw(st.integers(0, 40))
    hi = lo + intervals * draw(st.integers(0, 10**6)) if intervals else draw(st.integers(0, 10**15))
    if draw(st.booleans()):
        lo, hi = hi, lo
    return name, f"{lo}:{hi}", intervals + 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_prime_grids())
@example(("overfocus.json", "0:999", 1000))
@example(("two_lens_recapture.json", "999999999998:1000000000002", 5))
@example(("capture_transport.json", "7:7", 3))
@example(("capture_transport.json", "-0:-0", 1))  # -0 keeps its sign
@example(("direct_capture.json", "999999999999:999999999999", 3))  # the largest label written as digits
@example(("overfocus.json", "999999999998:1000000000000", 3))  # 10^12 itself is 1e+12
@example(("gradient_perturbed.json", "999:0", 1000))  # descending
def test_n_prime_sweep_is_the_row_per_point_format(case):
    name, spec_range, steps = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):  # --range=: argparse reads a separate "-0:..." as a flag
        code = main(["sweep", str(SCENARIOS / name), "--param", "n_prime", f"--range={spec_range}", "--steps", str(steps)])
    assert code == EXIT_OK
    assert out.getvalue() == row_per_point_n_prime_sweep(name, spec_range, steps)


@st.composite
def sweep_cases(draw):
    """A shipped scenario, a line whose last drift may fall to zero, or a drift
    followed by several lenses and maybe drifts, with a grid over H0_gauss,
    sigma_r_um or t1_ns around its value."""
    source = draw(st.sampled_from(("shipped", "defect", "lenses")))
    if source == "shipped":
        data = json.loads(draw(st.sampled_from(sorted(SCENARIOS.glob("*.json")))).read_text(encoding="utf-8"))
    elif source == "defect":
        data = drift_after_lens(draw(st.floats(0.5, 3.0)))
    else:
        packet = LGPacket(draw(st.integers(0, 2)), draw(st.integers(-6, 6)), draw(st.floats(0.45, 0.75)) * 1e-6)
        matched = solve_matching(packet, 0, units.Particle.electron())
        beamline = [{"type": "drift", "duration_ns": draw(st.floats(0.05, 3.0))}]
        kinds = draw(st.lists(st.sampled_from(["lens", "drift"]), min_size=2, max_size=5))
        for kind in ["lens"] + kinds:
            if kind == "drift":
                beamline.append({"type": "drift", "duration_ns": draw(st.floats(0.05, 3.0))})
                continue
            field = matched * draw(st.floats(0.5, 1.5))
            period_ns = 2e9 * math.pi / units.cyclotron_frequency(field, units.Particle.electron())
            beamline.append(
                {"type": "lens", "H0_gauss": field, "length_m": 0.1,
                 "duration_ns": draw(st.floats(0.2, 3.0)) * period_ns}
            )
        data = scenario_dict(
            packet={"n": packet.n, "l": packet.l, "sigma_r_um": packet.sigma_r_m * 1e6},
            p0_eV=draw(st.floats(0.2, 1.0)),
            beamline=beamline,
        )
    param = draw(st.sampled_from(("H0_gauss", "sigma_r_um", "t1_ns")))
    lens = next(i for i, e in enumerate(data["beamline"]) if e["type"] == "lens")
    obj, key = swept_field(data, lens, param)
    lo, hi = (obj[key] * draw(st.floats(0.3, 3.0)) for _ in range(2))
    return data, param, f"{lo!r}:{hi!r}", draw(st.integers(1, 30))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sweep_cases())
def test_array_sweep_is_the_scalar_walk_of_each_point(tmp_path_factory, case):
    data, param, spec_range, steps = case
    path = write_scenario(tmp_path_factory.mktemp("sweep"), data)
    scenario = load_scenario(path)
    values = cli._sweep_values(spec_range, steps)
    expected, first_error = [], None
    for value in values:  # the sweep as it was: one scalar walk per grid point
        try:
            legs = list(walk(cli._swept_beamline(scenario, param, value)))
        except Exception as exc:  # noqa: BLE001 - any exception fails the point
            first_error = (value, exc)
            break
        orbit = next(leg.orbit for leg in legs if leg.orbit is not None)
        expected.append((orbit.center, orbit.amplitude, transport_check(orbit).transportable))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", path, "--param", param, f"--range={spec_range}", "--steps", str(steps)])
    if first_error is not None:
        assert code == EXIT_SCHEMA
        value, exc = first_error
        if isinstance(exc, lattice.BeamlineConfigError):
            assert err.getvalue() == f"error: {exc}\n"
        elif isinstance(exc, ValueError):
            assert err.getvalue() == f"error: sweep point {param}={value:.12g}: {exc}\n"
        return
    assert code == EXIT_OK
    rows = [row.split(",") for row in out.getvalue().splitlines()[1:]]
    assert [row[1] == "true" for row in rows] == [ok for _, _, ok in expected]
    # the array walk itself, with numpy warnings as errors: no valid grid warns
    legs = list(walk(cli._swept_beamline(scenario, param, np.array(values))))
    orbit = next(leg.orbit for leg in legs if leg.orbit is not None)
    center, amplitude = (np.broadcast_to(x, len(values)) for x in (orbit.center, orbit.amplitude))
    assert center.tobytes() == np.array([c for c, _, _ in expected]).tobytes()  # bit for bit
    assert amplitude.tobytes() == np.array([a for _, a, _ in expected]).tobytes()
    assert np.broadcast_to(transport_check(orbit).transportable, len(values)).tolist() == [
        ok for _, _, ok in expected
    ]


@pytest.mark.parametrize("h0_gauss, named", [(1e150, "rho_sq_corr1"), (1e-150, "rho_sq")])
def test_gradient_lens_field_at_the_float_range_edge_is_config_error(tmp_path, capsys, h0_gauss, named):
    # w^4 overflows and w^3 underflows in the gradient correction; numpy
    # gives inf or 0 there, and the validation of the lens's arrays names it
    data = json.loads((SCENARIOS / "gradient_perturbed.json").read_text(encoding="utf-8"))
    data["beamline"][1]["H0_gauss"] = h0_gauss
    path = write_scenario(tmp_path, data)
    assert main(["propagate", path, "-o", "-"]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: beamline[1]: {named} must be ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_csv_column_overflow_is_schema_error(tmp_path, capsys):
    # 1e150 ns from the waist, d<rho^2>/dt is finite in natural units but
    # overflows on conversion to um^2/ns
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    data["packet"]["focus_time_ns"] = 1e150
    path = write_scenario(tmp_path, data)
    assert main(["propagate", path, "-o", "-"]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err == "error: CSV column drho2_dt_um2_per_ns: a value overflows the float range\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
@pytest.mark.parametrize("source", ["output.sample_dt_ns", "--sample-dt-ns"])
def test_sampling_step_must_be_finite_and_positive(tmp_path, capsys, source, value):
    data = json.loads((SCENARIOS / "capture_transport.json").read_text(encoding="utf-8"))
    options = []
    if source == "--sample-dt-ns":
        options = ["--sample-dt-ns", value]
    else:
        data["output"]["sample_dt_ns"] = float(value)  # NaN and Infinity are JSON tokens here
    path = write_scenario(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*options, "propagate", path, "-o", "-"])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert captured.out == ""
    assert captured.err == f"error: {source}: sample_dt_ns must be positive, got {float(value)}\n"


# the extremes of a JSON number: zero, the edges of the float range and past
# them, non-finite values, and integers too large for exact float conversion
FUZZ_VALUES = (0, 1e-300, -1e-300, 1e-150, -1e-150, 1e-152, 1e-153, 1e150, -1e150, 1e300, -1e300,
               math.inf, -math.inf, math.nan, 10**6, -(10**6), 10**30, 2**53 + 1)
FUZZ_COMMANDS = (["propagate", "-o", "-"], ["check"], ["design", "--mode", "matching-field"],
                 ["design", "--mode", "capture"], ["sweep", "--param", "H0_gauss", "--range", "50:150", "--steps", "5"])


def numeric_fields(data, prefix=()):
    """Key paths of every number in a scenario's JSON."""
    items = enumerate(data) if isinstance(data, list) else data.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_fields(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + (key,)


@st.composite
def fuzzed_scenarios(draw):
    """A shipped scenario with one or two of its numbers set to a FUZZ_VALUES entry."""
    data = json.loads(draw(st.sampled_from(sorted(SCENARIOS.glob("*.json")))).read_text(encoding="utf-8"))
    fields = draw(st.lists(st.sampled_from(list(numeric_fields(data))), min_size=1, max_size=2, unique=True))
    for *parents, key in fields:
        obj = data
        for parent in parents:
            obj = obj[parent]
        obj[key] = draw(st.sampled_from(FUZZ_VALUES))
    return data, fields


def shipped_with(name, block, key, value):
    data = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    data[block][key] = value
    return data, [(block, key)]


def lens_with(name, key, value):
    data = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    data["beamline"][1][key] = value
    return data, [("beamline", 1, key)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_scenarios())
@example(shipped_with("capture_transport.json", "output", "sample_dt_ns", math.nan))
@example(shipped_with("capture_transport.json", "output", "sample_dt_ns", math.inf))
@example(lens_with("capture_transport.json", "H0_gauss", 1e-152))  # the orbit's centre overflows
@example(lens_with("capture_transport.json", "H0_gauss", 1e-153))
def test_fuzzed_scenario_exits_with_a_verdict_or_one_error_line(tmp_path_factory, case):
    data, fields = case
    path = write_scenario(tmp_path_factory.mktemp("fuzz"), data)
    options = []
    if ("output", "sample_dt_ns") not in fields:  # about 50 samples of the line, whatever its length
        durations = (e.get("duration_ns") for e in data["beamline"])
        total = math.fsum(d for d in durations if isinstance(d, (int, float)) and math.isfinite(d) and d > 0)
        options = ["--sample-dt-ns", repr(max(total, 1.0) / 50.0)]
    for command in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([*options, command[0], path, *command[1:]])
        lines = err.getvalue().splitlines()
        if code == EXIT_SCHEMA:
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
        else:
            assert code in (EXIT_OK, EXIT_OVERFOCUS, EXIT_CHECK_FAILED, EXIT_DESIGN), (command, code, lines)
            assert lines == [] or (len(lines) == 1 and lines[0].startswith("design: ")), (command, lines)
