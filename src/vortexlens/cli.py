"""Command-line front end: scenario files in, trajectory tables and reports out.

Scenario files are JSON with all units explicit in the key names (see
README for the schema).  Trajectory output is a CSV with a fixed column
order and 12-significant-digit serialization, so identical scenarios yield
byte-identical tables.  Plots are never rendered here; the CSV is the
contract.

Exit codes: 0 success, 1 schema or configuration error, 2 over-focus
truncation, 3 failed check, 4 relativistic abort in strict mode, 5 design
solve failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from . import units
from .elements import Drift, LensConfig
from .lattice import (
    Beamline,
    BeamlineConfigError,
    EVENT_OVERFOCUS,
    EVENT_RELATIVISTIC,
    FLAG_NAMES,
    MAX_SAMPLES,
    NoCaptureFieldError,
    Trajectory,
    design_direct_capture,
    entry_states,  # unused here; bench/spans.py wraps cli.entry_states and cli.state_at
    run,
    solve_matching,
    state_at,
    walk,
)
from .moments import transport_check
from .packet import LGPacket
from .units import Particle

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_OVERFOCUS = 2
EXIT_CHECK_FAILED = 3
EXIT_RELATIVISTIC = 4
EXIT_DESIGN = 5

CSV_COLUMNS = (
    "t_ns",
    "element_index",
    "z_um",
    "pz_eV",
    "rho2_um2",
    "rho_rms_um",
    "drho2_dt_um2_per_ns",
    "u2_over_c2",
    "rho2_corr1_um2",
    "flags",
)
# one row format per kind = flag_bits + 8 * (correction absent, i.e. NaN),
# with the flags text built in; "%.0s" prints the absent correction as ""
ROW_FORMATS = tuple(
    "%.12g,%d" + ",%.12g" * 6 + (",%.0s," if absent else ",%.12g,")
    + ";".join(name for i, name in enumerate(FLAG_NAMES) if bits >> i & 1)
    for absent in (0, 1) for bits in range(8)
)

SWEEP_PARAMS = ("H0_gauss", "sigma_r_um", "t1_ns", "n_prime")


class ScenarioError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


@dataclass(frozen=True)
class Scenario:
    particle: Particle
    packet: LGPacket
    p0_ev: float
    elements: tuple[Drift | LensConfig, ...]
    lens_n_primes: tuple[int, ...]
    sample_dt_ns: float
    csv_path: str | None
    raw: dict

    def beamline(self) -> Beamline:
        return Beamline(self.elements, self.particle, self.packet, self.p0_ev)


def _need(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}: required field is missing")
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{path}.{key}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    return value


def _optional(mapping: dict, key: str, kind, path: str, default):
    if key not in mapping:
        return default
    return _need(mapping, key, kind, path)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; ScenarioError names the bad field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("top level: expected an object")
    version = _need(raw, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario.schema_version: expected {SCHEMA_VERSION}, got {version}")

    particle_block = _need(raw, "particle", dict, "scenario")
    if not isinstance(particle_block, dict):
        raise ScenarioError("scenario.particle: expected an object")
    try:
        particle = Particle(
            mass_ev=_need(particle_block, "mass_eV", float, "particle"),
            charge_sign=_need(particle_block, "charge_sign", int, "particle"),
        )
    except ValueError as exc:
        raise ScenarioError(f"particle: {exc}") from exc

    packet_block = _need(raw, "packet", dict, "scenario")
    if not isinstance(packet_block, dict):
        raise ScenarioError("scenario.packet: expected an object")
    try:
        packet = LGPacket(
            n=_need(packet_block, "n", int, "packet"),
            l=_need(packet_block, "l", int, "packet"),
            sigma_r_m=_need(packet_block, "sigma_r_um", float, "packet") * 1e-6,
            focus_time_s=_optional(packet_block, "focus_time_ns", float, "packet", 0.0) * 1e-9,
        )
    except ValueError as exc:
        raise ScenarioError(f"packet: {exc}") from exc

    p0_ev = _need(raw, "p0_eV", float, "scenario")
    if not abs(p0_ev) < particle.mass_ev:
        raise ScenarioError(
            f"scenario.p0_eV: need a finite |p0_eV| < mass_eV = {particle.mass_ev}, got {p0_ev}"
        )

    beamline_block = _need(raw, "beamline", list, "scenario")
    if not isinstance(beamline_block, list) or len(beamline_block) == 0:
        raise ScenarioError("scenario.beamline: expected a non-empty array")
    elements: list[Drift | LensConfig] = []
    n_primes: list[int] = []
    for i, item in enumerate(beamline_block):
        path_i = f"beamline[{i}]"
        if not isinstance(item, dict):
            raise ScenarioError(f"{path_i}: expected an object")
        kind = _need(item, "type", str, path_i)
        try:
            if kind == "drift":
                elements.append(Drift(duration_s=_need(item, "duration_ns", float, path_i) * 1e-9))
            elif kind == "lens":
                elements.append(
                    LensConfig(
                        h0_gauss=_need(item, "H0_gauss", float, path_i),
                        duration_s=_need(item, "duration_ns", float, path_i) * 1e-9,
                        length_m=_need(item, "length_m", float, path_i),
                        e0_v_per_m=_optional(item, "E0_V_per_m", float, path_i, 0.0),
                        kappa_m=_optional(item, "kappa_M", float, path_i, 0.0),
                        kappa_e=_optional(item, "kappa_E", float, path_i, 0.0),
                    )
                )
                n_prime = _optional(item, "n_prime", int, path_i, 0)
                if n_prime < 0:
                    raise ScenarioError(f"{path_i}.n_prime: must be non-negative, got {n_prime}")
                n_primes.append(n_prime)
            else:
                raise ScenarioError(f"{path_i}.type: unknown element type {kind!r}")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{path_i}: {exc}") from exc

    output_block = _optional(raw, "output", dict, "scenario", {})
    if not isinstance(output_block, dict):
        raise ScenarioError("scenario.output: expected an object")
    sample_dt_ns = _optional(output_block, "sample_dt_ns", float, "output", 0.05)
    if sample_dt_ns <= 0:
        raise ScenarioError("output.sample_dt_ns: must be positive")
    csv_path = output_block.get("csv_path")
    if csv_path is not None and not isinstance(csv_path, str):
        raise ScenarioError("output.csv_path: expected a string")

    return Scenario(
        particle=particle,
        packet=packet,
        p0_ev=p0_ev,
        elements=tuple(elements),
        lens_n_primes=tuple(n_primes),
        sample_dt_ns=sample_dt_ns,
        csv_path=csv_path,
        raw=raw,
    )


def serialize_scenario(raw: dict) -> str:
    """Canonical serialization; parse -> serialize is idempotent."""
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def trajectory_rows(trajectory: Trajectory) -> list[str]:
    samples = trajectory.samples
    rho2_m2 = units.area_from_natural(samples.rho_sq)
    corr = samples.rho_sq_corr1
    columns = (
        units.time_from_natural(samples.t) * 1e9,
        samples.element_index,
        units.length_from_natural(samples.z) * 1e6,
        samples.p_z,
        rho2_m2 * 1e12,
        np.sqrt(rho2_m2) * 1e6,
        units.area_from_natural(samples.drho_sq_dt) / units.HBAR_EV_S * 1e12 * 1e-9,
        samples.u_perp_sq,
        units.area_from_natural(corr) * 1e12,
    )
    kinds = (samples.flag_bits + 8 * np.isnan(corr)).tolist()
    rows = zip(*(column.tolist() for column in columns))
    return [",".join(CSV_COLUMNS)] + [ROW_FORMATS[k] % row for k, row in zip(kinds, rows)]


def _write_csv(trajectory: Trajectory, out_path: str | None) -> None:
    text = "\n".join(trajectory_rows(trajectory)) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _truncate_at_event(trajectory: Trajectory, t_event: float) -> Trajectory:
    return Trajectory(trajectory.samples[trajectory.samples.t <= t_event], trajectory.events, False)


def cmd_propagate(scenario: Scenario, out_path: str | None, strict: bool) -> int:
    trajectory = run(scenario.beamline(), scenario.sample_dt_ns * 1e-9)
    exit_code = EXIT_OK
    if strict:
        rel = trajectory.events_of(EVENT_RELATIVISTIC)
        over = trajectory.events_of(EVENT_OVERFOCUS)
        if rel and (not over or rel[0].t <= over[0].t):
            trajectory = _truncate_at_event(trajectory, rel[0].t)
            exit_code = EXIT_RELATIVISTIC
    if exit_code == EXIT_OK and not trajectory.completed:
        exit_code = EXIT_OVERFOCUS
    _write_csv(trajectory, out_path)
    return exit_code


def _check_report(scenario: Scenario) -> tuple[list[str], bool]:
    lines: list[str] = []
    all_ok = True
    lens_legs = [leg for leg in walk(scenario.beamline()) if leg.orbit is not None]
    for leg, n_prime in zip(lens_legs, scenario.lens_n_primes):
        index, lens = leg.index, leg.element
        report = transport_check(leg.orbit, n=scenario.packet.n, n_prime=n_prime)
        ok = report.matched and report.transportable
        all_ok = all_ok and ok
        lines.append(f"lens[{index}].H0_gauss: {_fmt(lens.h0_gauss)}")
        lines.append(
            f"lens[{index}].matching_ratio_required: "
            f"{report.matching_ratio_required.numerator}/{report.matching_ratio_required.denominator}"
        )
        lines.append(f"lens[{index}].matching_ratio_actual: {_fmt(report.matching_ratio_actual)}")
        lines.append(f"lens[{index}].matched: {str(report.matched).lower()}")
        lines.append(f"lens[{index}].transportable: {str(report.transportable).lower()}")
        lines.append(
            f"lens[{index}].rho2_st_um2: {_fmt(units.area_from_natural(report.rho_sq_st) * 1e12)}"
        )
        lines.append(
            f"lens[{index}].rho2_min_um2: {_fmt(units.area_from_natural(report.rho_sq_min) * 1e12)}"
        )
    if not lens_legs:
        lines.append("lenses: none")
    lines.append(f"all_pass: {str(all_ok).lower()}")
    return lines, all_ok


def cmd_check(scenario: Scenario) -> int:
    lines, all_ok = _check_report(scenario)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_design(scenario: Scenario, mode: str, emit_path: str | None) -> int:
    lines: list[str] = []
    if mode == "matching-field":
        n_prime = scenario.lens_n_primes[0] if scenario.lens_n_primes else 0
        field = solve_matching(scenario.packet, n_prime, scenario.particle)
        lines.append("mode: matching-field")
        lines.append(f"n_prime: {n_prime}")
        lines.append(f"H0_gauss: {_fmt(field)}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_OK

    # capture mode: find the first focal point in a drift, solve the field
    focal = [leg for leg in walk(scenario.beamline()) if leg.focal is not None]
    if not focal:
        sys.stderr.write("design: no focal point found in any drift\n")
        return EXIT_DESIGN
    # the launch instant can itself be a waist; prefer a downstream one
    leg = next((g for g in focal if g.entry.t + g.focal > 0.0), focal[0])
    t_focal = leg.entry.t + leg.focal
    state = leg.evaluate(leg.focal)
    try:
        lens = design_direct_capture(state, scenario.particle)
    except (NoCaptureFieldError, ValueError) as exc:
        sys.stderr.write(f"design: {exc}\n")
        return EXIT_DESIGN
    t_focal_ns = units.time_from_natural(t_focal) * 1e9
    lines.append("mode: capture")
    lines.append(f"focal_time_ns: {_fmt(t_focal_ns)}")
    lines.append(f"H0_gauss: {_fmt(lens.h0_gauss)}")
    lines.append(f"rho2_at_focus_um2: {_fmt(units.area_from_natural(state.rho_sq) * 1e12)}")
    if emit_path is not None:
        # trim the beamline at the focal point so the designed lens starts
        # exactly at the waist, then append it
        raw = json.loads(json.dumps(scenario.raw))
        entry_ns = sum(e["duration_ns"] for e in raw["beamline"][:leg.index])
        trimmed = raw["beamline"][:leg.index]
        trimmed.append({"type": "drift", "duration_ns": t_focal_ns - entry_ns})
        trimmed.append(
            {
                "type": "lens",
                "H0_gauss": lens.h0_gauss,
                "duration_ns": lens.duration_s * 1e9,
                "length_m": lens.length_m,
                "E0_V_per_m": lens.e0_v_per_m,
            }
        )
        raw["beamline"] = trimmed
        Path(emit_path).write_text(serialize_scenario(raw), encoding="utf-8")
        lines.append(f"scenario_written: {emit_path}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _sweep_values(spec_range: str, steps: int) -> list[float]:
    try:
        lo_text, hi_text = spec_range.split(":", 1)
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as exc:
        raise ScenarioError(f"--range: expected a:b, got {spec_range!r}") from exc
    if steps < 1:
        raise ScenarioError("--steps: must be >= 1")
    if steps > MAX_SAMPLES:
        raise ScenarioError(f"--steps: at most MAX_SAMPLES = {MAX_SAMPLES} grid points, got {steps}")
    if steps == 1 or lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_sweep(scenario: Scenario, param: str, spec_range: str, steps: int) -> int:
    if param not in SWEEP_PARAMS:
        sys.stderr.write(f"sweep: unknown parameter {param!r}; choose from {SWEEP_PARAMS}\n")
        return EXIT_SCHEMA
    values = _sweep_values(spec_range, steps)
    if not scenario.lens_n_primes:
        raise ScenarioError("beamline: sweep needs at least one lens")
    lens_index = next(i for i, e in enumerate(scenario.elements) if isinstance(e, LensConfig))
    rows = [f"{param},transportable,rho2_min_um2"]
    for value in values:
        elements = list(scenario.elements)
        packet = scenario.packet
        n_prime = scenario.lens_n_primes[0]
        try:
            if param == "H0_gauss":
                elements[lens_index] = dc_replace(scenario.elements[lens_index], h0_gauss=value)
            elif param == "sigma_r_um":
                packet = LGPacket(packet.n, packet.l, value * 1e-6, packet.focus_time_s)
            elif param == "t1_ns":
                if not isinstance(elements[0], Drift):
                    raise ScenarioError("beamline[0]: t1_ns sweep needs a leading drift")
                elements[0] = Drift(duration_s=value * 1e-9)
            elif param == "n_prime":
                if value != int(value):
                    raise ScenarioError("--range: n_prime sweep needs integer grid points")
                n_prime = int(value)
                if n_prime < 0:
                    raise ValueError("n_prime must be non-negative")
            beamline = Beamline(tuple(elements), scenario.particle, packet, scenario.p0_ev)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"sweep point {param}={_fmt(value)}: {exc}") from exc
        # walking the whole line makes a defect downstream of the lens exit 1;
        # only drifts precede the first lens, and no drift ends the walk
        legs = list(walk(beamline))
        report = transport_check(legs[lens_index].orbit, n=packet.n, n_prime=n_prime)
        rows.append(
            f"{_fmt(value)},{str(report.transportable).lower()},"
            f"{_fmt(units.area_from_natural(report.rho_sq_min) * 1e12)}"
        )
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlens",
        description=(
            "Propagate vortex-packet transverse moments through drift and "
            "solenoid-lens beamlines; check matching and transport; solve "
            "inverse-design problems."
        ),
    )
    parser.add_argument("--strict", action="store_true", help="abort on the relativistic bound")
    parser.add_argument(
        "--sample-dt-ns", type=float, default=None, help="override the scenario sampling step"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="run a scenario and write the trajectory CSV")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", default=None, help="CSV path (default: scenario output block or stdout)")

    p = sub.add_parser("check", help="matching and transport report per lens")
    p.add_argument("scenario")

    p = sub.add_parser("design", help="solve a matching field or a direct-capture lens")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=("matching-field", "capture"), required=True)
    p.add_argument("--emit-scenario", default=None, help="write a scenario with the designed lens appended")

    p = sub.add_parser("sweep", help="transport check on a parameter grid")
    p.add_argument("scenario")
    p.add_argument("--param", required=True)
    p.add_argument("--range", dest="spec_range", required=True, help="a:b")
    p.add_argument("--steps", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.sample_dt_ns is not None:
            if args.sample_dt_ns <= 0:
                raise ScenarioError("--sample-dt-ns: must be positive")
            scenario = dc_replace(scenario, sample_dt_ns=args.sample_dt_ns)
        if args.command == "propagate":
            return cmd_propagate(scenario, args.output or scenario.csv_path, args.strict)
        if args.command == "check":
            return cmd_check(scenario)
        if args.command == "design":
            return cmd_design(scenario, args.mode, args.emit_scenario)
        if args.command == "sweep":
            return cmd_sweep(scenario, args.param, args.spec_range, args.steps)
        raise AssertionError(f"unhandled command {args.command}")
    except (ScenarioError, BeamlineConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
