"""Command-line front end: scenario files in, trajectory tables and reports out.

Scenario files are JSON with all units explicit in the key names (see
README for the schema).  Trajectory output is a CSV with a fixed column
order and 12-significant-digit serialization, so identical scenarios yield
byte-identical tables.  Plots are never rendered here; the CSV is the
contract.

Exit codes: 0 success, 1 usage, schema or configuration error, 2 over-focus
truncation, 3 failed check, 4 relativistic abort in strict mode, 5 design
solve failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from . import units
from .elements import KAPPA_HARD_LIMIT, Drift, InhomogeneityWarning, LensConfig, require_kappa
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
from .moments import MomentState, transport_check
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
# the flags text of each flag_bits value
FLAG_TEXTS = tuple(
    ";".join(name for i, name in enumerate(FLAG_NAMES) if bits >> i & 1) for bits in range(8)
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
    launch: MomentState  # the validated launch state, which every walk of this scenario starts from

    def beamline(self) -> Beamline:
        return Beamline(self.elements, self.particle, self.packet, self.p0_ev, self.launch)


_KINDS = {float: "a number", int: "an integer", str: "a string", dict: "an object", list: "an array"}


def _need(mapping: dict, key: str, kind, path: str, default=...):
    """mapping[key] once it is of kind (a JSON integer counts as a number); default if key is missing."""
    if key not in mapping:
        if default is ...:
            raise ScenarioError(f"{path}.{key}: required field is missing")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ScenarioError(f"{path}.{key}: expected {_KINDS[kind]}, got {value!r}")
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:  # float() would overflow
        raise ScenarioError(f"{path}.{key}: {len(str(abs(value)))}-digit integer is out of the float range")
    return float(value) if kind is float else value


def _sample_dt(value: float, source: str) -> float:
    try:
        return units.require("sample_dt_ns", value)
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; ScenarioError names the bad field."""
    try:  # open(), not pathlib: Path interns each part, and freed interned strings churn that table
        with open(path, "rb") as file:  # and decode: a text-mode file costs more than the read
            text = file.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer longer than int() reads, which json does not place
        if not isinstance(exc, json.JSONDecodeError):  # the first such number token, strings skipped
            limit = sys.get_int_max_str_digits()
            scan = re.finditer(r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])(-?\d{%d,})(?![\d.eE])' % (limit + 1), text)
            exc = json.JSONDecodeError(f"integer over {limit} digits", text, next(m.start() for m in scan if m[1]))
        raise ScenarioError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("top level: expected an object")
    version = _need(raw, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario.schema_version: expected {SCHEMA_VERSION}, got {version}")

    particle_block = _need(raw, "particle", dict, "scenario")
    mass_ev = _need(particle_block, "mass_eV", float, "particle")  # a field's own error names its path
    charge_sign = _need(particle_block, "charge_sign", int, "particle")
    try:
        particle = Particle(mass_ev, charge_sign)
    except ValueError as exc:
        raise ScenarioError(f"particle: {exc}") from exc

    p0_ev = _need(raw, "p0_eV", float, "scenario")
    if not abs(p0_ev) < particle.mass_ev:
        raise ScenarioError(
            f"scenario.p0_eV: need a finite |p0_eV| < mass_eV = {particle.mass_ev}, got {p0_ev}"
        )

    packet_block = _need(raw, "packet", dict, "scenario")
    n = _need(packet_block, "n", int, "packet")
    l = _need(packet_block, "l", int, "packet")
    sigma_r_um = _need(packet_block, "sigma_r_um", float, "packet")
    focus_time_ns = _need(packet_block, "focus_time_ns", float, "packet", 0.0)
    try:  # the packet, and its launch state in natural units
        packet = LGPacket(n, l, sigma_r_um * 1e-6, focus_time_ns * 1e-9)
        launch = MomentState.from_packet(packet, particle, p0_ev)
    except ValueError as exc:
        raise ScenarioError(f"packet: {exc}") from exc

    beamline_block = _need(raw, "beamline", list, "scenario")
    if len(beamline_block) == 0:
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
                kappa = _need(item, "kappa_M", float, path_i, 0.0)
                kappa_e = _need(item, "kappa_E", float, path_i, 0.0)
                if kappa_e != kappa and abs(kappa) <= KAPPA_HARD_LIMIT:  # one kappa, checked before the lens warns
                    require_kappa("kappa_e", kappa_e)
                    raise ValueError(f"kappa is only defined for kappa_m == kappa_e (got {kappa} and {kappa_e})")
                elements.append(
                    LensConfig(
                        h0_gauss=_need(item, "H0_gauss", float, path_i),
                        duration_s=_need(item, "duration_ns", float, path_i) * 1e-9,
                        length_m=_need(item, "length_m", float, path_i),
                        e0_v_per_m=_need(item, "E0_V_per_m", float, path_i, 0.0),
                        kappa=kappa,
                    )
                )
                units.cyclotron_frequency_natural(elements[-1].h0_gauss, particle)  # a field a lens can use
                n_prime = _need(item, "n_prime", int, path_i, 0)
                if n_prime < 0:
                    raise ScenarioError(f"{path_i}.n_prime: must be non-negative, got {n_prime}")
                if n_prime > 2**1000:  # so the matching ratio 4(2n'+|l|+l+1)/(2n+|l|+1) stays a float
                    digits = len(str(n_prime))
                    raise ScenarioError(f"{path_i}.n_prime: must not exceed 2**1000, got a {digits}-digit integer")
                n_primes.append(n_prime)
            else:
                raise ScenarioError(f"{path_i}.type: unknown element type {kind!r}")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{path_i}: {exc}") from exc

    output_block = _need(raw, "output", dict, "scenario", {})
    sample_dt_ns = _need(output_block, "sample_dt_ns", float, "output", 0.05)
    sample_dt_ns = _sample_dt(sample_dt_ns, "output.sample_dt_ns")
    csv_path = output_block.get("csv_path")  # null: no path
    if csv_path is not None:
        csv_path = _need(output_block, "csv_path", str, "output")

    return Scenario(
        particle=particle,
        packet=packet,
        p0_ev=p0_ev,
        elements=tuple(elements),
        lens_n_primes=tuple(n_primes),
        sample_dt_ns=sample_dt_ns,
        csv_path=csv_path,
        raw=raw,
        launch=launch,
    )


def serialize_scenario(raw: dict) -> str:
    """Canonical serialization; parse -> serialize is idempotent."""
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def trajectory_rows(trajectory: Trajectory) -> list[str]:
    """The CSV header, then one row per sample, each number as format(x, ".12g").

    Rows are built one run at a time: a run is a stretch of a leg (equal
    element_index) with equal flags whose correction is either absent (NaN,
    printed as "") or present throughout.  A column whose values on a run
    are bitwise equal (so -0.0 is not 0.0) is formatted once, into the run's
    row format: element_index always, u2_over_c2 (the model conserves
    <u^2>), pz_eV without an accelerating field and z_um at p_z = 0.  Only
    the other columns go through % per row.
    """
    samples = trajectory.samples
    rho2_m2 = units.area_from_natural(samples.rho_sq)
    corr = samples.rho_sq_corr1
    with np.errstate(over="ignore"):  # a finite sample can overflow in laboratory units
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
    for name, column in zip(CSV_COLUMNS, columns):
        if np.isinf(column).any():
            raise ScenarioError(f"CSV column {name}: a value overflows the float range")
    rows = [",".join(CSV_COLUMNS)]
    if not len(samples):
        return rows
    kinds = samples.flag_bits + 8 * np.isnan(corr)  # + 8: the correction is absent
    starts = np.flatnonzero(np.diff(samples.element_index) | np.diff(kinds)) + 1
    bounds = [0, *starts.tolist(), len(samples)]
    starts = np.insert(starts, 0, 0)
    table = np.stack(columns)
    bits = table.view(np.int64)
    changed = np.zeros(bits.shape, bool)  # changed[j, i]: row i of column j differs from row i - 1
    np.not_equal(bits[:, 1:], bits[:, :-1], out=changed[:, 1:])
    changed[:, starts] = False
    varies = np.logical_or.reduceat(changed, starts, axis=1).T  # varies[run, j]
    kinds = kinds[starts]
    varies[kinds >= 8, 8] = False  # an absent correction is "" in every row
    runs = zip(varies.tolist(), table[:, starts].T.tolist(), kinds.tolist(), bounds, bounds[1:])
    for vary, first, kind, start, stop in runs:
        fields = ["%.12g" if v else _fmt(x) for v, x in zip(vary, first)]
        fields[1] = "%d" % first[1]
        if kind >= 8:
            fields[8] = ""
        row_format = ",".join(fields) + "," + FLAG_TEXTS[kind & 7]
        lists = [column[start:stop].tolist() for v, column in zip(vary, columns) if v]
        values = zip(*lists) if lists else [()] * (stop - start)
        rows += [row_format % row for row in values]
    return rows


def _write_text(path: str, text: str, source: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
    except OSError as exc:
        raise ScenarioError(f"{source}: cannot write: {exc}") from exc


def _truncate_at_event(trajectory: Trajectory, t_event: float) -> Trajectory:
    events = tuple(e for e in trajectory.events if e.t <= t_event)
    return Trajectory(trajectory.samples[trajectory.samples.t <= t_event], events, False)


def cmd_propagate(scenario: Scenario, out_path: str | None, strict: bool, source: str) -> int:
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
    text = "\n".join(trajectory_rows(trajectory)) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        _write_text(out_path, text, source)
    return exit_code


def cmd_check(scenario: Scenario) -> int:
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
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_design(scenario: Scenario, mode: str, emit_path: str | None) -> int:
    lines: list[str] = []
    if mode == "matching-field":
        n_prime = scenario.lens_n_primes[0] if scenario.lens_n_primes else 0
        try:
            field = solve_matching(scenario.packet, n_prime, scenario.particle)
        except NoCaptureFieldError as exc:
            sys.stderr.write(f"design: {exc}\n")
            return EXIT_DESIGN
        lines.append("mode: matching-field")
        lines.append(f"n_prime: {n_prime}")
        lines.append(f"H0_gauss: {_fmt(field)}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_OK

    # capture mode: find the first focal point in a drift, solve the field
    focal = [leg for leg in walk(scenario.beamline()) if not np.isnan(leg.focal)]
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
        # exactly at the waist, then append it; a waist at the leg's entry
        # (the launch instant, say) needs no drift before the lens
        raw = json.loads(json.dumps(scenario.raw))
        entry_ns = sum(e["duration_ns"] for e in raw["beamline"][:leg.index])
        trimmed = raw["beamline"][:leg.index]
        if t_focal_ns > entry_ns:
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
        _write_text(emit_path, serialize_scenario(raw), "--emit-scenario")
        lines.append(f"scenario_written: {emit_path}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


@np.errstate(all="ignore")  # a grid point past the float range fails as a sweep point
def _sweep_values(spec_range: str, steps: int) -> np.ndarray:
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
        return np.array([lo])
    return lo + (hi - lo) * np.arange(steps) / (steps - 1)


def _swept_beamline(scenario: Scenario, param: str, value) -> Beamline:
    """The scenario's beamline with the swept field set to value, a grid point or the whole
    grid as an array; n_prime leaves it as it is, and only sigma_r_um builds a new launch state."""
    elements, packet, launch = list(scenario.elements), scenario.packet, scenario.launch
    if param == "H0_gauss":
        lens_index = next(i for i, e in enumerate(elements) if isinstance(e, LensConfig))
        with warnings.catch_warnings():  # its kappa warned once, at load
            warnings.simplefilter("ignore", InhomogeneityWarning)
            elements[lens_index] = dc_replace(elements[lens_index], h0_gauss=value)
    elif param == "sigma_r_um":
        packet, launch = LGPacket(packet.n, packet.l, value * 1e-6, packet.focus_time_s), None
    elif param == "t1_ns":
        elements[0] = Drift(duration_s=value * 1e-9)
    return Beamline(tuple(elements), scenario.particle, packet, scenario.p0_ev, launch)


def cmd_sweep(scenario: Scenario, param: str, spec_range: str, steps: int) -> int:
    if param not in SWEEP_PARAMS:
        raise ScenarioError(f"--param: unknown parameter {param!r}; choose from {SWEEP_PARAMS}")
    values = _sweep_values(spec_range, steps)
    if not scenario.lens_n_primes:
        raise ScenarioError("beamline: sweep needs at least one lens")
    if param == "t1_ns" and not isinstance(scenario.elements[0], Drift):
        raise ScenarioError("beamline[0]: t1_ns sweep needs a leading drift")
    if param == "n_prime":  # it labels the target level; the transport verdict does not read it
        bad = values[~(np.isfinite(values) & (values == np.floor(values)) & (values >= 0))]
        if bad.size:
            raise ScenarioError(f"sweep point n_prime={_fmt(bad[0])}: n_prime must be a non-negative integer")

    def transport(value):
        # walking the whole line makes a defect downstream of the lens exit 1;
        # only drifts precede the first lens, and no drift ends the walk
        legs = list(walk(_swept_beamline(scenario, param, value)))
        orbit = next(leg.orbit for leg in legs if leg.orbit is not None)
        return transport_check(orbit, n=scenario.packet.n, n_prime=scenario.lens_n_primes[0])

    # one walk carries the grid as an array; a point that overflows fails its
    # validation, so numpy's warnings are noise here
    with np.errstate(all="ignore"):
        try:
            report = transport(values)
        except ValueError:
            for value in values:  # the first grid point that fails names the error
                try:
                    transport(np.array([value]))
                except BeamlineConfigError:
                    raise
                except ValueError as exc:
                    raise ScenarioError(f"sweep point {param}={_fmt(value)}: {exc}") from None
            raise
    header = f"{param},transportable,rho2_min_um2\n"
    rho2_min = units.area_from_natural(report.rho_sq_min) * 1e12
    if np.ndim(report.transportable) == 0:  # one verdict for the whole grid (n_prime): format it once
        tail = ",%s,%.12g\n" % ("true" if report.transportable else "false", rho2_min)
        # %.12g writes a whole number (checked above) up to 10^12 - 1, sign bit clear (not -0), as its digits,
        # as %d does at half the cost (tail holds no %); a ufunc reduce skips .any()'s Python wrapper
        whole = not np.logical_or.reduce(np.signbit(values) | (values > 999_999_999_999))
        labels = values.astype(np.int64) if whole else values
        sys.stdout.write(header + (("%d" if whole else "%.12g") + tail) * len(values) % tuple(labels.tolist()))
        return EXIT_OK
    transportable = np.broadcast_to(report.transportable, len(values)).tolist()
    rho2_min = np.broadcast_to(rho2_min, len(values)).tolist()
    rows = [
        "%.12g,%s,%.12g" % (value, "true" if ok else "false", r)
        for value, ok, r in zip(values.tolist(), transportable, rho2_min)
    ]
    sys.stdout.write(header + "\n".join(rows) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error (a bad or missing argument) raises ScenarioError, so it exits
    1 with one error line; argparse's own exit 2 is EXIT_OVERFOCUS here."""

    def error(self, message: str):
        raise ScenarioError(message)


@functools.cache  # one parser per process: building one costs ~1 ms and grows the heap
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--range", dest="spec_range", required=True, help="a:b (--range=a:b when a is negative)")
    p.add_argument("--steps", type=int, required=True)

    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv); an argv that starts with a command goes to that command's parser."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # an option before the command, -h, no command or an unknown one
        return parser.parse_args(argv)
    # the parser the top level would hand the rest to, with the top-level options at their defaults
    return command.parse_args(argv[1:], argparse.Namespace(strict=False, sample_dt_ns=None, command=argv[0]))


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        scenario = load_scenario(args.scenario)
        if args.sample_dt_ns is not None:
            scenario = dc_replace(scenario, sample_dt_ns=_sample_dt(args.sample_dt_ns, "--sample-dt-ns"))
        if args.command == "propagate":
            source = "-o" if args.output else "output.csv_path"
            return cmd_propagate(scenario, args.output or scenario.csv_path, args.strict, source)
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
