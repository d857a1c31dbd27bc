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
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import units
from .elements import KAPPA_HARD_LIMIT, Drift, InhomogeneityWarning, LensConfig, require_kappa
from .lattice import (
    Beamline,
    BeamlineConfigError,
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
    line: Beamline  # its launch state is validated, and every walk of this scenario starts from it
    lens_n_primes: tuple[int, ...]
    sample_dt_ns: float
    csv_path: str | None
    raw: dict

    def beamline(self) -> Beamline:
        return self.line

    @property
    def particle(self) -> Particle:
        return self.line.particle


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

    line = Beamline(tuple(elements), particle, packet, p0_ev, launch)
    return Scenario(line, tuple(n_primes), sample_dt_ns, csv_path, raw)


def serialize_scenario(raw: dict) -> str:
    """Canonical serialization; parse -> serialize is idempotent."""
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def trajectory_rows(trajectory: Trajectory) -> list[str]:
    """The CSV header, then one row per sample, each number as format(x, ".12g").

    Rows are built one run at a time: a run is a stretch of a leg (equal
    element_index) with equal flags whose correction is either absent (NaN,
    printed as "") or present throughout.  A column is constant on a run
    when the min and the max of its bit patterns there are equal (so -0.0
    is not 0.0); it is formatted once, into the run's row format.  That
    rule takes element_index on every run, u2_over_c2 (the model conserves
    <u^2>), pz_eV without an accelerating field and z_um at p_z = 0.  Only
    the other columns go through % per row.
    """
    samples = trajectory.samples
    table = np.empty((len(CSV_COLUMNS) - 1, len(samples)))  # one row per numeric column, filled in place
    with np.errstate(over="ignore"):  # a finite sample can overflow in laboratory units
        table[0] = units.time_from_natural(samples.t) * 1e9
        table[1] = samples.element_index
        table[2] = units.length_from_natural(samples.z) * 1e6
        table[3] = samples.p_z
        table[5] = units.area_from_natural(samples.rho_sq)  # <rho^2> in m^2, until its root replaces it
        table[4] = table[5] * 1e12
        table[5] = np.sqrt(table[5]) * 1e6
        table[6] = units.area_from_natural(samples.drho_sq_dt) / units.HBAR_EV_S * 1e12 * 1e-9
        table[7] = samples.u_perp_sq
        table[8] = units.area_from_natural(samples.rho_sq_corr1) * 1e12
    overflows = np.isinf(table).any(axis=1)
    if overflows.any():
        raise ScenarioError(f"CSV column {CSV_COLUMNS[overflows.argmax()]}: a value overflows the float range")
    rows = [",".join(CSV_COLUMNS)]
    if not len(samples):
        return rows
    kinds = samples.flag_bits + 8 * np.isnan(samples.rho_sq_corr1)  # + 8: the correction is absent
    starts = np.flatnonzero(np.diff(samples.element_index) | np.diff(kinds)) + 1
    bounds = [0, *starts.tolist(), len(samples)]
    starts = np.insert(starts, 0, 0)
    bits = table.view(np.int64)
    varies = (np.minimum.reduceat(bits, starts, axis=1) != np.maximum.reduceat(bits, starts, axis=1)).T
    kinds = kinds[starts]
    varies[kinds >= 8, 8] = False  # an absent correction is "" in every row
    runs = zip(varies.tolist(), table[:, starts].T.tolist(), kinds.tolist(), bounds, bounds[1:])
    for vary, first, kind, start, stop in runs:
        fields = ["%.12g" if v else f"{x:.12g}" for v, x in zip(vary, first)]
        if kind >= 8:
            fields[8] = ""
        row_format = ",".join(fields) + "," + FLAG_TEXTS[kind & 7]
        lists = [column[start:stop].tolist() for v, column in zip(vary, table) if v]
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
        # never after an over-focus event: a relativistic event lies at or before its leg's horizon
        rel = trajectory.events_of(EVENT_RELATIVISTIC)
        if rel:
            trajectory = _truncate_at_event(trajectory, rel[0].t)
            exit_code = EXIT_RELATIVISTIC
    if exit_code == EXIT_OK and not trajectory.completed:
        exit_code = EXIT_OVERFOCUS
    text = "\n".join([*trajectory_rows(trajectory), ""])  # the last row ends in a newline too
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        _write_text(out_path, text, source)
    return exit_code


def _report_text(value) -> str:
    """A report value as printed: a float (numpy's too) in .12g, a Fraction as n/d,
    a bool (numpy's too) as true or false, anything else as given."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _write_report(record: dict) -> None:
    """Print a command's record, one "key: value" line per entry, in order."""
    sys.stdout.write("".join(f"{key}: {_report_text(value)}\n" for key, value in record.items()))


def cmd_check(scenario: Scenario) -> int:
    record: dict = {}
    all_ok = True
    lens_legs = [leg for leg in walk(scenario.beamline()) if leg.orbit is not None]
    for leg, n_prime in zip(lens_legs, scenario.lens_n_primes):
        report = transport_check(leg.orbit, n=scenario.line.packet.n, n_prime=n_prime)
        all_ok = all_ok and report.matched and report.transportable
        key = f"lens[{leg.index}]."
        record[key + "H0_gauss"] = leg.element.h0_gauss
        record[key + "matching_ratio_required"] = report.matching_ratio_required
        record[key + "matching_ratio_actual"] = report.matching_ratio_actual
        record[key + "matched"] = report.matched
        record[key + "transportable"] = report.transportable
        record[key + "rho2_st_um2"] = units.area_from_natural(leg.orbit.center) * 1e12
        record[key + "rho2_min_um2"] = units.area_from_natural(report.rho_sq_min) * 1e12
    if not lens_legs:
        record["lenses"] = "none"
    record["all_pass"] = all_ok
    _write_report(record)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_design(scenario: Scenario, mode: str, emit_path: str | None) -> int:
    line = scenario.line
    # capture mode designs at the first focal point in a drift; the whole walk runs
    # before the design, so that a walk error exits 1 through main
    focal = [leg for leg in walk(line) if not np.isnan(leg.focal)] if mode == "capture" else []
    try:  # the one design failure handler: nothing in here walks or writes
        if mode == "matching-field":
            n_prime = scenario.lens_n_primes[0] if scenario.lens_n_primes else 0
            field = solve_matching(line.packet, n_prime, line.particle)
            record = {"mode": mode, "n_prime": n_prime, "H0_gauss": field}
        elif not focal:
            raise NoCaptureFieldError("no focal point found in any drift")
        else:
            # the launch instant can itself be a waist; prefer a downstream one
            leg = next((g for g in focal if g.entry.t + g.focal > 0.0), focal[0])
            state = leg.evaluate(leg.focal)
            lens = design_direct_capture(state, line.particle)  # ValueError: the state is off its waist
            record = {
                "mode": mode,
                "focal_time_ns": units.time_from_natural(leg.entry.t + leg.focal) * 1e9,
                "H0_gauss": lens.h0_gauss,
                "rho2_at_focus_um2": units.area_from_natural(state.rho_sq) * 1e12,
            }
    except (NoCaptureFieldError, ValueError) as exc:
        sys.stderr.write(f"design: {exc}\n")
        return EXIT_DESIGN
    if mode == "capture" and emit_path is not None:
        # trim the beamline at the focal point so the designed lens starts
        # exactly at the waist, then append it; a waist at the leg's entry
        # (the launch instant, say) needs no drift before the lens
        raw = json.loads(json.dumps(scenario.raw))
        trimmed = raw["beamline"] = raw["beamline"][:leg.index]
        entry_ns = sum(e["duration_ns"] for e in trimmed)
        if record["focal_time_ns"] > entry_ns:
            trimmed.append({"type": "drift", "duration_ns": record["focal_time_ns"] - entry_ns})
        trimmed.append(
            {"type": "lens", "H0_gauss": lens.h0_gauss, "duration_ns": lens.duration_s * 1e9,
             "length_m": lens.length_m, "E0_V_per_m": lens.e0_v_per_m}
        )
        _write_text(emit_path, serialize_scenario(raw), "--emit-scenario")
        record["scenario_written"] = emit_path
    _write_report(record)
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
    values = lo + (hi - lo) * np.arange(steps) / (steps - 1)
    if not np.isfinite(hi - lo):  # an infinite span times k = 0 is NaN; that point is lo
        values[0] = lo
    values[-1] = hi  # as np.linspace does: lo + (hi - lo) can round away from hi
    return values


def _swept_beamline(scenario: Scenario, param: str, value) -> Beamline:
    """The scenario's beamline with the swept field set to value, a grid point or the whole
    grid as an array; n_prime leaves it as it is, and only sigma_r_um builds a new launch state."""
    line, elements = scenario.line, list(scenario.line.elements)
    if param == "sigma_r_um":
        packet = LGPacket(line.packet.n, line.packet.l, value * 1e-6, line.packet.focus_time_s)
        return dc_replace(line, packet=packet, launch=None)
    if param == "H0_gauss":
        lens_index = next(i for i, e in enumerate(elements) if isinstance(e, LensConfig))
        with warnings.catch_warnings():  # its kappa warned once, at load
            warnings.simplefilter("ignore", InhomogeneityWarning)
            elements[lens_index] = dc_replace(elements[lens_index], h0_gauss=value)
    elif param == "t1_ns":
        elements[0] = Drift(duration_s=value * 1e-9)
    return dc_replace(line, elements=tuple(elements))


def cmd_sweep(scenario: Scenario, param: str, spec_range: str, steps: int) -> int:
    if param not in SWEEP_PARAMS:
        raise ScenarioError(f"--param: unknown parameter {param!r}; choose from {SWEEP_PARAMS}")
    values = _sweep_values(spec_range, steps)
    if not scenario.lens_n_primes:
        raise ScenarioError("beamline: sweep needs at least one lens")
    if param == "t1_ns" and not isinstance(scenario.line.elements[0], Drift):
        raise ScenarioError("beamline[0]: t1_ns sweep needs a leading drift")
    if param == "n_prime":  # it labels the target level; the transport verdict does not read it
        bad = values[~(np.isfinite(values) & (values == np.floor(values)) & (values >= 0) & (values <= 2.0**1000))]
        if bad.size:  # the bound load_scenario puts on a lens's n_prime
            rule = "must not exceed 2**1000" if 2.0**1000 < bad[0] < np.inf else "must be a non-negative integer"
            raise ScenarioError(f"sweep point n_prime={bad[0]:.12g}: n_prime {rule}")

    def transport(value):
        # walking the whole line makes a defect downstream of the lens exit 1;
        # only drifts precede the first lens, and no drift ends the walk
        legs = list(walk(_swept_beamline(scenario, param, value)))
        orbit = next(leg.orbit for leg in legs if leg.orbit is not None)
        return transport_check(orbit, n=scenario.line.packet.n, n_prime=scenario.lens_n_primes[0])

    # one walk carries the grid as an array; a point that overflows fails its
    # validation, so numpy's warnings are noise here
    with np.errstate(all="ignore"):
        try:
            report = transport(values)
        except ValueError:
            # the first grid point that fails names the error; every check acts per point, so a
            # sub-grid fails exactly when one of its points does, and values[lo:hi] holds that point
            lo, hi = 0, len(values)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    transport(values[lo:mid])
                    lo = mid
                except ValueError:
                    hi = mid
            try:
                transport(values[lo:hi])
            except BeamlineConfigError:
                raise
            except ValueError as exc:
                raise ScenarioError(f"sweep point {param}={values[lo]:.12g}: {exc}") from None
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
    rows = [
        "%.12g,%s,%.12g" % (value, "true" if ok else "false", r)
        for value, ok, r in zip(values.tolist(), report.transportable.tolist(), rho2_min.tolist())
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


def parse_argv(argv: list[str] | None) -> argparse.Namespace:
    """build_parser().parse_args(argv); an argv that starts with a command goes to that command's parser."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # an option before the command, -h, no command or an unknown one
        return parser.parse_args(argv)
    # the parser the top level would hand the rest to, with the top-level options at their defaults
    return command.parse_args(argv[1:], argparse.Namespace(strict=False, sample_dt_ns=None, command=argv[0]))


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(argv)  # None: argparse reads sys.argv[1:]
        scenario = load_scenario(args.scenario)
        if args.sample_dt_ns is not None:
            scenario = dc_replace(scenario, sample_dt_ns=_sample_dt(args.sample_dt_ns, "--sample-dt-ns"))
        if args.command == "propagate":
            # -o "" is a path given, which cannot be written
            out_path, source = (scenario.csv_path, "output.csv_path") if args.output is None else (args.output, "-o")
            return cmd_propagate(scenario, out_path, args.strict, source)
        if args.command == "check":
            return cmd_check(scenario)
        if args.command == "design":
            return cmd_design(scenario, args.mode, args.emit_scenario)
        return cmd_sweep(scenario, args.param, args.spec_range, args.steps)
    except ValueError as exc:  # ScenarioError, BeamlineConfigError, or a value past the float range
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
