"""The three workloads as lists of commands, each with its output check.

A command is one `vortexlens.cli.main(argv)` call (trajectory, scan) or one
oracle check (verify).  Every call goes through the module attribute, so
span wrappers installed after import see it.  Checks run outside the timed
region and count toward the failed fraction.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from vortexlens import cli, lattice, oracle, perturbation, units

# exit codes that are physics verdicts (over-focus, failed check, no
# capture field), not failures
VERDICT_EXITS = (cli.EXIT_OK, cli.EXIT_OVERFOCUS, cli.EXIT_CHECK_FAILED, cli.EXIT_DESIGN)

STATE_AT_ROWS = 8
STATE_AT_RTOL = 1e-9
# tolerances pinned in tests/test_acceptance.py (criteria 4, 5 and 9)
CLOSED_FORM_TOL = 1e-6
QUADRATURE_TOL = 1e-10
VERIFY_PERIODS = 4.0
VERIFY_POINTS = 4 * 2048 + 1  # verify_closed_form samples period / 2048
QUADRATURE_PERIODS = 3.0
QUADRATURE_STEPS_PER_PERIOD = 512
GRID_N = range(0, 5)
GRID_L = range(-6, 7)

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text(encoding="utf-8"))


@dataclass
class Command:
    """One timed operation: `execute` returns (exit code, output text)."""

    label: str
    kind: str
    execute: Callable[[], tuple[int, str]]
    check: Callable[[int, str], list[str]]
    items: Callable[[int, str], int]
    golden: str | None = None
    seen: set[str] = field(default_factory=set)

    def verify(self, code: int, text: str) -> list[str]:
        """All output checks; an empty list means the output is correct."""
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        errors = []
        self.seen.add(digest)
        if len(self.seen) > 1:
            errors.append("output differs between repeats of the same command")
        if self.golden is not None and digest != self.golden:
            errors.append(f"digest {digest[:12]} differs from the pinned golden output")
        return errors + self.check(code, text)

    def digest(self) -> str | None:
        return next(iter(self.seen)) if len(self.seen) == 1 else None


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def execute() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return execute


def _exit_ok(code: int) -> list[str]:
    return [] if code in VERDICT_EXITS else [f"exit code {code}"]


def _data_rows(text: str) -> int:
    return max(0, text.count("\n") - 1)


def _rounding_ns(t_ns: float) -> float:
    """Largest error of t_ns printed to 12 significant digits."""
    return 0.0 if t_ns == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(t_ns))) - 11)


def _trajectory_check(beamline: lattice.Beamline, label: str, seed: int):
    """Seeded CSV rows agree with lattice.state_at on rho2_um2.

    state_at is evaluated at the printed t_ns, which is rounded to 12
    digits, so the row's own d<rho^2>/dt times that rounding is allowed on
    top of the relative 1e-9; near a deep waist it is the larger term.  The
    final row is skipped (its rounded t can fall past the end) and so is an
    OVERFOCUS row (state_at refuses t at the crossing).
    """
    state_at = lattice.state_at

    def check(code: int, text: str) -> list[str]:
        errors = _exit_ok(code)
        lines = text.splitlines()
        if not lines or lines[0] != ",".join(cli.CSV_COLUMNS):
            return errors + ["missing CSV header"]
        rows = lines[1:-1]
        picks = random.Random(f"{seed}:{label}").sample(rows, min(STATE_AT_ROWS, len(rows)))
        for row in picks:
            fields = row.split(",")
            if "OVERFOCUS" in fields[9]:
                continue
            t_ns = float(fields[0])
            expected = units.area_from_natural(state_at(beamline, units.time_to_natural(t_ns * 1e-9)).rho_sq) * 1e12
            allowed = STATE_AT_RTOL * expected + abs(float(fields[6])) * _rounding_ns(t_ns)
            if abs(float(fields[4]) - expected) > allowed:
                errors.append(f"rho2_um2 {fields[4]} at t_ns {fields[0]} != state_at {expected!r}")
        return errors

    return check


def _sweep_check(param: str, steps: int):
    def check(code: int, text: str) -> list[str]:
        errors = _exit_ok(code)
        lines = text.splitlines()
        if not lines or lines[0] != f"{param},transportable,rho2_min_um2":
            return errors + ["missing sweep header"]
        if len(lines) - 1 != steps:
            errors.append(f"{len(lines) - 1} sweep rows for {steps} steps")
        for row in lines[1:]:
            _, transportable, rho2_min = row.split(",")
            if (transportable == "true") != (float(rho2_min) > 0.0):
                errors.append(f"transportable={transportable} with rho2_min_um2={rho2_min}")
        return errors

    return check


def _report_fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _check_check(code: int, text: str) -> list[str]:
    errors = _exit_ok(code)
    report = _report_fields(text)
    for key, value in report.items():
        if key.endswith(".transportable"):
            rho2_min = float(report[key.replace(".transportable", ".rho2_min_um2")])
            if (value == "true") != (rho2_min > 0.0):
                errors.append(f"{key}={value} with rho2_min_um2={rho2_min}")
    if "all_pass" not in report:
        errors.append("missing all_pass line")
    return errors


def _check_lenses(code: int, text: str) -> int:
    return sum(1 for key in _report_fields(text) if key.endswith(".transportable"))


def _design_check(code: int, text: str) -> list[str]:
    errors = _exit_ok(code)
    if code == cli.EXIT_OK and not float(_report_fields(text).get("H0_gauss", "nan")) > 0.0:
        errors.append("design reported no positive H0_gauss")
    return errors


def _one(code: int, text: str) -> int:
    return 1


def copy_shipped(root: Path, directory: Path) -> list[Path]:
    """Copy the shipped scenarios next to the generated ones."""
    out = []
    for path in sorted((root / "scenarios").glob("*.json")):
        target = directory / path.name
        shutil.copyfile(path, target)
        out.append(target)
    return out


def trajectory(shipped: list[Path], generated: list[Path], seed: int) -> list[Command]:
    commands = []
    for path in shipped + generated:
        scenario = cli.load_scenario(path)
        beamline = scenario.beamline()
        fine = repr(scenario.sample_dt_ns / 10.0)
        for prefix in ([], ["--sample-dt-ns", fine]):
            label = " ".join(["propagate", *prefix, path.name])
            commands.append(
                Command(
                    label=label,
                    kind="propagate",
                    execute=_cli([*prefix, "propagate", str(path), "-o", "-"]),
                    check=_trajectory_check(beamline, label, seed),
                    items=lambda code, text: _data_rows(text),
                    golden=GOLDEN[label] if path in shipped else None,
                )
            )
    return commands


def scan(shipped: list[Path], generated: list[Path]) -> list[Command]:
    commands = []
    for path in shipped + generated:
        raw = json.loads(path.read_text(encoding="utf-8"))
        sweeps = [(param, spec, gen.SWEEP_STEPS) for param, spec in gen.sweep_ranges(raw).items()]
        lo, hi = gen.N_PRIME_GRID
        sweeps.append(("n_prime", f"{lo}:{hi}", hi - lo + 1))
        argvs = [
            (f"sweep {param}", "sweep", ["sweep", str(path), "--param", param, "--range", spec, "--steps", str(steps)],
             _sweep_check(param, steps), lambda code, text: _data_rows(text))
            for param, spec, steps in sweeps
        ]
        argvs += [
            ("check", "check", ["check", str(path)], _check_check, _check_lenses),
            ("design matching-field", "design", ["design", str(path), "--mode", "matching-field"], _design_check, _one),
            ("design capture", "design", ["design", str(path), "--mode", "capture"], _design_check, _one),
        ]
        for name, kind, argv, check, items in argvs:
            label = f"{name} {path.name}"
            commands.append(
                Command(
                    label=label,
                    kind=kind,
                    execute=_cli(argv),
                    check=check,
                    items=items,
                    golden=GOLDEN[label] if path in shipped else None,
                )
            )
    return commands


def _gradient_inputs(path: Path) -> tuple[perturbation.ZerothOrderInputs, float]:
    scenario = cli.load_scenario(path)
    beamline = scenario.beamline()
    (index, entry), = lattice.entry_states(beamline)
    lens = beamline.elements[index]
    return perturbation.ZerothOrderInputs.from_entry_state(entry, lens, scenario.particle), lens.kappa


def _verify_command(inputs, kappa: float, label: str) -> Command:
    def execute() -> tuple[int, str]:
        result = perturbation.verify_closed_form(inputs, kappa, VERIFY_PERIODS, CLOSED_FORM_TOL)
        return 0, json.dumps([result.max_mismatch_over_peak, result.max_ode_residual_over_drive, result.consistent])

    def check(code: int, text: str) -> list[str]:
        mismatch, residual, consistent = json.loads(text)
        if consistent and mismatch <= CLOSED_FORM_TOL and residual <= CLOSED_FORM_TOL:
            return []
        return [f"closed form vs RK4: mismatch {mismatch:.3e}, residual {residual:.3e}"]

    return Command(label, "verify", execute, check, lambda code, text: VERIFY_POINTS)


def _quadrature_command(inputs, kappa: float, label: str) -> Command:
    period = 2.0 * math.pi / inputs.omega0
    t_end = QUADRATURE_PERIODS * period

    def execute() -> tuple[int, str]:
        integrated = perturbation.correction_by_quadrature(
            inputs, kappa, t_end, period / QUADRATURE_STEPS_PER_PERIOD
        )
        closed = perturbation.correction_closed_form(inputs, kappa, t_end)
        peak = max(abs(perturbation.correction_closed_form(inputs, kappa, t_end * j / 64)) for j in range(65))
        return 0, json.dumps([integrated.rho_sq_1, closed, peak])

    def check(code: int, text: str) -> list[str]:
        integrated, closed, peak = json.loads(text)
        if abs(integrated - closed) <= CLOSED_FORM_TOL * peak:
            return []
        return [f"quadrature {integrated!r} vs closed form {closed!r} (peak {peak!r})"]

    return Command(label, "quadrature", execute, check, _one)


def _grid_command(n: int) -> Command:
    def execute() -> tuple[int, str]:
        values = [
            (
                l,
                oracle.mode_velocity_coefficient_quadrature(n, l),
                oracle.lg_quadrature(n, abs(l), abs(l), 0),
            )
            for l in GRID_L
        ]
        return 0, json.dumps(values)

    def check(code: int, text: str) -> list[str]:
        errors = []
        for l, coefficient, moment in json.loads(text):
            if abs(coefficient / (2 * n + abs(l) + 1) - 1.0) > QUADRATURE_TOL:
                errors.append(f"mode velocity coefficient n={n} l={l}: {coefficient!r}")
            if abs(moment / oracle.y_moment_exact(n, abs(l)) - 1.0) > QUADRATURE_TOL:
                errors.append(f"Y moment n={n} l={l}: {moment!r}")
        return errors

    return Command(f"grid n={n}", "grid", execute, check, lambda code, text: 2 * len(GRID_L))


def verify(generated: list[Path]) -> list[Command]:
    commands = []
    for path in generated:
        inputs, kappa = _gradient_inputs(path)
        commands.append(_verify_command(inputs, kappa, f"verify_closed_form {path.name}"))
        commands.append(_verify_command(inputs, -kappa, f"verify_closed_form -kappa {path.name}"))
        commands.append(_quadrature_command(inputs, kappa, f"correction_by_quadrature {path.name}"))
    commands.extend(_grid_command(n) for n in GRID_N)
    return commands


def probe(root: Path, directory: Path) -> Command:
    """`propagate` of the shipped direct_capture scenario at its own step."""
    path = directory / "direct_capture.json"
    shutil.copyfile(root / "scenarios" / path.name, path)
    label = f"propagate {path.name}"
    return Command(
        label=label,
        kind="propagate",
        execute=_cli(["propagate", str(path), "-o", "-"]),
        check=lambda code, text: _exit_ok(code),
        items=_one,
        golden=GOLDEN[label],
    )


def build(workload: str, root: Path, directory: Path, seed: int) -> list[Command]:
    generated = gen.write_inputs(workload, seed, directory)
    if workload == "verify":
        return verify(generated)
    shipped = copy_shipped(root, directory)
    if workload == "trajectory":
        return trajectory(shipped, generated, seed)
    return scan(shipped, generated)
