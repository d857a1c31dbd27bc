"""The console checks: `vortexlens ARGV`, every run held to one set of rules.

Each row of ROWS gives the argv, the scenario it runs on (a shipped one, or the
name of an edit to a shipped one in EDITS), the exit codes it may end with and
a stderr rule.  `run` holds every run to the same base rules: its stderr holds
no Traceback and no RuntimeWarning; a run that exits 1 prints exactly one
`error: ` line and one that exits 5 exactly one `design: ` line, and neither
writes to stdout; a CSV written to an `-o` file starts with its header.  A
row's own rule maps line patterns to the number of stderr lines that match
each, or gives the whole stderr text.  Runs that chain commands are the three
tests after the table.  A run calls `cli.main(argv)` in this process; a fresh
row runs `python -m vortexlens.cli ARGV` in a new interpreter, which inherits
PYTHONPATH, because a fresh import is what it tests: each command once on
capture_transport.json (the `__main__` route, main() reading sys.argv) and the
kappa rows (one warning per process).
"""

import functools
import io
import json
import operator
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from vortexlens.cli import CSV_COLUMNS, EXIT_CHECK_FAILED, EXIT_DESIGN, EXIT_OK, EXIT_OVERFOCUS, EXIT_SCHEMA, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(SCENARIOS.glob("*.json"))  # a new scenario joins every loop below
CAPTURE = SCENARIOS / "capture_transport.json"
GRADIENT = SCENARIOS / "gradient_perturbed.json"

VERDICT = (EXIT_OK, EXIT_OVERFOCUS, EXIT_CHECK_FAILED, EXIT_DESIGN)  # done, over-focus truncation, failed check, no design
WALKED = (EXIT_OK, EXIT_OVERFOCUS)  # done, over-focus truncation: no shipped scenario reaches the relativistic bound
CHECKED = (EXIT_OK, EXIT_CHECK_FAILED)
H0_SWEEP = "--param H0_gauss --range 50:150 --steps 101"


def lens(**fields):
    return {("beamline", 1, key): value for key, value in fields.items()}


EDITS = {  # name: (shipped scenario, {key path: value}); "@n" is written as a JSON integer of n digits, 1 and then
    # zeros, since json.dumps stops at int()'s digit limit
    "inf_drift": (CAPTURE, {("beamline", 0, "duration_ns"): 1e308}),  # inf in natural units
    "float_range": (CAPTURE, lens(H0_gauss="@401")),
    "orbit_range": (CAPTURE, lens(H0_gauss=1e-152)),  # the field loads; the lens orbit's centre overflows
    "digit_limit": (CAPTURE, lens(n_prime="@5001")),
    "n_prime_bound": (CAPTURE, lens(n_prime="@401")),
    "mixed": (GRADIENT, lens(kappa_M=0.05, kappa_E=0.02)),
    "soft": (GRADIENT, lens(kappa_M=0.15, kappa_E=0.15)),
    "soft_mixed": (GRADIENT, lens(kappa_M=0.15, kappa_E=0.05)),
    "unusable": (CAPTURE, {("packet", "sigma_r_um"): 1e146}),
    "wide": (CAPTURE, {("packet", "sigma_r_um"): 1e78}),  # the matching field is a float, its omega0^2 is not
    "usable": (CAPTURE, {("packet", "sigma_r_um"): 1e77}),
}


def write(shipped, edit, path):
    data = json.loads(shipped.read_text(encoding="utf-8"))
    for (*keys, last), value in edit.items():
        functools.reduce(operator.getitem, keys, data)[last] = value
    path.write_text(re.sub(r'"@(\d+)"', lambda m: "1" + "0" * (int(m[1]) - 1), json.dumps(data)), encoding="utf-8")
    return path


def run(args, codes, rule=None, fresh=False):
    """Run the console on args and hold it to the base rules and rule; returns its stdout.  In this process,
    SystemExit is caught and each warning is printed to the captured stderr as the interpreter prints it."""
    args = [str(a) for a in args]
    if fresh:
        proc = subprocess.run([sys.executable, "-m", "vortexlens.cli", *args], capture_output=True, text=True)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(args)
            except SystemExit as exc:  # argparse's --help
                code = exc.code
        stderr.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line) for w in caught)
        out, err = stdout.getvalue(), stderr.getvalue()
    lines = err.splitlines()
    assert code in codes, err
    assert "Traceback" not in err and "RuntimeWarning" not in err, err
    if code in (EXIT_SCHEMA, EXIT_DESIGN):
        one = "error: " if code == EXIT_SCHEMA else "design: "
        assert out == "" and sum(line.startswith(one) for line in lines) == 1, err
    if "-o" in args and code == EXIT_OK and (path := Path(args[args.index("-o") + 1])).is_file():
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    if isinstance(rule, str):
        assert err == rule
    elif rule:
        for pattern, count in rule.items():
            assert sum(bool(re.search(pattern, line)) for line in lines) == count, err
    return out


def row(argv, scenario, codes, rule=None, fresh=False):
    label = scenario.stem if isinstance(scenario, Path) else scenario
    return pytest.param(argv, scenario, codes, rule, fresh, id=argv.replace("{scenario}", str(label)) or "(no argv)")


ROWS = [
    # every command on every shipped scenario ends in a verdict; once through `python -m`
    *(row(f"{cmd} {{scenario}}", f, VERDICT, fresh=f == CAPTURE) for f in SHIPPED for cmd in (
        "check", "propagate -o /dev/null", "design --mode matching-field", "design --mode capture",
        f"sweep {H0_SWEEP}")),
    # the array path of every swept parameter
    *(row(f"sweep {{scenario}} --param {sweep}", f, VERDICT) for f in SHIPPED for sweep in (
        "sigma_r_um --range 0.3:1.0 --steps 101", "t1_ns --range 0.1:1.0 --steps 101", "n_prime --range 0:3 --steps 4")),
    *(row(f"--sample-dt-ns {step} propagate {{scenario}}", f, (EXIT_SCHEMA,)) for f in SHIPPED for step in ("nan", "inf")),
    # an unwritable output path
    row("propagate {scenario} -o {tmp}", CAPTURE, (EXIT_SCHEMA,)),
    row("design {scenario} --mode capture --emit-scenario {tmp}/missing/designed.json", CAPTURE, (EXIT_SCHEMA,)),
    # a bad or missing argument exits 1, not argparse's 2
    *(row(cmd, CAPTURE, (EXIT_SCHEMA,)) for cmd in ("", "no-such-command {scenario}", "design {scenario} --mode nowhere",
        "sweep {scenario} --param H0_gauss --range 50:150 --steps abc", "--sample-dt-ns x propagate {scenario}",
        "sweep {scenario} --param t1_ns --range -0:2 --steps 3")),
    row("propagate", None, (EXIT_SCHEMA,), "error: the following arguments are required: scenario\n"),
    *(row(cmd, "inf_drift", (EXIT_SCHEMA,)) for cmd in ("check {scenario}", f"sweep {{scenario}} {H0_SWEEP}")),
    # an integer past the float range, past int()'s digit limit, or an n_prime past 2**1000
    *(row("check {scenario}", edit, (EXIT_SCHEMA,)) for edit in ("float_range", "digit_limit")),
    # a lens orbit past the float range: one line, not a traceback
    *(row(f"{cmd} {{scenario}}", "orbit_range", (EXIT_SCHEMA,), "error: rho_sq_st must be finite, got inf\n")
      for cmd in ("check", "propagate -o /dev/null", "design --mode capture")),
    *(row(f"{cmd} {{scenario}}", "n_prime_bound", (EXIT_SCHEMA,)) for cmd in (
        "check", "sweep --param n_prime --range 0:3 --steps 4", "design --mode matching-field")),
    row("sweep {scenario} --param n_prime --range 0:1e302 --steps 3", CAPTURE, (EXIT_SCHEMA,),
        {r"^error: sweep point n_prime=5e\+301: n_prime must not exceed 2\*\*1000$": 1}),
    # unequal kappa_M and kappa_E are rejected, and a rejected lens does not warn; kappa 0.15 warns once per process
    *(row(f"{cmd} {{scenario}}", "mixed", (EXIT_SCHEMA,)) for cmd in (
        "check", "propagate -o /dev/null", "design --mode capture", f"sweep {H0_SWEEP}")),
    row("check {scenario}", "soft_mixed", (EXIT_SCHEMA,), {"InhomogeneityWarning": 0}, fresh=True),
    row("check {scenario}", "soft", CHECKED, {"InhomogeneityWarning": 1}, fresh=True),
    row(f"sweep {{scenario}} {H0_SWEEP}", "soft", CHECKED, {"InhomogeneityWarning": 1}, fresh=True),
    # a field no lens can use is no design, and the matching field names why
    *(row(f"design {{scenario}} --mode {mode}", "unusable", (EXIT_DESIGN,)) for mode in ("matching-field", "capture")),
    row("design {scenario} --mode matching-field", "wide", (EXIT_DESIGN,), {r"^design: .*omega0 \* omega0": 1}),
    # options before the command, on the success path
    *(row(cmd, f, codes) for f in SHIPPED for cmd, codes in (
        ("--strict propagate {scenario}", WALKED), ("--strict propagate {scenario} -o /dev/null", WALKED),
        ("--sample-dt-ns 0.01 check {scenario}", VERDICT))),
    row("propagate {scenario} -o {tmp}/cli.csv", CAPTURE, (EXIT_OK,)),
]


@pytest.mark.parametrize("argv, scenario, codes, rule, fresh", ROWS)
def test_console(tmp_path, argv, scenario, codes, rule, fresh):
    if isinstance(scenario, str):
        scenario = write(*EDITS[scenario], tmp_path / f"{scenario}.json")
    run([arg.format(scenario=scenario, tmp=tmp_path) for arg in argv.split()], codes, rule, fresh)


@pytest.mark.parametrize("shipped", SHIPPED, ids=lambda f: f.stem)
def test_emitted_capture_design_loads_checks_and_propagates(tmp_path, shipped):
    designed = tmp_path / "designed.json"
    run(["design", shipped, "--mode", "capture", "--emit-scenario", designed], (EXIT_OK,))
    run(["check", designed], CHECKED)  # a capture lens is not a matched level: check may fail
    run(["propagate", "-o", "/dev/null", designed], (EXIT_OK, EXIT_OVERFOCUS))


def test_usable_matching_field_written_into_the_lens_checks(tmp_path):
    shipped, edit = EDITS["usable"]
    path = write(shipped, edit, tmp_path / "usable.json")
    out = run(["design", path, "--mode", "matching-field"], (EXIT_OK,))
    field = float(re.search(r"^H0_gauss: (.*)$", out, re.M)[1])
    run(["check", write(shipped, {**edit, **lens(H0_gauss=field)}, path)], CHECKED)


@pytest.mark.parametrize("spec_range, steps", [("-0:-0", 1), ("999999999998:1000000000002", 5)])
def test_n_prime_sweep_labels_are_the_grid_in_12g(spec_range, steps):
    argv = ["sweep", CAPTURE, "--param", "n_prime", f"--range={spec_range}", "--steps", steps]
    out = run(argv, (EXIT_OK,))
    lo, hi = map(float, spec_range.split(":"))
    grid = [lo] if steps == 1 or lo == hi else [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["%.12g" % v for v in grid]
