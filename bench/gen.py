"""Seeded scenario generation for the benchmark workloads.

Everything here is plain Python with its own copy of the physical
constants, so the generated files depend only on the seed and never on the
package under test: the same seed gives byte-identical files on every
commit.  Sizes are drawn by stratified sampling (one draw per equal-width
stratum), so the spread of work across commands is nearly the same for
every seed and only the details move.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HBAR_JS = 1.054571817e-34
CHARGE_C = 1.602176634e-19
LIGHT_M_PER_S = 299792458.0
ELECTRON_EV = 510998.95
HBAR_EV_S = HBAR_JS / CHARGE_C
HBARC_EV_M = HBAR_EV_S * LIGHT_M_PER_S

# Over-focus sets in when the first drift exceeds about 1.56 t_s in front of
# a matched lens (acceptance criterion 6); stay well clear on either side.
TRANSPORT_DRIFT_X = (0.3, 1.2)
OVERFOCUS_DRIFT_X = (2.0, 2.8)
OVERFOCUS_EVERY = 6
MAX_DRAWS = 1000
SWEEP_STEPS = 1000
N_PRIME_GRID = (0, 999)

TRAJECTORY_LINES = 45
SCAN_LINES = 24
VERIFY_LENSES = 8


def matching_field_gauss(n: int, l: int, n_prime: int, sigma_m: float) -> float:
    """Solenoid field whose magnetic radius matches the packet waist."""
    ratio = 4.0 * (2 * n_prime + abs(l) + l + 1) / (2 * n + abs(l) + 1)
    h_tesla = 4.0 * HBAR_JS / (CHARGE_C * ratio * sigma_m**2)
    return h_tesla * 1e4


def cyclotron_period_ns(h_gauss: float) -> float:
    omega = (h_gauss / 1e4) * LIGHT_M_PER_S**2 / ELECTRON_EV
    return 2.0 * math.pi / omega * 1e9


def spreading_time_ns(n: int, l: int, sigma_m: float) -> float:
    """Diffraction time over sqrt(2n + |l| + 1), the over-focus time scale."""
    t_d = ELECTRON_EV * (sigma_m / HBARC_EV_M) ** 2 * HBAR_EV_S
    return t_d / math.sqrt(2 * n + abs(l) + 1) * 1e9


def screen(raw: dict) -> tuple[str, float]:
    """Classify a beamline with the transverse closed forms.

    Returns the class and the time reached in ns: ('clean', end of line),
    ('overfocus', about where a lens drives <rho^2> to zero) or
    ('invalid', 0).  'invalid' marks a line whose lens exit state would make
    <rho^2> negative in a following drift: the package raises a ValueError
    on such a line (a model defect, see BENCHMARK.json), so the generator
    draws again.  Margins of 1e-3 of the entry radius keep each class clear
    of the boundary.  Natural units, as in the package.
    """
    m = ELECTRON_EV
    packet = raw["packet"]
    sigma = packet["sigma_r_um"] * 1e-6 / HBARC_EV_M
    u2 = (2 * packet["n"] + abs(packet["l"]) + 1) / (m * sigma) ** 2
    l = packet["l"]
    r, dr = sigma**2, 0.0
    elapsed_ns = 0.0
    for element in raw["beamline"]:
        t = element["duration_ns"] * 1e-9 / HBAR_EV_S
        margin = 1e-3 * r
        if element["type"] == "drift":
            t_min = min(max(-dr / (2.0 * u2), 0.0), t)
            if r + dr * t_min + u2 * t_min**2 <= margin:
                return "invalid", 0.0
            r, dr = r + dr * t + u2 * t * t, dr + 2.0 * u2 * t
        else:
            w = (element["H0_gauss"] / 1e4) * LIGHT_M_PER_S**2 / m * HBAR_EV_S
            center = (2.0 * u2 - 2.0 * w * l / m) / (w * w)
            a_cos, a_sin = r - center, dr / w
            # 64 samples per period resolve the dip well inside the margin
            steps = max(64, int(64 * w * t / (2.0 * math.pi)))
            for k in range(steps + 1):
                phase = w * t * k / steps
                value = center + a_cos * math.cos(phase) + a_sin * math.sin(phase)
                if value <= -margin:
                    return "overfocus", elapsed_ns + element["duration_ns"] * k / steps
                if value <= margin:
                    return "invalid", 0.0
            r = center + a_cos * math.cos(w * t) + a_sin * math.sin(w * t)
            dr = w * (-a_cos * math.sin(w * t) + a_sin * math.cos(w * t))
        elapsed_ns += element["duration_ns"]
    return "clean", elapsed_ns


def _line(rng: random.Random, length: int, overfocus: bool, drifts_after_lenses: bool) -> dict:
    n, l, sigma_m = _packet(rng)
    t_s = spreading_time_ns(n, l, sigma_m)
    x_lo, x_hi = OVERFOCUS_DRIFT_X if overfocus else TRANSPORT_DRIFT_X
    elements = [{"type": "drift", "duration_ns": rng.uniform(x_lo, x_hi) * t_s}]
    while len(elements) < length:
        if elements[-1]["type"] == "lens" and drifts_after_lenses:
            elements.append({"type": "drift", "duration_ns": rng.uniform(0.05, 0.5) * t_s})
            continue
        n_prime = rng.randint(0, 2)
        h = matching_field_gauss(n, l, n_prime, sigma_m) * rng.uniform(0.95, 1.05)
        elements.append(
            {
                "type": "lens",
                "H0_gauss": h,
                "duration_ns": rng.uniform(1.0, 4.0) * cyclotron_period_ns(h),
                "length_m": 0.1,
                "E0_V_per_m": 0.0,
                "n_prime": n_prime,
            }
        )
    return _scenario(rng, n, l, sigma_m, elements)


def _packet(rng) -> tuple[int, int, float]:
    n = rng.randint(0, 2)
    l = rng.choice([k for k in range(-6, 7) if k != 0])
    return n, l, rng.uniform(0.45, 0.75) * 1e-6


def _scenario(rng, n: int, l: int, sigma_m: float, elements: list[dict]) -> dict:
    """An electron scenario with the packet focused at t = 0 and p0 in [0.2, 1] eV."""
    return {
        "schema_version": 1,
        "particle": {"mass_eV": ELECTRON_EV, "charge_sign": -1},
        "packet": {"n": n, "l": l, "sigma_r_um": sigma_m * 1e6, "focus_time_ns": 0.0},
        "p0_eV": rng.uniform(0.2, 1.0),
        "beamline": elements,
    }


def beamlines(seed: int, count: int, drifts_after_lenses: bool = True) -> list[dict]:
    """Drift-first beamlines of 2 to 6 elements.

    With drifts_after_lenses the elements alternate drift and lens; without,
    one drift is followed only by lenses.  A sweep moves the entry state of
    every element downstream of the swept one, and a drift after a lens can
    then reach the negative-radius defect the screen steers around, so the
    sweep workload uses lines without such drifts.

    Line k draws its base sample count from stratum k of a log-uniform
    [1e2, 1e3], counted up to the over-focus point on lines that truncate,
    so the 10x finer run of the same line gives 1e3 to 1e4 samples.  It has
    2 + k % 5 elements, and every OVERFOCUS_EVERY-th line over-focuses in
    some lens while the others pass every lens (both by the screen).  Two
    lenses in five carry a gradient and one in four an accelerating field;
    neither moves <rho^2> at zeroth order, so they are assigned after the
    screen.  Sizes, lengths and these patterns are the same for every seed,
    so the spread of work across commands barely moves with it.
    """
    rng = random.Random(seed)
    lines = []
    lens_number = 0
    for k in range(count):
        size = (k + rng.random()) / count
        want = "overfocus" if k % OVERFOCUS_EVERY == 0 else "clean"
        for _ in range(MAX_DRAWS):
            raw = _line(rng, 2 + k % 5, want == "overfocus", drifts_after_lenses)
            verdict, reached_ns = screen(raw)
            if verdict == want:
                break
        else:
            raise RuntimeError(f"no {want} line in {MAX_DRAWS} draws (seed {seed}, line {k})")
        for element in raw["beamline"]:
            if element["type"] != "lens":
                continue
            if lens_number % 4 == 0:
                element["E0_V_per_m"] = rng.uniform(1e5, 5e6)
            if lens_number % 5 in (1, 3):
                element["kappa_M"] = element["kappa_E"] = rng.uniform(0.005, 0.1)
            lens_number += 1
        raw["output"] = {"sample_dt_ns": reached_ns / 10.0 ** (2.0 + size)}
        lines.append(raw)
    return lines


def verify_lenses(seed: int, count: int) -> list[dict]:
    """One drift and one gradient lens each, for the oracle cross-checks.

    kappa in [0.02, 0.1] with a random sign, E0 zero for half of them and up
    to 25 MV/m (the acceptance test's drive) for the other half.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, l, sigma_m = _packet(rng)
        kappa = rng.uniform(0.02, 0.1) * rng.choice((-1.0, 1.0))
        h = matching_field_gauss(n, l, 0, sigma_m) * rng.uniform(0.9, 1.1)
        elements = [
            {
                "type": "drift",
                "duration_ns": rng.uniform(*TRANSPORT_DRIFT_X) * spreading_time_ns(n, l, sigma_m),
            },
            {
                "type": "lens",
                "H0_gauss": h,
                "duration_ns": 5.0 * cyclotron_period_ns(h),
                "length_m": 0.1,
                "E0_V_per_m": rng.uniform(1e6, 2.5e7) if i % 2 else 0.0,
                "kappa_M": kappa,
                "kappa_E": kappa,
            },
        ]
        out.append(_scenario(rng, n, l, sigma_m, elements))
    return out


def sweep_ranges(raw: dict) -> dict[str, str]:
    """Valid `--range` strings around the line's own first lens and drift.

    Every grid point keeps H0, sigma_r and t1 positive and finite: sweeps at
    zero or NaN crash today and are not what this benchmark measures.
    """
    lens = next(e for e in raw["beamline"] if e["type"] == "lens")
    h = lens["H0_gauss"]
    sigma = raw["packet"]["sigma_r_um"]
    t1 = raw["beamline"][0]["duration_ns"]
    return {
        "H0_gauss": f"{0.5 * h!r}:{1.5 * h!r}",
        "sigma_r_um": f"{0.5 * sigma!r}:{1.5 * sigma!r}",
        "t1_ns": f"{0.1 * t1!r}:{3.0 * t1!r}",
    }


def serialize(raw: dict) -> str:
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def write_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's generated scenario files; return them in order."""
    if workload == "verify":
        raws = verify_lenses(seed, VERIFY_LENSES)
    else:
        raws = (
            beamlines(seed, TRAJECTORY_LINES)
            if workload == "trajectory"
            else beamlines(seed, SCAN_LINES, drifts_after_lenses=False)
        )
    paths = []
    for i, raw in enumerate(raws):
        path = directory / f"{workload}_{seed}_{i:03d}.json"
        path.write_text(serialize(raw), encoding="utf-8")
        paths.append(path)
    return paths


def digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
