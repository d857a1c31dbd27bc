"""Spans around calls into the package's modules, recorded from outside.

Each traced function is replaced at the module attribute its caller looks
up at call time (cli.run, not lattice.run, because the CLI imported the
name), so no file of the package changes.  A span is (name, start, end,
parent span, command id); spans live in flat arrays in memory and are
written out once, after the run.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np


def _rows(args, kwargs, result):
    return len(result) - 1  # header line excluded


def _samples(args, kwargs, result):
    return len(result.samples)


def _sweep_points(args, kwargs, result):
    # cmd_sweep(scenario, param, spec_range, steps)
    lo, hi = args[2].split(":", 1)
    return 1 if float(lo) == float(hi) else args[3]


def _rk4_steps(args, kwargs, result):
    return len(result[0]) - 1


def _gl_nodes(args, kwargs, result):
    spec = args[0]
    return spec.panels * spec.order


# (module, attribute, span name, work counter name, work counter)
TARGETS = (
    ("vortexlens.cli", "load_scenario", "cli.load_scenario", None, None),
    ("vortexlens.cli", "trajectory_rows", "cli.trajectory_rows", "rows", _rows),
    ("vortexlens.cli", "cmd_sweep", "cli.cmd_sweep", "points", _sweep_points),
    ("vortexlens.cli", "run", "lattice.run", "samples", _samples),
    ("vortexlens.cli", "entry_states", "lattice.entry_states", None, None),
    ("vortexlens.cli", "state_at", "lattice.state_at", None, None),
    ("vortexlens.cli", "transport_check", "moments.transport_check", None, None),
    ("vortexlens.lattice", "lens_state_at", "moments.lens_state_at", None, None),
    ("vortexlens.lattice", "propagate_drift", "moments.propagate_drift", None, None),
    ("vortexlens.lattice", "correction_closed_form", "perturbation.correction_closed_form", None, None),
    ("vortexlens.perturbation", "correction_closed_form", "perturbation.correction_closed_form", None, None),
    ("vortexlens.perturbation", "verify_closed_form", "perturbation.verify_closed_form", None, None),
    ("vortexlens.perturbation", "correction_by_quadrature", "perturbation.correction_by_quadrature", None, None),
    ("vortexlens.perturbation", "integrate_rk4", "oracle.integrate_rk4", "steps", _rk4_steps),
    ("vortexlens.oracle", "gauss_legendre_integral", "oracle.gauss_legendre_integral", "nodes", _gl_nodes),
)
CLASSMETHOD_TARGETS = (("vortexlens.moments", "LensOrbit", "from_entry", "moments.LensOrbit.from_entry"),)


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.work: dict[str, int] = {}
        self.command_id = -1
        self._stack: list[list] = []  # [span index, child time]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> list:
        index = len(self.name)
        parent = self._stack[-1][0] if self._stack else -1
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.parent.append(parent)
        self.command.append(self.command_id)
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        index, child_time = frame
        duration = end - start
        self.start[index] = start
        self.end[index] = end
        self.self_time[index] = duration - child_time
        if self._stack:
            self._stack[-1][1] += duration

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time s, self time s and work counters."""
        names = np.frombuffer(self.name, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_time = np.frombuffer(self.self_time)
        out = {}
        for i, name in enumerate(self.names):
            mask = names == i
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        for key, value in self.work.items():
            name, counter = key.rsplit(".", 1)
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[counter] = value
        return out

    def counts(self) -> dict[str, int]:
        """Exact counts only (calls and work counters), for run-to-run equality."""
        return {
            f"{name}.{key}": value
            for name, fields in self.summary().items()
            for key, value in fields.items()
            if key not in ("s", "self_s")
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
        )


class Instrumentation:
    """Installs the span wrappers; `tracer` selects where spans go.

    With tracer None every wrapper calls straight through, which is how the
    benchmark's own output checks run while the wrappers are installed.
    """

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter: str | None, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            frame = tracer.open(tracer.name_id(name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame, start, time.perf_counter())
            if work is not None:
                key = f"{name}.{counter}"
                tracer.work[key] = tracer.work.get(key, 0) + work(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attribute, name, counter, work in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._restore.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name, counter, work))
        for module_name, class_name, attribute, name in CLASSMETHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attribute]
            self._restore.append((cls, attribute, original))
            setattr(cls, attribute, classmethod(self._wrap(original.__func__, name, None, None)))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()
