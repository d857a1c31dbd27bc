"""Mutation sweep: which one-site changes to the source does the test suite miss?

Each mutant changes one site of one module and runs the suite on it with `-x`:

- an operator swap: `+ -`, `* /`, `< <=`, `> >=`, `== !=` (augmented assignments too);
- a condition of an `if`, a `while` or a conditional expression forced to True or to False;
- a call that stands as a statement deleted (replaced by `pass`).

The edit is spliced into the file's bytes, so the rest of the file is unchanged.
It runs in the tree of the current directory: src/ on PYTHONPATH, tests/ run.
Each swap is one `os.replace`, so the module is always whole: the original is
kept as a hard link, MODULE.orig, while its mutant stands in its place, and
is put back in a `finally` (SIGTERM included); a MODULE.orig that a killed
run left behind is put back before anything else.  Bytecode is not written
while a mutant is in place, and the mutant's mtime differs from the
original's, so no cached bytecode of either is read for the other.  A mutant
is killed when the suite fails, survived when it passes, and hung when it
outlives the time limit; a survivor listed in EQUIVALENT is recorded as
equivalent, with its reason.  The record at --out is written afresh, and
rewritten after every mutant.  The seed orders the mutants, so a run stopped
early has drawn a random sample of them.

    python tools/mutants.py --modules src/vortexlens/lattice.py src/vortexlens/moments.py \\
        --seed 1 --timeout 180 --out MUTANTS_core.json

A full run over the three core modules takes tens of minutes.  --only FILE:LINE
runs just the mutants of one line, to check that a new test kills them.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

SWAPS = {
    ast.Add: (b"+", b"-"), ast.Sub: (b"-", b"+"), ast.Mult: (b"*", b"/"), ast.Div: (b"/", b"*"),
    ast.Lt: (b"<", b"<="), ast.LtE: (b"<=", b"<"), ast.Gt: (b">", b">="), ast.GtE: (b">=", b">"),
    ast.Eq: (b"==", b"!="), ast.NotEq: (b"!=", b"=="),
}

# (file name, source of the mutated node, mutation): why the mutant cannot change what the code computes
EQUIVALENT = {
    ("lattice.py", 'name == "l"', "condition -> False"):
        "no CSV column reads the samples' l, and an l stored as a float64 compares equal to the int",
    ("lattice.py", "2 * filled >= len(samples)", ">= -> >"):
        "at exactly half filled a copy and the filled prefix hold the same rows; only the memory kept differs",
    ("moments.py", "not isinstance(keep, np.ndarray)", "condition -> False"):
        "speed only: a scalar keep comes only with scalar fields, where selecting builds an equal state",
    ("moments.py", "not any(isinstance(x, np.ndarray) for x in values)", "condition -> False"):
        "speed only: scalars through the array path give the same function value as the same float64",
    ("moments.py", "len({x.shape for x in arrays}) > 1", "condition -> True"):
        "speed only: broadcasting arrays that share one shape leaves them as they are",
    ("moments.py", "len({x.shape for x in arrays}) > 1", "> -> >="):
        "speed only: broadcasting arrays that share one shape leaves them as they are",
    ("moments.py", "abs(actual / float(required) - 1.0) <= MATCHED_TOLERANCE", "<= -> <"):
        "no tie: below 0.5, |x - 1| is a multiple of 2**-53, and MATCHED_TOLERANCE = 5e-3 is not",
    ("cli.py", "2.0**1000 < bad[0]", "< -> <="):
        "no tie at the first <: 2**1000 passes every check of an n_prime point, so it is never bad",
    ("cli.py", "values > 999_999_999_999", "> -> >="):
        "no tie: 999,999,999,999 prints the same digits under %d and under %.12g",
    ("cli.py", "whole", "condition -> False"):
        "speed only: %.12g and %d print a whole label below 10^12 with the same digits, as a float or an int64;"
        " %d on int64 labels is the cheaper path (BENCH_sweep_labels.json)",
    ("cli.py", "argv", "condition -> False"):
        "speed only: the top-level parser hands an argv that starts with a command to the same command parser;"
        " routing it there directly saves that parser's fixed cost (BENCH_fixed_cost.json)",
    ("cli.py", "command is None", "condition -> True"):
        "speed only: the top-level parser hands an argv that starts with a command to the same command parser;"
        " routing it there directly saves that parser's fixed cost (BENCH_fixed_cost.json)",
    ("units.py", 'must == "finite"', "condition -> False"):
        "speed only: (-inf < x) & (x < inf) is isfinite(x) in two passes: 5.5 against 2.8 us at 100 points,"
        " 9.1 against 6.1 us at 10k",
    ("oracle.py", "k_deriv == 0", "condition -> False"):
        "speed only: laguerre_derivative of order 0 is (-1)**0 times the same polynomial, bit for bit; evaluating"
        " it again costs about 1.1 ms of a 5.6 ms n = 4 verify grid command",
    ("oracle.py", "(2.0 * np.arange(spec.panels) + 1.0)[:, None] + x[None, :]", "+ -> -"):
        "numpy's leggauss gives mirror-symmetric nodes and weights, so mirrored panels hold the same node-weight"
        " pairs, summed in another order: 3.7e-16 relative at most on the n, |l| <= 12 diagonal moments",
}


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line, 1-based as ast numbers them (col_offset counts UTF-8 bytes)."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator_at(source: bytes, start: int, end: int, symbol: bytes) -> int:
    """Offset of symbol in the gap source[start:end] between two operands, outside comments."""
    pos = start
    for line in source[start:end].split(b"\n"):
        found = line.split(b"#")[0].find(symbol)
        if found >= 0:
            return pos + found
        pos += len(line) + 1
    raise LookupError(f"no {symbol!r} between offsets {start} and {end}")


def mutants(path: Path) -> list[dict]:
    """Every mutant of the module at path: its site, its label and the mutated bytes."""
    source = path.read_bytes()
    starts = _offsets(source)

    def at(line: int, col: int) -> int:
        return starts[line] + col

    def span(node: ast.AST) -> tuple[int, int]:
        return at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)

    found = []

    def add(site: tuple[int, int], label: str, start: int, end: int, text: bytes) -> None:
        mutated = source[:start] + text + source[end:]
        try:
            compile(mutated, str(path), "exec")
        except SyntaxError:
            return
        lo, hi = site
        line = bisect.bisect_right(starts, start) - 1  # the site is where the edit starts
        found.append({
            "line": line, "col": start - starts[line], "mutation": label,
            "source": source[lo:hi].decode(), "mutated": mutated,
        })

    def swap(node: ast.AST, op: ast.AST, left: ast.AST, right: ast.AST, site: tuple[int, int] | None = None) -> None:
        if type(op) not in SWAPS:
            return
        old, new = SWAPS[type(op)]
        if isinstance(node, ast.AugAssign):
            old, new = old + b"=", new + b"="
        pos = _operator_at(source, span(left)[1], span(right)[0], old)
        add(site or span(node), f"{old.decode()} -> {new.decode()}", pos, pos + len(old), new)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            swap(node, node.op, node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            swap(node, node.op, node.target, node.value)
        elif isinstance(node, ast.Compare):
            # each pair of a chained comparison is its own site, `left op right`; the node's own ends keep
            # the brackets around its first and last operand
            (lo, hi), operands, last = span(node), [node.left, *node.comparators], len(node.ops) - 1
            for k, op in enumerate(node.ops):
                pair = (span(operands[k])[0] if k else lo, span(operands[k + 1])[1] if k < last else hi)
                swap(node, op, operands[k], operands[k + 1], pair)
        if isinstance(node, (ast.If, ast.While, ast.IfExp)) and not isinstance(node.test, ast.Constant):
            for value in (True, False):
                add(span(node.test), f"condition -> {value}", *span(node.test), str(value).encode())
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            add(span(node), "delete call", *span(node), b"pass")
    return found


def run_suite(root: Path, tests: list[str], timeout: float, seed: int) -> str:
    """killed, survived or hung: the suite's verdict on the tree at root.  Hypothesis draws from seed, so every
    mutant meets the same draws, and a seeded run neither reads nor writes the example database."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"--hypothesis-seed={seed}", *tests]
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return "survived" if proc.wait(timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "hung"
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)  # the suite's own child interpreters too
            proc.wait()


def suite_order(root: Path, module: Path) -> list[str]:
    """The module's own test file first, then the rest in name order.  The tests of this
    tool and of its records are left out: they check EQUIVALENT against the source, so a mutant at
    an equivalent site would fail them and not the library's tests."""
    files = sorted(p.relative_to(root).as_posix() for p in (root / "tests").glob("test_*.py"))
    files = [f for f in files if f != "tests/test_mutants.py"]
    own = f"tests/test_{module.stem}.py"
    return sorted(files, key=lambda f: f != own)


def swap(path: Path, mutated: bytes) -> None:
    """Put mutated in path's place, dated 2 s after it, keeping the original as path.orig."""
    backup, staged = path.with_name(path.name + ".orig"), path.with_name(path.name + ".mutant")
    stat = path.stat()
    staged.write_bytes(mutated)
    os.utime(staged, ns=(stat.st_atime_ns, stat.st_mtime_ns + 2_000_000_000))
    os.link(path, backup)
    os.replace(staged, path)


def restore(path: Path) -> None:
    """Put the original back from path.orig, if it is there: its bytes and its times."""
    backup = path.with_name(path.name + ".orig")
    if backup.exists():
        os.replace(backup, path)
        backup.unlink(missing_ok=True)  # still there if path was its hard link: a stop came before the swap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", required=True, help="module paths, relative to the tree")
    parser.add_argument(
        "--seed", type=int, default=0, help="orders the mutants (a run stopped early is a sample) and seeds hypothesis"
    )
    parser.add_argument("--timeout", type=float, default=180.0, help="seconds per mutant before it counts as hung")
    parser.add_argument("--out", required=True, help="the JSON record, rewritten after every mutant")
    parser.add_argument("--only", action="append", default=[], metavar="FILE:LINE", help="run only these lines")
    args = parser.parse_args(argv)
    root = Path.cwd()
    for module in args.modules:
        restore(root / module)
    todo = [(Path(m), site) for m in args.modules for site in mutants(root / m)]
    if args.only:
        todo = [(m, s) for m, s in todo if f"{m.name}:{s['line']}" in args.only]
    random.Random(args.seed).shuffle(todo)
    records = []
    for module, site in todo:
        path = root / module
        began = time.monotonic()
        try:
            swap(path, site["mutated"])
            status = run_suite(root, suite_order(root, module), args.timeout, args.seed)
        finally:
            restore(path)
        record = {"file": module.as_posix(), **{k: site[k] for k in ("line", "col", "mutation", "source")}}
        reason = EQUIVALENT.get((module.name, site["source"], site["mutation"]))
        if status == "survived" and reason:
            status, record["reason"] = "equivalent", reason
        records.append({**record, "status": status, "seconds": round(time.monotonic() - began, 1)})
        records.sort(key=lambda r: (r["file"], r["line"], r["col"], r["mutation"]))
        counts = {s: sum(r["status"] == s for r in records) for s in ("killed", "survived", "hung", "equivalent")}
        summary = {"seed": args.seed, "modules": args.modules, "timeout_s": args.timeout, "counts": counts}
        Path(args.out).write_text(json.dumps({**summary, "mutants": records}, indent=1) + "\n", encoding="utf-8")
        print(f"{record['file']}:{record['line']} {record['mutation']}: {status}", flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # a stop runs each finally
    sys.exit(main())
