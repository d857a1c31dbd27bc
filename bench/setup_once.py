"""One cold set-up, timed from outside by run_bench.py.

Usage: python3 bench/setup_once.py WORKLOAD SEED DIR

Imports vortexlens.cli (numpy included), writes the workload's generated
scenarios into DIR, loads them and the shipped ones with load_scenario, and
prints the digest of the generated files.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import vortexlens.cli  # noqa: E402  (the import is part of what is timed)

import gen  # noqa: E402


def main() -> None:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    generated = gen.write_inputs(workload, seed, directory)
    shipped = [] if workload == "verify" else sorted((ROOT / "scenarios").glob("*.json"))
    for path in shipped + generated:
        vortexlens.cli.load_scenario(path)
    print(gen.digest_files(generated))


if __name__ == "__main__":
    main()
