"""The pinned golden outputs of the shipped scenarios, replayed in-process.

bench/golden.json holds the SHA-256 of (exit code, stdout) for every
`propagate`, `check`, `design` and `sweep` command that the benchmark runs
on the shipped scenarios.  Each command here is the benchmark's own, built by
bench/workloads.py and checked by its verify(): the digest, and the output
checks the benchmark makes (`state_at` agreement of sampled CSV rows, sweep
and check consistency).
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    shipped = workloads.copy_shipped(ROOT, tmp_path_factory.mktemp("shipped"))
    built = workloads.trajectory(shipped, [], 1) + workloads.scan(shipped, [])
    return {command.label: command for command in built}


def test_every_golden_label_is_a_command(commands):
    assert sorted(commands) == sorted(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_digest(commands, label):
    command = commands[label]
    assert command.verify(*command.execute()) == []
