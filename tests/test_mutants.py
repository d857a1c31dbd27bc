"""tools/mutants.py on a temporary tree: one mutant is run, recorded and undone.  And the checked-in
records against the tree as it stands, with no suite run: no mutant left unresolved, and no
equivalence claimed for a mutant that the source no longer has."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"
RECORDS = sorted(ROOT.glob("MUTANTS_*.json"))


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy_tree(root, module, test):
    """A tree at root with src/toy.py and tests/test_toy.py, as the current directory; returns the module."""
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "src" / "toy.py").write_text(module, encoding="utf-8")
    (root / "tests" / "test_toy.py").write_text(test, encoding="utf-8")
    return root / "src" / "toy.py"


def run_tool(tool, *options):
    assert tool.main(["--modules", "src/toy.py", "--timeout", "60", "--out", "MUTANTS.json", *options]) == 0
    return json.loads(Path("MUTANTS.json").read_text(encoding="utf-8"))


def test_one_mutant_writes_its_record_and_restores_the_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    module = toy_tree(tmp_path, "def add(a, b):\n    return a + b  # the one site\n",
                      "from toy import add\n\n\ndef test_add():\n    assert add(2, 3) == 5\n")
    before, mtime = module.read_bytes(), module.stat().st_mtime_ns
    record = run_tool(load_tool(), "--seed", "3")
    assert module.read_bytes() == before and module.stat().st_mtime_ns == mtime
    assert sorted(p.name for p in module.parent.iterdir()) == ["toy.py"]
    assert record["counts"] == {"killed": 1, "survived": 0, "hung": 0, "equivalent": 0}
    (mutant,) = record["mutants"]
    assert {k: mutant[k] for k in ("file", "line", "col", "mutation", "source", "status")} == {
        "file": "src/toy.py", "line": 2, "col": 13, "mutation": "+ -> -", "source": "a + b", "status": "killed",
    }


def test_a_backup_left_by_a_killed_run_is_put_back_first(tmp_path, monkeypatch):
    module = tmp_path / "src" / "toy.py"
    module.parent.mkdir()
    backup = module.with_name("toy.py.orig")
    backup.write_text("original\n", encoding="utf-8")
    module.write_text("mutant\n", encoding="utf-8")  # stopped while a mutant stood in place
    other = tmp_path / "src" / "other.py"
    other.write_text("original\n", encoding="utf-8")
    other.with_name("other.py.orig").hardlink_to(other)  # stopped between keeping the original and the swap
    monkeypatch.chdir(tmp_path)
    assert load_tool().main(["--modules", "src/toy.py", "src/other.py", "--only", "toy.py:99", "--out", "M.json"]) == 0
    assert module.read_text(encoding="utf-8") == other.read_text(encoding="utf-8") == "original\n"
    assert sorted(p.name for p in module.parent.iterdir()) == ["other.py", "toy.py"]


def test_each_pair_of_a_chained_comparison_is_its_own_site(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    toy_tree(tmp_path, "def between(a, b, c):\n    return a < b < c\n",
             "from toy import between\n\n\ndef test_between():\n    assert between(1, 2, 3)\n")
    tool = load_tool()
    monkeypatch.setattr(tool, "EQUIVALENT", {("toy.py", "a < b", "< -> <="): "listed"})
    record = run_tool(tool)
    assert [(m["col"], m["source"], m["status"], m.get("reason")) for m in record["mutants"]] == [
        (13, "a < b", "equivalent", "listed"), (17, "b < c", "survived", None),
    ]


def test_every_mutant_meets_the_same_hypothesis_draws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    toy_tree(tmp_path, "def below(x):\n    return x < 0.5\n", (
        "from hypothesis import given, strategies as st\nfrom toy import below\n\n\n"
        "@given(st.floats(0, 1))\ndef test_below(x):\n    assert below(x) == (x < 0.5)\n"))
    tool = load_tool()
    first, second = (run_tool(tool, "--seed", "5")["mutants"] for _ in range(2))
    assert [m["status"] for m in first] == [m["status"] for m in second]
    assert not (tmp_path / ".hypothesis" / "examples").exists()  # no failing draw saved for a later mutant


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_leaves_no_mutant_survived_or_hung(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    statuses = [mutant["status"] for mutant in record["mutants"]]
    assert record["counts"] == {status: statuses.count(status) for status in record["counts"]}
    assert set(statuses) <= {"killed", "equivalent"}
    assert all(mutant.get("reason") for mutant in record["mutants"] if mutant["status"] == "equivalent")


def test_each_equivalent_names_a_mutant_of_the_current_source():
    tool = load_tool()
    generated = {
        (name, site["source"], site["mutation"])
        for name in {key[0] for key in tool.EQUIVALENT}
        for site in tool.mutants(ROOT / "src" / "vortexlens" / name)
    }
    assert [key for key in tool.EQUIVALENT if key not in generated] == []
