"""The package and its tests import nothing outside the standard library but
what the project declares: numpy for the package; numpy, pytest, hypothesis,
the package itself and the benchmark's workloads module for the tests.  An
installed scipy or mpmath must not leak into either."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {
    "src/vortexlens": {"numpy"},
    "tests": {"numpy", "pytest", "hypothesis", "vortexlens", "workloads"},
}


def top_level_imports(path: Path) -> set[str]:
    """The first dotted part of every absolute import in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("directory", sorted(ALLOWED))
def test_imports_stay_within_the_declared_dependencies(directory):
    files = sorted((ROOT / directory).glob("*.py"))
    assert files
    foreign = {
        (path.name, name)
        for path in files
        for name in top_level_imports(path) - sys.stdlib_module_names - ALLOWED[directory]
    }
    assert not foreign
