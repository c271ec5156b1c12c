"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import kalmandeg

SOURCES = sorted(Path(kalmandeg.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_stdlib():
    assert SOURCES, "no package sources found"
    foreign = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.split(".")[0] != "kalmandeg" and name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)
