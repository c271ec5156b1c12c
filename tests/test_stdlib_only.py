"""The package imports nothing outside the standard library and itself, and
leaves out the standard modules that only some commands need."""

import ast
import subprocess
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


def test_import_leaves_out_heavy_modules():
    # Without site, which imports typing and others itself in some installs.
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import kalmandeg, kalmandeg.cli\n"
        "print(kalmandeg.__file__)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(kalmandeg.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, src], capture_output=True, text=True, timeout=60, check=True
    )
    where, imported = proc.stdout.splitlines()
    assert where.startswith(src)
    assert "kalmandeg.cli" in imported.split()
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "json", "typing"}
    assert not heavy & set(imported.split())


def test_json_loads_with_the_first_json_output():
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from kalmandeg import cli\n"
        "argv = ['codim', '--n', '3', '--k', '2']\n"
        "codes = [cli.main(argv)]\n"
        "loaded = ['json' in sys.modules]\n"
        "codes.append(cli.main(argv + ['--format', 'json']))\n"
        "loaded.append('json' in sys.modules)\n"
        "print(codes, loaded)\n"
    )
    src = str(Path(kalmandeg.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, src], capture_output=True, text=True, timeout=60, check=True
    )
    text, record, result = proc.stdout.splitlines()
    assert text == "codim = 2" and record.startswith('{"command": "codim"')
    assert result == "[0, 0] [False, True]"
