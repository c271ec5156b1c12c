"""The mutation table in ``tools/mutants.py`` still fits the code: every old
snippet occurs exactly once in its file, and every named test exists.

Running the mutants takes minutes, so it stays out of this suite:
``python3 tools/mutants.py``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_mutant_ids_are_unique():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(ids) >= 10 and len(ids) == len(set(ids))


def test_each_old_snippet_occurs_once_and_changes():
    for m in mutants.MUTANTS:
        assert m.file.startswith("src/kalmandeg/"), m.id
        assert m.old != m.new, m.id
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.id


def test_each_named_test_exists():
    for m in mutants.MUTANTS:
        assert m.tests, m.id
        for node in m.tests:
            path, function = node.split("::")
            assert path.startswith("tests/test_"), (m.id, node)
            assert function.split("[")[0] in _test_functions(ROOT / path), (m.id, node)
