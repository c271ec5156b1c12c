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


def test_failed_ids_are_read_whole():
    # A -rfE line ends its id at " - " and the message, or at the line's end when the id
    # alone fills the terminal; an id may hold spaces, and a message may hold " - ".
    case = "tests/test_cli.py::test_first_refused_inputs_exit_two_at_once[isotropic --n 5,40 --omega 3,7]"
    report = "\n".join([
        "F.E                                                                      [100%]",
        "=========================== short test summary info ============================",
        f"FAILED {case} - assert (0, 'degree = 1\\n') == (2, '')",
        "ERROR tests/test_genfun.py::test_macmahon_small_cases",
        "FAILED tests/test_asympt.py::test_log10_bigint_matches_leading_digits - ValueError: a - b",
        "1 passed, 2 failed, 1 error in 0.52s",
    ])
    assert mutants._failed(report) == {
        case,
        "tests/test_genfun.py::test_macmahon_small_cases",
        "tests/test_asympt.py::test_log10_bigint_matches_leading_digits",
    }
