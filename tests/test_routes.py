"""The public surface is pinned, and ``routes.py`` keeps two independent routes per exact name.

The routes table is checked by AST only: every named test exists and refers
to both the name it checks and its route's helpers, and no helper reaches the
name it checks, directly or through its own module's functions.
"""

import ast
import re
from functools import cache
from pathlib import Path

import kalmandeg
from routes import EXACT, FLOAT, RECORD, ROUTES, SINGLE_ROUTE

ROOT = Path(__file__).resolve().parent.parent
REMOVED = ("binary_degree", "check_stabilization", "StabilizationReport", "SYMMETRIC_PAIR_TABLE")


def test_public_surface_is_pinned():
    assert kalmandeg.__all__ == [
        "AsymptoticEstimate",
        "CodimVec",
        "ComparisonRow",
        "CriticalConstants",
        "CriticalPointReport",
        "IsotropicResult",
        "RationalSeries",
        "TPoly",
        "TensorFormat",
        "asymptotic_degree",
        "build_H",
        "build_H_via_determinant",
        "compare_exact_asymptotic",
        "critical_constants",
        "expand_series",
        "extract_degree",
        "isotropic_degree",
        "isotropic_degree_symmetric",
        "kalman_degree",
        "macmahon_check",
        "partition_tuple_codim",
        "ratio_to_exact",
        "split_H",
        "symmetric_degree",
        "symmetric_tuple_codim",
        "verify_critical_point",
    ]


def test_readme_imports_only_the_public_surface():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library surface", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    [names] = re.findall(r"from kalmandeg import \(([^)]*)\)", block)
    imported = {name.strip() for name in names.split(",") if name.strip()}
    assert imported and imported <= set(kalmandeg.__all__)


def test_removed_names_are_gone():
    paths = [ROOT / "README.md"]
    for folder in ("src", "perfbench", "tools"):
        paths += sorted((ROOT / folder).rglob("*.py")) + sorted((ROOT / folder).rglob("*.md"))
    found = {(path.relative_to(ROOT).as_posix(), name)
             for path in paths
             for name in REMOVED
             if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))}
    assert found == set()


def test_groups_cover_the_public_surface():
    assert (len(EXACT), len(FLOAT), len(RECORD)) == (16, 2, 8)
    assert not (EXACT & FLOAT or EXACT & RECORD or FLOAT & RECORD)
    assert EXACT | FLOAT | RECORD == set(kalmandeg.__all__)
    assert set(ROUTES) == EXACT


def _path(module: str) -> Path:
    if module.startswith("kalmandeg."):
        return ROOT / "src" / "kalmandeg" / f"{module.split('.', 1)[1]}.py"
    return ROOT / "tests" / f"{module}.py"


@cache
def _definitions(module: str) -> dict[str, ast.AST]:
    """The module's top-level functions and classes by name."""
    tree = ast.parse(_path(module).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` refers to: variables, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names |= {sub.name.rsplit(".", 1)[-1], sub.asname}
    return names - {None}


def _reach(module: str, name: str) -> set[str]:
    """The names ``module.name`` refers to, following the module's own functions and classes."""
    definitions = _definitions(module)
    seen, todo, names = set(), [name], set()
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            found = _names(definitions[current])
            names |= found
            todo += found & definitions.keys()
    return names


def _routes():
    for name, routes in ROUTES.items():
        for test, *helpers in routes:
            yield name, test, helpers


def test_route_tests_exist_and_compare_the_name_with_its_helpers():
    for name, test, helpers in _routes():
        assert helpers, (name, test)
        module, function = test.split("::")
        assert module.startswith("test_"), test
        node = _definitions(module).get(function)
        assert isinstance(node, ast.FunctionDef), test
        referred = _names(node)
        assert name in referred, (name, test)
        for helper in helpers:
            assert helper.rsplit(".", 1)[1] in referred, (name, test, helper)


def test_single_route_names_are_exactly_those_short_of_two():
    # Two routes count as two only with different helpers.
    helper_sets = {name: {tuple(helpers) for checked, _, helpers in _routes() if checked == name} for name in EXACT}
    assert {name for name, helpers in helper_sets.items() if len(helpers) < 2} == SINGLE_ROUTE
    assert SINGLE_ROUTE == set()


def test_route_helpers_do_not_reach_the_name_they_check():
    for name, test, helpers in _routes():
        for helper in helpers:
            module, function = helper.rsplit(".", 1)
            assert function in _definitions(module), helper
            assert name not in _reach(module, function), (name, test, helper)


def test_verify_routes_do_not_reach_the_class_sums():
    # verify_critical_point sums H2's weight classes itself, or in asympt code it
    # reaches; its routes may share only the report's record type with it.
    definitions = _definitions("kalmandeg.asympt")
    package = ({"verify_critical_point"} | _reach("kalmandeg.asympt", "verify_critical_point")) & definitions.keys()
    assert {"_check_evaluation_work", "critical_constants"} <= package
    for name, test, helpers in _routes():
        if name == "verify_critical_point":
            for helper in helpers:
                assert _reach(*helper.rsplit(".", 1)) & package <= {"CriticalPointReport"}, (test, helper)
