"""Every work budget goes through one limit and one helper: only
``genfun._refuse_over`` reads ``genfun.MAX_WORD_PRODUCTS``, no module of
the package defines another ``MAX_*`` limit, and no function calls the
helper from more than one place, so none checks two parts of one charge apart.
Each budget's message has an edge in ``tests/edges.py``, so no budget lands
without one."""

import ast
from collections import Counter
from pathlib import Path

import kalmandeg
from edges import EDGES

SOURCES = sorted(Path(kalmandeg.__file__).parent.glob("*.py"))
LIMIT = "MAX_WORD_PRODUCTS"


def _uses(path: Path) -> tuple[set[str], set[str], Counter, list]:
    """The functions of ``path`` that read or import the limit ("<module>" outside any), its MAX_* names,
    the number of ``_refuse_over`` call sites in each function, and each site's message template:
    a string literal, or the one a name of its function was last given (None if it is neither)."""
    readers, defined, sites, templates, strings = set(), set(), Counter(), [], {}

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store) and node.id.startswith("MAX_"):
                defined.add(node.id)
            elif node.id == LIMIT:
                readers.add(function)
        elif isinstance(node, ast.Attribute) and node.attr == LIMIT:
            readers.add(function)
        elif isinstance(node, ast.ImportFrom) and any(alias.name == LIMIT for alias in node.names):
            readers.add(function)
        elif isinstance(node, ast.Call) and "_refuse_over" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            sites[function] += 1
            what = node.args[1]
            templates.append(what.value if isinstance(what, ast.Constant) else strings.get((function, getattr(what, "id", None))))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            strings.update(((function, target.id), node.value.value) for target in node.targets if isinstance(target, ast.Name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return readers, defined, sites, templates


def test_only_the_refusal_helper_reads_the_limit():
    assert SOURCES, "no package sources found"
    readers = {(path.name, function) for path in SOURCES for function in _uses(path)[0]}
    assert readers == {("genfun.py", "_refuse_over")}


def test_no_module_defines_another_limit():
    defined = {(path.name, name) for path in SOURCES for name in _uses(path)[1]}
    assert defined == {("genfun.py", LIMIT)}


def test_each_function_checks_the_limit_at_one_site():
    sites = {(path.name, function): n for path in SOURCES for function, n in _uses(path)[2].items()}
    assert sites, "no budget checks found"
    assert {site: n for site, n in sites.items() if n > 1} == {}


def test_each_budget_family_has_an_edge():
    # An edge's family is the fixed words of one budget's message: it matches exactly one
    # template, and every template is some edge's family.
    templates = [template for path in SOURCES for template in _uses(path)[3]]
    assert len(templates) >= 10 and None not in templates, templates
    for edge in EDGES:
        assert sum(edge.family in template for template in templates) == 1, edge.name
    assert [t for t in templates if not any(edge.family in t for edge in EDGES)] == []
