"""Every work budget goes through one limit and one helper: only
``genfun._refuse_over`` reads ``genfun.MAX_WORD_PRODUCTS``, no module of
the package defines another ``MAX_*`` limit, and no function calls the
helper from more than one place, so none checks two parts of one charge apart."""

import ast
from collections import Counter
from pathlib import Path

import kalmandeg

SOURCES = sorted(Path(kalmandeg.__file__).parent.glob("*.py"))
LIMIT = "MAX_WORD_PRODUCTS"


def _uses(path: Path) -> tuple[set[str], set[str], Counter]:
    """The functions of ``path`` that read or import the limit ("<module>" outside any), its MAX_* names,
    and the number of ``_refuse_over`` call sites in each function."""
    readers, defined, sites = set(), set(), Counter()

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
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return readers, defined, sites


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
