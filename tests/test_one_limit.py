"""Every work budget goes through one limit and one helper: only
``genfun._refuse_over`` reads ``genfun.MAX_WORD_PRODUCTS``, and no module of
the package defines another ``MAX_*`` limit."""

import ast
from pathlib import Path

import kalmandeg

SOURCES = sorted(Path(kalmandeg.__file__).parent.glob("*.py"))
LIMIT = "MAX_WORD_PRODUCTS"


def _uses(path: Path) -> tuple[set[str], set[str]]:
    """The functions of ``path`` that read or import the limit ("<module>" outside any) and its MAX_* names."""
    readers, defined = set(), set()

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
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return readers, defined


def test_only_the_refusal_helper_reads_the_limit():
    assert SOURCES, "no package sources found"
    readers = {(path.name, function) for path in SOURCES for function in _uses(path)[0]}
    assert readers == {("genfun.py", "_refuse_over")}


def test_no_module_defines_another_limit():
    defined = {(path.name, name) for path in SOURCES for name in _uses(path)[1]}
    assert defined == {("genfun.py", LIMIT)}
