"""Every ``kalmandeg ...`` example in README.md runs and prints what it shows.

A command line may carry a trailing ``# comment``; the output it documents
follows on lines ``# -> first line`` and ``#    next line``.  The README's
Python block runs too, so every public name it imports must still exist.
Every input that a budget bullet names is an input of ``tests/edges.py``,
refused or accepted as the bullet says.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from edges import EDGES, LIBRARY_EDGES, Call
from kalmandeg import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    examples = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("kalmandeg "):
            examples.append((line.split("#")[0].strip(), []))
        elif examples and line.startswith(("# -> ", "#    ")):
            examples[-1][1].append(line[5:])
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10
    assert sum(1 for _, shown in EXAMPLES if shown) >= 2


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_runs(capsys, command, shown):
    code = cli.main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0, command
    if shown:
        assert out.splitlines() == shown, command


def test_readme_library_surface_block():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library surface", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["extract_degree"](namespace["fmt"], namespace["CodimVec"]((2, 1))) == 20
    series = namespace["expand_series"]((1, 1), caps=(3, 3), y_cap=2)
    assert series[((2, 2), 1)] == 2


SUBCOMMANDS = {"degree", "genfun", "isotropic", "codim", "asympt", "table"}
LIBRARY = {edge.refused.function.__name__ for edge in LIBRARY_EDGES}


def _budget_inputs():
    """Each input a budget bullet of the README names, as (its code span, the input, the first
    of "refuse" and "take" said after it in its bullet).  An input is a code span that holds a
    number and starts with a subcommand or a flag, an argv with ``<10^e>`` for 1 followed by e
    zeros, or a call of a library function that has an edge."""
    text = README.read_text(encoding="utf-8")
    bullets = text.split("The budgets:", 1)[1].split("```", 1)[0].split("\n- ")[1:]
    found = []
    for bullet in bullets:
        for span in re.finditer(r"`([^`]+)`", bullet):
            code = re.sub(r"<10\^(\d+)>", lambda power: "1" + "0" * int(power[1]), " ".join(span[1].split()))
            call = re.fullmatch(r"(\w+)\((.*)\)", code)
            if call and call[1] in LIBRARY:
                value = (call[1], ast.literal_eval(f"({call[2]},)"))
            elif (code.split()[0] in SUBCOMMANDS or code.startswith("--")) and re.search(r"\d", code):
                value = tuple(code.split())
            else:
                continue
            verb = re.search(r"\b(refuse|take)", bullet[span.end():])
            found.append((span[1], value, verb and verb[1]))
    return found


def _said(side):
    """An edge input as a README bullet would name it."""
    return (side.function.__name__, side.args) if isinstance(side, Call) else side


def test_readme_budget_edges_are_rows_of_the_edge_table():
    sides = [(_said(edge.refused), "refuse") for edge in EDGES] + [(_said(edge.accepted), "take") for edge in EDGES]
    found = _budget_inputs()
    assert len(found) >= 20
    for span, value, verb in found:
        said = [side_verb for side, side_verb in sides if side == value]
        assert said, f"{span} is no input of tests/edges.py"
        assert said == [verb], f"the README says {verb!r} of {span}, the edge table {said[0]!r}"
