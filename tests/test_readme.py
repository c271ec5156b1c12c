"""Every ``kalmandeg ...`` example in README.md runs and prints what it shows.

A command line may carry a trailing ``# comment``; the output it documents
follows on lines ``# -> first line`` and ``#    next line``.  The README's
Python block runs too, so every public name it imports must still exist.
"""

import shlex
from pathlib import Path

import pytest

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
