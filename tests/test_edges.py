"""The edge table in ``edges.py`` is well formed, and each library-only row is an edge.

``test_cli`` runs the CLI rows through ``cli.main``; this module calls the
library-only rows the same way: the first refused input is refused at once by
its family, and the last accepted input passes its family's check, which is
where the call stops, so no edge's work runs.
"""

import time
from operator import ne

import pytest

from edges import EDGES, LIBRARY_EDGES, Call
from kalmandeg import asympt, genfun


def test_rows_name_distinct_edges_one_argument_apart():
    names = [edge.name for edge in EDGES]
    assert len(set(names)) == len(names)
    for edge in EDGES:
        refused, accepted = edge.refused, edge.accepted
        assert type(refused) is type(accepted), edge.name
        if isinstance(refused, Call):
            assert refused.function is accepted.function, edge.name
            refused, accepted = refused.args, accepted.args
        assert len(refused) == len(accepted) and sum(map(ne, refused, accepted)) == 1, edge.name


@pytest.mark.parametrize("edge", LIBRARY_EDGES, ids=lambda edge: edge.name)
def test_library_first_refused_inputs_refuse_at_once(edge):
    start = time.perf_counter()
    with pytest.raises(genfun.InputError, match="over the limit") as refused:
        edge.refused.function(*edge.refused.args)
    assert time.perf_counter() - start < 0.2
    assert edge.family in str(refused.value)


class _Accepted(Exception):
    """Raised in place of the work once the row's budget check has passed."""


@pytest.mark.parametrize("edge", LIBRARY_EDGES, ids=lambda edge: edge.name)
def test_library_last_accepted_inputs_pass_their_budget(monkeypatch, edge):
    check = genfun._refuse_over

    def check_then_stop(work, what, *numbers):
        check(work, what, *numbers)
        if edge.family in what:
            raise _Accepted

    for module in (genfun, asympt):
        monkeypatch.setattr(module, "_refuse_over", check_then_stop)
    with pytest.raises(_Accepted):
        edge.accepted.function(*edge.accepted.args)
