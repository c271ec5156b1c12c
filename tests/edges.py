"""Every budget edge, written once: the first input a budget refuses and the last one it accepts.

A row names its edge, the fixed words of its budget's refusal message (its
family: ``test_one_limit`` requires that each phrase matches exactly one
``_refuse_over`` message of the package, and that each message has a row),
and its two inputs.  A CLI input is an argv without the program name; a
library-only input is a ``Call``.  The two inputs of a CLI row differ in one
argument.

Every test that pins an edge reads its row here: ``test_cli``'s
``FIRST_REFUSED`` tests and their library twins in ``test_edges`` check that
each refused input is refused at once by its family and that each accepted
input passes its family's check; the second routes in ``test_degrees``,
``test_genfun``, ``test_isotropic`` and ``test_asympt`` compute their accepted
inputs in full; ``test_readme`` requires that every input the README's budget
bullets name is a row's.  When a budget moves, its rows move here, and the
README's bullets with them.

The accepted inputs run for up to about 2.1 s as CLI processes (CPython 3.11
on a shared 2-core Linux machine).
"""

import sys
from collections import namedtuple

from kalmandeg import critical_constants, expand_series, macmahon_check, symmetric_degree

Edge = namedtuple("Edge", "name family refused accepted")
Call = namedtuple("Call", "function args")


def _weights(count, power):
    """``count`` weights of 10^power, as one ``--omega`` value."""
    return ",".join(["1" + "0" * power] * count)


EDGES = [
    Edge("show-h-subsets", "subsets of",
         ("genfun", "--omega", ",".join(["1"] * 15), "--show-h"),
         ("genfun", "--omega", ",".join(["1"] * 14), "--show-h")),
    Edge("genfun-caps", "series box",
         ("genfun", "--omega", "1,1", "--caps", "316,316"),
         ("genfun", "--omega", "1,1", "--caps", "315,315")),
    Edge("matrix-ed-max-n", "series box",
         ("table", "--kind", "matrix-ed", "--max-n", "316"),
         ("table", "--kind", "matrix-ed", "--max-n", "315")),
    Edge("degree-n", "coefficient extraction",
         ("degree", "--n", "80001", "--delta", "0", "--omega", "3"),
         ("degree", "--n", "80000", "--delta", "0", "--omega", "3")),
    Edge("hypercubical-n-max", "coefficient extraction",
         ("table", "--kind", "hypercubical-compare", "--k", "3", "--n-max", "18"),
         ("table", "--kind", "hypercubical-compare", "--k", "3", "--n-max", "17")),
    Edge("compare-k", "extracting with k =",
         ("asympt", "--k", "295", "--omega", "1", "--n", "1", "--compare"),
         ("asympt", "--k", "294", "--omega", "1", "--n", "1", "--compare")),
    Edge("genfun-weight", "series box",
         ("genfun", "--omega", _weights(1, 5971), "--caps", "18"),
         ("genfun", "--omega", _weights(1, 5970), "--caps", "18")),
    Edge("show-h-weights", "principal minors",
         ("genfun", "--omega", _weights(8, 1321), "--show-h"),
         ("genfun", "--omega", _weights(8, 1320), "--show-h")),
    Edge("isotropic-n", "polar-class sum",
         ("isotropic", "--n", "58023", "--omega", "3"),
         ("isotropic", "--n", "58022", "--omega", "3")),
    Edge("isotropic-sym-max-n", "single-factor isotropic degrees",
         ("table", "--kind", "isotropic-sym", "--max-n", "3642"),
         ("table", "--kind", "isotropic-sym", "--max-n", "3641")),
    Edge("constants-k", "critical-point constants",
         ("asympt", "--k", "16063", "--omega", "1", "--constants"),
         ("asympt", "--k", "16062", "--omega", "1", "--constants")),
    Edge("verify-k", "critical-point constants",
         ("asympt", "--k", "16063", "--omega", "1", "--verify"),
         ("asympt", "--k", "16062", "--omega", "1", "--verify")),
    Edge("verify-weight", "critical-point constants",
         ("asympt", "--k", "14", "--omega", _weights(1, 4650), "--verify"),
         ("asympt", "--k", "14", "--omega", _weights(1, 4649), "--verify")),
    # The slowest accepted inputs the README names, most of their time spent writing
    # the result in decimal.
    Edge("isotropic-n-huge-weight", "polar-class sum",
         ("isotropic", "--n", "289", "--omega", _weights(1, 1000)),
         ("isotropic", "--n", "288", "--omega", _weights(1, 1000))),
    Edge("isotropic-n-large-weight", "polar-class sum",
         ("isotropic", "--n", "23588", "--omega", _weights(1, 10)),
         ("isotropic", "--n", "23587", "--omega", _weights(1, 10))),
    Edge("isotropic-two-factors", "polar-class sum",
         ("isotropic", "--n", "4111,40", "--omega", "3," + _weights(1, 200)),
         ("isotropic", "--n", "4110,40", "--omega", "3," + _weights(1, 200))),
    Edge("isotropic-sym-max-n-weight-1", "single-factor isotropic degrees",
         ("table", "--kind", "isotropic-sym", "--max-n", "332780", "--max-omega", "1"),
         ("table", "--kind", "isotropic-sym", "--max-n", "332779", "--max-omega", "1")),
    Edge("show-h-fourteen-weights", "principal minors",
         ("genfun", "--omega", _weights(14, 78), "--show-h"),
         ("genfun", "--omega", _weights(14, 77), "--show-h")),
    # Library-only edges: no CLI call reaches these budgets at these inputs.
    Edge("symmetric-degree-n", "single-factor closed form",
         Call(symmetric_degree, (92233, 46116, 3)),
         Call(symmetric_degree, (92232, 46116, 3))),
    Edge("macmahon-2x2-cap", "MacMahon product side",
         Call(macmahon_check, ([[1, 1], [1, 1]], 51)),
         Call(macmahon_check, ([[1, 1], [1, 1]], 50))),
    # The walk is charged exactly the limit at the refused cap; the division refuses it.
    Edge("macmahon-1x1-cap", "series box",
         Call(macmahon_check, ([[1]], 199_999)),
         Call(macmahon_check, ([[1]], 199_998))),
    Edge("series-weight-cap", "series box",
         Call(expand_series, ((10**1000,), (51,), 0)),
         Call(expand_series, ((10**1000,), (50,), 0))),
    # At cap 1 on x, 1/H's box has no x and so no tail term: only its cells are charged.
    Edge("series-y-cap", "series box",
         Call(expand_series, ((10**1000,), (1,), 199_999)),
         Call(expand_series, ((10**1000,), (1,), 199_998))),
    Edge("constants-k7-weight", "critical-point constants",
         Call(critical_constants, (7, 2**29760, 0)),
         Call(critical_constants, (7, 2**29759, 0))),
]
EDGE = {edge.name: edge for edge in EDGES}
CLI_EDGES = [edge for edge in EDGES if not isinstance(edge.refused, Call)]
LIBRARY_EDGES = [edge for edge in EDGES if isinstance(edge.refused, Call)]


def flag(argv, name):
    """The int value that follows ``name`` in ``argv``, of any number of digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(argv[argv.index(name) + 1])
    finally:
        sys.set_int_max_str_digits(limit)
