"""Fixed query pools of the three workloads and the seeded stream drawn from them.

A pool is a list of groups (cost tiers).  Each pass draws ``draws`` members
from every group, walking a per-group deck that the seed shuffles and
reshuffles when it runs out, and then shuffles the pass as a whole.  The seed
thus decides which members run and in what order, yet over a run every member
of a group runs equally often, give or take one, so the cost mix of a run does
not depend on the seed.  The program under test sees only the generated
inputs.

Queries call the package through its public entry points, looked up on the
module at call time, so that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

WORKLOADS = ("extract", "series", "cli")


@dataclass(frozen=True)
class Query:
    id: str
    kind: str
    args: dict


@dataclass(frozen=True)
class Group:
    name: str
    draws: int
    members: tuple[Query, ...]


def _q(id: str, kind: str, **args) -> Query:
    return Query(id, kind, args)


# Tiers are ordered by cost.  Draws per pass put the median query inside one
# tier of similar-cost members and the 90th percentile inside another; a
# quantile that sat on a gap between two cost clusters would jump from run to
# run.  Costs in the comments are from one core of a shared 2-core machine.


def _extract_pool() -> list[Group]:
    # k = 2 reaches n = 40, k = 3 n = 20, k = 4 n = 8 and k = 5 n = 5; total
    # codimension runs 0..4 so the h-cap prunes terms.  No cell exceeds 1 s.
    tiers = [
        ("small", 12, [  # < 8 ms; codimension in several factors, or the all-2 format
            ((2, 2, 2), (1, 1, 0), (1, 2, 3)), ((2, 2, 2, 2), (1, 0, 1, 0), (3, 1, 2, 2)),
            ((2, 2, 2, 2, 2), (1, 1, 0, 0, 1), (2, 3, 1, 1, 2)), ((2, 2, 2, 2, 2), (0, 0, 0, 0, 0), (3, 3, 2, 1, 1)),
            ((10, 10), (2, 1), (2, 3)), ((12, 8), (1, 2), (3, 1)), ((5, 5, 5), (2, 1, 0), (2, 2, 3)),
            ((6, 5, 4), (1, 0, 1), (1, 2, 3)), ((3, 3, 3, 3), (1, 1, 0, 0), (2, 1, 3, 1)),
        ]),
        ("p50", 16, [  # 20-35 ms
            ((40, 40), (0, 0), (2, 3)), ((40, 40), (1, 0), (1, 1)), ((32, 36), (1, 0), (2, 1)),
            ((30, 40), (1, 0), (1, 2)), ((30, 30), (2, 0), (1, 3)), ((25, 25), (2, 0), (2, 2)),
        ]),
        ("mid", 8, [  # 40-130 ms
            ((28, 28), (2, 0), (3, 2)), ((40, 40), (2, 0), (1, 1)), ((36, 36), (0, 2), (1, 3)),
            ((40, 40), (0, 1), (3, 2)), ((40, 30), (3, 0), (2, 1)), ((16, 14, 12), (0, 0, 0), (3, 3, 3)),
            ((30, 30), (4, 0), (3, 3)), ((7, 6, 6, 5), (0, 1, 0, 0), (3, 1, 2, 2)), ((12, 12, 12), (1, 0, 0), (1, 1, 1)),
            ((12, 12, 12), (0, 0, 1), (2, 2, 1)), ((40, 40), (3, 0), (2, 3)), ((4, 4, 4, 4, 4), (0, 0, 3, 0, 0), (3, 2, 1, 1, 2)),
        ]),
        ("p90", 6, [  # 150-290 ms
            ((20, 20, 20), (0, 0, 0), (1, 1, 1)), ((20, 20, 20), (0, 0, 0), (2, 1, 3)), ((14, 12, 10), (0, 2, 0), (1, 3, 2)),
            ((8, 8, 8, 8), (0, 0, 0, 0), (1, 1, 1, 1)), ((8, 8, 8, 8), (0, 0, 0, 0), (2, 1, 3, 1)),
            ((40, 40), (0, 4), (3, 2)), ((6, 6, 6, 6), (0, 0, 0, 2), (2, 3, 1, 2)), ((5, 5, 5, 5, 5), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)),
        ]),
        ("heavy", 2, [  # 360-600 ms
            ((8, 8, 8, 8), (1, 0, 0, 0), (1, 1, 1, 1)), ((5, 5, 5, 5, 5), (2, 0, 0, 0, 0), (1, 1, 1, 1, 1)),
            ((5, 5, 5, 5, 5), (0, 0, 0, 0, 1), (2, 1, 2, 1, 2)), ((16, 16, 16), (0, 1, 0), (1, 1, 1)),
            ((8, 7, 8, 7), (0, 0, 1, 0), (1, 2, 1, 2)),
        ]),
    ]
    out = []
    for name, draws, cells in tiers:
        members = []
        for i, (n, delta, omega) in enumerate(cells):
            members.append(_q(f"extract-{name}-{i}", "extract_degree", n=n, delta=delta, omega=omega))
            deg_z = tuple(1 + (i + j) % 3 for j in range(len(n)))
            members.append(_q(f"kalman-{name}-{i}", "kalman_degree", n=n, delta=delta, omega=omega, deg_z=deg_z))
        out.append(Group(name, draws, tuple(members)))
    return out


def _series_pool() -> list[Group]:
    rng = random.Random(20210920)  # fixes the pool, not the stream
    h = {}
    for k in range(1, 10):
        for rep in range(2):
            omega = tuple(rng.randint(1, 3) for _ in range(k))
            h[f"H-{k}-{rep}"] = _q(f"H-{k}-{rep}", "build_H", omega=omega)
            h[f"Hdet-{k}-{rep}"] = _q(f"Hdet-{k}-{rep}", "build_H_via_determinant", omega=omega)
    mac = []
    for i in range(8):
        m = 2 + i % 2
        a = tuple(tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(m))
        mac.append(_q(f"macmahon-{i}", "macmahon_check", a=a, cap=4 if m == 2 else 2))

    def series(name, cells):
        return [_q(f"series-{name}-{i}", "expand_series", omega=o, caps=c, y_cap=y) for i, (o, c, y) in enumerate(cells)]

    def pick(*names):
        return [h.pop(n) for n in names]

    p50 = series("p50", [  # 4-9 ms
        ((1,), (20,), 5), ((1,), (30,), 5), ((2,), (24,), 4), ((3,), (20,), 5),
        ((1,), (40,), 3), ((2,), (28,), 3), ((1,), (25,), 5),
    ]) + pick("H-7-0", "H-7-1", "Hdet-6-0", "Hdet-6-1")
    mid = series("mid", [  # 10-220 ms
        ((3, 1), (8, 8), 2), ((1, 2), (10, 9), 2), ((2, 2), (11, 11), 1), ((1, 1), (10, 10), 2),
        ((2, 1), (9, 11), 2), ((1, 1, 1), (4, 4, 4), 1), ((1, 1, 2), (4, 4, 4), 1), ((2, 3), (12, 12), 3),
        ((1, 3), (14, 14), 3),
    ]) + pick("H-8-0", "H-8-1", "Hdet-7-0", "Hdet-7-1", "Hdet-8-0", "Hdet-8-1", "H-9-0", "H-9-1", "Hdet-9-0", "Hdet-9-1")
    p90 = series("p90", [  # 250-420 ms
        ((1, 1, 1), (5, 5, 5), 3), ((2, 1), (14, 14), 4), ((2, 1, 1, 1), (3, 3, 3, 3), 1),
        ((1, 1), (16, 16), 4), ((1, 1, 1, 1), (3, 3, 3, 3), 2), ((1, 1, 1), (6, 6, 6), 2),
    ])
    top = series("top", [  # 450-850 ms
        ((1, 1), (20, 20), 5), ((1, 1, 1), (7, 7, 7), 2), ((1, 2, 1), (6, 6, 6), 2), ((1, 1), (18, 18), 4),
    ])
    tiny = list(h.values()) + mac  # < 6 ms: H for k <= 6 and MacMahon checks
    return [
        Group("tiny", 14, tuple(tiny)), Group("p50", 20, tuple(p50)), Group("mid", 9, tuple(mid)),
        Group("p90", 5, tuple(p90)), Group("top", 2, tuple(top)),
    ]


# ROADMAP item 4: the right degree, then exit 2 on the 4300-digit limit of
# int-to-str conversion.  Kept in the pool at low weight on purpose.
KNOWN_DEFECTS = {"cli-iso-repro": "isotropic --n 450 --omega 10000000000 exits 2 (4300-digit int-to-str limit)"}


def _cli_pool() -> list[Group]:
    def both(argv, formats=("text", "json")):
        return [argv + ["--format", f] for f in formats]

    def table(*argv):
        return both(["table", "--kind", *argv], ("csv", "json"))

    tiers = [
        ("tiny", 90, [  # 1.5-2.1 ms
            *both(["codim", "--n", "5", "--k", "4"]), *both(["codim", "--n", "7", "--k", "5", "--parts", "2"]),
            *both(["asympt", "--k", "3", "--omega", "2", "--delta", "1", "--constants"]),
            *both(["asympt", "--k", "4", "--omega", "1", "--constants"]),
            *table("isotropic-sym"), *table("isotropic-sym", "--max-n", "9", "--max-omega", "5"),
        ]),
        ("p50", 70, [  # 2.3-3.4 ms
            *both(["asympt", "--k", "3", "--omega", "1", "--verify"]),
            *both(["isotropic", "--n", "6,5,4", "--omega", "1,2,3"]), *both(["isotropic", "--n", "8,7", "--omega", "3,2"]),
            *both(["isotropic", "--n", "2,5,6", "--omega", "2,1,1"]), *both(["isotropic", "--n", "4,4,4,3", "--omega", "1,1,2,2"]),
            *both(["isotropic", "--n", "30", "--omega", "4"]),
            *both(["degree", "--n", "4,4", "--delta", "2,1", "--omega", "1,1", "--deg-z", "3,2"]),
            *both(["genfun", "--omega", "2,1,3", "--show-h"]),
        ]),
        ("mid", 40, [  # 4-12 ms
            *both(["genfun", "--omega", "1,1,1,1,2", "--show-h"]), *both(["genfun", "--omega", "2", "--caps", "15", "--y-cap", "3"]),
            *both(["asympt", "--k", "5", "--omega", "2", "--verify"]),
            *both(["isotropic", "--n", "20,18", "--omega", "2,3"]), *both(["isotropic", "--n", "16,15", "--omega", "1,2"]),
            *both(["isotropic", "--n", "9,8,7", "--omega", "1,2,2"]), *both(["isotropic", "--n", "12,10", "--omega", "3,1"]),
            *table("matrix-ed"),
        ]),
        ("p90", 30, [  # 13-25 ms
            *table("matrix-ed", "--max-n", "7"), *table("hypercubical-compare"),
            *both(["asympt", "--k", "6", "--omega", "1", "--verify"]),
            *both(["asympt", "--k", "3", "--omega", "1", "--n", "10", "--compare"]),
            *both(["genfun", "--omega", "1,1", "--caps", "6,6", "--y-cap", "2"]),
            *both(["isotropic", "--n", "120", "--omega", "7"]),
        ]),
        ("heavy", 10, [  # 30-110 ms
            *table("hypercubical-compare", "--k", "2", "--omega", "2", "--delta", "1", "--n-min", "3", "--n-max", "14"),
            *both(["asympt", "--k", "2", "--omega", "3", "--delta", "2", "--n", "25", "--compare"]),
            *both(["asympt", "--k", "4", "--omega", "1", "--delta", "1", "--n", "6", "--compare"]),
            *both(["degree", "--n", "30,30", "--delta", "2,0", "--omega", "3,2"]),
            *both(["degree", "--n", "12,9,7", "--delta", "0,0,1", "--omega", "2,1,3", "--deg-z", "2,2,5"]),
            *both(["isotropic", "--n", "200", "--omega", "1000"]),
        ]),
    ]
    groups = [Group(name, draws, tuple(_q(f"cli-{name}-{i}", "cli", argv=a) for i, a in enumerate(argvs))) for name, draws, argvs in tiers]
    groups.append(Group("repro", 1, (_q("cli-iso-repro", "cli", argv=["isotropic", "--n", "450", "--omega", "10000000000"]),)))
    return groups


def pool(workload: str) -> list[Group]:
    return {"extract": _extract_pool, "series": _series_pool, "cli": _cli_pool}[workload]()


def all_queries(workload: str) -> list[Query]:
    return [q for g in pool(workload) for q in g.members]


def passes(workload: str, seed: int):
    """Endless iterator of passes (lists of queries) for ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    groups = pool(workload)
    decks: list[list[Query]] = [[] for _ in groups]
    while True:
        batch = []
        for g, deck in zip(groups, decks):
            for _ in range(g.draws):
                if not deck:
                    deck.extend(g.members)
                    rng.shuffle(deck)
                batch.append(deck.pop())
        rng.shuffle(batch)
        yield batch


# -- running one query -----------------------------------------------------


class Outcome:
    """What one query produced: a canonical answer, or the failure it hit."""

    __slots__ = ("answer", "error", "out_bytes")

    def __init__(self, answer: str | None, error: str | None, out_bytes: int = 0):
        self.answer = answer
        self.error = error
        self.out_bytes = out_bytes


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def canon_series(coeffs: dict) -> str:
    return digest("\n".join(f"{list(n)};{d};{c}" for (n, d), c in sorted(coeffs.items())))


def canon_cli(code: int, out: str) -> str:
    return f"exit={code}\n{out}"


def _library_call(q: Query):
    """(entry point, its arguments, how to write its result down) for a library query."""
    import kalmandeg.degrees as degrees
    import kalmandeg.genfun as genfun

    a = q.args
    if q.kind == "extract_degree":
        return degrees.extract_degree, (degrees.TensorFormat(a["n"], a["omega"]), degrees.CodimVec(a["delta"])), str
    if q.kind == "kalman_degree":
        fmt = degrees.TensorFormat(a["n"], a["omega"])
        return degrees.kalman_degree, (fmt, degrees.CodimVec(a["delta"]), a["deg_z"]), str
    if q.kind == "expand_series":
        return genfun.expand_series, (a["omega"], a["caps"], a["y_cap"]), canon_series
    if q.kind == "macmahon_check":
        return genfun.macmahon_check, ([list(r) for r in a["a"]], a["cap"]), str
    return getattr(genfun, q.kind), (a["omega"],), lambda poly: digest(str(poly))


def call(q: Query, clock) -> tuple[float, Outcome]:
    """Run one query; return (seconds spent inside the entry point, outcome).

    Only the call itself is timed.  Turning the result into its canonical
    form happens after the clock stops.
    """
    if q.kind == "cli":
        import kalmandeg.cli as cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = cli.main(list(q.args["argv"]))
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed query, not a crashed benchmark
                return clock() - t0, Outcome(None, f"{type(exc).__name__}: {exc}")
            dt = clock() - t0
        text = out.getvalue()
        if code != 0:
            return dt, Outcome(None, f"exit {code}: {err.getvalue().strip()[:200]}", len(text.encode()))
        return dt, Outcome(canon_cli(code, text), None, len(text.encode()))

    fn, args, canon = _library_call(q)
    t0 = clock()
    try:
        value = fn(*args)
    except Exception as exc:
        return clock() - t0, Outcome(None, f"{type(exc).__name__}: {exc}")
    dt = clock() - t0
    return dt, Outcome(canon(value), None)
