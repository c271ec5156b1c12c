"""Rebuild perfbench/reference.json from the fixed query pools.

    python3 perfbench/make_reference.py

Runs every pool query once through the package, checks each answer against
its independent route in refroutes.py, and writes the file only if every
check passes.  The known defect in the cli pool gets the answer the program
should print, taken from the independent route, because the program cannot
print it yet.  Needs sympy (for the oracles in tests/oracles.py).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refroutes  # noqa: E402  (also puts src/ and tests/ on the path)
import workloads  # noqa: E402


def expected_answer(q: workloads.Query) -> str:
    """The answer of a known-defect query, from the independent route."""
    if q.id == "cli-iso-repro":
        argv = q.args["argv"]
        n, omega = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--omega") + 1])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = f"degree = {refroutes.ref_isotropic((n,), (omega,))}\ncomponents = 1\n"
        finally:
            sys.set_int_max_str_digits(limit)
        return workloads.canon_cli(0, text)
    raise KeyError(q.id)


def main() -> int:
    entries = {}
    bad = []
    for workload in workloads.WORKLOADS:
        for q in workloads.all_queries(workload):
            t0 = time.perf_counter()
            if q.id in workloads.KNOWN_DEFECTS:
                answer = expected_answer(q)
            else:
                _, outcome = workloads.call(q, time.perf_counter)
                if outcome.error is not None:
                    bad.append(f"{q.id}: {outcome.error}")
                    continue
                answer = outcome.answer
            problems = refroutes.verify(q, answer)
            bad += [f"{q.id}: {p}" for p in problems]
            entries[q.id] = {"workload": workload, "kind": q.kind, "args": q.args, "answer": answer}
            print(f"{q.id:28s} {time.perf_counter() - t0:7.2f} s {'ok' if not problems else 'FAIL'}", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    doc = {
        "about": "Answers to every query in the perfbench pools; each passed its check in refroutes.py.",
        "known_defects": workloads.KNOWN_DEFECTS,
        "entries": entries,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
