"""The BENCH_<n>.json assembly of tools/bench_trajectory.py, on canned run output.

No benchmark process is started: the tests feed the parser and the assembler
lines shaped like the last two stdout lines of ``perfbench/run.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _lines(seed, metrics, correct, commit, src_lines, trace, attempted=400):
    meta = {"workload": "series", "seed": seed, "trace": trace, "python": "3.11.7", "nproc": 2, "commit": commit,
            "src_lines": src_lines, "src_sha256": "ff", "samples": attempted}
    result = {"correct": correct, "attempted": attempted, "failed": 0,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    return f"some earlier line\n{json.dumps({'meta': meta})}\n{json.dumps(result)}\n"


def _stdout(seed, qps, p90, correct=True, commit="abc123", src_lines=1500, attempted=400):
    metrics = {"throughput_qps": (qps, "1/s"), "latency_p90_ms": (p90, "ms")}
    return _lines(seed, metrics, correct, commit, src_lines, trace=0, attempted=attempted)


def _traced_stdout(seed, mul_self_s, main_self_s, pairs, overhead, correct=True, commit="abc123"):
    # The shape of a ``--trace 1`` result: calls/self_s/total_s per target, counters, overhead.
    metrics = {
        "polycore.poly_mul.calls": (10, "count"),
        "polycore.poly_mul.self_s": (mul_self_s, "s"),
        "polycore.poly_mul.total_s": (mul_self_s, "s"),
        "polycore.poly_mul.pairs": (pairs, "count"),
        "polycore.poly_mul.kept_frac": (0.5, "frac"),
        "cli.main.calls": (4, "count"),
        "cli.main.self_s": (main_self_s, "s"),
        "cli.main.total_s": (main_self_s + mul_self_s, "s"),
        "trace_overhead_frac": (overhead, "frac"),
    }
    return _lines(seed, metrics, correct, commit, 1500, trace=1)


def _traced(seeds, **kwargs):
    return [bench_trajectory.parse_run(_traced_stdout(s, 3.0, 1.0, 100, 0.1, **kwargs)) for s in seeds]


def test_medians_and_meta():
    runs = {
        "series": [bench_trajectory.parse_run(_stdout(s, q, p, attempted=n))
                   for s, q, p, n in ((1, 900.0, 2.0, 13500), (2, 700.0, 4.0, 10500), (3, 800.0, 9.0, 12000))],
        "cli": [bench_trajectory.parse_run(_stdout(s, q, 1.0, correct=s != 2)) for s, q in ((1, 10.0), (2, 30.0))],
    }
    bench = bench_trajectory.assemble(runs, {"series": _traced((1, 2, 3)), "cli": _traced((1, 2))})
    assert bench["meta"] == {"python": "3.11.7", "nproc": 2, "commit": "abc123", "src_lines": 1500}
    series = bench["workloads"]["series"]
    assert series["seeds"] == [1, 2, 3] and series["correct"] is True
    assert series["attempted"] == 12000  # the untraced runs' median; the traced runs attempted 400 each
    assert series["metrics"] == {
        "throughput_qps": {"median": 800.0, "unit": "1/s"},
        "latency_p90_ms": {"median": 4.0, "unit": "ms"},
    }
    cli = bench["workloads"]["cli"]
    assert cli["correct"] is False  # one run of two was not correct
    assert cli["metrics"]["throughput_qps"]["median"] == 20.0  # even count: mean of the middle two
    assert cli["attempted"] == 400


def test_layers_are_medians_of_the_traced_runs():
    runs = {"series": [bench_trajectory.parse_run(_stdout(s, 1.0, 1.0)) for s in (1, 2, 3)]}
    traced = {"series": [bench_trajectory.parse_run(_traced_stdout(s, mul, main, pairs, over))
                         for s, mul, main, pairs, over in ((1, 3.0, 1.0, 500, 0.2),
                                                           (2, 1.0, 1.0, 100, 0.1),
                                                           (3, 0.0, 0.0, 300, 0.4))]}
    series = bench_trajectory.assemble(runs, traced)["workloads"]["series"]
    # Shares per run: (0.75, 0.25), (0.5, 0.5), and (0, 0) for a run with no self time.
    assert series["layers"] == {
        "self_s_share": {"polycore.poly_mul": 0.5, "cli.main": 0.25},
        "polycore.poly_mul.pairs": 300,
        "polycore.poly_mul.pairs_per_query": 0.75,  # each run attempted 400 queries
        "trace_overhead_frac": 0.2,
    }
    assert series["correct"] is True


def test_incorrect_traced_run_marks_the_workload():
    runs = {"series": [bench_trajectory.parse_run(_stdout(1, 1.0, 1.0))]}
    bench = bench_trajectory.assemble(runs, {"series": _traced((1,), correct=False)})
    assert bench["workloads"]["series"]["correct"] is False


def test_runs_of_different_commits_are_refused():
    runs = {"series": [bench_trajectory.parse_run(_stdout(1, 1.0, 1.0)),
                       bench_trajectory.parse_run(_stdout(2, 1.0, 1.0, commit="def456"))]}
    with pytest.raises(ValueError, match="runs disagree"):
        bench_trajectory.assemble(runs, {"series": _traced((1, 2))})
    runs = {"series": [bench_trajectory.parse_run(_stdout(1, 1.0, 1.0))]}
    with pytest.raises(ValueError, match="runs disagree"):  # a traced run of another commit
        bench_trajectory.assemble(runs, {"series": _traced((1,), commit="def456")})


def test_run_without_result_lines_is_refused():
    with pytest.raises(ValueError, match="no metadata and result lines"):
        bench_trajectory.parse_run("perfbench: cannot import kalmandeg\n")
