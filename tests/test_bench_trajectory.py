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


def _stdout(seed, qps, p90, correct=True, commit="abc123", src_lines=1500):
    meta = {"workload": "series", "seed": seed, "python": "3.11.7", "nproc": 2, "commit": commit,
            "src_lines": src_lines, "src_sha256": "ff", "samples": 400}
    result = {"correct": correct, "attempted": 400, "failed": 0, "metrics": {
        "throughput_qps": {"value": qps, "unit": "1/s"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
    }}
    return f"some earlier line\n{json.dumps({'meta': meta})}\n{json.dumps(result)}\n"


def test_medians_and_meta():
    runs = {
        "series": [bench_trajectory.parse_run(_stdout(s, q, p)) for s, q, p in ((1, 900.0, 2.0), (2, 700.0, 4.0), (3, 800.0, 9.0))],
        "cli": [bench_trajectory.parse_run(_stdout(s, q, 1.0, correct=s != 2)) for s, q in ((1, 10.0), (2, 30.0))],
    }
    bench = bench_trajectory.assemble(runs)
    assert bench["meta"] == {"python": "3.11.7", "nproc": 2, "commit": "abc123", "src_lines": 1500}
    series = bench["workloads"]["series"]
    assert series["seeds"] == [1, 2, 3] and series["correct"] is True
    assert series["metrics"] == {
        "throughput_qps": {"median": 800.0, "unit": "1/s"},
        "latency_p90_ms": {"median": 4.0, "unit": "ms"},
    }
    cli = bench["workloads"]["cli"]
    assert cli["correct"] is False  # one run of two was not correct
    assert cli["metrics"]["throughput_qps"]["median"] == 20.0  # even count: mean of the middle two


def test_runs_of_different_commits_are_refused():
    runs = {"series": [bench_trajectory.parse_run(_stdout(1, 1.0, 1.0)),
                       bench_trajectory.parse_run(_stdout(2, 1.0, 1.0, commit="def456"))]}
    with pytest.raises(ValueError, match="runs disagree"):
        bench_trajectory.assemble(runs)


def test_run_without_result_lines_is_refused():
    with pytest.raises(ValueError, match="no metadata and result lines"):
        bench_trajectory.parse_run("perfbench: cannot import kalmandeg\n")
