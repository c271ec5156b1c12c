"""Tests of the benchmark itself: the stream generator, the reference answers
and the span arithmetic.

    python3 -m pytest -q perfbench/tests

Checking the reference file runs sympy oracles and takes about a minute.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import refroutes  # noqa: E402  (puts src/ and tests/ on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _ids(workload, seed, n_passes=4):
    stream = workloads.passes(workload, seed)
    return [[q.id for q in next(stream)] for _ in range(n_passes)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_deterministic_per_seed_and_differs_across_seeds(workload):
    assert _ids(workload, 7) == _ids(workload, 7)
    assert _ids(workload, 7) != _ids(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_member_runs_equally_often_whatever_the_seed(workload):
    groups = workloads.pool(workload)
    n_passes = max(len(g.members) for g in groups)
    for seed in (1, 2):
        counts = {}
        for batch in _ids(workload, seed, n_passes):
            for qid in batch:
                counts[qid] = counts.get(qid, 0) + 1
        for g in groups:
            got = [counts.get(q.id, 0) for q in g.members]
            assert max(got) - min(got) <= 1, (g.name, got)


def test_reference_covers_the_pools_exactly():
    pool = {q.id: q for w in workloads.WORKLOADS for q in workloads.all_queries(w)}
    entries = REFERENCE["entries"]
    assert set(entries) == set(pool)
    for qid, q in pool.items():
        assert entries[qid]["kind"] == q.kind
        assert entries[qid]["args"] == json.loads(json.dumps(q.args))
    assert set(REFERENCE["known_defects"]) == set(workloads.KNOWN_DEFECTS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_reference_answer_passes_its_independent_check(workload):
    problems = []
    for q in workloads.all_queries(workload):
        problems += [f"{q.id}: {p}" for p in refroutes.verify(q, REFERENCE["entries"][q.id]["answer"])]
    assert problems == []


def test_independent_check_rejects_a_wrong_answer():
    q = next(q for q in workloads.all_queries("extract") if q.kind == "extract_degree")
    right = REFERENCE["entries"][q.id]["answer"]
    assert refroutes.verify(q, right) == []
    assert refroutes.verify(q, str(int(right) + 1)) != []


def test_series_route_matches_extraction():
    from kalmandeg.degrees import CodimVec, TensorFormat, extract_degree

    omega, caps, y_cap = (2, 1, 3), (4, 3, 4), 2
    coeffs = refroutes.series_coeffs(omega, caps, y_cap)
    for n1 in range(1, caps[0] + 1):
        for n2 in range(1, caps[1] + 1):
            for n3 in range(1, caps[2] + 1):
                for d in range(min(y_cap, n1 - 1) + 1):
                    want = extract_degree(TensorFormat((n1, n2, n3), omega), CodimVec((d, 0, 0)))
                    assert coeffs.get(((n1, n2, n3), d), 0) == want


def test_ref_degree_uses_sympy_for_codimension_in_several_factors():
    sys.path.insert(0, str(HERE.parent / "tests"))
    from oracles import oracle_extract

    assert refroutes.ref_degree((4, 3), (1, 1), (2, 1)) == oracle_extract((4, 3), (1, 1), (2, 1))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_synthetic_span_tree():
    # main [0, 10]
    #   mul [1, 3]
    #   add [4, 9]
    #     mul [5, 6]
    #     mul [7, 8.5]
    clock = FakeClock()
    tr = spans.Tracer(clock)
    events = [(0, "enter", "main"), (1, "enter", "mul"), (3, "exit", None), (4, "enter", "add"),
              (5, "enter", "mul"), (6, "exit", None), (7, "enter", "mul"), (8.5, "exit", None),
              (9, "exit", None), (10, "exit", None)]
    for t, kind, name in events:
        clock.t = t
        tr.enter(name) if kind == "enter" else tr.exit()
    st = tr.stats
    assert st["main"].calls == 1 and st["main"].total_s == 10
    assert st["main"].self_s == pytest.approx(10 - 2 - 5)
    assert st["add"].self_s == pytest.approx(5 - 1 - 1.5)
    assert st["mul"].calls == 3
    assert st["mul"].self_s == pytest.approx(2 + 1 + 1.5)
    assert st["mul"].total_s == pytest.approx(4.5)


def test_recursive_span_counts_total_once_and_pause_hides_time():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enter("f")            # t=0
    clock.t = 1
    tr.enter("f")            # inner call at t=1
    clock.t = 2
    with tr.paused():        # 5 s of bookkeeping inside the inner span
        clock.t = 7
    clock.t = 8
    tr.exit()                # inner: 8 - 1 - 5 = 2 s
    clock.t = 9
    tr.exit(error=True)      # outer: 9 - 0 - 5 = 4 s
    st = tr.stats["f"]
    assert st.calls == 2 and st.errors == 1
    assert st.total_s == pytest.approx(4)
    assert st.self_s == pytest.approx(2 + (4 - 2))


def test_patch_traces_every_binding_and_restores_them():
    import kalmandeg
    import kalmandeg.asympt as asympt
    import kalmandeg.degrees as degrees
    import kalmandeg.polycore as polycore

    before = (polycore.poly_mul, degrees.poly_mul, asympt.extract_degree, kalmandeg.extract_degree, polycore.TPoly.__add__)
    tr = spans.Tracer()
    patch = spans.Patch(tr)
    patch.install()
    try:
        assert patch.absent == []
        assert degrees.poly_mul is polycore.poly_mul is not before[0]
        assert asympt.extract_degree is degrees.extract_degree is kalmandeg.extract_degree
        asympt.compare_exact_asymptotic(3, 1, 0, [4])
    finally:
        patch.remove()
    assert (polycore.poly_mul, degrees.poly_mul, asympt.extract_degree, kalmandeg.extract_degree, polycore.TPoly.__add__) == before
    st = tr.stats
    assert st["asympt.compare_exact_asymptotic"].calls == 1
    assert st["degrees.extract_degree"].calls == 1
    assert st["polycore.poly_mul"].calls > 0
    metrics = spans.layer_metrics(tr)
    assert 0 < metrics["polycore.poly_mul.kept_frac"] <= 1
    assert metrics["polycore.poly_mul.pairs"] >= metrics["polycore.poly_mul.out_terms"]


def test_missing_targets_are_reported_absent(monkeypatch):
    targets = spans.TARGETS + (("genfun", "NoSuchClass.expand", "genfun.NoSuchClass.expand"), ("polycore", "gone", "polycore.gone"))
    monkeypatch.setattr(spans, "TARGETS", targets)
    patch = spans.Patch(spans.Tracer())
    patch.install()
    patch.remove()
    assert patch.absent == ["genfun.NoSuchClass.expand", "polycore.gone"]
    assert spans.layer_metrics(spans.Tracer())["polycore.gone.calls"] == 0


def test_benchmark_json_lists_every_metric_the_runner_prints():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(spans.metric_units())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
