"""Tests of the benchmark itself: span arithmetic, metric names, wrapper
removal, the recorded expectations, and a smoke run of a tiny job set
through the same runner."""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run as bench  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_covered_merges_and_clips_intervals():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == 2.0
    assert covered(0.0, 1.0, [(2.0, 3.0)]) == 0.0


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(0, "job", 0.0, 10.0, None),
        Span(1, "lp.solve", 1.0, 4.0, 0),
        Span(2, "lp.highs", 1.5, 3.5, 1),
        Span(3, "smt.verify", 5.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0}


def test_tracer_nests_spans_and_totals_count_outermost_only():
    t = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 9.0))
    with t.span("job"):
        with t.span("smt.verify"):
            with t.span("smt.verify"):
                pass
        with t.span("lp.solve"):
            pass
    by_name = {s.name: s for s in t.spans}
    assert by_name["job"].parent is None
    assert by_name["lp.solve"].parent == by_name["job"].id
    inclusive, own, count = t.totals()["smt.verify"]
    assert (inclusive, own, count) == (2.0, 2.0, 2)
    assert t.totals()["job"] == (9.0, 6.0, 1)


def test_closing_out_of_order_raises():
    t = Tracer()
    outer = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(outer)


def test_missing_attribute_is_skipped_and_listed():
    class Owner:
        pass

    t = Tracer()
    t.wrap(Owner, "absent", "x")
    assert t.missing == ["Owner.absent"]


def _per_layer_names():
    return set(layers.metrics(Tracer())) | bench.TRACE_METRICS


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in e2e | per_layer | _per_layer_names():
        assert NAME.fullmatch(name), name
    assert e2e == set(bench.END_TO_END)
    assert per_layer == _per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


def test_expected_statuses_agree_with_readme():
    expected = bench.load_expected()
    assert expected
    names = set(bench.WORKLOADS["certify"]) | set(bench.WORKLOADS["grow"])
    for seed, table in expected.items():
        assert set(table) == names, seed
        for name, status in table.items():
            assert status == bench.README_STATUS.get(name, status), (seed, name)


def test_recheck_loader_rejects_dimension_mismatch(tmp_path):
    bench.import_program()
    doc = json.loads((bench.DATA / "recheck.json").read_text(encoding="utf-8"))
    entry = next(e for e in doc["certificates"] if e["config"] == "zgate3_infinite")
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"certificates": [entry]}), encoding="utf-8")
    assert len(bench.load_recheck(path)) == 1
    bad = dict(entry, config="cnot2_infinite")
    path.write_text(json.dumps({"certificates": [bad]}), encoding="utf-8")
    with pytest.raises(ValueError, match="dimension"):
        bench.load_recheck(path)


def _wrapped_attributes():
    import qbarrier.cli
    import qbarrier.grover
    import qbarrier.lp
    import qbarrier.regions
    import qbarrier.smt.builtin
    import qbarrier.smt.encode
    import qbarrier.smt.run
    import qbarrier.templates

    owners = (
        qbarrier.cli, qbarrier.grover, qbarrier.lp, qbarrier.lp.ScenarioLP,
        qbarrier.regions.Region, qbarrier.smt.builtin, qbarrier.smt.encode,
        qbarrier.smt.run, qbarrier.templates.BarrierTemplate,
    )
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_smoke_run_untraced_and_traced(tmp_path):
    from qbarrier import load_config

    bench.import_program()
    jobs = []
    for name in ("cnot2_infinite", "grover_n5_m1"):
        job = load_config(bench.config_path(name))
        job.synthesis.seed = 7
        jobs.append(job)
    expected = {"cnot2_infinite": "solved", "grover_n5_m1": "solved"}

    wall, plain = bench.run_jobs_pass(jobs, expected, tmp_path / "plain")
    assert wall > 0
    assert [o.status for o in plain] == ["solved", "solved"]

    before = _wrapped_attributes()
    tracer = Tracer()
    layers.install(tracer)
    try:
        _, traced = bench.run_jobs_pass(jobs, expected, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert _wrapped_attributes() == before
    assert tracer.missing == []

    assert bench.check([plain, traced], {j.name: j for j in jobs}) == []
    m = {k: v for k, (v, _) in layers.metrics(tracer).items()}
    assert m["lp.highs_calls"] >= 2 and m["lp.highs_rows"] > 0
    assert m["smt.queries"] >= 5 and m["smt.query_bytes"] > 0
    assert m["grover.synth_s"] > 0 and 0 < m["grover.lp_s"] <= m["grover.synth_s"]
    assert 0 < m["regions.accept_ratio"] <= 1
    assert 0 < m["lp.accept_ratio"] <= 1
    assert m["job_s"] >= m["lp.solve_s"] + m["grover.synth_s"]
    assert sum(m[f"smt.decided.{d}"] for d in (*layers.DECIDERS, "none")) > 0
    assert [o.status for o in traced] == [o.status for o in plain]


def test_check_counts_wrong_status_and_errors_as_failures():
    outcomes = [
        bench.Outcome("a", "unsolved", "solved", 1.0),
        bench.Outcome("b", "error", "solved", 1.0, error="LPError: boom"),
        bench.Outcome("c", "unknown", "unknown", 1.0),
    ]
    failures = bench.check([outcomes], {})
    assert len(failures) == 2
