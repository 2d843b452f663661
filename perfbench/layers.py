"""Per-layer instrumentation of qbarrier for the traced benchmark run.

Each entry wraps a public function at the name its caller looks up, so the
program itself is not edited: `run_job` calls `qbarrier.cli.sample_scenarios`,
`synthesis_loop` calls `qbarrier.lp.solve_lp` and `qbarrier.lp.verify_certificate`,
the HiGHS calls go through `qbarrier.lp.linprog` and `qbarrier.grover.linprog`,
and the builtin engine calls its deciders through `qbarrier.smt.builtin`.
"""
from __future__ import annotations

import os
from pathlib import Path

import qbarrier.cli
import qbarrier.grover
import qbarrier.lp
import qbarrier.regions
import qbarrier.smt.builtin
import qbarrier.smt.encode
import qbarrier.smt.run
import qbarrier.templates

from spans import Tracer, ancestor_names

# span name -> metric stem; every span also gets a `<stem>.self_s` metric
SPANS = (
    "job",
    "regions.sample",
    "templates.eval",
    "lp.scenario",
    "lp.build",
    "lp.solve",
    "lp.polish",
    "lp.finalize",
    "lp.highs",
    "smt.verify",
    "smt.encode",
    "smt.run",
    "smt.parse",
    "smt.feature_lp",
    "smt.probe",
    "smt.qubit",
    "smt.icp",
    "grover.synth",
)
DECIDERS = ("feature_lp", "probe", "qubit", "icp")


def _count_membership(t: Tracer, args, kwargs, result):
    t.counts["regions.candidates"] += int(result.shape[0])
    t.counts["regions.accepted"] += int(result.sum())


def _count_eval(t: Tracer, args, kwargs, result):
    t.counts["templates.eval_cells"] += int(result.shape[0] * result.shape[1])


def _size_counter():
    seen: set[tuple[int, int]] = set()

    def on_result(t: Tracer, args, kwargs, result):
        # args: (self, template, ...); a template size new to the current
        # job counts as one more size tried
        key = (t.root(), args[1].n_terms)
        if key not in seen:
            seen.add(key)
            t.counts["lp.sizes"] += 1

    return on_result


def _count_build(t: Tracer, args, kwargs, problem):
    t.counts["lp.builds"] += 1
    t.counts["lp.rows"] += problem.n_rows
    cells = problem.n_rows * problem.n_vars
    t.counts["lp.rows_max"] = max(t.counts["lp.rows_max"], cells)


def _count_solve(t: Tracer, args, kwargs, result):
    t.counts["lp.solves"] += 1


def _count_highs(t: Tracer, args, kwargs, result):
    t.counts["lp.highs_calls"] += 1
    a_ub = kwargs.get("A_ub")
    t.counts["lp.highs_rows"] += 0 if a_ub is None else int(a_ub.shape[0])


def _count_gate(report, t: Tracer):
    t.counts["lp.candidates"] += 1
    t.counts["lp.verified"] += report.overall == "verified"
    t.counts["lp.rounds"] += report.overall == "refuted"


def _count_circuit_gate(t: Tracer, args, kwargs, result):
    _count_gate(result[0], t)


def _count_angle_gate(t: Tracer, args, kwargs, report):
    _count_gate(report, t)


def _count_encode(t: Tracer, args, kwargs, result):
    t.counts["smt.queries"] += 1


def _count_angle_encode(t: Tracer, args, kwargs, result):
    t.counts["smt.queries"] += len(result)


def _count_run(t: Tracer, args, kwargs, verdict):
    # run_solver(query, command, workdir) writes <workdir>/<condition>.smt2
    query = args[0]
    workdir = args[2] if len(args) > 2 else kwargs.get("workdir", ".")
    path = Path(workdir) / f"{query.condition_id}.smt2"
    t.counts["smt.runs"] += 1
    t.counts["smt.query_bytes"] += os.path.getsize(path)


def _count_problem(t: Tracer, args, kwargs, result):
    t.counts["smt.solves"] += 1


def _decided(name, test):
    def on_result(t: Tracer, args, kwargs, result):
        if test(result):
            t.counts[f"smt.decided.{name}"] += 1

    return on_result


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    w = tracer.wrap
    w(qbarrier.cli, "sample_scenarios", "regions.sample")
    w(qbarrier.regions.Region, "membership_batch", None, _count_membership)
    w(qbarrier.templates.BarrierTemplate, "evaluate_terms", "templates.eval", _count_eval)
    w(qbarrier.lp.ScenarioLP, "__init__", "lp.scenario", _size_counter())
    w(qbarrier.lp.ScenarioLP, "build", "lp.build", _count_build)
    w(qbarrier.lp, "solve_lp", "lp.solve", _count_solve)
    w(qbarrier.lp.ScenarioLP, "polish", "lp.polish")
    w(qbarrier.lp.ScenarioLP, "finalize", "lp.finalize")
    w(qbarrier.lp, "linprog", "lp.highs", _count_highs)
    w(qbarrier.grover, "linprog", "lp.highs", _count_highs)
    w(qbarrier.lp, "verify_certificate", "smt.verify", _count_circuit_gate)
    w(qbarrier.smt.run, "verify_certificate", "smt.verify")
    w(qbarrier.grover, "verify_queries", "smt.verify", _count_angle_gate)
    w(qbarrier.smt.encode, "encode_condition", "smt.encode", _count_encode)
    w(qbarrier.grover, "angle_queries", "smt.encode", _count_angle_encode)
    w(qbarrier.smt.run, "run_solver", "smt.run", _count_run)
    w(qbarrier.smt.builtin, "parse_problem", "smt.parse")
    w(qbarrier.smt.builtin, "solve_problem", None, _count_problem)
    w(
        qbarrier.smt.builtin,
        "decide_feature_lp",
        "smt.feature_lp",
        _decided("feature_lp", lambda r: r is not None and r[0] != "unknown"),
    )
    w(qbarrier.smt.builtin, "probe_sat", "smt.probe", _decided("probe", lambda r: r is not None))
    w(
        qbarrier.smt.builtin,
        "qubit_feature_refute",
        "smt.qubit",
        _decided("qubit", lambda r: r == "unsat"),
    )
    w(
        qbarrier.smt.builtin,
        "icp_refute",
        "smt.icp",
        _decided("icp", lambda r: r[0] in ("sat", "unsat")),
    )
    w(qbarrier.cli, "synth_angle_certificate", "grover.synth")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    totals = tracer.totals()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        inclusive, own, _ = totals.get(name, (0.0, 0.0, 0))
        out[f"{name}_s"] = (inclusive, "s")
        out[f"{name}.self_s"] = (own, "s")
    by_id = {s.id: s for s in tracer.spans}
    out["grover.lp_s"] = (
        sum(
            s.duration
            for s in tracer.spans
            if s.name == "lp.highs" and "grover.synth" in ancestor_names(s, by_id)
        ),
        "s",
    )
    out["regions.accept_ratio"] = (
        _ratio(c["regions.accepted"], c["regions.candidates"]),
        "ratio",
    )
    out["templates.eval_cells"] = (c["templates.eval_cells"], "count")
    for key in ("lp.rows", "lp.rows_max", "lp.solves", "lp.highs_calls",
                "lp.highs_rows", "lp.sizes", "lp.rounds", "smt.queries",
                "smt.query_bytes"):
        out[key] = (c[key], "count")
    out["lp.accept_ratio"] = (_ratio(c["lp.verified"], c["lp.candidates"]), "ratio")
    decided = 0
    for name in DECIDERS:
        decided += c[f"smt.decided.{name}"]
        out[f"smt.decided.{name}"] = (c[f"smt.decided.{name}"], "count")
    out["smt.decided.none"] = (c["smt.solves"] - decided, "count")
    return out
