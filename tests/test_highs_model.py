"""The live HiGHS model behind every LP solve: the bindings it needs, the
status codes it gives, rows appended once, re-solves after in-place bound
changes that agree with fresh solves, and the one model a synthesis job
carries across template sizes and rounds."""
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

import qbarrier.lp
from qbarrier.cli import bundled_config_path
from qbarrier.config import load_config
from qbarrier.lp import (
    CUT_TOL,
    DenseRows,
    HighsModel,
    LPProblem,
    LPSolverError,
    ScenarioLP,
    ScenarioRows,
    _cut_solve,
    _spread,
    linprog,
    recheck_solution,
    sample_scenarios,
    solve_lp,
    synthesis_loop,
)
from qbarrier.regions import full_sphere, parse_region
from qbarrier.templates import full_template


def test_bindings_have_every_method_the_module_calls():
    import scipy

    called = set(re.findall(r"self\._highs\.(\w+)\(", Path(qbarrier.lp.__file__).read_text()))
    assert {"addRows", "changeColsBounds", "run"} <= called
    try:
        from scipy.optimize._highspy import _core as core
    except ImportError as exc:
        pytest.fail(f"scipy {scipy.__version__} ships no HiGHS bindings ({exc}); qbarrier needs scipy>=1.17")
    missing = sorted(name for name in called if not hasattr(core._Highs, name))
    assert missing == [], f"scipy {scipy.__version__}'s HiGHS bindings lack {missing}; qbarrier needs scipy>=1.17"
    unknown = sorted(set(qbarrier.lp._STATUS_CODES) - set(core.HighsModelStatus.__members__))
    assert unknown == [], f"scipy {scipy.__version__}'s HiGHS has no model status {unknown}"


def _run(cost, bounds, a, b, **options):
    model = HighsModel(np.array(cost, dtype=float), bounds)
    for key, value in options.items():
        model._highs.setOptionValue(key, value)
    return linprog(model, A_ub=np.array(a, dtype=float), b_ub=np.array(b, dtype=float))


def test_optimal_status_carries_the_point_and_objective():
    # min -x0 - x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6, x >= 0
    res = _run([-1, -1], [(0, None)] * 2, [[1, 2], [3, 1]], [4, 6])
    assert res.status == 0
    assert np.allclose(res.x, [1.6, 1.2]) and res.fun == pytest.approx(-2.8)


def test_infeasible_status():
    res = _run([1], [(None, None)], [[1], [-1]], [-1, -1])  # x <= -1 and x >= 1
    assert (res.status, res.x, res.fun) == (2, None, None)


def test_unbounded_status():
    res = _run([-1, -1], [(0, None)] * 2, [[1, -1]], [1])  # the ray x0 = x1 + 1
    assert (res.status, res.x) == (3, None)


def test_unbounded_or_infeasible_status():
    # presolve sees a column that its cost drives to infinity and stops there
    res = _run([-1, 0], [(0, None), (None, None)], [[-1, 1]], [1], allow_unbounded_or_infeasible=True)
    assert (res.status, res.x) == (4, None)


def test_unbounded_or_infeasible_working_set_takes_the_doubling_path(monkeypatch):
    # maximize x0 over x0 free, x1 in [0, 1]; only row `cap` bounds x0, and
    # the first working set leaves it out
    n_rows = 300
    a = np.tile([0.0, 1.0], (n_rows, 1))
    b = np.ones(n_rows)
    seed = _spread(n_rows, 200)
    cap = int(np.setdiff1d(np.arange(n_rows), seed)[0])
    a[cap], b[cap] = [1.0, 0.0], 3.0
    model = HighsModel(np.array([-1.0, 0.0]), [(None, None), (0.0, 1.0)])
    model._highs.setOptionValue("allow_unbounded_or_infeasible", True)
    statuses = []

    def recording(model, *, A_ub, b_ub):
        res = linprog(model, A_ub=A_ub, b_ub=b_ub)
        statuses.append((len(A_ub), res.status))
        return res

    monkeypatch.setattr(qbarrier.lp, "linprog", recording)
    res, keep = _cut_solve(model, DenseRows(a, b), seed)
    assert statuses == [(len(seed), 4), (n_rows - len(seed), 0)]
    assert len(keep) == n_rows and res.x[0] == pytest.approx(3.0)


@pytest.mark.parametrize("name", ["kMemoryLimit", "kStatusFromANewerHighs"])
def test_an_unknown_model_status_raises(name):
    model = HighsModel(np.array([1.0]), [(0.0, 1.0)])
    real = model._highs

    class Bindings:
        def __getattr__(self, attr):
            return getattr(real, attr)

        def getModelStatus(self):
            return SimpleNamespace(name=name)

    model._highs = Bindings()
    with pytest.raises(LPSolverError, match=name):
        linprog(model, A_ub=np.ones((1, 1)), b_ub=np.ones(1))


def test_rows_are_appended_once(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3000, 5))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    problem = LPProblem(
        rows=DenseRows(a, np.ones(3000)),
        bounds=[(None, None)] * 5,
        objective=np.array([1.0, 0.5, 0.0, 0.0, 0.0]),
        families=[("rows", 0, 3000)],
    )
    sent = []
    real = qbarrier.lp.linprog

    def counting(model, *, A_ub, b_ub):
        sent.append(len(A_ub))
        return real(model, A_ub=A_ub, b_ub=b_ub)

    monkeypatch.setattr(qbarrier.lp, "linprog", counting)
    sol = solve_lp(problem)
    assert sol.status == "optimal" and sol.highs_calls == len(sent) >= 2
    assert sum(sent) == sol.rows_kept < 3000
    assert sol.simplex_iterations > 0


def _sphere_rows(n_rows: int, n_vars: int, seed: int) -> DenseRows:
    a = np.random.default_rng(seed).normal(size=(n_rows, n_vars))
    return DenseRows(a / np.linalg.norm(a, axis=1, keepdims=True), np.ones(n_rows))


def _fresh(cost, bounds, rows):
    res, _ = _cut_solve(HighsModel(cost, bounds), rows, _spread(rows.n_rows, 200))
    return res


def test_bounds_changed_in_place_match_fresh_solves():
    rows = _sphere_rows(2000, 6, seed=11)
    cost = -np.array([1.0, 0.7, 0.4, 0.2, 0.1, 0.05])
    bounds = [(-10.0, 10.0)] * 6
    model = HighsModel(cost, bounds)
    first, keep = _cut_solve(model, rows, _spread(rows.n_rows, 200))
    assert first.status == 0
    for cols in ([5], [4, 5], [3, 4, 5]):
        model.set_bounds(cols, [(0.0, 0.0)] * len(cols))
        res, keep = _cut_solve(model, rows, keep)
        fixed = [(0.0, 0.0) if i in cols else b for i, b in enumerate(bounds)]
        ref = _fresh(cost, fixed, rows)
        assert res.status == ref.status == 0
        assert res.fun == pytest.approx(ref.fun, rel=1e-7)
        assert recheck_solution(LPProblem(rows, fixed, -cost, []), res.x) <= 1e-7
    # an infeasible try, then its bounds restored in place
    model.set_bounds([0], [(5.0, 5.0)])
    res, keep = _cut_solve(model, rows, keep)
    assert res.status == 2
    model.set_bounds([0], [bounds[0]])
    res, keep = _cut_solve(model, rows, keep)
    ref = _fresh(cost, [b if i < 3 else (0.0, 0.0) for i, b in enumerate(bounds)], rows)
    assert res.status == 0 and res.fun == pytest.approx(ref.fun, rel=1e-7)


def test_polish_re_solves_match_fresh_solves_at_their_bounds(monkeypatch):
    # at this size some trailing terms cannot be zeroed, and later ones are
    # tried after their bounds are restored
    job = load_config(bundled_config_path("cnot2_infinite"))
    cfg = job.synthesis
    scen = sample_scenarios(job.init_region, job.unsafe_region, job.global_region, cfg)
    slp = ScenarioLP(full_template(job.dynamics.dim, cfg.degree, 7).prefix(7), ScenarioRows(scen, job.dynamics, cfg))
    problem = slp.build()
    sol = solve_lp(problem)

    class Recording(HighsModel):
        def __init__(self, cost, bounds, a_fixed=None, b_fixed=None):
            super().__init__(cost, bounds, a_fixed, b_fixed)
            self.spec = [cost, list(bounds), a_fixed, b_fixed]
            self.initial = list(bounds)
            models.append(self)

        def set_bounds(self, cols, bounds):
            super().set_bounds(cols, bounds)
            for c, b in zip(cols, bounds):
                self.spec[1][c] = b

        def zeroed(self):
            return {c for c, (b, b0) in enumerate(zip(self.spec[1], self.initial)) if b != b0}

    models = []
    statuses = []
    kept = set()  # columns zeroed at the last optimal solve

    def comparing(model, rows, keep):
        nonlocal kept
        zeroed = model.zeroed()
        # a solve zeroes what the last optimal one did plus one term's columns
        assert kept <= zeroed and len(zeroed - kept) in (0, 2 * slp.n_vec)
        res, keep = real_cut_solve(model, rows, keep)
        ref, _ = real_cut_solve(HighsModel(*model.spec), rows, _spread(rows.n_rows, 200))
        assert res.status == ref.status
        if res.status == 0:
            assert res.fun == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)
            kept = zeroed
        statuses.append(res.status)
        return res, keep

    real_cut_solve = qbarrier.lp._cut_solve
    monkeypatch.setattr(qbarrier.lp, "HighsModel", Recording)
    monkeypatch.setattr(qbarrier.lp, "_cut_solve", comparing)
    x = slp.polish(problem, sol.objective)
    assert x is not None and statuses[0] == 0
    assert 0 in statuses[1:] and 2 in statuses[1:-1]
    assert models[0].zeroed() == kept  # the last infeasible try was undone
    assert slp.polish_calls >= len(statuses) and slp.polish_iterations > 0


# ----- one model per job ------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 40),
    n_cols=st.integers(1, 8),
)
def test_columns_appended_one_at_a_time_match_fresh_solves(seed, n_rows, n_cols):
    # each new column comes with its entries on the rows the model holds;
    # half of the rows arrive only after some columns were appended
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_rows, n_cols))
    b = rng.uniform(0.1, 2.0, n_rows)
    cost = rng.normal(size=n_cols)
    bounds = [(-1.0, 1.0)] * n_cols
    first, late = np.arange(n_rows // 2), np.arange(n_rows // 2, n_rows)
    model = HighsModel()
    held = np.zeros(0, dtype=int)
    for j in range(n_cols):
        model.add_cols(cost[j : j + 1], bounds[:1], a[held][:, [j]])
        new = first if j == 0 else late if j == n_cols // 2 else np.zeros(0, dtype=int)
        res = linprog(model, A_ub=a[new, : j + 1], b_ub=b[new])
        held = np.concatenate([held, new])
        ref = scipy_linprog(
            cost[: j + 1], A_ub=a[held, : j + 1], b_ub=b[held], bounds=bounds[: j + 1], method="highs"
        )
        assert model.n_cols == j + 1
        assert res.status == ref.status == 0
        assert res.fun == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert cost[: j + 1] @ res.x == pytest.approx(res.fun, rel=1e-9, abs=1e-9)
        assert np.all(a[held, : j + 1] @ res.x <= b[held] + 1e-7)


def _z_job(samples=400, seed=2):
    """A three-qubit Z invariant job's scenario rows."""
    from qbarrier import SynthesisConfig, constant_dynamics, standard_gate, tensor

    dyn = constant_dynamics(tensor([standard_gate("Z")] * 3))
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=samples, seed=seed)
    init = parse_region(["prob(0) >= 0.9"], 8, "init")
    unsafe = parse_region(["prob(1) >= 0.2"], 8, "unsafe")
    scen = sample_scenarios(init, unsafe, full_sphere(8), cfg)
    return ScenarioRows(scen, dyn, cfg)


def test_one_model_counts_each_solve_on_its_own(monkeypatch):
    rows = _z_job()
    template = full_template(8, 2, 6)
    model = HighsModel()
    calls = []  # rows appended by each HiGHS call on the job's model
    real = qbarrier.lp.linprog

    def counting(target, *, A_ub, b_ub):
        if target is model:
            calls.append(len(A_ub))
        return real(target, A_ub=A_ub, b_ub=b_ub)

    monkeypatch.setattr(qbarrier.lp, "linprog", counting)
    for nt in (3, 6):
        problem = ScenarioLP(template.prefix(nt), rows).build()
        before = len(calls), model.iterations
        sol = solve_lp(problem, model)
        assert sol.status == "optimal"
        assert sol.highs_calls == len(calls) - before[0] >= 1
        assert sol.simplex_iterations == model.iterations - before[1]
        assert sol.rows_kept == len(model.held) == sum(calls)
        fresh = solve_lp(problem)
        assert sol.objective == pytest.approx(fresh.objective, rel=1e-9)
    # the second size started from the first one's rows and basis
    assert model.calls == len(calls) and 0 < sol.highs_calls < model.calls


def test_a_later_lp_extends_the_earlier_one():
    # an uncertain step draws five images of the global states; a global
    # counterexample adds its image under each of them to the step rows
    from qbarrier import Dynamics, Schedule, SynthesisConfig, standard_gate
    from qbarrier.quantum import StepMap, hadamard_uncertain

    step = StepMap(n=2, factors=(standard_gate("CX"), (hadamard_uncertain(0.9, 1.1), (1,))))
    dyn = Dynamics(maps=(step,), schedule=Schedule((0,)))
    cfg = SynthesisConfig(flavor="hybrid", degree=2, samples=20, seed=5, k=2)
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(3) >= 0.5"], 4, "unsafe")
    rows = ScenarioRows(sample_scenarios(init, unsafe, full_sphere(4), cfg), dyn, cfg)
    template = full_template(4, 2, 6)
    rng = np.random.default_rng(1)
    problems = [ScenarioLP(template.prefix(2), rows).build()]
    for nt, cid, params in ((3, "shift-t0", ()), (3, "step-t1", (1.0,)), (5, "init", ()), (6, "k-step", (1.0, 0.95))):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        rows.absorb(cid, z / np.linalg.norm(z), params)
        problems.append(ScenarioLP(template.prefix(nt), rows).build())
    for first, later in zip(problems, problems[1:]):
        assert later.n_rows > first.n_rows and later.n_vars >= first.n_vars
        idx = np.arange(first.n_rows)
        a0, b0 = first.rows.take(idx)
        a1, b1 = later.rows.take(idx)
        assert a1[:, : first.n_vars].tobytes() == a0.tobytes() and b1.tobytes() == b0.tobytes()
        assert later.families[: len(first.families)] == first.families
        assert np.array_equal(later.objective[: first.n_vars], first.objective)
        assert later.bounds[: first.n_vars] == first.bounds


def test_the_job_model_matches_cold_solves_at_every_size(monkeypatch, tmp_path):
    job = load_config(bundled_config_path("xgate3_finite_t1"))
    cfg = job.synthesis
    cfg.samples = 1000
    real = qbarrier.lp.solve_lp
    checked = []

    def comparing(problem, model=None):
        sol = real(problem, model)
        cold = real(problem)
        assert sol.status == cold.status
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
            assert recheck_solution(problem, sol.x) <= CUT_TOL
        checked.append(problem.n_vars)
        return sol

    monkeypatch.setattr(qbarrier.lp, "solve_lp", comparing)
    res = synthesis_loop(
        job.dynamics, job.init_region, job.unsafe_region, job.global_region, cfg, workdir=tmp_path
    )
    assert res.status == "unsolved" and res.rejections
    assert len(set(checked)) == res.terms_used and len(checked) == len(res.lp)


def test_each_scenario_row_reaches_the_job_model_once(monkeypatch, tmp_path):
    job = load_config(bundled_config_path("xgate3_finite_t1"))
    cfg = job.synthesis
    cfg.samples = 1000
    real_solve, real_linprog = qbarrier.lp.solve_lp, qbarrier.lp.linprog
    models = set()  # the job's model: the one every scenario solve is given
    sent = []  # indices of the rows appended to it

    def solving(problem, model=None):
        models.add(id(model))
        return real_solve(problem, model)

    def counting(model, *, A_ub, b_ub):
        if id(model) in models:  # not a polish model
            sent.extend(model.held[len(model.held) - len(A_ub) :].tolist())
        return real_linprog(model, A_ub=A_ub, b_ub=b_ub)

    monkeypatch.setattr(qbarrier.lp, "solve_lp", solving)
    monkeypatch.setattr(qbarrier.lp, "linprog", counting)
    res = synthesis_loop(
        job.dynamics, job.init_region, job.unsafe_region, job.global_region, cfg, workdir=tmp_path
    )
    assert res.status == "unsolved" and len(res.lp) > res.terms_used and len(models) == 1
    assert len(sent) == len(set(sent)) == res.lp[-1]["rows_kept"]
    assert sum(entry["rows"] for entry in res.lp) > 100 * len(sent)
