import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import qbarrier.lp

from qbarrier import (
    Dynamics,
    Schedule,
    SynthesisConfig,
    build_lp,
    constant_dynamics,
    full_sphere,
    full_template,
    parse_region,
    recheck_solution,
    sample_scenarios,
    solve_lp,
    standard_gate,
    synthesis_loop,
    tensor,
)
from qbarrier.cli import bundled_config_path
from qbarrier.config import load_config
from qbarrier.lp import (
    LPError,
    LPProblem,
    NoCandidateError,
    ScenarioLP,
    Scenarios,
    extract_certificate,
)
from qbarrier.quantum import fixed_step
from qbarrier.templates import CertificateError


def z3_dynamics():
    return constant_dynamics(tensor([standard_gate("Z")] * 3))


def z3_regions():
    return (
        parse_region(["prob(0) >= 0.9"], 8, "init"),
        parse_region(["prob(1) >= 0.2"], 8, "unsafe"),
        full_sphere(8, "global"),
    )


def test_invariant_flavor_has_exactly_3n_rows():
    init, unsafe, glob = z3_regions()
    for n in (50, 173):
        cfg = SynthesisConfig(flavor="invariant", degree=2, samples=n, seed=2)
        scen = sample_scenarios(init, unsafe, glob, cfg)
        problem = build_lp(full_template(8, 2).prefix(3), z3_dynamics(), cfg, scen)
        assert problem.n_rows == 3 * n


def test_solve_trivial_bounded_lp():
    problem = LPProblem(
        a_ub=np.array([[1.0]]),
        b_ub=np.array([1.0]),
        bounds=[(None, None)],
        objective=np.array([1.0]),
        var_names=["g"],
        families=[("only", 0, 1)],
        flavor="invariant",
    )
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert abs(sol.objective - 1.0) < 1e-9


def test_solve_infeasible_pair():
    problem = LPProblem(
        a_ub=np.array([[-1.0], [1.0]]),
        b_ub=np.array([-1.0, 0.0]),  # g >= 1 and g <= 0
        bounds=[(None, None)],
        objective=np.array([1.0]),
        var_names=["g"],
        families=[("rows", 0, 2)],
        flavor="invariant",
    )
    assert solve_lp(problem).status == "infeasible"


def test_finite_horizon_decrement_rows_vanish_for_phase_gates():
    # the evolved probability terms equal the originals, so the step rows
    # carry no coefficient mass beyond the drift variable
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(
        flavor="finite-horizon", degree=2, samples=40, seed=3, horizon=5
    )
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(8, 2).prefix(3), z3_dynamics(), cfg, scen)
    problem = slp.build()
    (start, stop), = [
        (s, e) for fam, s, e in problem.families if fam == "step"
    ]
    delta_col = slp.flavor_vars["delta"]
    rows = problem.a_ub[start:stop]
    coef_part = np.delete(rows, delta_col, axis=1)
    assert np.max(np.abs(coef_part)) < 1e-12
    assert np.allclose(rows[:, delta_col], -1.0)


def test_hybrid_kstep_rows_use_schedule_composition():
    cx, cz = standard_gate("CX"), standard_gate("CZ")
    dyn = Dynamics(
        maps=(fixed_step(cx), fixed_step(cz)), schedule=Schedule((0, 1))
    )
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(1)+prob(2)+prob(3) >= 0.5"], 4, "unsafe")
    glob = full_sphere(4, "global")
    cfg = SynthesisConfig(flavor="hybrid", degree=2, samples=25, seed=5, k=2)
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(4, 2).prefix(3), dyn, cfg, scen)
    before_T, after_T = slp.kstep_data
    composed = cz.matrix @ cx.matrix
    expected = slp.template.evaluate_terms(scen.global_states @ composed.T)
    assert np.allclose(after_T, expected, atol=1e-12)


def test_returned_solution_rechecks_feasible():
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(
        flavor="finite-horizon", degree=2, samples=300, seed=9, horizon=6
    )
    scen = sample_scenarios(init, unsafe, glob, cfg)
    problem = build_lp(full_template(8, 2).prefix(2), z3_dynamics(), cfg, scen)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert recheck_solution(problem, sol.x) <= 1e-6


def test_extract_requires_positive_objective():
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=30, seed=4)
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(8, 2).prefix(1), z3_dynamics(), cfg, scen)
    problem = slp.build()
    sol = solve_lp(problem)  # constant-only template cannot separate
    assert sol.status != "optimal" or sol.objective < cfg.margin
    with pytest.raises(NoCandidateError):
        extract_certificate(slp, problem, sol)


def test_extracted_certificate_satisfies_rows_and_side_condition():
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(
        flavor="finite-horizon", degree=2, samples=500, seed=11, horizon=6
    )
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(8, 2).prefix(2), z3_dynamics(), cfg, scen)
    problem = slp.build()
    sol = solve_lp(problem)
    cert = extract_certificate(slp, problem, sol)
    c = cert.constants
    assert c["gamma"] + c["delta"] * c["T"] < c["lam"]
    assert slp.row_violation(cert) <= 1e-6
    # independent sampled re-check of the final certificate
    from qbarrier.templates import eval_real_batch

    vals_init = eval_real_batch(cert, scen.init_all())
    assert vals_init.max() <= c["gamma"] + 1e-6


def test_template_growth_is_monotone_prefix():
    tmpl = full_template(4, 2)
    prev = set()
    for size in range(1, 8):
        cur = set(t.exponents for t in tmpl.prefix(size).terms)
        assert prev.issubset(cur) and len(cur) == size
        prev = cur


def test_uncertain_dynamics_expand_step_rows_per_parameter_point():
    from qbarrier.quantum import Dynamics, Schedule, StepMap, hadamard_uncertain

    ug = hadamard_uncertain(0.9, 1.1)
    dyn = Dynamics(
        maps=(StepMap(n=1, factors=((ug, (0,)),)),), schedule=Schedule((0,))
    )
    init = parse_region(["prob(0) >= 0.9"], 2, "init")
    unsafe = parse_region(["prob(0) <= 0.1"], 2, "unsafe")
    glob = full_sphere(2, "global")
    n = 40
    cfg = SynthesisConfig(
        flavor="finite-horizon",
        degree=2,
        samples=n,
        seed=6,
        horizon=1,
        uncertainty_samples=5,
    )
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(2, 2).prefix(2), dyn, cfg, scen)
    problem = slp.build()
    assert problem.family_rows("step") == 5 * n
    # the loop terminates cleanly on the uncertain job (verdict may be
    # unknown: the gate parameter enters the queries nonlinearly)
    res = synthesis_loop(dyn, init, unsafe, glob, cfg, workdir="/tmp/he-loop")
    assert res.status in ("solved", "unknown", "unsolved")


def test_loop_returns_certificate_only_with_verified_gate():
    dyn = constant_dynamics(standard_gate("Z"))
    init = parse_region(["prob(0) >= 0.9"], 2, "init")
    unsafe = parse_region(["prob(0) <= 0.1"], 2, "unsafe")
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=150, seed=4)
    res = synthesis_loop(dyn, init, unsafe, full_sphere(2), cfg, workdir="/tmp/zloop")
    assert res.status == "solved"
    assert res.verification is not None and res.verification.overall == "verified"
    assert all(v.status == "unsat" for v in res.verification.verdicts)


def test_flavor_schedule_compatibility_checks():
    cx, cz = standard_gate("CX"), standard_gate("CZ")
    dyn = Dynamics(maps=(fixed_step(cx), fixed_step(cz)), schedule=Schedule((0, 1)))
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(1) >= 0.5"], 4, "unsafe")
    glob = full_sphere(4)
    scen = Scenarios(
        init=np.eye(4, dtype=complex)[:2],
        unsafe=np.eye(4, dtype=complex)[1:3],
        global_states=np.eye(4, dtype=complex),
    )
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=4, seed=1)
    with pytest.raises(LPError):
        ScenarioLP(full_template(4, 2).prefix(2), dyn, cfg, scen)
    cfg2 = SynthesisConfig(flavor="hybrid", degree=2, samples=4, seed=1, k=3)
    with pytest.raises(LPError):
        ScenarioLP(full_template(4, 2).prefix(2), dyn, cfg2, scen)


# ----- constraint generation against one direct solve on all rows ----------


def _random_lp(seed: int, n_rows: int, n_vars: int, kind: str) -> LPProblem:
    """Random LP: `sphere` rows are unit normals of a polytope around the
    unit ball (many rows nearly active, like sampled scenario rows), `dense`
    rows are Gaussian; `free` leaves some variables unbounded, `ray` leaves
    an improving ray that at most one planted row closes, and `infeasible`
    plants two contradicting rows."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_rows, n_vars))
    objective = rng.normal(size=n_vars)
    if kind == "sphere":
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = np.ones(n_rows)
    else:
        b = a @ rng.uniform(-1, 1, n_vars) + rng.uniform(0, 1, n_rows)
    bounds = [(-5.0, 5.0)] * n_vars
    if kind == "free":
        bounds[: n_vars // 2 + 1] = [(None, None)] * (n_vars // 2 + 1)
    e0 = np.eye(n_vars)[0]
    if kind == "ray":
        a[:, 0] = -np.abs(a[:, 0])
        b = np.abs(b)
        objective[0] = abs(objective[0]) + 0.1
        bounds[0] = (None, None)
        if rng.random() < 0.5:
            i = rng.integers(n_rows)
            a[i], b[i] = e0, 3.0  # x0 <= 3
    if kind == "infeasible":
        i, j = rng.choice(n_rows, 2, replace=False)
        a[i], b[i] = e0, -1.0  # x0 <= -1
        a[j], b[j] = -e0, -1.0  # x0 >= 1
    return LPProblem(
        a_ub=a,
        b_ub=b,
        bounds=bounds,
        objective=objective,
        var_names=[f"x{i}" for i in range(n_vars)],
        families=[("rows", 0, n_rows)],
        flavor="invariant",
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(200, 3000),
    n_vars=st.integers(2, 8),
    kind=st.sampled_from(["sphere", "dense", "free", "ray", "infeasible"]),
)
def test_constraint_generation_matches_direct_solve(seed, n_rows, n_vars, kind):
    problem = _random_lp(seed, n_rows, n_vars, kind)
    direct = linprog(
        c=-problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        bounds=problem.bounds,
        method="highs",
    )
    sol = solve_lp(problem)
    expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[direct.status]
    assert sol.status == expected
    if kind == "infeasible":
        assert sol.status == "infeasible"
    if expected == "optimal":
        obj = float(-direct.fun)
        assert abs(sol.objective - obj) <= 1e-7 * max(1.0, abs(obj))
        assert recheck_solution(problem, sol.x) <= 1e-7
        assert sol.rows_kept <= n_rows and sol.highs_calls >= 1


def _bundled_lp(name: str, size: int):
    job = load_config(bundled_config_path(name))
    cfg = job.synthesis
    scen = sample_scenarios(job.init_region, job.unsafe_region, job.global_region, cfg)
    template = full_template(job.dynamics.dim, cfg.degree, size).prefix(size)
    slp = ScenarioLP(template, job.dynamics, cfg, scen)
    return slp, slp.build()


def test_polish_on_bundled_config_satisfies_every_scenario_row(monkeypatch):
    slp, problem = _bundled_lp("hadamard1_finite_t1", 4)
    # the trailing-term re-solves run only under this gate on the full rows
    assert slp.nt <= 24 and problem.n_rows <= 40000
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert recheck_solution(problem, sol.x) <= 1e-7
    assert sol.rows_kept < problem.n_rows
    cut_solves = []
    real_cut_solve = qbarrier.lp._cut_solve

    def counting(*args, **kwargs):
        out = real_cut_solve(*args, **kwargs)
        cut_solves.append(len(out[1]))
        return out

    monkeypatch.setattr(qbarrier.lp, "_cut_solve", counting)
    x = slp.polish(problem, sol.objective)
    assert x is not None and x.shape == (problem.n_vars,)
    assert recheck_solution(problem, x) <= 1e-7
    # at least one trailing-term re-solve ran, each starting from the
    # previous working set, and every one terminated
    assert len(cut_solves) >= 2
    assert cut_solves == sorted(cut_solves)
    assert slp.polish_calls >= len(cut_solves)
    gap_value = float(problem.objective @ x)
    assert gap_value >= 0.5 * sol.objective - 1e-7


# ----- finalize failures ----------------------------------------------------


def _finalize_case():
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(
        flavor="finite-horizon", degree=2, samples=300, seed=11, horizon=6
    )
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(8, 2).prefix(2), z3_dynamics(), cfg, scen)
    problem = slp.build()
    sol = solve_lp(problem)
    return slp, slp.polish(problem, sol.objective)


def test_finalize_side_condition_failure_is_no_candidate(monkeypatch):
    slp, x = _finalize_case()
    assert slp.finalize(x) is not None

    def failing(**kwargs):
        raise CertificateError("side condition lam > gamma + delta*T fails")

    monkeypatch.setattr(qbarrier.lp, "Certificate", failing)
    assert slp.finalize(x) is None


def test_finalize_unrelated_error_propagates(monkeypatch):
    slp, x = _finalize_case()

    def broken(**kwargs):
        raise TypeError("unexpected keyword")

    monkeypatch.setattr(qbarrier.lp, "Certificate", broken)
    with pytest.raises(TypeError):
        slp.finalize(x)
