import hashlib
import json
import math
import tracemalloc

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
    COEFF_BOUND,
    MARGIN,
    UNCERTAINTY_SAMPLES,
    DenseRows,
    LPError,
    LPProblem,
    NoCandidateError,
    ScenarioLP,
    ScenarioRows,
    Scenarios,
    extract_certificate,
)
from qbarrier.quantum import StepMap, fixed_step, hadamard_uncertain
from qbarrier.smt.encode import EncodeError, conditions_for, encode_condition
from qbarrier.templates import BarrierTemplate, Certificate, CertificateError, state_conditions


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
        rows=DenseRows(np.array([[1.0]]), np.array([1.0])),
        bounds=[(None, None)],
        objective=np.array([1.0]),
        families=[("only", 0, 1)],
    )
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert abs(sol.objective - 1.0) < 1e-9


def test_solve_infeasible_pair():
    problem = LPProblem(
        rows=DenseRows(np.array([[-1.0], [1.0]]), np.array([-1.0, 0.0])),  # g >= 1 and g <= 0
        bounds=[(None, None)],
        objective=np.array([1.0]),
        families=[("rows", 0, 2)],
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
    slp = ScenarioLP(full_template(8, 2).prefix(3), ScenarioRows(scen, z3_dynamics(), cfg))
    problem = slp.build()
    (start, stop), = [
        (s, e) for fam, s, e in problem.families if fam == "step"
    ]
    delta_col = slp.flavor_vars["delta"]
    rows, _ = problem.rows.take(np.arange(start, stop))
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
    slp = ScenarioLP(full_template(4, 2).prefix(3), ScenarioRows(scen, dyn, cfg))
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
    slp = ScenarioLP(full_template(8, 2).prefix(1), ScenarioRows(scen, z3_dynamics(), cfg))
    problem = slp.build()
    sol = solve_lp(problem)  # constant-only template cannot separate
    assert sol.status != "optimal" or sol.objective < MARGIN
    with pytest.raises(NoCandidateError):
        extract_certificate(slp, problem, sol)


def test_extracted_certificate_satisfies_rows_and_side_condition():
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(
        flavor="finite-horizon", degree=2, samples=500, seed=11, horizon=6
    )
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(8, 2).prefix(2), ScenarioRows(scen, z3_dynamics(), cfg))
    problem = slp.build()
    sol = solve_lp(problem)
    cert = extract_certificate(slp, problem, sol)
    c = cert.constants
    assert c["gamma"] + c["delta"] * c["T"] < c["lam"]
    assert slp.row_violation(cert) <= 1e-6
    # independent sampled re-check of the final certificate
    from qbarrier.templates import eval_real_batch

    vals_init = eval_real_batch(cert, scen.init)
    assert vals_init.max() <= c["gamma"] + 1e-6


def test_template_growth_is_monotone_prefix():
    tmpl = full_template(4, 2)
    prev = set()
    for size in range(1, 8):
        cur = set(t.exponents for t in tmpl.prefix(size).terms)
        assert prev.issubset(cur) and len(cur) == size
        prev = cur


def test_uncertain_dynamics_expand_step_rows_per_parameter_point(tmp_path):
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
    )
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(2, 2).prefix(2), ScenarioRows(scen, dyn, cfg))
    problem = slp.build()
    assert problem.family_rows("step") == UNCERTAINTY_SAMPLES * n
    # the loop terminates cleanly on the uncertain job (verdict may be
    # unknown: the gate parameter enters the queries nonlinearly)
    res = synthesis_loop(dyn, init, unsafe, glob, cfg, workdir=tmp_path)
    assert res.status in ("solved", "unknown", "unsolved")


def test_loop_returns_certificate_only_with_verified_gate(tmp_path):
    dyn = constant_dynamics(standard_gate("Z"))
    init = parse_region(["prob(0) >= 0.9"], 2, "init")
    unsafe = parse_region(["prob(0) <= 0.1"], 2, "unsafe")
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=150, seed=4)
    res = synthesis_loop(dyn, init, unsafe, full_sphere(2), cfg, workdir=tmp_path)
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
        ScenarioRows(scen, dyn, cfg)
    cfg2 = SynthesisConfig(flavor="hybrid", degree=2, samples=4, seed=1, k=3)
    with pytest.raises(LPError):
        ScenarioRows(scen, dyn, cfg2)


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
        rows=DenseRows(a, b),
        bounds=bounds,
        objective=objective,
        families=[("rows", 0, n_rows)],
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
        A_ub=problem.rows.a,
        b_ub=problem.rows.b,
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
    slp = ScenarioLP(template, ScenarioRows(scen, job.dynamics, cfg))
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
    slp = ScenarioLP(full_template(8, 2).prefix(2), ScenarioRows(scen, z3_dynamics(), cfg))
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


# ----- synthesis output pinned ----------------------------------------------

# sha256 of certificate.to_json() followed by json.dumps(rejections,
# sort_keys=True), computed before the scenario rows were kept in one table
# per job: a change to how the LP rows are assembled must keep every
# certificate and every counterexample byte for byte
PINNED_SYNTHESIS = {
    ("cnot4_infinite", 11): "8329a932e2a7718bfa34b77725af8308547362e40d5244eb651411132dd2e4ee",
    ("zgate3_finite", 13): "4ae5499de31f841a705d60801f34c5f3f9ef033378dffd114187e9bd3ad76a4b",
    ("xgate2_infinite", 12): "91d83311ab1964b71b45fc01aa4821611d0bfbe49ff7285ea8c78877143170a3",
    ("altcxcz2_infinite", 1): "6609ec4dd8a055234693203b4f2f2c6dd77242fed64c474614156d537fa883e1",
    ("zgate3_invariant", 1): "b0b6938833fd1e5934e764c525777009830cbd7b672fadd3b6ed98cb34c34f54",
}

# no bundled job is invariant, so the invariant one is written here
INVARIANT_JOB = """
[circuit]
qubits = 3
map.u0 = Z 0; Z 1; Z 2
schedule = constant u0

[regions]
init = prob(0) >= 0.9
unsafe = prob(0) <= 0.1

[synthesis]
flavor = invariant
degree = 2
samples = 15000

[smt]
solver = builtin
"""


@pytest.mark.parametrize("name,seed", sorted(PINNED_SYNTHESIS))
def test_synthesis_output_is_pinned(name, seed, tmp_path):
    if name == "zgate3_invariant":
        path = tmp_path / f"{name}.cfg"
        path.write_text(INVARIANT_JOB)
    else:
        path = bundled_config_path(name)
    job = load_config(path)
    job.synthesis.seed = seed
    res = synthesis_loop(
        job.dynamics,
        job.init_region,
        job.unsafe_region,
        job.global_region,
        job.synthesis,
        solver_command=job.smt.solver,
        workdir=tmp_path,
        timeout_s=job.smt.timeout,
    )
    assert res.status == "solved" and res.rejections
    text = res.certificate.to_json() + json.dumps(res.rejections, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SYNTHESIS[(name, seed)]


# ----- the scenario row table -----------------------------------------------


def _draw_matrices(dyn, cfg, t0, count):
    """Step matrices as one evaluation per LP draws them."""
    if not any(dyn.map_at(t0 + i).n_params for i in range(count)):
        return [dyn.composed_matrix(t0, count)]
    rng = np.random.default_rng([cfg.seed, 1009, t0, count])
    mats = []
    for _ in range(UNCERTAINTY_SAMPLES):
        mat = np.eye(dyn.dim, dtype=complex)
        for i in range(count):
            m = dyn.map_at(t0 + i)
            params = tuple(rng.uniform(lo, hi) for lo, hi in m.param_domain)
            mat = m.matrix(params or None) @ mat
        mats.append(mat)
    return mats


def _window_matrix(dyn, t0, count, params):
    """The product of `count` steps from t0 at these parameters, in turn."""
    mat, used = np.eye(dyn.dim, dtype=complex), 0
    for i in range(count):
        need = dyn.map_at(t0 + i).n_params
        mat = dyn.map_at(t0 + i).matrix(tuple(params[used : used + need]) or None) @ mat
        used += need
    return mat


def _reference_families(template, dyn, cfg, scen, cexes):
    """Hybrid term matrices from stacked states, in row order: the sampled
    rows (one copy of the global rows per parameter draw), then each
    counterexample's rows in arrival order: a global state's image under
    every draw, or the family's own state and its image."""
    ev = template.evaluate_terms
    cexes = [(cid, np.asarray(state, dtype=complex).reshape(1, -1), params) for cid, state, params in cexes]
    init = np.vstack([scen.init] + [s for cid, s, _ in cexes if cid == "init"])
    unsafe = np.vstack([scen.unsafe] + [s for cid, s, _ in cexes if cid.startswith("unsafe")])
    glob = np.vstack([scen.global_states] + [s for cid, s, _ in cexes if cid.startswith("shift")])
    n = len(scen.global_states)

    def family(name, t0, count):
        mats = _draw_matrices(dyn, cfg, t0, count)
        images = [glob @ m.T for m in mats]  # every global state's image under each draw
        before, after = [glob[:n]] * len(mats), [im[:n] for im in images]
        g = n
        for cid, s, params in cexes:
            if cid.startswith("shift"):
                before += [glob[g : g + 1]] * len(mats)
                after += [im[g : g + 1] for im in images]
                g += 1
            elif cid == name:
                before.append(s)
                after.append((_window_matrix(dyn, t0, count, params) @ s[0]).reshape(1, -1))
        return ev(np.vstack(before)), ev(np.vstack(after))

    names = [f"step-t{t}" for t in range(cfg.k)] if cfg.flavor == "hybrid" else ["step"]
    step_data = [family(name, t, 1) for t, name in enumerate(names)]
    return ev(init), ev(unsafe), ev(glob), step_data, family("k-step", 0, cfg.k)


def _cx_cz_dynamics():
    cx, cz = standard_gate("CX"), standard_gate("CZ")
    return Dynamics(maps=(fixed_step(cx), fixed_step(cz)), schedule=Schedule((0, 1)))


def _he_dynamics():
    ug = hadamard_uncertain(0.9, 1.1)
    step_map = StepMap(n=2, factors=(standard_gate("CX"), (ug, (1,))))
    return Dynamics(maps=(step_map,), schedule=Schedule((0,)))


def _unit(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


# counterexample condition ids, each with the step window (t0, count) whose
# parameters its model carries
HYBRID_CEXES = (
    ("init", None), ("unsafe-t1", None), ("step-t1", (1, 1)), ("shift-t0", None),
    ("k-step", (0, 2)), ("step-t1", (1, 1)),
)


@pytest.mark.parametrize(
    "make_dynamics,flavor,k,cex_ids",
    [
        pytest.param(_cx_cz_dynamics, "hybrid", 2, HYBRID_CEXES, id="_cx_cz_dynamics"),
        pytest.param(_he_dynamics, "hybrid", 2, HYBRID_CEXES, id="_he_dynamics"),
        # step and k-step take their images from the one window's draws
        pytest.param(
            _he_dynamics, "k-inductive", 1,
            (("init", None), ("step", (0, 1)), ("unsafe", None), ("k-step", (0, 1)), ("step", (0, 1))),
            id="k-inductive-k1",
        ),
        pytest.param(
            _he_dynamics, "hybrid", 3,
            (("unsafe-t2", None), ("step-t2", (2, 1)), ("shift-t1", None), ("k-step", (0, 3)),
             ("step-t0", (0, 1)), ("init", None)),
            id="hybrid-k3",
        ),
    ],
)
def test_row_table_matches_stacked_evaluation(make_dynamics, flavor, k, cex_ids):
    dyn = make_dynamics()
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(3) >= 0.5"], 4, "unsafe")
    cfg = SynthesisConfig(flavor=flavor, degree=2, samples=30, seed=5, k=k)
    scen = sample_scenarios(init, unsafe, full_sphere(4), cfg)
    template = full_template(4, 2, 6)
    rng = np.random.default_rng(3)

    def params(t0, count):
        return tuple(
            rng.uniform(lo, hi) for i in range(count) for lo, hi in dyn.map_at(t0 + i).param_domain
        )

    cexes = [(cid, _unit(rng, 4), params(*window) if window else ()) for cid, window in cex_ids]
    rows = ScenarioRows(scen, dyn, cfg)
    ScenarioLP(template.prefix(2), rows)
    for cid, state, p in cexes:
        rows.absorb(cid, state, p)
    for nt in (2, 6, 3):
        slp = ScenarioLP(template.prefix(nt), rows)
        got = (slp.init_T, slp.unsafe_T, slp.global_T, slp.step_data, slp.kstep_data)
        want = _reference_families(template.prefix(nt), dyn, cfg, scen, cexes)
        for name, g, w in zip(("init", "unsafe", "global"), got, want):
            assert np.array_equal(g, w), name
        for t, (g, w) in enumerate(zip(got[3], want[3])):
            assert np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1]), f"step@{t}"
        assert np.array_equal(got[4][0], want[4][0]) and np.array_equal(got[4][1], want[4][1])
    other = BarrierTemplate(4, (template.terms[0], template.terms[3]))
    with pytest.raises(LPError):
        ScenarioLP(other, rows)


# constants that meet each flavor's side conditions
TABLE_CONSTANTS = {
    "invariant": {"gamma": 1.0},
    "finite-horizon": {"gamma": 0.0, "lam": 1.0, "delta": 0.0, "T": 2},
    "k-inductive": {"d": 1.0, "eps": 0.0},
    "hybrid": {"d": 1.0, "eps": 0.0, "gamma": 0.0},
}


@pytest.mark.parametrize(
    "flavor,k",
    [("invariant", 1), ("finite-horizon", 1)]
    + [(flavor, k) for flavor in ("k-inductive", "hybrid") for k in (1, 2, 3)],
)
def test_state_conditions_name_the_queries_and_the_lp_families(flavor, k):
    ids = [c.condition_id for c in state_conditions(flavor, k)]
    template = full_template(2, 2).prefix(2)
    constants = TABLE_CONSTANTS[flavor] | ({"k": k} if flavor == "k-inductive" else {})
    vectors = (np.zeros(2, dtype=complex),) * (k if flavor == "hybrid" else 1)
    cert = Certificate(template, vectors, flavor, constants)
    assert [c.condition_id for c in conditions_for(cert) if c.kind != "side"] == ids
    cfg = SynthesisConfig(
        flavor=flavor, degree=2, samples=10, seed=1, k=k,
        horizon=2 if flavor == "finite-horizon" else None,
    )
    init = parse_region(["prob(0) >= 0.9"], 2, "init")
    unsafe = parse_region(["prob(1) >= 0.9"], 2, "unsafe")
    scen = sample_scenarios(init, unsafe, full_sphere(2), cfg)
    rows = ScenarioRows(scen, constant_dynamics(standard_gate("X")), cfg)
    problem = ScenarioLP(template, rows).build()
    assert [name for name, _, _ in problem.families if name != "side"] == ids
    # an offset past the last vector, an old family label, a kind
    for outside in (f"step-t{k}", "unsafe@0", "time-shift"):
        with pytest.raises(EncodeError, match="not applicable"):
            encode_condition(cert, outside, None, None, None, None)
        with pytest.raises(LPError, match="no scenario rows"):
            rows.absorb(outside, np.eye(2)[0], ())
    # a side condition is a query but holds no state to absorb
    with pytest.raises(LPError, match="no scenario rows"):
        rows.absorb(cert.side_conditions[-1].condition_id, np.zeros(0), ())


def test_synthesis_evaluates_each_term_once_per_row(monkeypatch, tmp_path):
    cells = []
    evaluate = BarrierTemplate.evaluate_terms

    def counting(self, states, first=0):
        out = evaluate(self, states, first)
        cells.append(out.size)
        return out

    monkeypatch.setattr(BarrierTemplate, "evaluate_terms", counting)
    job = load_config(bundled_config_path("xgate3_finite_t1"))
    cfg = job.synthesis
    cfg.samples = 1000
    res = synthesis_loop(
        job.dynamics, job.init_region, job.unsafe_region, job.global_region, cfg,
        workdir=tmp_path,
    )
    assert res.status == "unsolved"
    # finite horizon, fixed step: init, unsafe, global and its one image,
    # and one row per init counterexample
    assert res.rejections and all(r["condition"] == "init" for r in res.rejections)
    n_rows = 4 * cfg.samples + len(res.rejections)
    assert sum(cells) == n_rows * res.terms_used


# ----- the scenario rows against the dense assembly they replace ------------


# the flavor variables of each flavor when the job fixes none, in column order
FLAVOR_VARIABLES = {
    "invariant": ["gamma"],
    "finite-horizon": ["gamma", "lam", "delta"],
    "k-inductive": ["d", "eps"],
    "hybrid": ["d", "eps", "gamma"],
}


def _reference_build(slp: ScenarioLP, dyn, scen, cexes):
    """The dense assembly the scenario rows replace: every row formed and
    stacked, in row order: each condition's sampled rows (over a step window
    once per parameter draw), the side row, then each counterexample's rows
    in arrival order. The columns are the flavor variables, then term-major
    the re and im part of each vector's coefficient. Returns (a_ub, b_ub,
    families, bounds, objective, variable names)."""
    cfg, flavor, k, nt = slp.cfg, slp.flavor, slp.k, slp.nt
    fixed = {"eps": cfg.eps, "gamma": cfg.gamma}
    fnames = [n for n in FLAVOR_VARIABLES[flavor] if flavor in ("invariant", "finite-horizon")
              or fixed.get(n, "free") == "free"]
    n_vec = k if flavor == "hybrid" else 1
    names = fnames + [f"{p}[{v}][{i}]" for i in range(nt) for v in range(n_vec) for p in ("re", "im")]
    width = len(names)
    col = {name: j for j, name in enumerate(names)}
    ev = slp.template.evaluate_terms
    rows, rhs, families = [], [], []

    def coef_block(states, vec, sign=1.0):
        term_vals = ev(states)
        block = np.zeros((len(states), width))
        block[:, [col[f"re[{vec}][{i}]"] for i in range(nt)]] = sign * term_vals.real
        block[:, [col[f"im[{vec}][{i}]"] for i in range(nt)]] = -sign * term_vals.imag
        return block

    def family(name, block, bvals):
        start = sum(b.shape[0] for b in rows)
        rows.append(block)
        rhs.extend(bvals)
        families.append((name, start, start + block.shape[0]))

    def threshold(blk, b, name):
        """A free threshold's column at -1, else its fixed value in b."""
        if name in col:
            blk[:, col[name]] = -1.0
        else:
            b += float(fixed[name])

    def condition_rows(cid, states, images=None):
        base, t = cid.rsplit("-t", 1) if "-t" in cid else (cid, 0)
        t = int(t)
        b = np.zeros(len(states))
        if base == "init":
            blk = coef_block(states, 0)
            if flavor == "finite-horizon":
                blk[:, col["gamma"]] = -1.0
        elif base == "unsafe":
            blk = coef_block(states, t, sign=-1.0)
            blk[:, col[{"invariant": "gamma", "finite-horizon": "lam"}.get(flavor, "d")]] = 1.0
        elif base in ("step", "k-step"):
            blk = coef_block(images, t) - coef_block(states, t)
            if base == "step" and flavor == "finite-horizon":
                blk[:, col["delta"]] = -1.0
            elif base == "step" and flavor != "invariant":
                threshold(blk, b, "eps")
        else:  # shift-t: B_{t+1} - B_t on the same state
            blk = coef_block(states, (t + 1) % k) - coef_block(states, t)
            threshold(blk, b, "gamma")
        family(cid, blk, b)

    def window(cid):
        if cid == "k-step":
            return 0, k
        if cid.startswith("step"):
            return (int(cid.rsplit("-t", 1)[1]) if "-t" in cid else 0), 1
        return None

    def region(cid):
        return {"init": "init", "unsafe": "unsafe"}.get(cid.split("-")[0], "global")

    ids = [c.condition_id for c in state_conditions(flavor, k)]
    regions = {"init": scen.init, "unsafe": scen.unsafe}
    # every global state, sampled or absorbed, and its image under each draw;
    # a counterexample over a step window is its condition's own
    n = len(scen.global_states)
    absorbed = [s.reshape(1, -1) for cid, s, _ in cexes if region(cid) == "global" and not window(cid)]
    glob = np.vstack([scen.global_states] + absorbed)
    draws = {cid: [glob @ m.T for m in _draw_matrices(dyn, cfg, *window(cid))] for cid in ids if window(cid)}
    for cid in ids:
        if window(cid) is None:
            condition_rows(cid, regions.get(region(cid), glob[:n]))
        else:
            for images in draws[cid]:
                condition_rows(cid, glob[:n], images[:n])

    objective = np.zeros(width)
    if flavor == "invariant":
        objective[col["gamma"]] = 1.0
    elif flavor == "finite-horizon":
        t_hor = int(cfg.horizon)
        objective[col["gamma"]] = -1.0
        objective[col["lam"]] = 1.0
        objective[col["delta"]] = -float(t_hor)
        side = np.zeros((1, width))
        side[0, col["gamma"]] = 1.0
        side[0, col["lam"]] = -1.0
        side[0, col["delta"]] = float(t_hor)
        family("side", side, np.array([-MARGIN]))
    else:
        objective[col["d"]] = 1.0
        side = np.zeros((1, width))
        side[0, col["d"]] = -1.0
        bound = -MARGIN
        for name in ("eps", "gamma") if flavor == "hybrid" else ("eps",):
            if name in col:
                side[0, col[name]] = float(k)
                objective[col[name]] = -float(k)
            else:
                bound -= k * float(fixed[name])
        family("side", side, np.array([bound]))

    g = n
    for cex, state, params in cexes:
        s = state.reshape(1, -1)
        if window(cex):
            condition_rows(cex, s, (_window_matrix(dyn, *window(cex), params) @ s[0]).reshape(1, -1))
            continue
        for cid in ids:
            if region(cid) != region(cex):
                continue
            if window(cid) is None:
                condition_rows(cid, s)
            else:
                for images in draws[cid]:
                    condition_rows(cid, s, images[g : g + 1])
        g += region(cex) == "global"

    bounds = [
        (0.0, COEFF_BOUND) if name in ("delta", "eps", "d") or (name == "gamma" and flavor == "hybrid")
        else (-COEFF_BOUND, COEFF_BOUND)
        for name in fnames
    ]
    bounds += [(-COEFF_BOUND, COEFF_BOUND)] * (width - len(fnames))
    return np.vstack(rows), np.asarray(rhs), families, bounds, objective, names


def _params(rng, dyn, t0, count):
    return tuple(
        rng.uniform(lo, hi) for i in range(count) for lo, hi in dyn.map_at(t0 + i).param_domain
    )


# (flavor, dynamics, k, eps, gamma, counterexample condition ids)
ROW_CASES = {
    "invariant": ("invariant", lambda: constant_dynamics(standard_gate("CX")), 1, 0.01, 0.01,
                  ("init", "unsafe", "step")),
    "finite-horizon": ("finite-horizon", lambda: constant_dynamics(standard_gate("CX")), 1,
                       0.01, 0.01, ("init", "step")),
    "k-inductive-HE": ("k-inductive", _he_dynamics, 2, 0.01, 0.01,
                       ("init", "step", "k-step", "unsafe")),
    "k-inductive-free-eps": ("k-inductive", lambda: constant_dynamics(standard_gate("CZ")), 2,
                             "free", 0.01, ("step", "k-step")),
    "hybrid": ("hybrid", _cx_cz_dynamics, 2, 0.01, 0.01,
               ("init", "unsafe-t1", "step-t1", "shift-t0", "k-step", "step-t1")),
    "hybrid-free": ("hybrid", _cx_cz_dynamics, 2, "free", "free",
                    ("init", "step-t0", "shift-t0", "k-step")),
    "hybrid-HE": ("hybrid", _he_dynamics, 2, 0.01, "free",
                  ("init", "unsafe-t1", "step-t1", "shift-t0", "k-step")),
}


def _row_case(name, nt=9, samples=30):
    flavor, make_dynamics, k, eps, gamma, cex_ids = ROW_CASES[name]
    dyn = make_dynamics()
    cfg = SynthesisConfig(
        flavor=flavor, degree=2, samples=samples, seed=7, k=k, eps=eps, gamma=gamma,
        horizon=4 if flavor == "finite-horizon" else None,
    )
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(3) >= 0.5"], 4, "unsafe")
    scen = sample_scenarios(init, unsafe, full_sphere(4), cfg)
    rows = ScenarioRows(scen, dyn, cfg)
    rng = np.random.default_rng(11)
    template = full_template(4, 2, nt)
    ScenarioLP(template.prefix(2), rows)  # evaluate some terms first
    cexes = []
    for cid in cex_ids:
        if cid == "k-step":
            t0, count = 0, k
        else:
            t0, count = (int(cid.rsplit("-t", 1)[1]) if "-t" in cid else 0), 1
        cexes.append((cid, _unit(rng, 4), _params(rng, dyn, t0, count)))
        rows.absorb(*cexes[-1])
    return ScenarioLP(template, rows), dyn, scen, cexes


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_scenario_rows_match_the_dense_assembly(name):
    slp, dyn, scen, cexes = _row_case(name)
    problem = slp.build()
    a_ref, b_ref, families, bounds, objective, names = _reference_build(slp, dyn, scen, cexes)
    assert problem.families == families and slp.var_layout() == names
    assert (problem.n_rows, problem.n_vars) == a_ref.shape
    assert problem.bounds == bounds and np.array_equal(problem.objective, objective)
    kinds = {f.split("-t")[0] for f, start, stop in families if stop > start}
    assert kinds == {"init", "unsafe", "step"} | {
        "invariant": set(),
        "finite-horizon": {"side"},
        "k-inductive": {"side", "k-step"},
        "hybrid": {"side", "k-step", "shift"},
    }[slp.flavor]
    rng = np.random.default_rng(5)
    n = problem.n_rows
    for idx in (
        np.zeros(0, dtype=np.intp),
        np.array([0]),
        np.array([n - 1]),
        np.sort(rng.choice(n, 57, replace=False)),
        rng.integers(0, n, 40),  # any order, repeats
        np.arange(n),
    ):
        a, b = problem.rows.take(idx)
        assert a.tobytes() == a_ref[idx].tobytes()
        assert b.tobytes() == b_ref[idx].tobytes()
    for _ in range(3):
        x = rng.uniform(-3, 3, problem.n_vars)
        scale = max(1.0, float(np.max(np.abs(a_ref) @ np.abs(x) + np.abs(b_ref))))
        assert np.max(np.abs(problem.rows.residual(x) - (a_ref @ x - b_ref))) <= 1e-12 * scale
        assert recheck_solution(problem, x) == pytest.approx(
            float(np.max(a_ref @ x - b_ref)), abs=1e-12 * scale
        )
    with pytest.raises(IndexError):
        problem.rows.take(np.array([n]))


def test_scenario_lp_forms_no_dense_row_matrix():
    # tracemalloc sees numpy's buffers, not HiGHS's own memory: this bounds
    # what the assembly and the cut loop allocate on the Python side
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=40000, seed=2)
    scen = sample_scenarios(init, unsafe, glob, cfg)
    slp = ScenarioLP(full_template(8, 2).prefix(6), ScenarioRows(scen, z3_dynamics(), cfg))
    tracemalloc.start()
    try:
        problem = slp.build()
        sol = solve_lp(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and problem.n_rows == 3 * cfg.samples
    assert peak < problem.n_rows * problem.n_vars * 8 / 4


def _no_highs(monkeypatch):
    calls = []
    monkeypatch.setattr(qbarrier.lp, "linprog", lambda **kw: calls.append(kw))
    return calls


def test_non_finite_term_values_raise_before_any_solve(monkeypatch):
    calls = _no_highs(monkeypatch)
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=20, seed=2)
    scen = sample_scenarios(init, unsafe, glob, cfg)
    template = full_template(8, 2).prefix(3)
    bad = Scenarios(init=scen.init.copy(), unsafe=scen.unsafe, global_states=scen.global_states)
    bad.init[4] = np.nan
    with pytest.raises(LPError, match="non-finite"):
        ScenarioLP(template, ScenarioRows(bad, z3_dynamics(), cfg))
    # a counterexample block: its values are checked when they are evaluated
    rows = ScenarioRows(scen, z3_dynamics(), cfg)
    ScenarioLP(template, rows).build()
    state = np.full(8, np.nan, dtype=complex)
    rows.absorb("step", state, ())
    with pytest.raises(LPError, match="non-finite"):
        ScenarioLP(template, rows)
    assert calls == []


# finite margins whose k-fold sum in the side row overflows: the config
# refuses them and names the key
@pytest.mark.parametrize(
    "flavor,constants",
    [
        ("k-inductive", {"eps": 1e308, "k": 2}),
        ("hybrid", {"gamma": 1e308, "k": 2}),
        ("hybrid", {"eps": 1e308, "gamma": 1e308}),
    ],
)
def test_non_finite_flavor_constants_raise_before_any_solve(flavor, constants):
    with pytest.raises(LPError, match=r"(epsilon|gamma) = 1e\+308 overflows the side condition"):
        SynthesisConfig(flavor=flavor, degree=2, samples=20, seed=4, **{"k": 1, **constants})


@pytest.mark.parametrize(
    "key,constants",
    [("epsilon", {"eps": math.inf}), ("gamma", {"gamma": -math.inf}), ("epsilon", {"eps": math.nan})],
)
def test_non_finite_margins_are_rejected_by_the_config(key, constants):
    with pytest.raises(LPError, match=f"{key} must be finite or free"):
        SynthesisConfig(flavor="hybrid", **constants)


def test_term_columns_grow_in_place():
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=25, seed=3)
    scen = sample_scenarios(init, unsafe, glob, cfg)
    rows = ScenarioRows(scen, z3_dynamics(), cfg)
    template = full_template(8, 2, 11)
    for nt in range(1, 12):
        slp = ScenarioLP(template.prefix(nt), rows)
        # values of the whole evaluated prefix, and cells count values, not capacity
        assert np.array_equal(slp.init_T, template.prefix(nt).evaluate_terms(scen.init))
        assert rows.cells == sum(len(b.states) for b in rows.blocks) * nt
        assert all(b.values.shape == (len(b.states), nt) for b in rows.blocks)


def test_the_term_table_holds_the_job_budget():
    # the table is sized for the job's term budget up front, so a longer
    # template is refused instead of copying every held value
    init, unsafe, glob = z3_regions()
    cfg = SynthesisConfig(flavor="invariant", degree=2, samples=25, seed=3, max_terms=4)
    rows = ScenarioRows(sample_scenarios(init, unsafe, glob, cfg), z3_dynamics(), cfg)
    template = full_template(8, 2, 5)
    ScenarioLP(template.prefix(4), rows)
    assert rows.capacity == 4 and rows.cells == 4 * sum(len(b.states) for b in rows.blocks)
    with pytest.raises(LPError, match="more than the job's 4"):
        ScenarioLP(template, rows)
