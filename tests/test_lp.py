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
from qbarrier.templates import BarrierTemplate, CertificateError


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


def _reference_families(template, dyn, cfg, scen, cexes):
    """Hybrid term matrices from stacked states: sampled rows first (one copy
    of the global rows, with the global counterexamples, per parameter
    draw), then the family's own counterexamples in arrival order."""
    k = cfg.k
    init, unsafe, glob, kstep = [scen.init], [scen.unsafe], [scen.global_states], []
    steps = {t: [] for t in range(k)}
    for cid, state, params in cexes:
        s = np.asarray(state, dtype=complex).reshape(1, -1)
        if cid == "init":
            init.append(s)
        elif cid.startswith("unsafe"):
            unsafe.append(s)
        elif cid.startswith("step"):
            t = int(cid.rsplit("-t", 1)[1])
            steps[t].append((s, dyn.map_at(t).matrix(params or None) @ s[0]))
        elif cid == "k-step":
            mat, used = np.eye(dyn.dim, dtype=complex), 0
            for i in range(k):
                need = dyn.map_at(i).n_params
                mat = dyn.map_at(i).matrix(tuple(params[used : used + need]) or None) @ mat
                used += need
            kstep.append((s, mat @ s[0]))
        else:
            glob.append(s)
    ev = template.evaluate_terms
    gl = np.vstack(glob)

    def family(mats, extras):
        before = np.vstack([gl] * len(mats) + [s for s, _ in extras])
        after = np.vstack([gl @ m.T for m in mats] + [a.reshape(1, -1) for _, a in extras])
        return ev(before), ev(after)

    step_data = [family(_draw_matrices(dyn, cfg, t, 1), steps[t]) for t in range(k)]
    kstep_data = family(_draw_matrices(dyn, cfg, 0, k), kstep)
    return ev(np.vstack(init)), ev(np.vstack(unsafe)), ev(gl), step_data, kstep_data


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


@pytest.mark.parametrize("make_dynamics", [_cx_cz_dynamics, _he_dynamics])
def test_row_table_matches_stacked_evaluation(make_dynamics):
    dyn = make_dynamics()
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(3) >= 0.5"], 4, "unsafe")
    cfg = SynthesisConfig(flavor="hybrid", degree=2, samples=30, seed=5, k=2)
    scen = sample_scenarios(init, unsafe, full_sphere(4), cfg)
    template = full_template(4, 2, 6)
    rng = np.random.default_rng(3)

    def params(t0, count):
        return tuple(
            rng.uniform(lo, hi) for i in range(count) for lo, hi in dyn.map_at(t0 + i).param_domain
        )

    cexes = [
        ("init", _unit(rng, 4), ()),
        ("unsafe-t1", _unit(rng, 4), ()),
        ("step-t1", _unit(rng, 4), params(1, 1)),
        ("shift-t0", _unit(rng, 4), ()),
        ("k-step", _unit(rng, 4), params(0, 2)),
        ("step-t1", _unit(rng, 4), params(1, 1)),
    ]
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


def _reference_build(slp: ScenarioLP):
    """The dense assembly the scenario rows replace: every row formed and
    stacked. Returns (a_ub, b_ub, families, bounds, objective)."""
    cfg = slp.cfg
    names = slp.var_layout()
    width = len(names)
    fv = slp.flavor_vars
    rows, rhs, families = [], [], []

    def coef_block(term_vals, vec, sign=1.0):
        block = np.zeros((term_vals.shape[0], width))
        base = vec * 2 * slp.nt
        block[:, base : base + 2 * slp.nt : 2] = sign * term_vals.real
        block[:, base + 1 : base + 2 * slp.nt : 2] = -sign * term_vals.imag
        return block

    def family(name, block, bvals):
        start = sum(b.shape[0] for b in rows)
        rows.append(block)
        rhs.extend(bvals)
        families.append((name, start, start + block.shape[0]))

    eps_fixed = None if cfg.eps == "free" else float(cfg.eps)
    gam_fixed = None if cfg.gamma == "free" else float(cfg.gamma)
    blk = coef_block(slp.init_T, 0)
    if slp.flavor == "finite-horizon":
        blk[:, fv["gamma"]] = -1.0
    family("init", blk, np.zeros(blk.shape[0]))
    for v in range(slp.n_vec):
        blk = coef_block(slp.unsafe_T, v, sign=-1.0)
        if slp.flavor == "invariant":
            blk[:, fv["gamma"]] = 1.0
        elif slp.flavor == "finite-horizon":
            blk[:, fv["lam"]] = 1.0
        else:
            blk[:, fv["d"]] = 1.0
        family(f"unsafe@{v}" if slp.n_vec > 1 else "unsafe", blk, np.zeros(blk.shape[0]))
    for t, (before_T, after_T) in enumerate(slp.step_data):
        v = t if slp.flavor == "hybrid" else 0
        blk = coef_block(after_T, v) - coef_block(before_T, v)
        b = np.zeros(blk.shape[0])
        if slp.flavor == "finite-horizon":
            blk[:, fv["delta"]] = -1.0
        elif slp.flavor in ("k-inductive", "hybrid"):
            if eps_fixed is None:
                blk[:, fv["eps"]] = -1.0
            else:
                b += eps_fixed
        family(f"step@{t}" if slp.n_vec > 1 else "step", blk, b)
    if slp.flavor == "hybrid":
        for t in range(slp.k):
            nxt = (t + 1) % slp.k
            blk = coef_block(slp.global_T, nxt) - coef_block(slp.global_T, t)
            b = np.zeros(blk.shape[0])
            if gam_fixed is None:
                blk[:, fv["gamma"]] = -1.0
            else:
                b += gam_fixed
            family(f"shift@{t}", blk, b)
    if slp.kstep_data is not None:
        before_T, after_T = slp.kstep_data
        blk = coef_block(after_T, 0) - coef_block(before_T, 0)
        family("k-step", blk, np.zeros(blk.shape[0]))
    objective = np.zeros(width)
    if slp.flavor == "invariant":
        objective[fv["gamma"]] = 1.0
    elif slp.flavor == "finite-horizon":
        t_hor = int(cfg.horizon)
        objective[fv["gamma"]] = -1.0
        objective[fv["lam"]] = 1.0
        objective[fv["delta"]] = -float(t_hor)
        side = np.zeros((1, width))
        side[0, fv["gamma"]] = 1.0
        side[0, fv["lam"]] = -1.0
        side[0, fv["delta"]] = float(t_hor)
        family("side", side, np.array([-MARGIN]))
    else:
        objective[fv["d"]] = 1.0
        side = np.zeros((1, width))
        side[0, fv["d"]] = -1.0
        bound = -MARGIN
        if eps_fixed is None:
            side[0, fv["eps"]] = float(slp.k)
            objective[fv["eps"]] = -float(slp.k)
        else:
            bound -= slp.k * eps_fixed
        if slp.flavor == "hybrid":
            if gam_fixed is None:
                side[0, fv["gamma"]] = float(slp.k)
                objective[fv["gamma"]] = -float(slp.k)
            else:
                bound -= slp.k * gam_fixed
        family("side", side, np.array([bound]))
    c_bound = COEFF_BOUND
    bounds = [(-c_bound, c_bound)] * (2 * slp.nt * slp.n_vec)
    for fname in slp._flavor_var_names():
        if fname in ("delta", "eps", "d") or (fname == "gamma" and slp.flavor == "hybrid"):
            bounds.append((0.0, c_bound))
        else:
            bounds.append((-c_bound, c_bound))
    return np.vstack(rows), np.asarray(rhs), families, bounds, objective


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
    flavor, make_dynamics, k, eps, gamma, cexes = ROW_CASES[name]
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
    for cid in cexes:
        if cid == "k-step":
            t0, count = 0, k
        else:
            t0, count = (int(cid.rsplit("-t", 1)[1]) if "-t" in cid else 0), 1
        rows.absorb(cid, _unit(rng, 4), _params(rng, dyn, t0, count))
    return ScenarioLP(template, rows)


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_scenario_rows_match_the_dense_assembly(name):
    slp = _row_case(name)
    problem = slp.build()
    a_ref, b_ref, families, bounds, objective = _reference_build(slp)
    assert problem.families == families
    assert (problem.n_rows, problem.n_vars) == a_ref.shape
    assert problem.bounds == bounds and np.array_equal(problem.objective, objective)
    kinds = {f.split("@")[0] for f, start, stop in families if stop > start}
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
