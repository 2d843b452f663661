"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s or look at captured output on failure).

LP outputs are sample-dependent, so value-level assertions are limited to
signs, structure, statuses, verdicts, and tolerances; the safety and
soundness criteria cross-examine verified certificates against brute-force
trajectory oracles that know nothing about the synthesis path.
"""
import math

import numpy as np

from conftest import passline

from qbarrier import Certificate, load_config
from qbarrier.cli import bundled_config_path
from qbarrier.grover import (
    GroverInstance,
    enumerate_noise_safe,
    horizon,
    noise_envelope_safe,
    synth_angle_certificate,
    theta,
    unsafe_interval,
    initial_interval,
)
from qbarrier.lp import (
    SynthesisConfig,
    build_lp,
    recheck_solution,
    sample_scenarios,
    solve_lp,
)
from qbarrier.oracle import trajectory_safe
from qbarrier.regions import full_sphere, parse_region, sample_states
from qbarrier.smt.run import verify_certificate
from qbarrier.templates import eval_real_batch, full_template

GROVER_ROWS = [
    ("grover_n5_m1", 5, 1, 0.5, 0.3, 5, 3000),
    ("grover_n5_m8", 5, 8, 0.5, 0.3, 2, 3000),
    ("grover_n10_m128", 10, 128, 5.0, 0.3, 3, 10000),
    ("grover_n30_m1000", 30, 1000, 50.0, 0.003, 814, 20000),
]

# rows the oracle sweep must find solved (it also picks up anything else
# that verified); the step count 50 stands in for the unbounded horizon
MUST_SOLVE_SMALL = [
    "cnot2_infinite",
    "czgate2_infinite",
    "swap2_infinite",
    "altcxcz2_infinite",
    "cxcz2_infinite",
    "hadamard1_finite_t1",
]


def solved_small_cases(bundled_runs):
    """Every solved bundled circuit row on at most 2 qubits, plus the
    3-qubit finite-horizon job used by criterion 1, with oracle horizons."""
    out = []
    for name, (report, _) in bundled_runs.items():
        if report.kind != "circuit" or report.status != "solved":
            continue
        job = load_config(bundled_config_path(name))
        if job.dynamics.n > 2 and name != "zgate3_finite":
            continue
        steps = job.synthesis.horizon if job.synthesis.horizon else 50
        out.append((name, steps))
    return out


def _coeff(cert_doc, term_label):
    terms = cert_doc["terms"]
    template_labels = []
    dim = cert_doc["dim"]
    for exps in terms:
        from qbarrier.templates import Monomial

        template_labels.append(Monomial(tuple(exps)).label())
    idx = template_labels.index(term_label)
    re, im = cert_doc["coefficients"][0][idx]
    return complex(re, im)


def test_criterion_1_z_gate_finite_horizon(bundled_runs):
    ok = True
    for name in ("zgate3_finite", "zgate3_finite_t8"):
        report, wall = bundled_runs[name]
        ok &= passline(report.status == "solved", f"{name} status solved")
        ok &= passline(wall < 60.0, f"{name} wall time {wall:.1f}s < 60s")
        cert = report.certificate
        a = _coeff(cert, "z0*~z0")
        b = _coeff(cert, "1")
        ok &= passline(a.real < 0 < b.real, f"{name} structure a<0<b")
        others = [
            complex(re, im)
            for i, (re, im) in enumerate(cert["coefficients"][0])
            if i not in (0, 1)
        ]
        ok &= passline(
            all(c == 0 for c in others), f"{name} no extra terms"
        )
        conds = report.conditions
        ok &= passline(len(conds) == 5, f"{name} five conditions checked")
        ok &= passline(
            all(c["status"] == "unsat" for c in conds),
            f"{name} all five conditions unsat",
        )
    assert ok


def test_criterion_2_z_t_infinite_horizon(bundled_runs):
    ok = True
    for name in (
        "zgate3_infinite",
        "zgate4_infinite",
        "zgate5_infinite",
        "tgate3_infinite",
        "tgate4_infinite",
        "tgate5_infinite",
    ):
        report, _ = bundled_runs[name]
        ok &= passline(report.status == "solved", f"{name} solved")
        ok &= passline(report.terms_used <= 3, f"{name} terms {report.terms_used} <= 3")
        ok &= passline(
            report.verification_s < 5.0,
            f"{name} verification {report.verification_s:.2f}s < 5s",
        )
    assert ok


def test_criterion_3_alternating_cx_cz_hybrid(bundled_runs):
    report, _ = bundled_runs["altcxcz2_infinite"]
    ok = passline(report.status == "solved", "altcxcz2 solved")
    cert = report.certificate
    ok &= passline(
        len(cert["coefficients"]) == 2, "period-2 certificate family"
    )
    c = cert["constants"]
    ok &= passline(
        c["d"] > 2 * (c["eps"] + c["gamma"]) and c["eps"] == c["gamma"] == 0.01,
        f"d={c['d']:.4f} > k(eps+gamma)={2 * (c['eps'] + c['gamma']):.4f}",
    )
    for v, vec in enumerate(cert["coefficients"]):
        a = complex(*vec[1])
        b = complex(*vec[0])
        ok &= passline(a.real < 0 < b.real, f"B_{v} sign structure")
    assert ok


def test_criterion_4_negative_results(bundled_runs):
    report, _ = bundled_runs["hadamard1_infinite"]
    ok = passline(report.status == "unknown", "hadamard1 infinite-horizon unknown")
    ok &= passline(report.timeout_s == 300.0, "hadamard1 solver timeout 300 s")
    ok &= passline(report.certificate is not None, "hadamard1 candidate generated")
    report2, _ = bundled_runs["groverfull2_infinite"]
    ok &= passline(report2.status == "unsolved", "full-state search 2q unsolved")
    ok &= passline(report2.certificate is None, "full-state search has no certificate")
    from qbarrier.report import EXIT_CODES

    ok &= passline(
        EXIT_CODES[report.status] == 2 and EXIT_CODES[report2.status] == 1,
        "status taxonomy maps to exit codes 2 and 1",
    )
    assert ok


def test_criterion_5_grover_angle_rows(tmp_path):
    ok = True
    for name, n, m, err, eta, steps, samples in GROVER_ROWS:
        g = GroverInstance(n=n, solutions=m, err=err, eta=eta, steps=steps)
        if name == "grover_n30_m1000":
            ok &= passline(horizon(g) == 814, "row 4 horizon formula gives 814")
        res = synth_angle_certificate(g, samples, seed=7, workdir=tmp_path / name)
        ok &= passline(res.status == "solved", f"{name} verified")
        ok &= passline(res.lp_time < 5.0, f"{name} generation {res.lp_time:.2f}s < 5s")
        ok &= passline(
            res.smt_time < 1.0, f"{name} verification {res.smt_time:.2f}s < 1s"
        )
        cert = res.certificate
        ok &= passline(
            cert.c >= 0 and cert.gamma + cert.delta * steps < cert.lam,
            f"{name} feasible constants with nonnegative slope",
        )
    assert ok


def test_criterion_6_safety_oracle_equivalence(bundled_runs):
    ok = True
    cases = solved_small_cases(bundled_runs)
    names = {n for n, _ in cases}
    for must in MUST_SOLVE_SMALL:
        ok &= passline(must in names, f"{must} verified and swept by the oracle")
    for name, steps in cases:
        job = load_config(bundled_config_path(name))
        safe = trajectory_safe(
            job.dynamics,
            job.init_region,
            job.unsafe_region,
            steps=steps,
            grid=1000,
            seed=1234,
        )
        ok &= passline(safe, f"{name}: zero unsafe visits over {steps} steps")
    for name, n, m, err, eta, steps, _ in GROVER_ROWS:
        g = GroverInstance(n=n, solutions=m, err=err, eta=eta, steps=steps)
        ok &= passline(
            noise_envelope_safe(g), f"{name}: reachable envelope avoids unsafe arc"
        )
        ok &= passline(
            enumerate_noise_safe(g, grid=40),
            f"{name}: enumerated noise trajectories stay safe",
        )
    assert ok


def _numeric_refutes_circuit(cert: Certificate, job, seed=424242, n=2000):
    """Sample-based violation oracle, independent of the SMT path."""
    init = sample_states(job.init_region, n, seed).states
    unsafe = sample_states(job.unsafe_region, n, seed + 1).states
    glob = sample_states(job.global_region, n, seed + 2).states
    c = cert.constants
    k = cert.k
    tol = 1e-6
    worst = -math.inf
    n_vec = len(cert.coeff_vectors)
    if cert.flavor == "finite-horizon":
        worst = max(worst, eval_real_batch(cert, init).max() - c["gamma"])
        worst = max(worst, c["lam"] - eval_real_batch(cert, unsafe).min())
        stepped = glob @ job.dynamics.map_at(0).matrix().T
        diff = eval_real_batch(cert, stepped) - eval_real_batch(cert, glob)
        worst = max(worst, diff.max() - c["delta"])
    else:
        worst = max(worst, eval_real_batch(cert, init, 0).max())
        thresh = c["gamma"] if cert.flavor == "invariant" else c["d"]
        for v in range(n_vec):
            worst = max(worst, thresh - eval_real_batch(cert, unsafe, v).min())
        eps = 0.0 if cert.flavor == "invariant" else c["eps"]
        for t in range(n_vec):
            stepped = glob @ job.dynamics.map_at(t).matrix().T
            diff = eval_real_batch(cert, stepped, t) - eval_real_batch(cert, glob, t)
            worst = max(worst, diff.max() - eps)
        if cert.flavor == "hybrid":
            for t in range(n_vec):
                diff = eval_real_batch(cert, glob, (t + 1) % n_vec) - eval_real_batch(
                    cert, glob, t
                )
                worst = max(worst, diff.max() - c["gamma"])
        if cert.flavor in ("k-inductive", "hybrid"):
            mat = job.dynamics.composed_matrix(0, k)
            diff = eval_real_batch(cert, glob @ mat.T, 0) - eval_real_batch(
                cert, glob, 0
            )
            worst = max(worst, diff.max())
    return worst > tol


def _mutants(cert: Certificate, rng):
    out = []
    n_terms = cert.template.n_terms
    shifts = [0.5, -0.5, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0]
    while len(out) < 20:
        vecs = [v.copy() for v in cert.coeff_vectors]
        kind = rng.integers(0, 3)
        if kind == 0:  # sign flip of one term across the family
            i = int(rng.integers(0, n_terms))
            for v in vecs:
                v[i] = -v[i]
        elif kind == 1:  # constant shift
            s = shifts[int(rng.integers(0, len(shifts)))]
            for v in vecs:
                v[0] = v[0] + s
        else:  # perturb one coefficient
            i = int(rng.integers(0, n_terms))
            s = shifts[int(rng.integers(0, len(shifts)))]
            for v in vecs:
                v[i] = v[i] + s
        try:
            out.append(
                Certificate(
                    template=cert.template,
                    coeff_vectors=tuple(vecs),
                    flavor=cert.flavor,
                    constants=dict(cert.constants),
                    decimals=cert.decimals,
                )
            )
        except Exception:
            continue
    return out


def test_criterion_7_soundness_gate(bundled_runs, tmp_path):
    rng = np.random.default_rng(2718)
    ok = True
    for name, _ in solved_small_cases(bundled_runs):
        report, _ = bundled_runs[name]
        job = load_config(bundled_config_path(name))
        cert = Certificate.from_dict(report.certificate)
        oracle_refuted = 0
        agreed = 0
        for mi, mutant in enumerate(_mutants(cert, rng)):
            refutes = _numeric_refutes_circuit(mutant, job)
            if not refutes:
                continue
            oracle_refuted += 1
            vreport, queries = verify_certificate(
                mutant,
                job.init_region,
                job.unsafe_region,
                job.global_region,
                job.dynamics,
                workdir=tmp_path / name / f"m{mi}",
            )
            if vreport.overall == "refuted":
                ref = vreport.refutation
                query = next(
                    q for q in queries if q.condition_id == ref.condition_id
                )
                point = query.amplitude_point(ref.model)
                negated = query.constraints[-1]
                val = float(negated.poly.eval_floats(point.reshape(1, -1))[0])
                margin = (
                    val - float(negated.rhs)
                    if negated.op == ">"
                    else float(negated.rhs) - val
                )
                if margin > 1e-9:
                    agreed += 1
        ok &= passline(
            oracle_refuted > 0 and agreed == oracle_refuted,
            f"{name}: SMT gate refutes {agreed}/{oracle_refuted} "
            "oracle-refuted mutants with >1e-9 violations",
        )
    # angle-model mutants
    from qbarrier.grover import AngleCertificate, angle_queries
    from qbarrier.smt.run import verify_queries

    for name, n, m, err, eta, steps, samples in GROVER_ROWS[:2]:
        g = GroverInstance(n=n, solutions=m, err=err, eta=eta, steps=steps)
        res = synth_angle_certificate(g, samples, seed=7, workdir=tmp_path / name)
        base = res.certificate
        lo, hi = initial_interval(g)
        ulo, uhi = unsafe_interval()
        th = theta(g)
        oracle_refuted = agreed = 0
        for mi in range(20):
            c = base.c * (1 + 0.2 * float(rng.standard_normal()))
            dg = float(rng.choice([-5.0, -1.0, 0.0, 1.0, 5.0]))
            try:
                mutant = AngleCertificate(
                    c=c,
                    gamma=base.gamma + dg,
                    lam=base.lam,
                    delta=base.delta,
                    horizon=base.horizon,
                )
            except Exception:
                continue
            viol = max(
                mutant.c * hi - mutant.gamma,
                mutant.lam - mutant.c * ulo,
                mutant.c * (th + eta) - mutant.delta,
            )
            if viol <= 1e-6:
                continue
            oracle_refuted += 1
            rep = verify_queries(
                angle_queries(mutant, g), "builtin", tmp_path / f"{name}-m{mi}"
            )
            if rep.overall == "refuted":
                agreed += 1
        ok &= passline(
            oracle_refuted > 0 and agreed == oracle_refuted,
            f"{name} angle mutants: {agreed}/{oracle_refuted} refuted",
        )
    assert ok


def test_criterion_8_sampler_quality():
    ok = True
    regions = {
        "tail": parse_region(["prob(0) >= 0.9"], 8, "tail"),
        "band": parse_region(["prob(0) >= 0.24", "prob(0) <= 0.26"], 4, "band"),
        "sum": parse_region(["prob(1)+prob(2)+prob(3) >= 0.5"], 4, "sum"),
    }
    for name, region in regions.items():
        scen = sample_states(region, 500, seed=5)
        ok &= passline(
            bool(region.membership_batch(scen.states).all()),
            f"sampler 100% membership on {name}",
        )
    a = sample_states(regions["tail"], 500, seed=5).states
    b = sample_states(regions["tail"], 500, seed=5).states
    ok &= passline(bool(np.array_equal(a, b)), "sampler deterministic under seed")
    for n in (1, 2, 3):
        dim = 2 ** n
        scen = sample_states(full_sphere(dim), 1000, seed=6)
        means = np.mean(np.abs(scen.states) ** 2, axis=0)
        dev = float(np.max(np.abs(means - 1 / dim)))
        ok &= passline(dev < 0.05, f"sphere mean deviation {dev:.3f} < 0.05 (n={n})")
    assert ok


def test_criterion_9_lp_layer():
    dyn_job = load_config(bundled_config_path("zgate3_infinite"))
    init, unsafe, glob = (
        dyn_job.init_region,
        dyn_job.unsafe_region,
        dyn_job.global_region,
    )
    ok = True
    for n in (64, 300):
        cfg = SynthesisConfig(flavor="invariant", degree=2, samples=n, seed=2)
        scen = sample_scenarios(init, unsafe, glob, cfg)
        problem = build_lp(
            full_template(8, 2).prefix(3), dyn_job.dynamics, cfg, scen
        )
        ok &= passline(
            problem.n_rows == 3 * n, f"invariant row count {problem.n_rows} == 3N"
        )
        sol = solve_lp(problem)
        if sol.status == "optimal":
            residual = recheck_solution(problem, sol.x)
            ok &= passline(
                residual <= 1e-6, f"solution re-check residual {residual:.2e} <= 1e-6"
            )
    assert ok
