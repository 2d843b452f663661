import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qbarrier import (
    Certificate,
    constant_dynamics,
    eval_real,
    full_sphere,
    full_template,
    load_config,
    parse_region,
    standard_gate,
    tensor,
)
from qbarrier.cli import bundled_config_path
from qbarrier.quantum import Dynamics, Schedule, StepMap, hadamard_uncertain
from qbarrier.smt.builtin import parse_problem
from qbarrier.smt.encode import (
    EncodeError,
    _fixed_row_forms,
    conditions_for,
    encode_condition,
)
from qbarrier.smt.run import builtin_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def z_setup(a=-10.0, b=13.0, flavor="finite-horizon"):
    dyn = constant_dynamics(tensor([standard_gate("Z")] * 3))
    init = parse_region(["prob(0) >= 0.9"], 8, "init")
    unsafe = parse_region(["prob(1) >= 0.2"], 8, "unsafe")
    glob = full_sphere(8, "global")
    constants = (
        {"gamma": 4.0, "lam": 5.0, "delta": 0.0, "T": 5}
        if flavor == "finite-horizon"
        else {"gamma": 1.0}
    )
    cert = Certificate(
        template=full_template(8, 2).prefix(2),
        coeff_vectors=(np.array([b, a], dtype=complex),),
        flavor=flavor,
        constants=constants,
        decimals=6,
    )
    return cert, init, unsafe, glob, dyn


def test_finite_horizon_emits_five_conditions():
    cert, *_ = z_setup()
    ids = [s.condition_id for s in conditions_for(cert)]
    assert ids == ["init", "unsafe", "step", "side-drift", "side-margin"]


def test_invariant_condition_ids():
    cert, *_ = z_setup(flavor="invariant")
    ids = [s.condition_id for s in conditions_for(cert)]
    assert ids == ["init", "unsafe", "step", "side-positivity"]


def test_init_query_contains_sphere_and_sorted_declarations():
    cert, init, unsafe, glob, dyn = z_setup()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    text = q.text
    assert "(set-logic QF_NRA)" in text
    decls = [l for l in text.splitlines() if l.startswith("(declare-const")]
    names = [l.split()[1] for l in decls]
    assert names == sorted(names)
    assert any(c.op == "=" for c in q.constraints)  # sphere equation
    # negated condition is strict and last
    assert q.constraints[-1].negated_condition
    assert q.constraints[-1].op == ">"


def test_emission_is_byte_stable():
    cert, init, unsafe, glob, dyn = z_setup()
    a = encode_condition(cert, "init", init, unsafe, glob, dyn).text
    b = encode_condition(cert, "init", init, unsafe, glob, dyn).text
    assert a == b


def test_encoding_round_trip_matches_eval_real():
    cert, init, unsafe, glob, dyn = z_setup()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    problem = parse_problem(q.text)
    negated = problem.constraints[-1]
    rng = np.random.default_rng(21)
    for _ in range(100):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps = raw / np.linalg.norm(raw)
        point = {}
        for j in range(8):
            point[f"x{j}"] = amps[j].real
            point[f"y{j}"] = amps[j].imag
        vec = [point.get(nm, 0.0) for nm in problem.names]
        acc = 0.0
        for exps, coef in sorted(negated.poly.coeffs.items()):
            term = float(coef)
            for i, e in enumerate(exps):
                term *= vec[i] ** e
            acc += term
        # the parser normalizes direction; the signed margin of the negated
        # condition must match B(z) - gamma from the direct evaluation
        margin = (
            acc - float(negated.rhs)
            if negated.op in (">", ">=")
            else float(negated.rhs) - acc
        )
        direct = eval_real(cert, amps) - cert.constants["gamma"]
        assert abs(margin - direct) < 1e-9


def test_step_forms_are_built_once_per_matrix():
    cert, init, unsafe, glob, dyn = z_setup()
    _fixed_row_forms.cache_clear()
    first = encode_condition(cert, "step", init, unsafe, glob, dyn).text
    # an equal matrix from another Dynamics object hits the same entry
    again = constant_dynamics(tensor([standard_gate("Z")] * 3))
    second = encode_condition(cert, "step", init, unsafe, glob, again).text
    info = _fixed_row_forms.cache_info()
    assert first == second
    assert (info.misses, info.hits) == (1, 1)


def test_z_step_condition_collapses_to_zero_polynomial():
    cert, init, unsafe, glob, dyn = z_setup()
    q = encode_condition(cert, "step", init, unsafe, glob, dyn)
    negated = q.constraints[-1]
    assert not negated.poly.coeffs  # identically zero after substitution


def test_unknown_condition_id_rejected():
    cert, init, unsafe, glob, dyn = z_setup()
    with pytest.raises(EncodeError):
        encode_condition(cert, "k-step", init, unsafe, glob, dyn)


def he_setup():
    ug = hadamard_uncertain(0.9, 1.1)
    dyn = Dynamics(
        maps=(StepMap(n=1, factors=((ug, (0,)),)),), schedule=Schedule((0,))
    )
    cert = Certificate(
        template=full_template(2, 2).prefix(2),
        coeff_vectors=(np.array([1.0, -2.0], dtype=complex),),
        flavor="finite-horizon",
        constants={"gamma": 0.0, "lam": 1.0, "delta": 0.5, "T": 1},
        decimals=6,
    )
    init = parse_region(["prob(0) >= 0.9"], 2, "init")
    unsafe = parse_region(["prob(0) <= 0.1"], 2, "unsafe")
    return cert, init, unsafe, full_sphere(2), dyn


def cx_setup():
    """k-inductive certificate with complex and linear terms; each step is
    the Bell circuit (H on qubit 0, then CX), and k = 2 makes the k-step
    query compose two steps."""
    h0 = tensor([standard_gate("H"), standard_gate("I")])
    bell = StepMap(n=2, factors=(h0, standard_gate("CX")))
    dyn = Dynamics(maps=(bell,), schedule=Schedule((0,)))
    cert = Certificate(
        template=full_template(4, 2).prefix(8),
        coeff_vectors=(
            np.array(
                [0.5, -1.25, 0.75, 0.0, 2.0, 0.3 + 0.2j, -0.1j, 0.125], dtype=complex
            ),
        ),
        flavor="k-inductive",
        constants={"d": 0.5, "eps": 0.1, "k": 2},
        decimals=6,
    )
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(3) >= 0.5", "re(1) <= 0.25"], 4, "unsafe")
    return cert, init, unsafe, full_sphere(4, "global"), dyn


def cx_he_setup():
    """cx_setup's certificate over steps of CX then the uncertain mixing gate
    on qubit 1, so the k-step query composes two HE factors."""
    cert, init, unsafe, glob, _ = cx_setup()
    step = StepMap(n=2, factors=(standard_gate("CX"), (hadamard_uncertain(0.9, 1.1), (1,))))
    return cert, init, unsafe, glob, Dynamics(maps=(step,), schedule=Schedule((0,)))


def hybrid_setup():
    """Hybrid certificate with k = 2 over the alternating CX/CZ circuit: two
    coefficient vectors, so unsafe, step and time-shift are emitted once per
    offset with their own vector."""
    cx, cz = standard_gate("CX"), standard_gate("CZ")
    dyn = Dynamics(maps=(StepMap(n=2, factors=(cx,)), StepMap(n=2, factors=(cz,))),
                   schedule=Schedule((0, 1)))
    cert = Certificate(
        template=full_template(4, 2).prefix(9),  # 1, |z_j|^2, then z0..z3
        coeff_vectors=(
            np.array([-0.5, 1.0, -0.25, -0.5, -0.125, 0.1j, 0.0, 0.05, 0.0], dtype=complex),
            np.array([-0.5, 1.0, -0.25, -0.25, -0.25, 0.0, 0.0, 0.0, 0.2], dtype=complex),
        ),
        flavor="hybrid",
        constants={"d": 0.75, "eps": 0.125, "gamma": 0.0625, "k": 2},
        decimals=6,
    )
    init = parse_region(["prob(0) >= 0.9"], 4, "init")
    unsafe = parse_region(["prob(1)+prob(2)+prob(3) >= 0.5"], 4, "unsafe")
    return cert, init, unsafe, full_sphere(4, "global"), dyn


def test_uncertain_step_encoding_declares_parameters():
    cert, init, unsafe, glob, dyn = he_setup()
    q = encode_condition(cert, "step", init, unsafe, glob, dyn)
    assert "u0" in q.declarations  # gate parameter
    assert "v0" in q.declarations  # normalization auxiliary
    ops = [c.op for c in q.constraints]
    assert ops.count("=") >= 2  # sphere plus the normalization equation


def test_uncertain_gate_without_polynomial_form_is_rejected():
    cert, init, unsafe, glob, _ = he_setup()
    ug = dataclasses.replace(hadamard_uncertain(0.9, 1.1), name="PHASE")
    dyn = Dynamics(
        maps=(StepMap(n=1, factors=((ug, (0,)),)),), schedule=Schedule((0,))
    )
    with pytest.raises(EncodeError, match="PHASE"):
        encode_condition(cert, "step", init, unsafe, glob, dyn)


def _all_queries(setup):
    cert, init, unsafe, glob, dyn = setup()
    return [
        encode_condition(cert, spec, init, unsafe, glob, dyn)
        for spec in conditions_for(cert)
    ]


# sha256 of every emitted query: a change here changes the bytes handed to
# every solver, so it has to be deliberate
PINNED_SHA256 = {
    "z": {
        "init": "c0a6cfcb3676f92f95d1ce1bc94806e5396cedfedef6fb1f4c72ac1a39b3aba2",
        "unsafe": "adee7800225e547f09ff0e71870758eb86d3f6569bc60c47cf191d19dfc6bb11",
        "step": "33d872695c42ec873ebf0aceec82e81d850e4b8731e845c0980b484685412860",
        "side-drift": "5af9753f064c7cd58acea212ea079ed97386fb9400200e6fdceee721fc059522",
        "side-margin": "dadc39a93a2b2b82f2ccfede28644010523c6480ffe2435734505a6fa18f2f90",
    },
    "he": {
        "init": "20bbc053fae69c7e78e172dc25496aeb0ad891e78c7a7342bb10795270fe6ef5",
        "unsafe": "a03a7a6873b30a5a3782b02e8c9b2c559802b63ffd2b5e109ee30de7305191ad",
        "step": "0701b15c2bfd5f705d8095efabf5cefb98fd7f5db31d41c840752411f8f7682f",
        "side-drift": "ac67ae8d8d60c417cb7ee3fe5e7dc7fa2dfa187a5f959dfc574ab1a313499d6e",
        "side-margin": "ee6a05aa3c4d3d3fb7818b473ad8289a0a9cc5f3b0f378be6ae5e4980a414072",
    },
    "cx": {
        "init": "d432eee1e5687bf7c1d40e6515afb7f30dcec34ada5bed68212151e3bc1f21bc",
        "unsafe": "7ad5584cf83744d7b51af48ea1bc1d366b870038be04c8528111f92209ff5078",
        "step": "6fcd3e4179cc61b1a30149eabea954bb820d69c15a1d4d2fc4dfdca3d90cd367",
        "k-step": "edc04ef1d5bec152a5f4b691bdb4f39a9c57089cb505ae314fe1dbad35dabd53",
        "side-margin": "7c7f583c3f13389111bb02184628ac1511dad6c236d29cd8bbe03e81506697e9",
    },
    "cx-he": {
        "init": "d432eee1e5687bf7c1d40e6515afb7f30dcec34ada5bed68212151e3bc1f21bc",
        "unsafe": "7ad5584cf83744d7b51af48ea1bc1d366b870038be04c8528111f92209ff5078",
        "step": "196f1e629c919f598aa867eff719653e91a9594fe4c957234410577e137e8d60",
        "k-step": "3ad0c18039b11a5114dec944bf46f5168825b5f8b175ce06a94863fae6123fec",
        "side-margin": "7c7f583c3f13389111bb02184628ac1511dad6c236d29cd8bbe03e81506697e9",
    },
    "z-invariant": {
        "init": "ef59f9c8341e8d922f53cf33aa8cacbbc874ced6e91f63c7c60a97662c622ed1",
        "unsafe": "eb391c3a19bb513d5f271633cc6c7b073c81e35e0a635b7a867f32d604f6d646",
        "step": "33d872695c42ec873ebf0aceec82e81d850e4b8731e845c0980b484685412860",
        "side-positivity": "dadc39a93a2b2b82f2ccfede28644010523c6480ffe2435734505a6fa18f2f90",
    },
    "hybrid": {
        "init": "b739ea8b93c064df8db3238b09a601316ecd7cea86bafbeb5747cbc82640c2c4",
        "unsafe-t0": "6a371d5b5c69412362691760f290bfcad8f8ce9a5e80133e4d8c4a97cc6468ff",
        "unsafe-t1": "fbef49f07a1c240fd08d3f6e73758e686963a35f221d6b64c9adb80e1a3e9d0a",
        "step-t0": "765af09d0b32c6aea017d622590bfb3d08ebb2939b981ca76f82601c689025b9",
        "step-t1": "b760c1812412858b9138dda45f113a6c3d0d1c204bef81b86e56d433aee4c647",
        "shift-t0": "98d59ef23498ea96ef52e906048f8b712a57cecbc71a56b968cc3d9afe7ea03d",
        "shift-t1": "31667102454c5cf0fa2a8dca0dfad05b7c9e33e867523979a5769c5d920ca176",
        "k-step": "13337ef895dc9bad2ce586ec27311b3662c2217b53aa20a3acd9294e2da04bc9",
        "side-margin": "3a05db055b5d6044cd42818e6b4471dd36fe1ed1de659beceea014c3d2b3dba8",
    },
}
SETUPS = {
    "z": z_setup,
    "he": he_setup,
    "cx": cx_setup,
    "cx-he": cx_he_setup,
    "z-invariant": lambda: z_setup(flavor="invariant"),
    "hybrid": hybrid_setup,
}


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_emitted_bytes_are_pinned(name):
    digests = {
        q.condition_id: hashlib.sha256(q.text.encode()).hexdigest()
        for q in _all_queries(SETUPS[name])
    }
    assert digests == PINNED_SHA256[name]


@pytest.mark.parametrize(
    "name,condition_id",
    [
        ("z", "step"),
        ("cx", "k-step"),
        ("hybrid", "step-t1"),
        ("hybrid", "k-step"),
        ("he", "step"),
        ("cx-he", "k-step"),
    ],
)
def test_window_queries_match_the_composed_matrix(name, condition_id):
    """The negated condition of a step window is B_vec(U z) - B_before(z),
    with U the float product of the window's step matrices; each u is drawn
    from its gate's domain and its normalization v is 1/sqrt(1+u^2)."""
    cert, init, unsafe, glob, dyn = SETUPS[name]()
    spec = {c.condition_id: c for c in conditions_for(cert)}[condition_id]
    poly = encode_condition(cert, spec, init, unsafe, glob, dyn).constraints[-1].poly
    t0, count = spec.window
    domains = [dyn.map_at(t0 + i).param_domain for i in range(count)]
    rng = np.random.default_rng(17)
    for _ in range(50):
        raw = rng.normal(size=cert.dim) + 1j * rng.normal(size=cert.dim)
        z = raw / np.linalg.norm(raw)
        params = [tuple(rng.uniform(lo, hi) for lo, hi in d) or None for d in domains]
        u = np.array([p for step in params if step for p in step])
        point = np.concatenate([z.real, z.imag, u, 1.0 / np.sqrt(1.0 + u * u)])
        assert len(point) == poly.nvars
        after = eval_real(cert, dyn.composed_matrix(t0, count, params) @ z, spec.vec)
        before = 0.0 if spec.before is None else eval_real(cert, z, spec.before)
        assert abs(float(poly.eval_floats(point)[0]) - (after - before)) < 1e-9


def _by_name(poly, names):
    """Coefficients keyed by sorted (name, power) pairs, so that polynomials
    over differently ordered variable lists compare."""
    return {
        tuple(sorted((names[i], p) for i, p in enumerate(e) if p)): c
        for e, c in poly.coeffs.items()
    }


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_parse_recovers_emitted_constraints_exactly(name):
    for q in _all_queries(SETUPS[name]):
        problem = parse_problem(q.text)
        assert len(problem.constraints) == len(q.constraints)
        for parsed, emitted in zip(problem.constraints, q.constraints):
            body = _by_name(emitted.poly, q.var_names)
            const = body.pop((), 0)
            rhs = emitted.rhs - const
            op = emitted.op
            if op in (">=", ">"):
                body = {m: -c for m, c in body.items()}
                rhs, op = -rhs, {">=": "<=", ">": "<"}[op]
            assert parsed.op == op
            assert parsed.rhs == rhs
            assert _by_name(parsed.poly, problem.names) == body
        _assert_same_problem(problem, builtin_problem(q), q.condition_id)


def _assert_same_problem(parsed, built, label):
    """The in-memory problem equals the parsed one down to the order of
    variables and terms, which the probe's draws and the float sums of
    branch-and-prune follow."""
    assert built.names == parsed.names, label
    assert len(built.constraints) == len(parsed.constraints), label
    for i, (b, p) in enumerate(zip(built.constraints, parsed.constraints)):
        where = f"{label} constraint {i}"
        assert (b.op, b.rhs, b.poly.nvars) == (p.op, p.rhs, p.poly.nvars), where
        assert list(b.poly.coeffs.items()) == list(p.poly.coeffs.items()), where


def test_builtin_problem_equals_the_parse_of_every_recheck_query():
    """Every query of the stored recheck certificates, built in memory, is the
    problem that parsing its emitted text gives, and the texts of all of
    them, in order, are pinned."""
    doc = json.loads((PERFBENCH / "data" / "recheck.json").read_text(encoding="utf-8"))
    jobs = {}
    count = 0
    digest = hashlib.sha256()
    for i, entry in enumerate(doc["certificates"]):
        name = entry["config"]
        if name not in jobs:
            local = PERFBENCH / "configs" / f"{name}.cfg"
            jobs[name] = load_config(local if local.is_file() else bundled_config_path(name))
        job = jobs[name]
        cert = Certificate.from_dict(entry["certificate"])
        for spec in conditions_for(cert):
            q = encode_condition(
                cert, spec, job.init_region, job.unsafe_region, job.global_region,
                job.dynamics,
            )
            label = f"certificate {i} ({name}) {spec.condition_id}"
            _assert_same_problem(parse_problem(q.text), builtin_problem(q), label)
            digest.update(q.text.encode())
            count += 1
    assert (len(doc["certificates"]), count) == (66, 358)
    assert digest.hexdigest() == (
        "a23e9a356f22f0a6dde31baed1a509a4820117a25e6e5b31d350fa4a8a743e77"
    )
