import sys

import numpy as np
import pytest

from qbarrier import Certificate, full_sphere, full_template, parse_region
from qbarrier.quantum import constant_dynamics, standard_gate, tensor
import qbarrier.smt.encode
from qbarrier.smt.encode import conditions_for, encode_condition
from qbarrier.smt.run import (
    SolverToolError,
    _parse_model_text,
    model_to_state,
    run_solver,
    solver_argv,
    verify_certificate,
)


def make_cert(a=-10.0, b=13.0, gamma=4.0, lam=5.0):
    return Certificate(
        template=full_template(8, 2).prefix(2),
        coeff_vectors=(np.array([b, a], dtype=complex),),
        flavor="finite-horizon",
        constants={"gamma": gamma, "lam": lam, "delta": 0.0, "T": 5},
        decimals=6,
    )


def setup_regions():
    dyn = constant_dynamics(tensor([standard_gate("Z")] * 3))
    init = parse_region(["prob(0) >= 0.9"], 8, "init")
    unsafe = parse_region(["prob(1) >= 0.2"], 8, "unsafe")
    return init, unsafe, full_sphere(8, "global"), dyn


# the bundled engine run as an external solver, one process per query
CONSOLE_ENGINE = f"{sys.executable} -m qbarrier.smt.builtin {{file}} --timeout {{timeout_s}}"


def stub_solver(tmp_path, body, name="stub"):
    path = tmp_path / f"{name}.py"
    path.write_text(body)
    return f"{sys.executable} {path} {{file}}"


def test_builtin_writes_query_file_and_verifies(tmp_path):
    cert = make_cert(gamma=4.001, lam=4.999)
    init, unsafe, glob, dyn = setup_regions()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    v = run_solver(q, "builtin", tmp_path)
    assert (tmp_path / "init.smt2").exists()
    assert v.status == "unsat"


def test_external_stub_unsat(tmp_path):
    cert = make_cert(gamma=4.001)
    init, unsafe, glob, dyn = setup_regions()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    cmd = stub_solver(tmp_path, "print('unsat')\n")
    v = run_solver(q, cmd, tmp_path)
    assert v.status == "unsat"


def test_external_stub_sat_with_valid_model(tmp_path):
    # tampered certificate: raising the constant breaks the init bound at
    # the basis state |000>, which the stub reports as its model
    cert = make_cert(b=23.0, gamma=4.001)
    init, unsafe, glob, dyn = setup_regions()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    model_lines = ["(model"]
    model_lines.append("  (define-fun x0 () Real 1)")
    for j in range(1, 8):
        model_lines.append(f"  (define-fun x{j} () Real 0)")
    for j in range(8):
        model_lines.append(f"  (define-fun y{j} () Real 0)")
    model_lines.append(")")
    body = "print('sat')\nprint('''" + "\n".join(model_lines) + "''')\n"
    cmd = stub_solver(tmp_path, body)
    v = run_solver(q, cmd, tmp_path)
    assert v.status == "sat"
    state = model_to_state(q, v.model)
    assert abs(abs(state[0]) - 1.0) < 1e-9


def test_external_stub_sat_with_bogus_model_is_tool_error(tmp_path):
    cert = make_cert(gamma=4.001)
    init, unsafe, glob, dyn = setup_regions()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    body = (
        "print('sat')\n"
        "print('(model (define-fun x0 () Real 1))')\n"  # valid certificate: no violation
    )
    cmd = stub_solver(tmp_path, body)
    with pytest.raises(SolverToolError):
        run_solver(q, cmd, tmp_path)


@pytest.mark.parametrize("value", ["(/ 1 0)", "1/0", "1e400"])
def test_model_value_without_float_value_is_tool_error(value):
    with pytest.raises(SolverToolError):
        _parse_model_text(f"(model (define-fun x0 () Real {value}))")


def test_external_garbage_output_is_tool_error(tmp_path):
    cert = make_cert(gamma=4.001)
    init, unsafe, glob, dyn = setup_regions()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    cmd = stub_solver(tmp_path, "print('segfault imminent')\n")
    with pytest.raises(SolverToolError):
        run_solver(q, cmd, tmp_path)


def test_external_timeout_yields_unknown(tmp_path):
    cert = make_cert(gamma=4.001)
    init, unsafe, glob, dyn = setup_regions()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn, timeout_s=0.1)
    body = "import time\ntime.sleep(30)\nprint('unsat')\n"
    # the runner grants a grace period on top of the query timeout
    cmd = stub_solver(tmp_path, body)
    import qbarrier.smt.run as run_mod

    q_fast = q
    v = run_mod.run_solver(q_fast, cmd, tmp_path)
    assert v.status == "unknown"


@pytest.mark.parametrize(
    "command, argv",
    [
        ("z3 -T:{timeout_s} {file}", ["z3", "-T:5", "q.smt2"]),
        # without {file}, {timeout_s} is still filled and the path comes last
        ("z3 -T:{timeout_s}", ["z3", "-T:5", "q.smt2"]),
        ("z3 -smt2", ["z3", "-smt2", "q.smt2"]),
    ],
)
def test_solver_argv_fills_every_template(command, argv):
    assert solver_argv(command, "q.smt2", 4.6) == argv


def test_missing_solver_binary_is_tool_error(tmp_path):
    cert = make_cert(gamma=4.001)
    init, unsafe, glob, dyn = setup_regions()
    q = encode_condition(cert, "init", init, unsafe, glob, dyn)
    with pytest.raises(SolverToolError):
        run_solver(q, "definitely-not-a-solver-binary {file}", tmp_path)


def test_verify_certificate_all_unsat_and_refutation(tmp_path):
    init, unsafe, glob, dyn = setup_regions()
    good = make_cert(gamma=4.001, lam=4.999)
    report, queries = verify_certificate(
        good, init, unsafe, glob, dyn, workdir=tmp_path / "good"
    )
    assert report.overall == "verified"
    assert all(v.status == "unsat" for v in report.verdicts)
    # flipped constant: B = -10*p0 - 13 dips to -21 on the unsafe region,
    # well below the recorded bound
    bad = make_cert(b=-13.0, gamma=-22.0, lam=-15.0)
    report2, queries2 = verify_certificate(
        bad, init, unsafe, glob, dyn, workdir=tmp_path / "bad"
    )
    assert report2.overall == "refuted"
    ref = report2.refutation
    assert ref is not None and ref.model
    query = next(q for q in queries2 if q.condition_id == ref.condition_id)
    state = model_to_state(query, ref.model)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def test_vacuously_unsat_on_empty_unsafe_region(tmp_path):
    init, _, glob, dyn = setup_regions()
    empty = parse_region(["prob(0) >= 0.9", "prob(0) <= 0.1"], 8, "empty")
    cert = make_cert(gamma=4.001, lam=4.999)
    report, _ = verify_certificate(
        cert, init, empty, glob, dyn, workdir=tmp_path
    )
    unsafe_verdict = next(v for v in report.verdicts if v.condition_id == "unsafe")
    assert unsafe_verdict.status == "unsat"


def test_bundled_engine_as_external_command_matches_in_process(tmp_path):
    """The console entry point speaks the external contract: same verdicts
    and a parseable model for the refuted case."""
    init, unsafe, glob, dyn = setup_regions()
    cmd = CONSOLE_ENGINE
    good = make_cert(gamma=4.001, lam=4.999)
    r_ext, _ = verify_certificate(
        good, init, unsafe, glob, dyn, command=cmd, workdir=tmp_path / "g"
    )
    r_in, _ = verify_certificate(
        good, init, unsafe, glob, dyn, workdir=tmp_path / "g2"
    )
    assert r_ext.overall == r_in.overall == "verified"
    bad = make_cert(b=-13.0, gamma=-22.0, lam=-15.0)
    r_bad, _ = verify_certificate(
        bad, init, unsafe, glob, dyn, command=cmd, workdir=tmp_path / "b"
    )
    assert r_bad.overall == "refuted"
    assert r_bad.refutation.model  # model round-tripped through stdout


def test_parallel_jobs_join_deterministically(tmp_path):
    # only an external solver's queries run on the thread pool
    init, unsafe, glob, dyn = setup_regions()
    cert = make_cert(gamma=4.001, lam=4.999)
    r1, q1 = verify_certificate(
        cert, init, unsafe, glob, dyn, command=CONSOLE_ENGINE, workdir=tmp_path / "a", jobs=3
    )
    r2, _ = verify_certificate(
        cert, init, unsafe, glob, dyn, command=CONSOLE_ENGINE, workdir=tmp_path / "b", jobs=3
    )
    assert [v.condition_id for v in r1.verdicts] == [q.condition_id for q in q1]
    assert [v.status for v in r1.verdicts] == [v.status for v in r2.verdicts]


def test_sequential_verification_encodes_no_condition_past_a_refutation(
    tmp_path, monkeypatch
):
    encoded = []
    real = qbarrier.smt.encode.encode_condition

    def counting(cert, spec, *args, **kwargs):
        encoded.append(spec.condition_id)
        return real(cert, spec, *args, **kwargs)

    monkeypatch.setattr(qbarrier.smt.encode, "encode_condition", counting)
    init, unsafe, glob, dyn = setup_regions()
    # B = 13 - 10*p0 exceeds gamma = 3 wherever p0 < 1 on the init region,
    # so the first condition is refuted
    cert = make_cert(gamma=3.0, lam=4.999)
    seq, seq_queries = verify_certificate(
        cert, init, unsafe, glob, dyn, workdir=tmp_path / "seq"
    )
    assert encoded == ["init"]
    assert [q.condition_id for q in seq_queries] == ["init"]
    # the builtin engine runs in order whatever `jobs` says
    encoded.clear()
    two, two_queries = verify_certificate(
        cert, init, unsafe, glob, dyn, workdir=tmp_path / "two", jobs=2
    )
    assert encoded == ["init"] and [v.condition_id for v in two.verdicts] == ["init"]
    assert [q.condition_id for q in two_queries] == ["init"]
    assert (two.refutation.model, two.refutation.decider) == (seq.refutation.model, seq.refutation.decider)
    # an external solver's queries all run on the pool, joined in order
    encoded.clear()
    par, par_queries = verify_certificate(
        cert, init, unsafe, glob, dyn, command=CONSOLE_ENGINE, workdir=tmp_path / "par", jobs=2
    )
    every = [spec.condition_id for spec in conditions_for(cert)]
    assert encoded == every
    assert [q.condition_id for q in par_queries] == every
    assert seq.overall == par.overall == "refuted"
    a, b = seq.refutation, par.refutation
    assert (a.condition_id, a.model) == (b.condition_id, b.model)
