import math
import types
from fractions import Fraction

import pytest

import qbarrier.smt.builtin as builtin
from qbarrier.smt.builtin import (
    SmtParseError,
    main,
    parse_numeral,
    parse_problem,
    solve_problem,
    solve_text,
)

SPHERE2 = (
    "(assert (= (+ (* x0 x0) (* y0 y0) (* x1 x1) (* y1 y1)) 1))"
)


def wrap(*asserts, decls=("x0", "y0", "x1", "y1")):
    lines = ["(set-logic QF_NRA)"]
    lines += [f"(declare-const {d} Real)" for d in decls]
    lines += list(asserts)
    lines += ["(check-sat)", "(get-model)"]
    return "\n".join(lines)


def test_parse_numerals():
    assert parse_numeral("0.9") == Fraction(9, 10)
    assert parse_numeral(["-", "0.5"]) == Fraction(-1, 2)
    assert parse_numeral(["/", "9", "10"]) == Fraction(9, 10)
    with pytest.raises(SmtParseError):
        parse_numeral("abc")


def test_touching_strict_query_is_unsat():
    # p0 >= 0.9 with -10*p0 + 9 > 0 touches at the boundary: unsatisfiable
    text = wrap(
        "(assert (>= (+ (* x0 x0) (* y0 y0)) (/ 9 10)))",
        SPHERE2,
        "(assert (> (+ 9 (* (- 10) x0 x0) (* (- 10) y0 y0)) 0))",
    )
    assert solve_text(text) == ("unsat", None)


def test_feasible_strict_query_returns_checked_model():
    text = wrap(
        "(assert (>= (+ (* x0 x0) (* y0 y0)) (/ 9 10)))",
        SPHERE2,
        "(assert (> (+ 10 (* (- 10) x0 x0) (* (- 10) y0 y0)) 0))",
    )
    status, model = solve_text(text)
    assert status == "sat"
    p0 = model["x0"] ** 2 + model["y0"] ** 2
    assert p0 >= 0.9 - 1e-9
    assert 10 - 10 * p0 > 1e-9
    total = sum(model[n] ** 2 for n in ("x0", "y0", "x1", "y1"))
    assert abs(total - 1.0) < 1e-9


def test_infeasible_region_is_unsat():
    text = wrap(
        "(assert (>= (+ (* x0 x0) (* y0 y0)) (/ 9 10)))",
        "(assert (<= (+ (* x0 x0) (* y0 y0)) (/ 1 10)))",
        SPHERE2,
        "(assert (> x0 0))",
    )
    assert solve_text(text)[0] == "unsat"


def test_constant_queries():
    assert solve_text(wrap("(assert (<= 1 0))", decls=()))[0] == "unsat"
    status, model = solve_text(wrap("(assert (<= 0 1))", decls=()))
    assert status == "sat" and model == {}


def test_parameter_only_linear_query():
    text = wrap(
        "(assert (>= t 1))",
        "(assert (<= t 2))",
        "(assert (> (* 3 t) 5))",
        decls=("t",),
    )
    status, model = solve_text(text)
    assert status == "sat"
    assert 1 - 1e-12 <= model["t"] <= 2 + 1e-12
    assert 3 * model["t"] > 5


def test_parameter_only_unsat():
    text = wrap(
        "(assert (>= t 1))",
        "(assert (<= t 2))",
        "(assert (> (* 3 t) 6))",
        decls=("t",),
    )
    assert solve_text(text)[0] == "unsat"


def test_probe_finds_gross_nonaffine_violation():
    # cross term constraint: satisfiable with aligned phases
    text = wrap(
        SPHERE2,
        "(assert (> (+ (* x0 x1) (* y0 y1)) (/ 2 5)))",
    )
    status, model = solve_text(text)
    assert status == "sat"
    lhs = model["x0"] * model["x1"] + model["y0"] * model["y1"]
    assert lhs > 0.4


def test_qubit_feature_relaxation_refutes_tight_bound():
    # max of p0 + Re(z0 conj z1) - 1/2 over the sphere is sqrt(2)/2; a bound
    # slightly above that is unsatisfiable but needs the feature reasoning
    bound = math.sqrt(2) / 2 + 0.02
    num = Fraction(bound).limit_denominator(10 ** 9)
    text = wrap(
        SPHERE2,
        "(assert (> (+ (* x0 x0) (* y0 y0) (* x0 x1) (* y0 y1) (- 0.5)) "
        f"(/ {num.numerator} {num.denominator})))",
    )
    assert solve_text(text)[0] == "unsat"


def test_qubit_feature_relaxation_leaves_satisfiable_alone():
    bound = math.sqrt(2) / 2 - 0.05
    num = Fraction(bound).limit_denominator(10 ** 9)
    text = wrap(
        SPHERE2,
        "(assert (> (+ (* x0 x0) (* y0 y0) (* x0 x1) (* y0 y1) (- 0.5)) "
        f"(/ {num.numerator} {num.denominator})))",
    )
    status, model = solve_text(text)
    assert status == "sat"


def test_parse_problem_structures():
    text = wrap("(assert (<= (+ (* 2 x0) 1) 3))", decls=("x0",))
    prob = parse_problem(text)
    assert prob.names == ["x0"]
    con = prob.constraints[0]
    assert con.op == "<=" and con.rhs == 2  # constant folded into the bound


def test_power_operator_supported():
    text = wrap("(assert (<= (^ x0 2) 0.25))", "(assert (>= x0 0.4))", decls=("x0",))
    status, model = solve_text(text)
    assert status == "sat"
    assert 0.4 <= model["x0"] <= 0.5 + 1e-9


@pytest.mark.parametrize(
    "assertion",
    [
        "(assert (<= x0 (/ 1 0)))",
        "(assert (<= x0 1/0))",
        "(assert ())",
        "(assert (<= x0))",
        "(assert (<= (^ x0) 1))",
    ],
)
def test_malformed_input_is_a_parse_error(assertion, tmp_path, capsys):
    text = wrap(assertion, decls=("x0",))
    with pytest.raises(SmtParseError):
        parse_problem(text)
    path = tmp_path / "bad.smt2"
    path.write_text(text)
    assert main([str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


# a cross-term query that neither the feature LP nor the qubit relaxation
# decides; only the probe finds its model
CROSS_TERM = wrap(SPHERE2, "(assert (> (+ (* x0 x1) (* y0 y1)) (/ 2 5)))")


def test_zero_budget_leaves_probe_query_unknown():
    assert solve_problem(parse_problem(CROSS_TERM), timeout_s=0.0) == ("unknown", None)


def test_configured_budget_is_not_capped(monkeypatch):
    # a clock that reads 60 s after the deadline is set: inside a 300 s
    # budget, so the probe still runs
    reads = iter([0.0])
    clock = types.SimpleNamespace(monotonic=lambda: next(reads, 60.0))
    monkeypatch.setattr(builtin, "time", clock)
    status, model = solve_problem(parse_problem(CROSS_TERM), timeout_s=300.0)
    assert status == "sat"
    assert model["x0"] * model["x1"] + model["y0"] * model["y1"] > 0.4
