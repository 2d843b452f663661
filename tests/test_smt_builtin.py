import functools
import itertools
import math
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import qbarrier
import qbarrier.smt.builtin as builtin
from qbarrier import Certificate, full_template, load_config
from qbarrier.cli import bundled_config_path
from qbarrier.realpoly import RealPoly, sphere_poly
from qbarrier.smt.builtin import (
    Constraint,
    Problem,
    Simplex,
    SmtParseError,
    decide_feature_lp,
    is_psd,
    main,
    parse_numeral,
    parse_problem,
    probe_sat,
    slemma_refute,
    solve_problem,
    solve_text,
)
from qbarrier.smt.encode import SMTQuery, StructConstraint
from qbarrier.smt.run import recheck_model, verify_certificate

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


def test_strict_slack_at_the_resolution_is_unknown():
    # p0 >= 0.9 with 9.000000001 - 10*p0 > 0: the best strict slack is
    # exactly 1e-9, not above the margin a model's re-check needs
    text = wrap(
        "(assert (>= (+ (* x0 x0) (* y0 y0)) (/ 9 10)))",
        SPHERE2,
        "(assert (> (+ 9.000000001 (* (- 10) x0 x0) (* (- 10) y0 y0)) 0))",
    )
    assert decide_feature_lp(parse_problem(text)) == ("unknown", None)
    decision = solve_text(text)
    assert (decision, decision.decider) == (("unknown", None), "none")


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
    # neither x0 > 0 nor a constraint that weighs x0^2 and y0^2 unequally
    # reduces to the features, but the rest is infeasible
    for unfit in ("(assert (> x0 0))", "(assert (< (+ (* 2 x0 x0) (* y0 y0)) 3))"):
        text = wrap(
            "(assert (>= (+ (* x0 x0) (* y0 y0)) (/ 9 10)))",
            "(assert (<= (+ (* x0 x0) (* y0 y0)) (/ 1 10)))",
            SPHERE2,
            unfit,
        )
        decision = solve_text(text)
        assert (decision, decision.decider) == (("unsat", None), "feature-lp")


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


def test_negative_parameter_is_read_from_its_minus_column():
    text = wrap(
        "(assert (>= t (- 2)))",
        "(assert (<= t (- 1)))",
        "(assert (< (* 3 t) (- 5)))",
        decls=("t",),
    )
    decision = solve_text(text)
    assert (decision, decision.decider) == (("sat", {"t": -2.0}), "feature-lp")


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
    # slightly above that is unsatisfiable, which the feature LP cannot show
    bound = math.sqrt(2) / 2 + 0.02
    num = Fraction(bound).limit_denominator(10 ** 9)
    text = wrap(
        SPHERE2,
        "(assert (> (+ (* x0 x0) (* y0 y0) (* x0 x1) (* y0 y1) (- 0.5)) "
        f"(/ {num.numerator} {num.denominator})))",
    )
    decision = solve_text(text)
    assert (decision, decision.decider) == (("unsat", None), "s-lemma")


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


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.smt2"
    path.write_bytes(wrap("(assert (<= x0 1))", decls=("x0",)).encode("utf-16"))
    assert main([str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


# a cross-term query that neither the feature LP nor the S-lemma decides;
# only the probe finds its model
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


# the `init` queries of two `hadamard1_infinite` certificates of the `recheck`
# benchmark, which no decider answers: both are satisfiable, but only on a
# thin sliver along the face p0 = 9/10, which the probe does not hit
RECHECK_SLIVER_QUERIES = [
    """(set-logic QF_NRA)
(declare-const x0 Real)
(declare-const x1 Real)
(declare-const y0 Real)
(declare-const y1 Real)
(assert (>= (+ (* 1 y0 y0) (* 1 x0 x0)) (/ 9 10)))
(assert (= (+ (* 1 y1 y1) (* 1 y0 y0) (* 1 x1 x1) (* 1 x0 x0)) 1))
(assert (> (+ (/ 32211953 1000000) (* (- (/ 5356219 100000)) y0 y1)
  (* (- (/ 2142639 40000)) y0 y0) (* (/ 569 1000000) x1 y0)
  (* (- (/ 569 1000000)) x0 y1) (* (- (/ 5356219 100000)) x0 x1)
  (* (- (/ 2142639 40000)) x0 x0)) 0))
(check-sat)
(get-model)
""",
    """(set-logic QF_NRA)
(declare-const x0 Real)
(declare-const x1 Real)
(declare-const y0 Real)
(declare-const y1 Real)
(assert (>= (+ (* 1 y0 y0) (* 1 x0 x0)) (/ 9 10)))
(assert (= (+ (* 1 y1 y1) (* 1 y0 y0) (* 1 x1 x1) (* 1 x0 x0)) 1))
(assert (> (+ (/ 32206323 1000000) (* (- (/ 53537313 1000000)) y0 y1)
  (* (- (/ 26775729 500000)) y0 y0) (* (- (/ 53537313 1000000)) x0 x1)
  (* (- (/ 26775729 500000)) x0 x0)) 0))
(check-sat)
(get-model)
""",
]


def _sliver_witness(problem):
    """A point z0 = sqrt(p0), z1 = -sqrt(1 - p0) with p0 just above 9/10
    that meets every constraint exactly, or None."""
    for p0 in np.linspace(0.9, 0.901, 1001):
        model = {"x0": math.sqrt(p0), "x1": -math.sqrt(1 - p0), "y0": 0.0, "y1": 0.0}
        if all(_exact_holds(con, model, problem.names) for con in problem.constraints):
            return model
    return None


def test_recheck_sliver_queries_end_unknown():
    for text in RECHECK_SLIVER_QUERIES:
        problem = parse_problem(text)
        assert _sliver_witness(problem) is not None
        assert slemma_refute(problem) is None
        decision = solve_problem(problem)
        assert (decision, decision.decider) == (("unknown", None), "none")


def _sphere_points(n=60):
    """A dense grid on the unit sphere of one qubit's four coordinates."""
    a, b, c = np.meshgrid(
        np.linspace(0, math.pi, n),
        np.linspace(0, math.pi, n),
        np.linspace(0, 2 * math.pi, 2 * n),
        indexing="ij",
    )
    return np.stack(
        [
            np.cos(a),
            np.sin(a) * np.cos(b),
            np.sin(a) * np.sin(b) * np.cos(c),
            np.sin(a) * np.sin(b) * np.sin(c),
        ],
        axis=-1,
    ).reshape(-1, 4)


def _exact_holds(con, model, names, slack=Fraction(1, 10 ** 9)):
    """A constraint at a model in exact rationals, the strict side violated
    by more than the slack, as the caller's model re-check requires."""
    point = [Fraction(model[n]) for n in names]
    val = sum(
        c * math.prod(x ** p for x, p in zip(point, e))
        for e, c in con.poly.coeffs.items()
    )
    if con.op == "=":
        return abs(val - con.rhs) <= slack
    if con.op == "<=":
        return val <= con.rhs + slack
    return val < con.rhs - slack


# x0^3 + y0^3 <= x0^2 + y0^2 <= 1 on the sphere, so this bound is unsat; the
# cubic is beyond the feature LP and the S-lemma, so no decider answers
CUBIC_UNSAT = wrap(SPHERE2, "(assert (> (+ (* x0 x0 x0) (* y0 y0 y0)) (/ 21 20)))")


def test_cubic_query_beyond_the_deciders_ends_unknown(tmp_path, capsys):
    pts = _sphere_points()
    assert (pts[:, 0] ** 3 + pts[:, 1] ** 3).max() < 1.05  # no grid point is feasible
    decision = solve_problem(parse_problem(CUBIC_UNSAT))
    assert (decision, decision.decider) == (("unknown", None), "none")
    path = tmp_path / "cubic.smt2"
    path.write_text(CUBIC_UNSAT)
    assert main([str(path)]) == 0
    assert capsys.readouterr().out == "unknown\n"


@pytest.mark.parametrize("coef, root", [("3", Fraction(1, 3)), ("(- 2)", Fraction(-1, 2))])
def test_single_variable_equality_fixes_the_box(coef, root):
    # c*u0 = 1 fixes u0 = 1/c; a probe drawing u0 from a wide box never meets it
    text = wrap(
        SPHERE2,
        f"(assert (= (* {coef} u0) 1))",
        "(assert (> (+ (* x0 x1) (* y0 y1)) (/ 2 5)))",
        decls=("x0", "y0", "x1", "y1", "u0"),
    )
    problem = parse_problem(text)
    model = probe_sat(problem, time.monotonic() + 1e6)
    assert model is not None
    assert model["u0"] == float(root)
    assert all(_exact_holds(con, model, problem.names) for con in problem.constraints)


# ---------------------------------------------------------------------------
# the deciders against a numeric oracle: random one-qubit degree-2 queries


_AMPS = ("x0", "x1", "y0", "y1")  # the encoder's variable order at dim 2
_DEGREE2 = [e for e in itertools.product(range(3), repeat=4) if 1 <= sum(e) <= 2]
_nonzero = st.builds(Fraction, st.sampled_from([n for n in range(-6, 7) if n]), st.integers(1, 4))
_bounds = st.builds(Fraction, st.integers(-16, 16), st.integers(1, 8))


@st.composite
def _feature_polys(draw):
    """a * p0 + b * p1, which the feature LP decides."""
    a, b = draw(_nonzero), draw(st.just(Fraction(0)) | _nonzero)
    return RealPoly(4, {(2, 0, 0, 0): a, (0, 0, 2, 0): a, (0, 2, 0, 0): b, (0, 0, 0, 2): b})


_degree2_polys = st.dictionaries(
    st.sampled_from(_DEGREE2), _nonzero, min_size=1, max_size=5
).map(lambda coeffs: RealPoly(4, coeffs))
# quadratic forms, which the S-lemma takes
_forms = st.dictionaries(
    st.sampled_from([e for e in _DEGREE2 if sum(e) == 2]), _nonzero, min_size=1, max_size=5
).map(lambda coeffs: RealPoly(4, coeffs))


@st.composite
def _one_qubit_queries(draw, polys):
    """Laid out as the encoder lays out a query: the sphere, up to two
    region constraints, then the negated condition."""
    cons = [StructConstraint(sphere_poly(2, 4), "=", Fraction(1))]
    for _ in range(draw(st.integers(0, 2))):
        cons.append(StructConstraint(draw(polys), draw(st.sampled_from(["<=", ">="])), draw(_bounds)))
    cons.append(
        StructConstraint(
            draw(polys), draw(st.sampled_from(["<", ">"])), draw(_bounds), negated_condition=True
        )
    )
    return SMTQuery("condition", 2, _AMPS, tuple(cons), timeout_s=60.0)


@functools.cache
def _grid():
    return _sphere_points(40)


def _grid_feasible(query: SMTQuery, margin=1e-9) -> bool:
    """Some point of a dense sphere grid meets every inequality by the margin."""
    ok = np.ones(len(_grid()), dtype=bool)
    for con in query.constraints:
        if con.op == "=":  # the sphere, which every grid point is on
            continue
        vals, rhs = con.poly.eval_floats(_grid()), float(con.rhs)
        ok &= vals <= rhs - margin if con.op in ("<=", "<") else vals >= rhs + margin
    return bool(ok.any())


def _check_deciders(query: SMTQuery):
    """An unsat verdict leaves the grid empty and a sat model passes the
    re-check the caller applies. Returns the feature LP's verdict."""
    problem = parse_problem(query.text)
    verdict = decide_feature_lp(problem)
    event(f"feature LP: {verdict and verdict[0]}")
    if verdict is not None and verdict[0] == "unsat":
        assert not _grid_feasible(query)
    if verdict is not None and verdict[0] == "sat":
        assert recheck_model(query, verdict[1])
    refuted = slemma_refute(problem)
    event(f"S-lemma: {refuted}")
    if refuted == "unsat":
        assert not _grid_feasible(query)
    return verdict


@settings(max_examples=80, deadline=None)
@given(query=_one_qubit_queries(_feature_polys()))
def test_feature_lp_verdicts_match_the_sphere_grid(query):
    assert _check_deciders(query) is not None  # affine in p0, p1: always reduced


def _as_query(text: str) -> SMTQuery:
    """A one-qubit query text as the encoder's query, with its strict
    constraint as the negated condition."""
    problem = parse_problem(text)
    assert tuple(problem.names) == _AMPS
    cons = [StructConstraint(c.poly, c.op, c.rhs, c.op == "<") for c in problem.constraints]
    return SMTQuery("init", 2, _AMPS, tuple(cons), timeout_s=60.0)


@settings(max_examples=80, deadline=None)
@given(query=_one_qubit_queries(_degree2_polys | _forms))
@example(query=_as_query(RECHECK_SLIVER_QUERIES[0]))
@example(query=_as_query(RECHECK_SLIVER_QUERIES[1]))
def test_qubit_refutations_match_the_sphere_grid(query):
    _check_deciders(query)


# ---------------------------------------------------------------------------
# the S-lemma's exact check


_small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_ldlt_matches_eigvalsh(data):
    """A Gram matrix B B^T is positive semidefinite, and singular when B has
    fewer columns than rows. Less s * I, it stays so exactly when its least
    eigenvalue is at least s, which `eigvalsh` decides away from equality."""
    n = data.draw(st.integers(1, 6), label="n")
    rank = data.draw(st.integers(0, n), label="rank")
    b = [[data.draw(_small) for _ in range(rank)] for _ in range(n)]
    gram = [[sum(b[i][k] * b[j][k] for k in range(rank)) for j in range(n)] for i in range(n)]
    event(f"singular: {rank < n}")
    assert is_psd(gram)
    shift = data.draw(_small, label="shift")
    shifted = [[g - shift * (i == j) for j, g in enumerate(row)] for i, row in enumerate(gram)]
    least = np.linalg.eigvalsh(np.array(shifted, dtype=float))[0]
    if abs(least) > 1e-9:
        event(f"positive semidefinite: {least > 0}")
        assert is_psd(shifted) == (least > 0)


def test_zero_pivot_needs_a_zero_row():
    assert is_psd([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert not is_psd([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(5)]])


def test_s_lemma_certifies_exactly_not_in_floats():
    # region p0 <= 1/2 and -eps * x0^2 < 0, satisfiable at x0 = 1/2: the best
    # lam = eps leaves lambda_min(G_v + lam * G_r) at -eps/2, within float
    # noise of a certificate, which only the exact LDL^T refuses
    text = wrap(
        SPHERE2,
        "(assert (<= (+ (* x0 x0) (* y0 y0)) (/ 1 2)))",
        "(assert (< (* (- (/ 1 1000000000000)) x0 x0) 0))",
    )
    assert slemma_refute(parse_problem(text)) is None


_I_POWERS = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # i^k as (re, im)
_ROTATIONS = [(Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)),
              (Fraction(5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(-15, 17))]


def _unitary_forms(phases, rotation):
    """x_j and y_j of U z as linear forms in (x0, x1, y0, y1), for the
    rational unitary U = R(c, s) diag(i^a, i^b): a phase on each amplitude,
    then a real rotation by a Pythagorean angle."""
    c, s = rotation
    rot = [[c, -s], [s, c]]
    coords = [RealPoly.variable(4, i) for i in range(4)]
    xs, ys = coords[:2], coords[2:]
    forms = [RealPoly(4)] * 4
    for j in range(2):
        for k in range(2):
            re, im = (rot[j][k] * part for part in _I_POWERS[phases[k]])
            forms[j] = forms[j].add(xs[k].scale(re)).sub(ys[k].scale(im))
            forms[2 + j] = forms[2 + j].add(xs[k].scale(im)).add(ys[k].scale(re))
    return forms


@settings(max_examples=150, deadline=None)
@given(
    forms=st.lists(_forms, min_size=1, max_size=2),
    bounds=st.lists(_bounds, min_size=2, max_size=2),
    phases=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    rotation=st.sampled_from(_ROTATIONS),
)
def test_unitary_change_of_basis_keeps_the_s_lemma_verdict(forms, bounds, phases, rotation):
    """z -> U z maps the sphere onto itself, so the query in the new basis
    is as satisfiable as before."""
    *region, strict = forms
    cons = [Constraint(sphere_poly(2, 4), "=", Fraction(1))]
    cons += [Constraint(f, "<=", r) for f, r in zip(region, bounds)]
    cons.append(Constraint(strict, "<", bounds[-1]))
    problem = Problem(list(_AMPS), cons)
    verdict = slemma_refute(problem)
    event(f"S-lemma: {verdict}")
    substitution = _unitary_forms(phases, rotation)
    moved = [Constraint(c.poly.substitute(substitution), c.op, c.rhs) for c in cons]
    assert moved[0].poly.coeffs == cons[0].poly.coeffs  # U keeps the sphere
    assert slemma_refute(Problem(list(_AMPS), moved)) == verdict


# ---------------------------------------------------------------------------
# the exact simplex


def _holds_exactly(a, b, point):
    return all(x >= 0 for x in point) and all(
        sum(c * x for c, x in zip(row, point)) == rhs for row, rhs in zip(a, b)
    )


# denominators 1, 2 and 4, so that the float copies the oracle reads are exact
_dyadic = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_simplex_matches_linprog(data):
    """max c.x subject to A x = b, x >= 0: the status is linprog's, an
    optimum is linprog's to 1e-9, and the point meets every row exactly."""
    from scipy.optimize import linprog

    m = data.draw(st.integers(1, 4), label="m")
    n = data.draw(st.integers(1, 5), label="n")
    a = [[data.draw(_dyadic) for _ in range(n)] for _ in range(m)]
    b = [data.draw(_dyadic) for _ in range(m)]
    if m > 1 and data.draw(st.booleans(), label="redundant"):
        factor = data.draw(st.sampled_from([Fraction(-2), Fraction(-1, 2), Fraction(3)]))
        a[-1] = [factor * x for x in a[0]]
        b[-1] = factor * b[0]
    c = [data.draw(_dyadic) for _ in range(n)]
    status, value, point = Simplex(a, b, n).solve(c)
    event(status)

    a_f, b_f = np.array(a, dtype=float), np.array(b, dtype=float)
    feasible = linprog(np.zeros(n), A_eq=a_f, b_eq=b_f, bounds=(0, None), method="highs")
    assert feasible.status in (0, 2)
    if feasible.status == 2:
        assert status == "infeasible"
        return
    best = linprog(-np.array(c, dtype=float), A_eq=a_f, b_eq=b_f, bounds=(0, None), method="highs")
    assert best.status in (0, 3)
    if best.status == 3:
        assert status == "unbounded"
        return
    assert status == "optimal"
    assert all(isinstance(x, Fraction) for x in (value, *point))
    assert _holds_exactly(a, b, point)
    assert value == sum(ci * x for ci, x in zip(c, point))
    assert abs(float(value) + best.fun) <= 1e-9 * (1 + abs(best.fun))


def test_simplex_ends_beale_cycling_example():
    """Beale's LP cycles under the largest-coefficient rule without
    anti-cycling; Bland's rule reaches its optimum 5/4 at x4 = x6 = 1."""
    q = Fraction
    a = [
        [q(1, 4), q(-8), q(-1), q(9), q(1), q(0), q(0)],
        [q(1, 2), q(-12), q(-1, 2), q(3), q(0), q(1), q(0)],
        [q(0), q(0), q(1), q(0), q(0), q(0), q(1)],
    ]
    b = [q(0), q(0), q(1)]
    c = [q(3, 4), q(-20), q(1, 2), q(-6), q(0), q(0), q(0)]
    status, value, point = Simplex(a, b, 7).solve(c)
    assert (status, value) == ("optimal", q(5, 4))
    assert point == [1, 0, 1, 0, q(3, 4), 0, 0]
    assert _holds_exactly(a, b, point)


def test_simplex_drives_out_an_artificial_on_a_negative_entry(monkeypatch):
    """-x1 = 0 twice (the second row redundant) and x1 + x2 + s = 1:
    phase 1 ends with the first row's artificial basic at zero, and the only
    column that can replace it holds -1 there."""
    pivots = []
    pivot = Simplex._pivot

    def recording(t, basis, i, j):
        pivots.append((basis[i], t[i][j]))
        pivot(t, basis, i, j)

    monkeypatch.setattr(Simplex, "_pivot", staticmethod(recording))
    q = Fraction
    a = [[q(-1), q(0), q(0)], [q(-2), q(0), q(0)], [q(1), q(1), q(1)]]
    b = [q(0), q(0), q(1)]
    status, value, point = Simplex(a, b, 3).solve([q(0), q(1), q(0)])
    assert any(basic >= 3 and entry < 0 for basic, entry in pivots)
    assert (status, value, point) == ("optimal", q(1), [q(0), q(1), q(0)])
    assert _holds_exactly(a, b, point)


def test_simplex_ratio_ties_leave_by_the_lower_basic_variable():
    """Every vertex on the segment from (1/4, 0, 0, 1/2) to (0, 0, 1/2, 0)
    is optimal; Bland's tie-break in the ratio test picks the first, and
    breaking ties the other way ends at the second."""
    q = Fraction
    a = [[q(2), q(2), q(2), q(1)], [q(0), q(2), q(2), q(2)]]
    b = [q(1), q(1)]
    status, value, point = Simplex(a, b, 4).solve([q(0), q(1), q(2), q(2)])
    assert (status, value, point) == ("optimal", q(1), [q(1, 4), q(0), q(0), q(1, 2)])


# Run in a fresh process: what the console engine imports, and whether runpy
# warns that the package imported the module it is about to run, depend on
# what the package's __init__ files load.
CONSOLE_PROBE = """
import sys
from qbarrier.smt.builtin import main
code = main(sys.argv[1:])
print(sorted(m for m in ("qbarrier.lp", "qbarrier.templates", "qbarrier.regions") if m in sys.modules))
sys.exit(code)
"""


def test_console_engine_loads_no_synthesis_module(tmp_path):
    job = load_config(bundled_config_path("zgate3_finite"))
    cert = Certificate(
        template=full_template(8, 2).prefix(2),
        coeff_vectors=(np.array([13.0, -10.0], dtype=complex),),
        flavor="finite-horizon",
        constants={"gamma": 4.001, "lam": 4.999, "delta": 0.0, "T": 5},
        decimals=6,
    )
    verify_certificate(
        cert, job.init_region, job.unsafe_region, job.global_region, job.dynamics, workdir=tmp_path
    )
    query = str(tmp_path / "init.smt2")
    src = str(Path(qbarrier.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-m", "qbarrier.smt.builtin", query],
        capture_output=True, text=True, check=True, env=env,
    )
    assert (out.stdout, out.stderr) == ("unsat\n", "")
    out = subprocess.run(
        [sys.executable, "-c", CONSOLE_PROBE, query],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout == "unsat\n[]\n"
