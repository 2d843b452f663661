import contextlib
import functools
import itertools
import logging
import math
import sys
import time
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qbarrier.smt.builtin as builtin
from qbarrier.realpoly import RealPoly, sphere_poly
from qbarrier.smt.builtin import (
    Constraint,
    Problem,
    SmtParseError,
    decide_feature_lp,
    icp_refute,
    main,
    parse_numeral,
    parse_problem,
    probe_sat,
    qubit_feature_refute,
    solve_problem,
    solve_text,
)
from qbarrier.smt.encode import SMTQuery, StructConstraint
from qbarrier.smt.run import recheck_model

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


# ---------------------------------------------------------------------------
# interval branch-and-prune


def _reference_interval_eval(exps, coefs, lo, hi):
    tot_lo, tot_hi = 0.0, 0.0
    for e, c in zip(exps, coefs):
        t_lo, t_hi = c, c
        for i in np.nonzero(e)[0]:
            p_lo, p_hi = lo[i], hi[i]
            for _ in range(e[i]):
                cands = (t_lo * p_lo, t_lo * p_hi, t_hi * p_lo, t_hi * p_hi)
                t_lo, t_hi = min(cands), max(cands)
        tot_lo += t_lo
        tot_hi += t_hi
    pad = 1e-12 * (1.0 + abs(tot_lo) + abs(tot_hi))
    return tot_lo - pad, tot_hi + pad


def _reference_icp_refute(problem, deadline, max_nodes=20000):
    """The numpy branch-and-prune that the compiled term program replaced,
    kept as the reference it must match box for box."""
    arrays = builtin._constraint_arrays(problem)
    pairs = builtin._amplitude_pairs(problem.names) or {}
    amp_vars = sorted(i for x, y in pairs.values() for i in (x, y))
    lo0, hi0 = builtin._var_bounds(problem)
    stack = [(lo0.copy(), hi0.copy())]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > max_nodes or time.monotonic() > deadline:
            return "unknown", None
        lo, hi = stack.pop()
        pruned = False
        for exps, coefs, op, rhs in arrays:
            v_lo, v_hi = _reference_interval_eval(exps, coefs, lo, hi)
            if op == "=" and (v_hi < rhs or v_lo > rhs):
                pruned = True
                break
            if op in ("<=", "<") and v_lo > rhs:
                pruned = True
                break
        if pruned:
            continue
        center = (lo + hi) / 2.0
        if amp_vars:
            norm = math.sqrt(sum(center[i] ** 2 for i in amp_vars))
            if norm > 1e-12:
                for i in amp_vars:
                    center[i] /= norm
        point = center.reshape(1, -1)
        if bool(builtin._feasible_mask(arrays, point)[0]):
            return "sat", {
                problem.names[i]: float(center[i]) for i in range(problem.nv)
            }
        widths = hi - lo
        split = int(np.argmax(widths))
        if widths[split] < 1e-7:
            return "unknown", None
        mid = (lo[split] + hi[split]) / 2.0
        l2, h2 = lo.copy(), hi.copy()
        h2[split] = mid
        stack.append((l2, h2))
        l3, h3 = lo.copy(), hi.copy()
        l3[split] = mid
        stack.append((l3, h3))
    return "unsat", None


@contextlib.contextmanager
def _recording_boxes(module, name, boxes):
    """Record every (box, enclosure) that `module.name` evaluates."""
    inner = getattr(module, name)

    def record(*args):
        out = inner(*args)
        lo, hi = args[-2], args[-1]
        boxes.append((tuple(map(float, lo)), tuple(map(float, hi)), out))
        return out

    setattr(module, name, record)
    try:
        yield
    finally:
        setattr(module, name, inner)


QUBIT_PARAM = ("x0", "y0", "x1", "y1", "u0")
_NV = len(QUBIT_PARAM)


def _poly(terms) -> RealPoly:
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for factors, c in terms:
        e = [0] * _NV
        for i in factors:
            e[i] += 1
        coeffs[tuple(e)] = coeffs.get(tuple(e), Fraction(0)) + c
    return RealPoly(_NV, coeffs)


_fractions = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.integers(1, 4),
)
_terms = st.lists(
    st.tuples(st.lists(st.integers(0, _NV - 1), min_size=1, max_size=4), _fractions),
    min_size=1,
    max_size=4,
)
_polynomial_constraints = st.lists(
    st.builds(
        lambda terms, op, rhs: Constraint(_poly(terms), op, rhs),
        _terms,
        st.sampled_from(["<=", "<"]),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10)),
    ),
    min_size=1,
    max_size=3,
).filter(lambda cons: all(con.poly for con in cons))


@st.composite
def _queries(draw):
    sphere = Constraint(_poly([((i, i), Fraction(1)) for i in range(4)]), "=", Fraction(1))
    bound = draw(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8)))
    if draw(st.booleans()):
        param = Constraint(_poly([((4,), Fraction(1))]), "<=", bound)
    else:
        param = Constraint(_poly([((4,), Fraction(-1))]), "<=", -bound)
    return Problem(list(QUBIT_PARAM), [sphere, param, *draw(_polynomial_constraints)])


@settings(max_examples=60, deadline=None)
@given(problem=_queries(), max_nodes=st.sampled_from([50, 300, 2000]))
def test_compiled_icp_matches_reference(problem, max_nodes):
    deadline = time.monotonic() + 1e6
    ref_boxes, boxes = [], []
    with _recording_boxes(sys.modules[__name__], "_reference_interval_eval", ref_boxes):
        expected = _reference_icp_refute(problem, deadline, max_nodes)
    with _recording_boxes(builtin, "_hull", boxes):
        got = icp_refute(problem, deadline, max_nodes)
    assert got == expected  # models compared by float equality
    assert boxes == ref_boxes


# the one-qubit queries of the `recheck` benchmark that reach branch-and-prune;
# both run to the node limit
RECHECK_ICP_QUERIES = [
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


@pytest.mark.parametrize("text", RECHECK_ICP_QUERIES)
def test_recheck_queries_run_to_the_node_limit(text, caplog):
    problem = parse_problem(text)
    with caplog.at_level(logging.INFO, logger=builtin.__name__):
        assert icp_refute(problem, time.monotonic() + 1e6) == ("unknown", None)
    assert caplog.messages == ["icp: 20000 boxes, 9990 pruned, node-limit"]


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
# cubic is beyond the feature LP and the degree-2 qubit relaxation
CUBIC_UNSAT = wrap(SPHERE2, "(assert (> (+ (* x0 x0 x0) (* y0 y0 y0)) (/ 21 20)))")


def test_icp_refutes_what_the_other_deciders_cannot(caplog):
    problem = parse_problem(CUBIC_UNSAT)
    deadline = time.monotonic() + 1e6
    assert decide_feature_lp(problem) is None
    assert qubit_feature_refute(problem, deadline) is None
    pts = _sphere_points()
    assert (pts[:, 0] ** 3 + pts[:, 1] ** 3).max() < 1.05  # no grid point is feasible
    with caplog.at_level(logging.INFO, logger=builtin.__name__):
        assert solve_problem(problem) == ("unsat", None)
    assert caplog.messages[-1].endswith(" pruned, refuted")


# only u0 = 0 within 3e-5 meets the equality, which the random probe does not
# hit; a box center does
CENTER_SAT = wrap(
    SPHERE2,
    "(assert (= (* u0 u0) 0))",
    "(assert (> (* x0 x0 x0) (/ 1 2)))",
    decls=("x0", "y0", "x1", "y1", "u0"),
)


def test_icp_center_model_passes_the_recheck(caplog):
    problem = parse_problem(CENTER_SAT)
    deadline = time.monotonic() + 1e6
    assert decide_feature_lp(problem) is None
    assert probe_sat(problem, deadline) is None
    with caplog.at_level(logging.INFO, logger=builtin.__name__):
        status, model = solve_problem(problem)
    assert status == "sat"
    assert caplog.messages[-1].endswith(" pruned, sat-center")
    assert all(_exact_holds(con, model, problem.names) for con in problem.constraints)


def test_icp_stops_at_the_node_limit(caplog):
    with caplog.at_level(logging.INFO, logger=builtin.__name__):
        got = icp_refute(parse_problem(CUBIC_UNSAT), time.monotonic() + 1e6, max_nodes=5)
    assert got == ("unknown", None)
    assert caplog.messages == ["icp: 5 boxes, 0 pruned, node-limit"]


def test_icp_stops_at_an_expired_deadline(monkeypatch, caplog):
    # the clock passes the deadline after three boxes
    reads = itertools.chain([0.0, 0.0, 0.0], itertools.repeat(60.0))
    monkeypatch.setattr(builtin, "time", types.SimpleNamespace(monotonic=lambda: next(reads)))
    with caplog.at_level(logging.INFO, logger=builtin.__name__):
        got = icp_refute(parse_problem(CUBIC_UNSAT), deadline=1.0)
    assert got == ("unknown", None)
    assert caplog.messages == ["icp: 3 boxes, 0 pruned, deadline"]


def test_icp_stops_at_the_width_floor(caplog, tmp_path, capsys):
    # u0 = 1/2 is a root, but a box 1e-7 wide is too coarse to put a center
    # within the 1e-9 equality tolerance of a cubic
    text = wrap("(assert (= (* u0 u0 u0) (/ 1 8)))", decls=("u0",))
    with caplog.at_level(logging.INFO, logger=builtin.__name__):
        assert icp_refute(parse_problem(text), time.monotonic() + 1e6) == ("unknown", None)
    assert caplog.messages[-1].endswith(" pruned, width-floor")
    path = tmp_path / "floor.smt2"
    path.write_text(text)
    with caplog.at_level(logging.INFO, logger=builtin.__name__):
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
    refuted = qubit_feature_refute(problem, time.monotonic() + 60.0)
    event(f"qubit relaxation: {refuted}")
    if refuted == "unsat":
        assert not _grid_feasible(query)
    return verdict


@settings(max_examples=80, deadline=None)
@given(query=_one_qubit_queries(_feature_polys()))
def test_feature_lp_verdicts_match_the_sphere_grid(query):
    assert _check_deciders(query) is not None  # affine in p0, p1: always reduced


@settings(max_examples=80, deadline=None)
@given(query=_one_qubit_queries(_degree2_polys))
def test_qubit_refutations_match_the_sphere_grid(query):
    _check_deciders(query)
