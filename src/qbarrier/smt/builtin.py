"""Fallback decision engine for the emitted QF_NRA query class.

Reads an SMT-LIB2 file (the subset this package emits: real constants,
polynomial assertions with rational/decimal literals) and adjudicates it.
The deciders run in this order, and the first that answers decides:

* constant: constraints without variables are evaluated exactly, and a
  query with nothing else left is decided by them;
* feature LP: queries whose constraints are affine in the squared-magnitude
  features x_j^2 + y_j^2 and in bounded parameters are decided exactly by a
  two-phase simplex over the probability simplex, on a tableau of integers
  that stands for the rational one, including the touching cases strict
  solvers care about;
* S-lemma: a query on the unit sphere with one strict and at most one
  non-strict constraint, each a quadratic form in the amplitudes, is
  refuted when some G_v + lam * G_r (lam >= 0) is positive semidefinite.
  lam is found in floats, and the matrix is then checked exactly by a
  rational LDL^T factorisation;
* probe: a structured sampling probe hunts for a satisfying point.

When none of them answers, the verdict is unknown. Sat answers always come
with a concrete model; reported models satisfy the asserted system
numerically with the strict assertion violated by more than 1e-9,
mirroring the caller's re-check.

The module doubles as a console entry point so it can be invoked through the
same external-command contract as any other solver:

    qbarrier-smt FILE.smt2 [--timeout SECONDS]
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..realpoly import RealPoly, eval_terms, rational_sexpr

STRICT_RESOLUTION = Fraction(1, 10 ** 9)


class SmtParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# s-expression parsing


def tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            out.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtParseError("unterminated quoted symbol")
            out.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_sexprs(text: str):
    tokens = tokenize(text)
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(parse())
            if pos >= len(tokens):
                raise SmtParseError("unbalanced parentheses")
            pos += 1
            return items
        if tok == ")":
            raise SmtParseError("unexpected ')'")
        return tok

    out = []
    while pos < len(tokens):
        out.append(parse())
    return out


def parse_numeral(expr) -> Fraction:
    """Evaluate a constant numeric expression (rationals, decimals, -, /)."""
    if isinstance(expr, str):
        try:
            return Fraction(expr)
        except (ValueError, ZeroDivisionError):
            raise SmtParseError(f"not a numeral: {expr!r}") from None
    if not expr:
        raise SmtParseError("empty numeral expression")
    head = expr[0]
    if head == "-" and len(expr) == 2:
        return -parse_numeral(expr[1])
    if head == "/" and len(expr) == 3:
        return parse_numeral(expr[1]) / _divisor(expr[2])
    if head == "+":
        return sum((parse_numeral(e) for e in expr[1:]), Fraction(0))
    if head == "*":
        acc = Fraction(1)
        for e in expr[1:]:
            acc *= parse_numeral(e)
        return acc
    raise SmtParseError(f"not a numeral expression: {expr!r}")


def _divisor(expr) -> Fraction:
    d = parse_numeral(expr)
    if not d:
        raise SmtParseError(f"division by zero: {expr!r}")
    return d


@dataclass
class Constraint:
    poly: RealPoly
    op: str  # normalized: "<=", "<", "="
    rhs: Fraction


def _expr_to_poly(expr, names: dict[str, int], nv: int) -> RealPoly:
    if isinstance(expr, str):
        if expr in names:
            return RealPoly.variable(nv, names[expr])
        return RealPoly.constant(nv, parse_numeral(expr))
    if not expr:
        raise SmtParseError("empty expression")
    head = expr[0]
    args = expr[1:]
    if head == "+":
        acc = RealPoly(nv)
        for a in args:
            acc = acc.add(_expr_to_poly(a, names, nv))
        return acc
    if head in ("-", "/") and not args:
        raise SmtParseError(f"{head!r} without arguments")
    if head == "-":
        if len(args) == 1:
            return _expr_to_poly(args[0], names, nv).scale(-1)
        acc = _expr_to_poly(args[0], names, nv)
        for a in args[1:]:
            acc = acc.sub(_expr_to_poly(a, names, nv))
        return acc
    if head == "*":
        acc = RealPoly.constant(nv, 1)
        for a in args:
            acc = acc.mul(_expr_to_poly(a, names, nv))
        return acc
    if head == "/":
        acc = _expr_to_poly(args[0], names, nv)
        for a in args[1:]:
            acc = acc.scale(1 / _divisor(a))
        return acc
    if head == "^":
        if len(args) != 2:
            raise SmtParseError(f"'^' takes two arguments: {expr!r}")
        base = _expr_to_poly(args[0], names, nv)
        power = parse_numeral(args[1])
        if power.denominator != 1 or power < 0:
            raise SmtParseError(f"unsupported exponent {power}")
        acc = RealPoly.constant(nv, 1)
        for _ in range(int(power)):
            acc = acc.mul(base)
        return acc
    raise SmtParseError(f"unsupported operator {head!r}")


@dataclass
class Problem:
    names: list[str]
    constraints: list[Constraint]

    @property
    def nv(self) -> int:
        return len(self.names)

    @property
    def pairs(self):
        """{j: (index of x<j>, index of y<j>)}, or None unless the x and y
        names pair up; every other variable is a parameter. Computed once
        per problem."""
        if "_pairs" not in self.__dict__:
            self._pairs = _amplitude_pairs(self.names)
        return self._pairs


def parse_problem(text: str) -> Problem:
    forms = parse_sexprs(text)
    declared: list[str] = []
    raw_asserts = []
    for form in forms:
        if not isinstance(form, list) or not form:
            continue
        head = form[0]
        if head in ("declare-const", "declare-fun", "assert") and len(form) < 2:
            raise SmtParseError(f"{head} without an argument")
        if head in ("declare-const", "declare-fun"):
            declared.append(form[1])
        elif head == "assert":
            raw_asserts.append(form[1])
    names = {n: i for i, n in enumerate(declared)}
    nv = len(declared)
    constraints: list[Constraint] = []

    def add(expr):
        if isinstance(expr, list) and expr and expr[0] == "and":
            for sub in expr[1:]:
                add(sub)
            return
        if (
            not isinstance(expr, list)
            or len(expr) != 3
            or expr[0] not in ("<=", ">=", "<", ">", "=")
        ):
            raise SmtParseError(f"unsupported assertion {expr!r}")
        lhs = _expr_to_poly(expr[1], names, nv)
        rhs = _expr_to_poly(expr[2], names, nv)
        constraints.append(normal_constraint(lhs, expr[0], rhs))

    for a in raw_asserts:
        add(a)
    return Problem(names=declared, constraints=constraints)


def normal_constraint(lhs: RealPoly, op: str, rhs: RealPoly) -> Constraint:
    """`lhs op rhs` as body op' c: the constant term moved to the right-hand
    side, and > and >= flipped to < and <=.  The body keeps the term order of
    lhs; the deciders' float sums and the probe's draws depend on it."""
    flip = op in (">=", ">")
    body = {e: -c for e, c in lhs.coeffs.items()} if flip else dict(lhs.coeffs)
    for e, c in rhs.coeffs.items():
        s = body.get(e, 0) + (c if flip else -c)
        if s:
            body[e] = s
        else:
            body.pop(e, None)
    const = body.pop((0,) * lhs.nvars, Fraction(0))
    op = {">=": "<=", ">": "<"}.get(op, op)
    return Constraint(poly=RealPoly._wrap(lhs.nvars, body), op=op, rhs=-const)


# ---------------------------------------------------------------------------
# exact simplex


class Simplex:
    """Two-phase tableau simplex with Bland's rule, exact over the rationals.

    Variables are nonnegative; rows are equalities after the caller adds
    slack variables. The tableau holds Python ints, not Fractions: a row
    stands for itself divided by its entry in its basic column, which is
    kept positive, and the cost row for itself divided by its last entry,
    also positive. Scaling a row by a positive factor changes no sign and
    no ratio, so every pivot is the one the rational tableau takes.
    """

    def __init__(self, a_rows, b_vals, n_vars):
        self.m = len(a_rows)
        self.n = n_vars
        # each row and its rhs as ints over the lcm d of their denominators,
        # negated where the rhs is negative: (ints, d)
        self.rows = []
        for row, b in zip(a_rows, b_vals):
            ints, d = _integer_row([*row, b])
            self.rows.append(([-x for x in ints] if b < 0 else ints, d))

    def solve(self, objective):
        """Maximize objective . x subject to rows == b, x >= 0.

        Returns (status, value, point) where status is "optimal",
        "infeasible", or "unbounded"; value and point are Fractions.
        """
        m, n = self.m, self.n
        # phase 1: row i's artificial column holds d, its basic entry
        t = []
        for i, (ints, d) in enumerate(self.rows):
            artificials = [0] * m
            artificials[i] = d
            t.append(ints[:-1] + artificials + ints[-1:])
        basis = [n + i for i in range(m)]
        cost = [0] * n + [1] * m + [0, 1]
        cost = self._price_out(t, basis, cost)
        cost = self._iterate(t, basis, cost, n + m)
        if cost[-2] < 0:
            return "infeasible", None, None
        # drive out remaining artificials where possible
        for i in range(m):
            if basis[i] >= n:
                piv = next((j for j in range(n) if t[i][j] != 0), None)
                if piv is not None:
                    self._pivot(t, basis, i, piv)
        # phase 2
        t2, basis2 = [], []
        for i in range(m):
            if basis[i] >= n:
                continue  # zero row
            t2.append(_primitive(t[i][:n] + [t[i][-1]]))
            basis2.append(basis[i])
        scaled, e = _integer_row([-c for c in objective] + [0])
        cost2 = self._price_out(t2, basis2, scaled + [e])
        cost2 = self._iterate(t2, basis2, cost2, n)
        if cost2 is None:
            return "unbounded", None, None
        point = [Fraction(0)] * n
        for row, bv in zip(t2, basis2):
            point[bv] = Fraction(row[-1], row[bv])
        return "optimal", Fraction(cost2[-2], cost2[-1]), point

    @staticmethod
    def _price_out(t, basis, cost):
        for row, bv in zip(t, basis):
            if cost[bv]:
                cost = _eliminate(cost, row, bv)
        return cost

    @staticmethod
    def _pivot(t, basis, i, j):
        if t[i][j] < 0:
            t[i] = [-x for x in t[i]]
        pivot = t[i]
        for r, row in enumerate(t):
            if r != i and row[j]:
                t[r] = _eliminate(row, pivot, j)
        basis[i] = j

    def _iterate(self, t, basis, cost, width):
        """Bland's pivots until the cost row has no negative entry below
        `width`: the final cost row, or None when the LP is unbounded."""
        guard = 0
        while True:
            guard += 1
            if guard > 20000:
                raise RuntimeError("simplex iteration guard tripped")
            enter = next((j for j in range(width) if cost[j] < 0), None)
            if enter is None:
                return cost
            # least rhs/a over a > 0, ties to the lower basic variable
            leave = None
            for i, row in enumerate(t):
                a = row[enter]
                if a <= 0:
                    continue
                if leave is not None:
                    # the sign of row[-1] / a - best_rhs / best_a
                    cross = row[-1] * best_a - best_rhs * a
                    if cross > 0 or (cross == 0 and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_a = i, row[-1], a
            if leave is None:
                return None  # unbounded
            self._pivot(t, basis, leave, enter)
            if cost[enter]:
                cost = _eliminate(cost, t[leave], enter)
        # unreachable


def _integer_row(values):
    """(ints, d): the rationals `values` as ints / d, d the lcm of their
    denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _primitive(row):
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _eliminate(row, pivot, c):
    """`row` with its entry in column c cleared by `pivot`, whose entry
    there is positive: row * pivot[c] - row[c] * pivot, divided by the gcd.
    Entries of `row` beyond the pivot's length are only scaled, so the cost
    row's trailing denominator follows along."""
    p, f = pivot[c], row[c]
    out = [a * p - f * b for a, b in zip(row, pivot)]
    out += [a * p for a in row[len(pivot):]]
    return _primitive(out)


# ---------------------------------------------------------------------------
# the feature LP


def _amplitude_pairs(names):
    """Map x<j>/y<j> names to amplitude index j; everything else is a parameter."""
    xs, ys = {}, {}
    for i, n in enumerate(names):
        if len(n) > 1 and n[0] in "xy" and n[1:].isdigit():
            (xs if n[0] == "x" else ys)[int(n[1:])] = i
    indices = sorted(set(xs) & set(ys))
    if sorted(xs) != indices or sorted(ys) != indices:
        return None
    return {j: (xs[j], ys[j]) for j in indices}


def decide_feature_lp(problem: Problem):
    """The verdict of the exact simplex over the features p_j = x_j^2 +
    y_j^2 and the parameters, or None when the variables are not amplitude
    pairs and parameters.

    A constraint fits when each of its monomials is x_j^2 matched by y_j^2
    with an equal coefficient, or a parameter at degree one. When some
    constraint does not fit, the rest is a relaxation of the query, so only
    its "unsat" carries over; otherwise the answer is None.

    Columns: the features in index order, each parameter as u+ - u-, then
    the strict slack s, then one slack per inequality. Rows: the equalities,
    the <= rows, the strict rows with s, then s <= 1; the simplex maximises
    s, and a strict system holds when s exceeds STRICT_RESOLUTION.
    """
    pairs = problem.pairs
    if pairs is None:
        return None
    nv = problem.nv

    def monomial(i, power):
        e = [0] * nv
        e[i] = power
        return tuple(e)

    # monomial -> (column, the monomial that must carry the same coefficient,
    # or None for a parameter, whose u- column follows its u+ column)
    features = sorted(pairs)
    columns = {}
    for k, j in enumerate(features):
        x2, y2 = (monomial(i, 2) for i in pairs[j])
        columns[x2], columns[y2] = (k, y2), (k, x2)
    amplitudes = {i for xy in pairs.values() for i in xy}
    params = [i for i in range(nv) if i not in amplitudes]
    for k, i in enumerate(params):
        columns[monomial(i, 1)] = (len(pairs) + 2 * k, None)
    n_struct = len(pairs) + 2 * len(params)

    rows = {"=": [], "<=": [], "<": []}
    for con in problem.constraints:
        body = con.poly.coeffs
        row = [0] * n_struct
        for e, c in body.items():
            col, partner = columns.get(e, (None, None))
            if col is None or (partner is not None and body.get(partner) != c):
                break
            row[col] = c
            if partner is None:
                row[col + 1] = -c
        else:
            rows[con.op].append((row, con.rhs))
    eqs, les, strict = rows.values()
    complete = len(eqs) + len(les) + len(strict) == len(problem.constraints)
    ineqs = les + strict
    if strict:
        ineqs.append(([0] * n_struct, 1))  # s <= 1
    ncols = n_struct + bool(strict)
    tail = [0] * (bool(strict) + len(ineqs))
    a_rows = [row + tail for row, _ in eqs]
    for k, (row, _) in enumerate(ineqs):
        full = row + tail
        full[ncols + k] = 1  # its slack
        if k >= len(les):
            full[n_struct] = 1  # s
        a_rows.append(full)
    objective = [0] * (ncols + len(ineqs))
    if strict:
        objective[n_struct] = 1
    b_vals = [rhs for _, rhs in eqs + ineqs]
    status, value, point = Simplex(a_rows, b_vals, len(objective)).solve(objective)
    if status == "infeasible" or (status == "optimal" and strict and value <= 0):
        return "unsat", None
    if not complete:
        return None
    # the objective is bounded by s <= 1, so "unbounded" is defensive only
    if status == "unbounded" or (strict and value <= STRICT_RESOLUTION):
        return "unknown", None
    model = {}
    for k, j in enumerate(features):
        model[f"x{j}"] = math.sqrt(float(max(point[k], 0)))
        model[f"y{j}"] = 0.0
    for k, i in enumerate(params):
        u = len(pairs) + 2 * k
        model[problem.names[i]] = float(point[u] - point[u + 1])
    return "sat", model


# ---------------------------------------------------------------------------
# S-lemma refutation of quadratic-form queries

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _quadratic_form(con: Constraint):
    """The symmetric rational matrix G with x^T G x = body - rhs * |x|^2,
    or None unless every term of the body has degree two. On the unit
    sphere the constraint reads x^T G x op 0."""
    n = con.poly.nvars
    g = [[Fraction(0)] * n for _ in range(n)]
    for e, c in con.poly.coeffs.items():
        factors = [i for i, p in enumerate(e) for _ in range(p)]
        if len(factors) != 2:
            return None
        i, j = factors
        if i == j:
            g[i][i] += c
        else:
            g[i][j] += c / 2
            g[j][i] += c / 2
    for i in range(n):
        g[i][i] -= con.rhs
    return g


def is_psd(matrix) -> bool:
    """Exact positive semidefiniteness of a symmetric Fraction matrix, by an
    LDL^T factorisation without pivoting: a negative pivot fails, and a zero
    pivot passes only when the rest of its row is zero."""
    a = [list(row) for row in matrix]
    n = len(a)
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(a[k][k + 1 :]):
                return False
            continue
        row = [(j, a[k][j]) for j in range(k + 1, n) if a[k][j]]
        for i, _ in row:
            f = a[i][k] / d
            for j, v in row:
                a[i][j] -= f * v
    return True


def slemma_refute(problem: Problem):
    """"unsat" when a quadratic-form query has an exact S-lemma certificate,
    else None.

    The query must have no parameters, the unit-sphere equality over every
    variable, one strict constraint g_v(x) < 0 and at most one g_r(x) <= 0,
    each a quadratic form once its constant is homogenised with |x|^2. If
    G_v + lam * G_r is positive semidefinite for some lam >= 0, then
    g_v >= -lam * g_r >= 0 wherever g_r <= 0, so g_v < 0 has no solution.
    lam maximises the concave lam -> lambda_min(G_v + lam * G_r) by a float
    golden-section search; the rational lam is then certified exactly."""
    forms = {"=": [], "<=": [], "<": []}
    for con in problem.constraints:
        g = _quadratic_form(con)
        if g is None:
            return None
        forms[con.op].append(g)
    if len(forms["="]) != 1 or len(forms["<"]) != 1 or len(forms["<="]) > 1:
        return None
    if any(map(any, forms["="][0])):  # not rhs * |x|^2 = rhs over every variable
        return None
    (gv,) = forms["<"]
    if not forms["<="]:
        return "unsat" if is_psd(gv) else None
    (gr,) = forms["<="]
    lam = _multiplier(np.array(gv, dtype=float), np.array(gr, dtype=float))
    if lam is None:
        return None
    combined = [[v + lam * r for v, r in zip(rv, rr)] for rv, rr in zip(gv, gr)]
    return "unsat" if is_psd(combined) else None


def _multiplier(gv: np.ndarray, gr: np.ndarray):
    """The lam >= 0 that maximises lambda_min(gv + lam * gr), as a small
    rational, or None when that maximum is clearly negative."""

    def f(lam):
        return np.linalg.eigvalsh(gv + lam * gr)[0]

    # f is concave: once f(2h) <= f(h), its maximum lies in [0, 2h]
    hi = 1.0
    while hi < 1e12 and f(2 * hi) > f(hi):
        hi *= 2
    a, b = 0.0, 2 * hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10 * (1.0 + b):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
    lam = (a + b) / 2
    if f(lam) < -1e-9 * (1.0 + np.abs(gv).max() + lam * np.abs(gr).max()):
        return None
    return Fraction(lam).limit_denominator(10 ** 6)


# ---------------------------------------------------------------------------
# numeric probing


def _constraint_arrays(problem: Problem):
    return [
        (*con.poly.as_float_arrays(), con.op, float(con.rhs))
        for con in problem.constraints
    ]


def _holds(vals, op, rhs, strict_margin=1e-9):
    """One constraint on an array of values: equalities within 1e-9,
    strict inequalities by more than the margin."""
    if op == "=":
        return abs(vals - rhs) <= 1e-9
    if op == "<=":
        return vals <= rhs
    return vals < rhs - strict_margin  # "<", strict


def _feasible_mask(arrays, points, strict_margin=1e-9):
    ok = np.ones(points.shape[0], dtype=bool)
    for exps, coefs, op, rhs in arrays:
        ok &= _holds(eval_terms(exps, coefs, points), op, rhs, strict_margin)
    return ok


def _var_bounds(problem: Problem):
    """Interval per variable: amplitudes in [-1, 1]; parameters from any
    single-variable linear constraints (an equality fixes both ends), else a
    wide guard box."""
    nv = problem.nv
    lo = np.full(nv, -1e3)
    hi = np.full(nv, 1e3)
    pairs = problem.pairs or {}
    amp_vars = {i for x, y in pairs.values() for i in (x, y)}
    for i in amp_vars:
        lo[i], hi[i] = -1.0, 1.0
    for con in problem.constraints:
        items = list(con.poly.coeffs.items())
        if len(items) != 1:
            continue
        e, c = items[0]
        active = [(i, p) for i, p in enumerate(e) if p]
        if len(active) != 1 or active[0][1] != 1:
            continue
        i = active[0][0]
        bound = float(con.rhs / c)
        if con.op == "=" or (c > 0) == (con.op in ("<=", "<")):
            hi[i] = min(hi[i], bound)
        if con.op == "=" or (c > 0) != (con.op in ("<=", "<")):
            lo[i] = max(lo[i], bound)
    return lo, hi


def probe_sat(problem: Problem, deadline: float, rng_seed: int = 20240917):
    """Structured randomized hunt for a satisfying point."""
    arrays = _constraint_arrays(problem)
    pairs = problem.pairs
    lo, hi = _var_bounds(problem)
    nv = problem.nv
    rng = np.random.default_rng(rng_seed)
    batch = 256
    rounds = 48
    pj = sorted(pairs) if pairs else []
    d = len(pj)
    for r in range(rounds):
        if time.monotonic() > deadline:
            return None
        pts = np.empty((batch, nv))
        for i in range(nv):
            pts[:, i] = rng.uniform(lo[i], hi[i], batch)
        if d:
            probs = rng.dirichlet(np.ones(d), size=batch)
            if r % 4 == 1:
                corners = rng.integers(0, d, batch)
                probs = np.full((batch, d), 1e-12)
                probs[np.arange(batch), corners] = 1.0
                probs /= probs.sum(axis=1, keepdims=True)
            elif r % 4 == 2:
                probs = rng.dirichlet(np.ones(d) * 0.3, size=batch)
            amp = np.sqrt(probs)
            mode = r % 3
            if mode == 0:
                theta = rng.uniform(0, 2 * math.pi, (batch, d))
            elif mode == 1:
                theta = rng.integers(0, 4, (batch, d)) * (math.pi / 2)
            else:
                theta = np.repeat(rng.uniform(0, 2 * math.pi, (batch, 1)), d, axis=1)
            for k, j in enumerate(pj):
                xi, yi = pairs[j]
                pts[:, xi] = amp[:, k] * np.cos(theta[:, k])
                pts[:, yi] = amp[:, k] * np.sin(theta[:, k])
        ok = _feasible_mask(arrays, pts)
        if ok.any():
            point = pts[np.argmax(ok)]
            return {problem.names[i]: float(point[i]) for i in range(nv)}
    return None


# ---------------------------------------------------------------------------
# retired deciders
#
# The benchmark's tracer (perfbench/layers.py) still wraps these two names as
# its `smt.qubit` and `smt.icp` spans, and its smoke test requires that every
# name it wraps exists. Nothing calls them, so both spans read 0; they go
# with those spans.


def qubit_feature_refute(problem: Problem, deadline: float):
    """Retired: the S-lemma now refutes the one-qubit quadratic queries, and
    exactly. Always None."""
    return None


def icp_refute(problem: Problem, deadline: float, max_nodes: int = 20000):
    """Retired: interval branch-and-prune decided no recorded query. Always
    unknown."""
    return "unknown", None


# ---------------------------------------------------------------------------
# top-level decision


class Decision(tuple):
    """(status, model), with the name of the decider that answered as
    `decider`: "constant" when the constant constraints alone settle the
    query, "feature-lp", "s-lemma" or "probe", and "none" when no decider
    answers."""

    decider: str

    def __new__(cls, status: str, model: dict | None, decider: str):
        self = super().__new__(cls, (status, model))
        self.decider = decider
        return self


def solve_problem(problem: Problem, timeout_s: float = 300.0) -> Decision:
    """Returns (status, model|None) with status in {"sat","unsat","unknown"},
    as a `Decision` that also names the decider that answered."""
    deadline = time.monotonic() + timeout_s
    live: list[Constraint] = []
    for con in problem.constraints:
        if con.poly:
            live.append(con)
            continue
        # normalised, a constraint without variables reads 0 op rhs
        if con.op == "=":
            holds = con.rhs == 0
        elif con.op == "<=":
            holds = con.rhs >= 0
        else:
            holds = con.rhs > 0
        if not holds:
            return Decision("unsat", None, "constant")
    if not live:
        return Decision("sat", {}, "constant")
    trimmed = Problem(names=problem.names, constraints=live)
    result = decide_feature_lp(trimmed)
    if result is not None and result[0] != "unknown":
        return Decision(*result, "feature-lp")
    if slemma_refute(trimmed) == "unsat":
        return Decision("unsat", None, "s-lemma")
    model = probe_sat(trimmed, deadline)
    if model is not None:
        return Decision("sat", model, "probe")
    return Decision("unknown", None, "none")


def solve_text(text: str, timeout_s: float = 300.0):
    return solve_problem(parse_problem(text), timeout_s)


def solve_file(path: str, timeout_s: float = 300.0):
    with open(path, "r", encoding="utf-8") as fh:
        return solve_text(fh.read(), timeout_s)


def format_model(model: dict[str, float]) -> str:
    lines = ["(model"]
    for name in sorted(model):
        frac = Fraction(model[name]).limit_denominator(10 ** 15)
        lines.append(f"  (define-fun {name} () Real {rational_sexpr(frac)})")
    lines.append(")")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbarrier-smt", description="decide an emitted QF_NRA query"
    )
    parser.add_argument("file")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    try:
        status, model = solve_file(args.file, args.timeout)
    except (SmtParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(status)
    if status == "sat" and model is not None:
        print(format_model(model))
    return 0


if __name__ == "__main__":
    sys.exit(main())
