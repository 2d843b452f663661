"""Emission of certificate conditions as SMT-LIB2 problems over QF_NRA.

A certificate's conditions are its flavor's `templates.state_conditions`,
then its side conditions. Each universally quantified state condition is
negated into an existential search for a violating state, built on one path
from its table entry: the query asserts membership of the entry's region,
the unit-sphere equation, the parameter bounds of any uncertain step in its
window, and the negated condition, all with exact rational literals. Files
are byte-stable given the same certificate and configuration: declarations
are sorted and monomials follow a fixed order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..quantum import Dynamics, Gate, StepMap, UncertainGate
from ..realpoly import (
    ComplexPoly,
    RealPoly,
    amplitude_vars,
    certificate_realpoly,
    constraint_poly,
    rational_sexpr,
    sphere_poly,
)
from ..regions import Region
from ..templates import (
    THRESHOLDS,
    Certificate,
    SideCondition,
    StateCondition,
    side_value,
    state_conditions,
)


class EncodeError(ValueError):
    pass


def poly_sexpr(poly: RealPoly, names: Sequence[str]) -> str:
    items = sorted(poly.coeffs.items())
    if not items:
        return "0"
    terms = []
    for exps, coeff in items:
        factors = []
        for i, e in enumerate(exps):
            factors.extend([names[i]] * e)
        lit = rational_sexpr(coeff)
        if not factors:
            terms.append(lit)
        elif coeff == 1 and len(factors) == 1:
            terms.append(factors[0])
        else:
            terms.append("(* " + " ".join([lit] + factors) + ")")
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


@dataclass(frozen=True)
class StructConstraint:
    """One assertion kept in structured form for numeric re-checks."""

    poly: RealPoly
    op: str  # "<=", ">=", "<", ">", "="
    rhs: Fraction
    negated_condition: bool = False

    def sexpr(self, names: Sequence[str]) -> str:
        return f"(assert ({self.op} {poly_sexpr(self.poly, names)} {rational_sexpr(self.rhs)}))"

    def holds(self, point: np.ndarray, slack: float = 1e-9) -> bool:
        val = float(self.poly.eval_floats(point.reshape(1, -1))[0])
        rhs = float(self.rhs)
        if self.op == "<=":
            return val <= rhs + slack
        if self.op == ">=":
            return val >= rhs - slack
        if self.op == "<":
            return val < rhs - slack if self.negated_condition else val < rhs + slack
        if self.op == ">":
            return val > rhs + slack if self.negated_condition else val > rhs - slack
        return abs(val - rhs) <= slack


@dataclass(frozen=True)
class SMTQuery:
    """Self-contained negated-condition problem plus structured mirror."""

    condition_id: str
    dim: int
    var_names: tuple[str, ...]
    constraints: tuple[StructConstraint, ...]
    timeout_s: float
    logic: str = "QF_NRA"

    @property
    def declarations(self) -> tuple[str, ...]:
        return tuple(sorted(self._used_names()))

    def _used_names(self) -> set[str]:
        used: set[str] = set()
        for c in self.constraints:
            for exps in c.poly.coeffs:
                for i, e in enumerate(exps):
                    if e:
                        used.add(self.var_names[i])
        return used

    @property
    def text(self) -> str:
        lines = [f"(set-logic {self.logic})"]
        for name in self.declarations:
            lines.append(f"(declare-const {name} Real)")
        for c in self.constraints:
            lines.append(c.sexpr(self.var_names))
        lines.append("(check-sat)")
        lines.append("(get-model)")
        return "\n".join(lines) + "\n"

    def amplitude_point(self, model: dict[str, float]) -> np.ndarray:
        """Assemble the (x, y, extras) vector from a model, zero-filling."""
        return np.array([model.get(name, 0.0) for name in self.var_names])


def _var_names(dim: int, n_params: int, n_aux: int) -> tuple[str, ...]:
    names = [f"x{j}" for j in range(dim)] + [f"y{j}" for j in range(dim)]
    names += [f"u{i}" for i in range(n_params)]
    names += [f"v{i}" for i in range(n_aux)]
    return tuple(names)


def _region_constraints(region: Region, dim: int, nvars: int) -> list[StructConstraint]:
    out = []
    for c in region.constraints:
        out.append(
            StructConstraint(
                poly=constraint_poly(c, dim, nvars), op=c.op, rhs=c.bound_exact
            )
        )
    return out


def _sphere_constraint(dim: int, nvars: int) -> StructConstraint:
    return StructConstraint(poly=sphere_poly(dim, nvars), op="=", rhs=Fraction(1))


def _const_fr(value: float) -> Fraction:
    return Fraction(float(value))


def _lift_matrix(matrix: np.ndarray, nvars: int) -> list[list[ComplexPoly]]:
    """Constant ComplexPoly entries holding the exact binary values of a
    float matrix; the float dirt they carry is cleaned later by
    RealPoly.snap on the substituted certificate."""
    return [
        [ComplexPoly.constant(nvars, float(z.real), float(z.imag)) for z in row]
        for row in matrix
    ]


def _symbolic_step_matrix(step: StepMap, nvars: int, param_base: int, aux_base: int):
    """Matrix of ComplexPoly entries for a step map, threading uncertainty
    parameters (u vars) and any auxiliary normalization variables (v vars).

    Returns (matrix, extra_constraints, params_used, aux_used).
    """
    mat = [
        [ComplexPoly.constant(nvars, Fraction(int(i == j)), 0) for j in range(2 ** step.n)]
        for i in range(2 ** step.n)
    ]
    extra: list[StructConstraint] = []
    p_used = 0
    a_used = 0
    for f in step.factors:
        if isinstance(f, Gate):
            fmat = _lift_matrix(f.matrix, nvars)
        else:
            ug, targets = f
            if ug.name != "HE":
                raise EncodeError(
                    f"uncertain gate {ug.name!r} has no polynomial form for "
                    "SMT encoding"
                )
            small, constraints = _he_symbolic(
                ug, nvars, param_base + p_used, aux_base + a_used
            )
            p_used += 1
            a_used += 1
            extra.extend(constraints)
            fmat = _lift_symbolic(small, targets, step.n, nvars)
        mat = _matmul_symbolic(fmat, mat, nvars)
    return mat, extra, p_used, a_used


def _lift_symbolic(small, targets, n, nvars):
    m = len(targets)
    size = 2 ** n
    zero = ComplexPoly.constant(nvars, 0, 0)
    full = [[zero for _ in range(size)] for _ in range(size)]
    shifts = [n - 1 - q for q in targets]
    for col in range(size):
        sub = 0
        for sh in shifts:
            sub = (sub << 1) | ((col >> sh) & 1)
        base = col
        for sh in shifts:
            base &= ~(1 << sh)
        for sub_out in range(2 ** m):
            row = base
            for pos, sh in enumerate(shifts):
                if (sub_out >> (m - 1 - pos)) & 1:
                    row |= 1 << sh
            full[row][col] = small[sub_out][sub]
    return full


def _matmul_symbolic(a, b, nvars):
    size = len(a)
    zero = ComplexPoly.constant(nvars, 0, 0)
    out = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for k in range(size):
            acc = ComplexPoly.constant(nvars, 0, 0)
            for j in range(size):
                acc = acc.add(a[i][j].mul(b[j][k]))
            out[i][k] = acc
    return out


def _he_symbolic(ug: UncertainGate, nvars, param_index, aux_index):
    """Polynomial form of the tunable mixing gate: entries (s, s*e; s*e, -s)
    with e its one parameter and s the normalization 1/sqrt(1+e^2),
    introduced as an auxiliary variable constrained by s^2*(1+e^2) = 1 and
    s >= 0. Returns (entries, constraints)."""
    e = RealPoly.variable(nvars, param_index)
    s = RealPoly.variable(nvars, aux_index)
    zero = RealPoly(nvars)
    entries = [
        [ComplexPoly(s, zero), ComplexPoly(s.mul(e), zero)],
        [ComplexPoly(s.mul(e), zero), ComplexPoly(s.scale(-1), zero)],
    ]
    norm = s.mul(s).add(s.mul(s).mul(e).mul(e))
    (lo, hi) = ug.domain[0]
    constraints = [
        StructConstraint(poly=norm, op="=", rhs=Fraction(1)),
        StructConstraint(poly=s, op=">=", rhs=Fraction(0)),
        StructConstraint(poly=e, op=">=", rhs=_const_fr(lo)),
        StructConstraint(poly=e, op="<=", rhs=_const_fr(hi)),
    ]
    return entries, constraints


def _row_forms(matrix_polys, dim: int, nvars: int) -> tuple[RealPoly | None, ...]:
    """Substitution forms of U z: Re and Im of each row, None for the
    variables past the amplitudes."""
    forms: list[RealPoly | None] = [None] * nvars
    for k in range(dim):
        forms[k] = matrix_row_re(matrix_polys, k, dim, nvars)
        forms[dim + k] = matrix_row_im(matrix_polys, k, dim, nvars)
    return tuple(forms)


@lru_cache(maxsize=32)
def _fixed_row_forms(matrix_bytes: bytes, dim: int, nvars: int) -> tuple[RealPoly | None, ...]:
    """_row_forms of a fixed step matrix, given by its complex128 bytes; the
    forms depend only on the dynamics, so each is built once."""
    matrix = np.frombuffer(matrix_bytes, dtype=complex).reshape(dim, dim)
    return _row_forms(_lift_matrix(matrix, nvars), dim, nvars)


def _substitute_cert(
    cert: Certificate, offset: int, forms: Sequence[RealPoly | None], dim: int, nvars: int
) -> RealPoly:
    base = certificate_realpoly(cert, offset, extra_vars=nvars - 2 * dim)
    return base.substitute(forms).snap()


def matrix_row_re(mat, k, dim, nvars) -> RealPoly:
    """Re of row k of U z; empty entry parts are skipped, which keeps sparse
    (permutation) matrices cheap."""
    acc = RealPoly(nvars)
    for j in range(dim):
        entry = mat[k][j]
        if entry.re:
            acc = acc.add(entry.re.mul(RealPoly.variable(nvars, j)))
        if entry.im:
            acc = acc.sub(entry.im.mul(RealPoly.variable(nvars, dim + j)))
    return acc


def matrix_row_im(mat, k, dim, nvars) -> RealPoly:
    """Im of row k of U z; see matrix_row_re."""
    acc = RealPoly(nvars)
    for j in range(dim):
        entry = mat[k][j]
        if entry.im:
            acc = acc.add(entry.im.mul(RealPoly.variable(nvars, j)))
        if entry.re:
            acc = acc.add(entry.re.mul(RealPoly.variable(nvars, dim + j)))
    return acc


def conditions_for(cert: Certificate) -> list[StateCondition | SideCondition]:
    """A certificate's conditions in verification order: its flavor's
    `state_conditions`, then its side conditions."""
    return [*state_conditions(cert.flavor, cert.k), *cert.side_conditions]


def side_query(condition, value: Fraction, timeout_s: float) -> SMTQuery:
    """The negated side condition (condition id, form, strict) of
    `templates.side_conditions`, whose form takes `value`: value <= 0 when
    the condition is strict, value < 0 otherwise."""
    cid, _, strict = condition
    con = StructConstraint(
        poly=RealPoly.constant(0, value),
        op="<=" if strict else "<",
        rhs=Fraction(0),
        negated_condition=True,
    )
    return SMTQuery(condition_id=cid, dim=0, var_names=(), constraints=(con,), timeout_s=timeout_s)


def _uncertain_step_poly(cert, offset, dyn, t0, count, dim):
    """B after `count` scheduled steps from t0, allowing uncertain factors.

    Allocates u/v variables lazily: two passes, first to count them, then to
    build with the final variable width. Returns (B, extra constraints,
    variable count, variable names).
    """
    steps = [dyn.map_at(t0 + i) for i in range(count)]
    n_params = sum(s.n_params for s in steps)
    n_aux = sum(
        sum(1 for f in s.factors if not isinstance(f, Gate)) for s in steps
    )
    nvars = amplitude_vars(dim, n_params + n_aux)
    mat = None
    extra: list[StructConstraint] = []
    p_base, a_base = 2 * dim, 2 * dim + n_params
    for s in steps:
        m, cons, p_used, a_used = _symbolic_step_matrix(s, nvars, p_base, a_base)
        extra.extend(cons)
        p_base += p_used
        a_base += a_used
        mat = m if mat is None else _matmul_symbolic(m, mat, nvars)
    poly = _substitute_cert(cert, offset, _row_forms(mat, dim, nvars), dim, nvars)
    return poly, extra, nvars, _var_names(dim, n_params, n_aux)


def encode_condition(
    cert: Certificate,
    spec: StateCondition | SideCondition | str,
    init_region: Region,
    unsafe_region: Region,
    global_region: Region,
    dynamics: Dynamics | None,
    timeout_s: float = 300.0,
) -> SMTQuery:
    """Build the negated-condition query for one condition (or its id): a
    violating state in the condition's region, on the unit sphere, with
    B_vec after the window's steps, less B_before at the state, above the
    threshold (below it for sign -1)."""
    if isinstance(spec, str):
        table = {c.condition_id: c for c in conditions_for(cert)}
        if spec not in table:
            raise EncodeError(f"condition {spec!r} not applicable to flavor {cert.flavor!r}")
        spec = table[spec]
    if isinstance(spec, SideCondition):
        return side_query(spec, side_value(spec.form, cert.constants, cert.decimals), timeout_s)
    dim = cert.dim
    nvars = amplitude_vars(dim)
    names = _var_names(dim, 0, 0)
    extra: list[StructConstraint] = []
    if spec.window is None:
        after = certificate_realpoly(cert, spec.vec)
    elif dynamics is None:
        raise EncodeError(f"condition {spec.condition_id!r} needs the dynamics")
    else:
        t0, count = spec.window
        if any(dynamics.map_at(t0 + i).n_params for i in range(count)):
            after, extra, nvars, names = _uncertain_step_poly(cert, spec.vec, dynamics, t0, count, dim)
        else:
            mat = np.ascontiguousarray(dynamics.composed_matrix(t0, count), dtype=complex)
            forms = _fixed_row_forms(mat.tobytes(), dim, nvars)
            after = _substitute_cert(cert, spec.vec, forms, dim, nvars)
    if spec.before is not None:
        after = after.sub(certificate_realpoly(cert, spec.before, extra_vars=nvars - 2 * dim))
    region = {"init": init_region, "unsafe": unsafe_region, "global": global_region}[spec.region]
    cons = _region_constraints(region, dim, nvars)
    cons.append(_sphere_constraint(dim, nvars))
    cons.extend(extra)
    cons.append(
        StructConstraint(
            poly=after,
            op=">" if spec.sign > 0 else "<",
            rhs=cert.exact(THRESHOLDS[cert.flavor][spec.kind]),
            negated_condition=True,
        )
    )
    return SMTQuery(
        condition_id=spec.condition_id,
        dim=dim,
        var_names=names,
        constraints=tuple(cons),
        timeout_s=timeout_s,
    )
