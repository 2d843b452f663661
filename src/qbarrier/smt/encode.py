"""Emission of certificate conditions as SMT-LIB2 problems over QF_NRA.

A certificate's conditions are its flavor's `templates.state_conditions`,
then its side conditions. Each universally quantified state condition is
negated into an existential search for a violating state, built on one path
from its table entry: the query asserts membership of the entry's region,
the unit-sphere equation, the parameter bounds of any uncertain step in its
window, and the negated condition, all with exact rational literals. Files
are byte-stable given the same certificate and configuration: declarations
are sorted and monomials follow a fixed order.

A condition over a step window reads the certificate at the image U z of
the symbolic state z, one ComplexPoly per amplitude, by substituting the
image's Re and Im parts for the x and y variables. The image is pushed
through the window gate by gate: a fixed window is its composed float matrix
acting on every qubit (its forms are cached by the matrix bytes), and an
uncertain window applies each factor of each step in order, the HE mixing
gate as a 2x2 over fresh u and v variables on its target qubit. No symbolic
matrix is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..quantum import Dynamics, Gate, UncertainGate, target_groups
from ..realpoly import (
    ComplexPoly,
    RealPoly,
    amplitude_vars,
    certificate_realpoly,
    constraint_poly,
    rational_sexpr,
    sphere_poly,
    z_poly,
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
    """The polynomial as an SMT-LIB term; each monomial is emitted from its
    nonzero exponents alone, found in one pass."""
    items = sorted(poly.coeffs.items())
    if not items:
        return "0"
    terms = []
    for exps, coeff in items:
        factors = []
        for i in compress(range(len(exps)), exps):
            factors += [names[i]] * exps[i]
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

    @cached_property
    def declarations(self) -> tuple[str, ...]:
        """The variables that some monomial uses, sorted by name; computed
        once per query, for its text and its in-memory problem."""
        used: set[int] = set()
        for c in self.constraints:
            for exps in c.poly.coeffs:
                used.update(i for i, e in enumerate(exps) if e)
        return tuple(sorted(self.var_names[i] for i in used))

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


def _apply_gate(
    entries, targets: Sequence[int], n: int, state: list[ComplexPoly]
) -> list[ComplexPoly]:
    """Image of the symbolic state, one ComplexPoly per amplitude, under a
    gate given by its ComplexPoly entries on the target qubits; zero entries
    are skipped, which keeps sparse (permutation) gates cheap."""
    nvars = state[0].re.nvars
    out = list(state)
    for group in target_groups(targets, n):
        for a, row in zip(group, entries):
            acc = ComplexPoly.constant(nvars, 0, 0)
            for b, entry in zip(group, row):
                if entry.re or entry.im:
                    acc = acc.add(entry.mul(state[b]))
            out[a] = acc
    return out


def _state_forms(state: list[ComplexPoly], nvars: int) -> tuple[RealPoly | None, ...]:
    """Substitution forms of an image of z: Re, then Im, of each amplitude,
    and None for the variables past the amplitudes."""
    extra = nvars - 2 * len(state)
    return tuple([a.re for a in state] + [a.im for a in state] + [None] * extra)


def _symbolic_state(dim: int, nvars: int) -> list[ComplexPoly]:
    return [z_poly(dim, nvars, j) for j in range(dim)]


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


@lru_cache(maxsize=32)
def _fixed_row_forms(matrix_bytes: bytes, dim: int, nvars: int) -> tuple[RealPoly | None, ...]:
    """Substitution forms of U z for a fixed window's composed matrix U,
    given by its complex128 bytes and applied as a gate on every qubit; the
    forms depend only on the dynamics, so each is built once."""
    matrix = np.frombuffer(matrix_bytes, dtype=complex).reshape(dim, dim)
    n = dim.bit_length() - 1
    image = _apply_gate(_lift_matrix(matrix, nvars), range(n), n, _symbolic_state(dim, nvars))
    return _state_forms(image, nvars)


def _substitute_cert(
    cert: Certificate, offset: int, forms: Sequence[RealPoly | None], dim: int, nvars: int
) -> RealPoly:
    base = certificate_realpoly(cert, offset, extra_vars=nvars - 2 * dim)
    return base.substitute(forms).snap()


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

    Every factor of every step acts on the symbolic state in order: a fixed
    factor as a gate on every qubit, an HE factor as its symbolic 2x2 on its
    target with the next u and v variables. The variables are counted first,
    so that each polynomial has the final width. Returns (B, extra
    constraints, variable count, variable names).
    """
    steps = [dyn.map_at(t0 + i) for i in range(count)]
    n_params = sum(s.n_params for s in steps)
    n_aux = sum(len(s.uncertain_parts) for s in steps)
    nvars = amplitude_vars(dim, n_params + n_aux)
    n = dyn.n
    state = _symbolic_state(dim, nvars)
    extra: list[StructConstraint] = []
    param, aux = 2 * dim, 2 * dim + n_params
    for factor in (f for s in steps for f in s.factors):
        if isinstance(factor, Gate):
            state = _apply_gate(_lift_matrix(factor.matrix, nvars), range(n), n, state)
            continue
        ug, targets = factor
        if ug.name != "HE":
            raise EncodeError(
                f"uncertain gate {ug.name!r} has no polynomial form for SMT encoding"
            )
        entries, constraints = _he_symbolic(ug, nvars, param, aux)
        param += 1
        aux += 1
        extra.extend(constraints)
        state = _apply_gate(entries, targets, n, state)
    poly = _substitute_cert(cert, offset, _state_forms(state, nvars), dim, nvars)
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
