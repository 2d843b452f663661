"""Polynomial certificate templates over complex state variables.

A template is an ordered list of monomials in the amplitudes z_0..z_{D-1} and
their conjugates. A certificate attaches complex coefficients and is evaluated
to a real number by keeping only the real part of the complex sum: for each
term, Re(a)*Re(c) - Im(a)*Im(c) where c is the evaluated monomial.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .realpoly import RealPoly, certificate_realpoly, exact_value

FLAVORS = ("invariant", "k-inductive", "hybrid", "finite-horizon")

# Each flavor's condition kinds in verification order, with the certificate
# constant each one is compared against (None: zero). init bounds B from
# above and unsafe from below; step, time-shift and k-step bound from above
# the growth of B over one step, from one offset to the next, and over k
# steps. `state_conditions` expands them into conditions; the side
# conditions on the constants (`side_conditions`) follow.
THRESHOLDS = {
    "invariant": {"init": None, "unsafe": "gamma", "step": None},
    "k-inductive": {"init": None, "unsafe": "d", "step": "eps", "k-step": None},
    "hybrid": {"init": None, "unsafe": "d", "step": "eps", "time-shift": "gamma", "k-step": None},
    "finite-horizon": {"init": "gamma", "unsafe": "lam", "step": "delta"},
}


@dataclass(frozen=True)
class StateCondition:
    """One condition over the states z of a region:

        sign * (B_vec(U z) - B_before(z)) <= sign * threshold

    U is the product of the `count` scheduled steps from t0 when `window` is
    (t0, count), else the identity; the B_before term is absent when
    `before` is None; the threshold is the flavor's constant for `kind`
    (THRESHOLDS)."""

    condition_id: str
    kind: str
    region: str  # init | unsafe | global
    vec: int  # the coefficient vector compared
    sign: int
    window: tuple[int, int] | None = None
    before: int | None = None


def state_conditions(flavor: str, k: int = 1) -> tuple[StateCondition, ...]:
    """A flavor's conditions over states, in verification order. A hybrid
    certificate has one coefficient vector per offset 0..k-1, and unsafe,
    step and time-shift once per offset; k is the k-step window's length."""
    hybrid = flavor == "hybrid"
    offsets = range(k if hybrid else 1)

    def cid(base, t):
        return f"{base}-t{t}" if hybrid else base

    out = []
    for kind in THRESHOLDS[flavor]:
        if kind == "init":
            out.append(StateCondition("init", kind, "init", 0, 1))
        elif kind == "unsafe":
            out += [StateCondition(cid("unsafe", t), kind, "unsafe", t, -1) for t in offsets]
        elif kind == "step":
            out += [StateCondition(cid("step", t), kind, "global", t, 1, (t, 1), t) for t in offsets]
        elif kind == "time-shift":  # B_{t+1} - B_t on the same state
            out += [StateCondition(cid("shift", t), kind, "global", (t + 1) % k, 1, None, t) for t in offsets]
        else:  # k-step
            out.append(StateCondition("k-step", kind, "global", 0, 1, (0, k), 0))
    return tuple(out)


class SideCondition(NamedTuple):
    """A condition on the constants alone: form > 0 when strict, form >= 0
    otherwise, with form a linear form {constant: coefficient}."""

    condition_id: str
    form: dict[str, int]
    strict: bool
    kind = "side"


def side_conditions(flavor: str, k: int = 1, horizon: int | None = None) -> tuple[SideCondition, ...]:
    """A flavor's side conditions in verification order. The last is the
    separation that synthesis maximizes."""
    if flavor == "invariant":
        return (SideCondition("side-positivity", {"gamma": 1}, True),)
    if flavor == "finite-horizon":
        return (
            SideCondition("side-drift", {"delta": 1}, False),
            SideCondition("side-margin", {"gamma": -1, "lam": 1, "delta": -horizon}, True),
        )
    form = {"d": 1, "eps": -k} | ({"gamma": -k} if flavor == "hybrid" else {})
    return (SideCondition("side-margin", form, True),)


def side_value(form: dict[str, int], constants: dict[str, float], decimals: int | None = None) -> Fraction:
    """A side condition's linear form at the constants, read exactly."""
    return sum((c * exact_value(constants[name], decimals) for name, c in form.items()), Fraction(0))


def side_holds(value: Fraction, strict: bool) -> bool:
    return value > 0 if strict else value >= 0


class TemplateError(ValueError):
    pass


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Monomial:
    """Exponents over (z_0..z_{D-1}, conj z_0..conj z_{D-1})."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) % 2 != 0 or any(e < 0 for e in self.exponents):
            raise TemplateError(f"bad exponent tuple {self.exponents}")

    @property
    def dim(self) -> int:
        return len(self.exponents) // 2

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def label(self) -> str:
        d = self.dim
        parts = []
        for j in range(d):
            if self.exponents[j]:
                e = self.exponents[j]
                parts.append(f"z{j}" + (f"^{e}" if e > 1 else ""))
        for j in range(d):
            if self.exponents[d + j]:
                e = self.exponents[d + j]
                parts.append(f"~z{j}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"


def iter_terms(dim: int, deg: int):
    """Monomials over z_0..z_{D-1} and their conjugates with total degree
    <= deg, generated lazily in the canonical order: the constant first,
    then the probability terms z_j*conj(z_j) for ascending j, then the rest
    graded lexicographically. Lazy because the full term count explodes
    combinatorially in the dimension."""
    if dim < 2:
        raise TemplateError("dimension must be >= 2")
    if deg < 1:
        raise TemplateError("degree must be >= 1")
    nvars = 2 * dim
    taken = set()

    const = (0,) * nvars
    taken.add(const)
    yield Monomial(const)
    if deg >= 2:
        for j in range(dim):
            exps = [0] * nvars
            exps[j] = 1
            exps[dim + j] = 1
            mono = tuple(exps)
            taken.add(mono)
            yield Monomial(mono)

    def grlex(total: int, pos: int, prefix: list[int]):
        # descending lexicographic within a degree: larger leading powers first
        if pos == nvars - 1:
            yield tuple(prefix + [total])
            return
        for e in range(total, -1, -1):
            yield from grlex(total - e, pos + 1, prefix + [e])

    for total in range(1, deg + 1):
        for tup in grlex(total, 0, []):
            if tup not in taken:
                yield Monomial(tup)


def enumerate_terms(dim: int, deg: int, count: int | None = None) -> list[Monomial]:
    """First `count` terms of the canonical order (all of them when None)."""
    out = []
    for mono in iter_terms(dim, deg):
        out.append(mono)
        if count is not None and len(out) >= count:
            break
    return out


@dataclass(frozen=True)
class BarrierTemplate:
    """Ordered, duplicate-free term list; the first term is the constant."""

    dim: int
    terms: tuple[Monomial, ...]

    def __post_init__(self):
        if not self.terms or not self.terms[0].is_constant:
            raise TemplateError("template must start with the constant term")
        seen = set()
        for t in self.terms:
            if t.dim != self.dim:
                raise TemplateError("term dimension mismatch")
            if t.exponents in seen:
                raise TemplateError(f"duplicate term {t.label()}")
            seen.add(t.exponents)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def prefix(self, count: int) -> "BarrierTemplate":
        return BarrierTemplate(self.dim, self.terms[:count])

    def evaluate_terms(self, states: np.ndarray, first: int = 0) -> np.ndarray:
        """Evaluate terms[first:] on a batch of states: (N, D) -> (N, n_terms - first)."""
        states = np.atleast_2d(states)
        n = states.shape[0]
        terms = self.terms[first:]
        out = np.empty((n, len(terms)), dtype=complex)
        for i, term in enumerate(terms):
            col = np.ones(n, dtype=complex)
            # repeated products, not **: complex power is inexact even at 1
            for j in range(self.dim):
                for _ in range(term.exponents[j]):
                    col = col * states[:, j]
                for _ in range(term.exponents[self.dim + j]):
                    col = col * np.conj(states[:, j])  # one column at a time
            out[:, i] = col
        return out


def full_template(dim: int, deg: int, count: int | None = None) -> BarrierTemplate:
    return BarrierTemplate(dim, tuple(enumerate_terms(dim, deg, count)))


def real_combination(coeffs: np.ndarray, term_values: np.ndarray) -> np.ndarray:
    """Sum of Re(a_i)Re(c_i) - Im(a_i)Im(c_i) along the last axis."""
    return term_values.real @ coeffs.real - term_values.imag @ coeffs.imag


@dataclass(frozen=True)
class Certificate:
    """Template plus coefficients and the flavor constants they were found with.

    Hybrid certificates carry one coefficient vector per time offset
    0..k-1 and cycle them with period k; every other flavor carries one.
    """

    template: BarrierTemplate
    coeff_vectors: tuple[np.ndarray, ...]
    flavor: str
    constants: dict[str, float]
    decimals: int | None = None
    # `realpoly` expansions by (offset, extra_vars)
    _realpolys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise CertificateError(f"unknown flavor {self.flavor!r}")
        if not self.coeff_vectors:
            raise CertificateError("certificate needs at least one coefficient vector")
        vecs = []
        for v in self.coeff_vectors:
            arr = np.asarray(v, dtype=complex).reshape(-1)
            if arr.shape[0] != self.template.n_terms:
                raise CertificateError(
                    f"coefficient count {arr.shape[0]} != term count "
                    f"{self.template.n_terms}"
                )
            if not np.isfinite(arr).all():
                raise CertificateError(f"coefficients must be finite, got {arr[~np.isfinite(arr)][0]}")
            arr.setflags(write=False)
            vecs.append(arr)
        if self.flavor != "hybrid" and len(vecs) != 1:
            raise CertificateError(f"{self.flavor} flavor takes one coefficient vector")
        object.__setattr__(self, "coeff_vectors", tuple(vecs))
        dec = self.decimals
        if dec is not None and (type(dec) is not int or dec < 0):
            raise CertificateError(f"decimals must be null or an integer >= 0, got {dec!r}")
        c = self.constants
        if self.flavor == "finite-horizon" and "T" not in c:
            raise CertificateError("finite-horizon flavor needs the horizon T")
        for name, value in c.items():
            if not math.isfinite(value):
                raise CertificateError(f"constant {name} must be finite, got {value}")
            if name in ("k", "T") and not (float(value).is_integer() and value >= 1):
                raise CertificateError(f"constant {name} must be an integer >= 1, got {value}")
        if self.flavor == "hybrid" and c.get("k", len(vecs)) != len(vecs):
            raise CertificateError(f"hybrid k = {c['k']:g} but {len(vecs)} coefficient vectors")
        # the constants as written; the SMT gate reads them at `decimals`.
        # The forms name every constant that THRESHOLDS does.
        for cid, form, strict in self.side_conditions:
            if form.keys() - c.keys():
                raise CertificateError(f"{self.flavor} flavor needs constants {sorted(form)}")
            value = side_value(form, c)
            if not side_holds(value, strict):
                raise CertificateError(f"side condition {cid} fails: {form} = {float(value):.6g}")

    @property
    def k(self) -> int:
        if self.flavor == "hybrid":
            return len(self.coeff_vectors)
        return int(self.constants.get("k", 1))

    @property
    def horizon(self) -> int | None:
        return int(self.constants["T"]) if self.flavor == "finite-horizon" else None

    @property
    def side_conditions(self):
        return side_conditions(self.flavor, self.k, self.horizon)

    def exact(self, name: str | None) -> Fraction:
        """Constant `name` (zero for None) exact at the certificate's
        decimals, as every SMT condition reads it."""
        return exact_value(self.constants[name], self.decimals) if name else Fraction(0)

    @property
    def dim(self) -> int:
        return self.template.dim

    def realpoly(self, offset: int = 0, extra_vars: int = 0) -> RealPoly:
        """`certificate_realpoly(self, offset, extra_vars)`, expanded once per
        (offset, extra_vars) and kept for the life of the certificate, whose
        coefficient vectors are read-only. Callers must not change it."""
        key = (offset, extra_vars)
        if key not in self._realpolys:
            self._realpolys[key] = certificate_realpoly(self, offset, extra_vars)
        return self._realpolys[key]

    def coefficients(self, offset: int = 0) -> np.ndarray:
        if self.flavor == "hybrid":
            if not 0 <= offset < len(self.coeff_vectors):
                raise CertificateError(
                    f"time offset {offset} out of range 0..{len(self.coeff_vectors) - 1}"
                )
            return self.coeff_vectors[offset]
        if offset != 0:
            raise CertificateError(f"{self.flavor} flavor has no offset {offset}")
        return self.coeff_vectors[0]

    def polynomial_str(self, offset: int = 0, places: int = 5) -> str:
        coeffs = self.coefficients(offset)
        parts = []
        for coef, term in zip(coeffs, self.template.terms):
            if coef == 0:
                continue
            if abs(coef.imag) < 10 ** (-places - 2):
                num = f"{coef.real:+.{places}f}"
            else:
                num = f"+({coef.real:.{places}f}{coef.imag:+.{places}f}i)"
            parts.append(num if term.is_constant else f"{num}*{term.label()}")
        return " ".join(parts) if parts else "0"

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "flavor": self.flavor,
            "terms": [list(t.exponents) for t in self.template.terms],
            "coefficients": [
                [[float(c.real), float(c.imag)] for c in vec]
                for vec in self.coeff_vectors
            ],
            "constants": {k: float(v) for k, v in sorted(self.constants.items())},
            "decimals": self.decimals,
            "polynomials": [
                self.polynomial_str(i) for i in range(len(self.coeff_vectors))
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(doc: dict) -> "Certificate":
        """The certificate `to_dict` writes. A value of the wrong type raises
        CertificateError naming its field; a missing field raises KeyError."""
        if not isinstance(doc, dict):
            raise CertificateError(f"a certificate is a JSON object, got {type(doc).__name__}")

        def read(field, convert):
            try:
                return convert(doc[field])
            except (TypeError, ValueError, OverflowError) as exc:
                raise CertificateError(f"certificate field {field!r}: {exc}") from None

        def constants(value):
            if not isinstance(value, dict):
                raise TypeError(f"expected an object, got {type(value).__name__}")
            return {k: float(v) for k, v in value.items()}

        return Certificate(
            template=BarrierTemplate(
                read("dim", int), read("terms", lambda ts: tuple(Monomial(tuple(e)) for e in ts))
            ),
            coeff_vectors=read(
                "coefficients",
                lambda vs: tuple(np.array([complex(re, im) for re, im in v]) for v in vs),
            ),
            flavor=doc["flavor"],
            constants=read("constants", constants),
            decimals=doc.get("decimals"),
        )

    @staticmethod
    def from_json(text: str) -> "Certificate":
        return Certificate.from_dict(json.loads(text))


def eval_real(cert: Certificate, amps: np.ndarray, offset: int = 0) -> float:
    """Real value of the certificate at one state (coefficient vector `offset`)."""
    coeffs = cert.coefficients(offset)
    values = cert.template.evaluate_terms(np.asarray(amps, dtype=complex))
    return float(real_combination(coeffs, values)[0])


def eval_real_batch(
    cert: Certificate, states: np.ndarray, offset: int = 0
) -> np.ndarray:
    coeffs = cert.coefficients(offset)
    values = cert.template.evaluate_terms(states)
    return real_combination(coeffs, values)
