"""Polynomial certificate templates over complex state variables.

A template is an ordered list of monomials in the amplitudes z_0..z_{D-1} and
their conjugates. A certificate attaches complex coefficients and is evaluated
to a real number by keeping only the real part of the complex sum: for each
term, Re(a)*Re(c) - Im(a)*Im(c) where c is the evaluated monomial.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

FLAVORS = ("invariant", "k-inductive", "hybrid", "finite-horizon")


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

    def evaluate(self, amps: np.ndarray) -> complex:
        d = self.dim
        val = 1.0 + 0.0j
        for j in range(d):
            for _ in range(self.exponents[j]):
                val *= amps[j]
            for _ in range(self.exponents[d + j]):
                val *= np.conj(amps[j])
        return complex(val)

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


def _check_side_condition(flavor: str, constants: dict[str, float], k: int):
    if flavor == "invariant":
        if constants.get("gamma", 0.0) <= 0.0:
            raise CertificateError("invariant flavor needs gamma > 0")
    elif flavor == "k-inductive":
        d, eps = constants["d"], constants["eps"]
        if not d > k * eps:
            raise CertificateError(f"side condition d > k*eps fails: {d} <= {k * eps}")
    elif flavor == "hybrid":
        d, eps, gam = constants["d"], constants["eps"], constants["gamma"]
        if not d > k * (eps + gam):
            raise CertificateError(
                f"side condition d > k*(eps+gamma) fails: {d} <= {k * (eps + gam)}"
            )
    elif flavor == "finite-horizon":
        gam, lam, delta, t = (
            constants["gamma"],
            constants["lam"],
            constants["delta"],
            constants["T"],
        )
        if delta < 0:
            raise CertificateError("finite-horizon flavor needs delta >= 0")
        if not gam + delta * t < lam:
            raise CertificateError(
                f"side condition gamma + delta*T < lam fails: "
                f"{gam + delta * t} >= {lam}"
            )
    else:
        raise CertificateError(f"unknown flavor {flavor!r}")


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
            arr.setflags(write=False)
            vecs.append(arr)
        if self.flavor != "hybrid" and len(vecs) != 1:
            raise CertificateError(f"{self.flavor} flavor takes one coefficient vector")
        object.__setattr__(self, "coeff_vectors", tuple(vecs))
        _check_side_condition(self.flavor, self.constants, self.k)

    @property
    def k(self) -> int:
        if self.flavor == "hybrid":
            return len(self.coeff_vectors)
        return int(self.constants.get("k", 1))

    @property
    def dim(self) -> int:
        return self.template.dim

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
        template = BarrierTemplate(
            int(doc["dim"]), tuple(Monomial(tuple(e)) for e in doc["terms"])
        )
        vecs = tuple(
            np.array([complex(re, im) for re, im in vec]) for vec in doc["coefficients"]
        )
        return Certificate(
            template=template,
            coeff_vectors=vecs,
            flavor=doc["flavor"],
            constants={k: float(v) for k, v in doc["constants"].items()},
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
