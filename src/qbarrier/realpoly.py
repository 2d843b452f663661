"""Exact multivariate polynomials over the real/imaginary amplitude parts.

Certificates and their compositions with unitary step maps are expanded into
polynomials over x_0..x_{D-1}, y_0..y_{D-1} (z_j = x_j + i*y_j) plus any extra
real parameters. Coefficients are Fractions so the SMT text carries exact
rational literals; numeric evaluation converts to floats on demand.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

Exps = tuple[int, ...]


def exact_value(value: float, decimals: int | None) -> Fraction:
    """A certificate number as its conditions read it: the decimal string at
    `decimals` places, or the exact binary value when decimals is None."""
    if decimals is not None:
        return Fraction(format(value, f".{decimals}f"))
    return Fraction(float(value))


class RealPoly:
    """Sparse polynomial: map from exponent tuples to Fraction coefficients."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[Exps, Fraction] | None = None):
        self.nvars = nvars
        self.coeffs: dict[Exps, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    self.coeffs[tuple(e)] = Fraction(c)

    @classmethod
    def _wrap(cls, nvars: int, coeffs: dict[Exps, Fraction]) -> "RealPoly":
        """Adopt a dict of nonzero Fractions built by this class, as is."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.coeffs = coeffs
        return p

    @staticmethod
    def constant(nvars: int, value) -> "RealPoly":
        p = RealPoly(nvars)
        if value:
            p.coeffs[(0,) * nvars] = Fraction(value)
        return p

    @staticmethod
    def variable(nvars: int, index: int) -> "RealPoly":
        e = [0] * nvars
        e[index] = 1
        return RealPoly._wrap(nvars, {tuple(e): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def add(self, other: "RealPoly") -> "RealPoly":
        return self._plus(other.coeffs.items())

    def sub(self, other: "RealPoly") -> "RealPoly":
        return self._plus((e, -c) for e, c in other.coeffs.items())

    def _plus(self, items) -> "RealPoly":
        out = dict(self.coeffs)
        for e, c in items:
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return RealPoly._wrap(self.nvars, out)

    def scale(self, factor) -> "RealPoly":
        f = Fraction(factor)
        if not f:
            return RealPoly(self.nvars)
        return RealPoly._wrap(self.nvars, {e: c * f for e, c in self.coeffs.items()})

    def mul(self, other: "RealPoly") -> "RealPoly":
        out: dict[Exps, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return RealPoly._wrap(self.nvars, out)

    def substitute(self, forms: Sequence["RealPoly | None"]) -> "RealPoly":
        """Substitute variable i by forms[i] (None keeps the variable)."""
        out = RealPoly(self.nvars)
        for e, c in self.coeffs.items():
            term = RealPoly.constant(self.nvars, c)
            for i, power in enumerate(e):
                if not power:
                    continue
                base = forms[i]
                if base is None:
                    base = RealPoly.variable(self.nvars, i)
                for _ in range(power):
                    term = term.mul(base)
            out = out.add(term)
        return out

    def max_abs(self) -> float:
        return max((abs(float(c)) for c in self.coeffs.values()), default=0.0)

    def snap(self, rel_tol: float = 1e-12) -> "RealPoly":
        """Clean float-expansion dirt: drop tiny coefficients, pull
        near-half-integers onto exact values. Perturbations stay below
        rel_tol times the largest coefficient."""
        scale = max(self.max_abs(), 1.0)
        tol = Fraction(rel_tol * scale)
        out: dict[Exps, Fraction] = {}
        for e, c in self.coeffs.items():
            if abs(c) <= tol:
                continue
            nearest = Fraction(round(c * 2), 2)
            if abs(c - nearest) <= tol:
                c = nearest
            if c:
                out[e] = c
        return RealPoly._wrap(self.nvars, out)

    def as_float_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponent matrix (T, nvars), coefficient vector (T,)) in a fixed order."""
        items = sorted(self.coeffs.items())
        if not items:
            return np.zeros((0, self.nvars), dtype=int), np.zeros(0)
        exps = np.array([e for e, _ in items], dtype=int)
        coefs = np.array([float(c) for _, c in items])
        return exps, coefs

    def eval_floats(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points: (N, nvars) -> (N,)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return eval_terms(*self.as_float_arrays(), points)


def eval_terms(exps: np.ndarray, coefs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial given by `as_float_arrays` at a batch of
    points: (N, nvars) -> (N,)."""
    acc = np.zeros(points.shape[0])
    for e, c in zip(exps, coefs):
        term = np.full(points.shape[0], c)
        for i in np.nonzero(e)[0]:
            term = term * points[:, i] ** e[i]
        acc += term
    return acc


def rational_sexpr(fr: Fraction) -> str:
    """SMT-LIB2 literal of an exact rational."""
    if fr < 0:
        return f"(- {rational_sexpr(-fr)})"
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"(/ {fr.numerator} {fr.denominator})"


class ComplexPoly:
    """Pair of RealPolys for the real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealPoly, im: RealPoly):
        self.re, self.im = re, im

    @staticmethod
    def constant(nvars: int, re, im) -> "ComplexPoly":
        return ComplexPoly(RealPoly.constant(nvars, re), RealPoly.constant(nvars, im))

    def add(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly(self.re.add(other.re), self.im.add(other.im))

    def mul(self, other: "ComplexPoly") -> "ComplexPoly":
        re = self.re.mul(other.re).sub(self.im.mul(other.im))
        im = self.re.mul(other.im).add(self.im.mul(other.re))
        return ComplexPoly(re, im)


def amplitude_vars(dim: int, extra: int = 0) -> int:
    """Total variable count: x_0..x_{D-1}, y_0..y_{D-1}, then extras."""
    return 2 * dim + extra


def var_x(dim: int, nvars: int, j: int) -> RealPoly:
    return RealPoly.variable(nvars, j)


def var_y(dim: int, nvars: int, j: int) -> RealPoly:
    return RealPoly.variable(nvars, dim + j)


def z_poly(dim: int, nvars: int, j: int) -> ComplexPoly:
    return ComplexPoly(var_x(dim, nvars, j), var_y(dim, nvars, j))


def z_conj_poly(dim: int, nvars: int, j: int) -> ComplexPoly:
    return ComplexPoly(var_x(dim, nvars, j), var_y(dim, nvars, j).scale(-1))


def certificate_realpoly(cert, offset: int = 0, extra_vars: int = 0) -> RealPoly:
    """Expand the certificate's real value into a polynomial over (x, y).

    Coefficients recorded with a decimal rounding step are emitted as exact
    decimal fractions; unrounded coefficients as the exact binary value.
    """
    dim = cert.dim
    nvars = amplitude_vars(dim, extra_vars)
    coeffs = cert.coefficients(offset)
    acc = RealPoly(nvars)
    for alpha, term in zip(coeffs, cert.template.terms):
        if alpha == 0:
            continue
        cp = ComplexPoly.constant(
            nvars,
            exact_value(float(alpha.real), cert.decimals),
            exact_value(float(alpha.imag), cert.decimals),
        )
        for j in range(dim):
            for _ in range(term.exponents[j]):
                cp = cp.mul(z_poly(dim, nvars, j))
            for _ in range(term.exponents[dim + j]):
                cp = cp.mul(z_conj_poly(dim, nvars, j))
        acc = acc.add(cp.re)  # real part only: Re(a)Re(t) - Im(a)Im(t)
    return acc


def sphere_poly(dim: int, nvars: int) -> RealPoly:
    """sum_j x_j^2 + y_j^2 as a polynomial."""
    coeffs: dict[Exps, Fraction] = {}
    for j in range(dim):
        for i in (j, dim + j):  # x_j, then y_j
            e = [0] * nvars
            e[i] = 2
            coeffs[tuple(e)] = Fraction(1)
    return RealPoly._wrap(nvars, coeffs)


def constraint_poly(constraint, dim: int, nvars: int) -> RealPoly:
    """Region predicate left-hand side as a polynomial over (x, y)."""
    acc = RealPoly(nvars)
    for kind, idx, coeff in constraint.terms:
        c = Fraction(coeff)
        if kind == "prob":
            px = var_x(dim, nvars, idx)
            py = var_y(dim, nvars, idx)
            acc = acc.add(px.mul(px).scale(c)).add(py.mul(py).scale(c))
        elif kind == "re":
            acc = acc.add(var_x(dim, nvars, idx).scale(c))
        else:
            acc = acc.add(var_y(dim, nvars, idx).scale(c))
    return acc
