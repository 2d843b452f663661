"""Semi-algebraic state regions and quasi-Monte Carlo scenario sampling.

A region is a conjunction of atomic predicates, each a linear combination of
|z_j|^2, Re(z_j), Im(z_j) compared to a bound. Membership always conjoins the
unit-sphere constraint. Sampling maps a low-discrepancy stream onto the
probability simplex by sorted-uniform stick-breaking and attaches independent
pseudorandom phases, with direct reparametrization fast paths for the region
shapes where plain rejection would be hopeless.
"""
from __future__ import annotations

import functools
import math
import re as _re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np

from .quantum import NORM_TOL, QuantumState

REJECTION_FACTOR = 10_000
SOBOL_BITS = 30
# rows of the shipped Joe-Kuo table: 2^n - 1 coordinates cover n = 14 qubits
MAX_SOBOL_DIMS = 2**14 - 1
_SOBOL_TABLE = Path(__file__).parent / "data" / "sobol_joe_kuo.npz"


class RegionError(ValueError):
    pass


class RegionEmptyError(RegionError):
    """Raised when the rejection budget is exhausted: the region appears
    empty or too thin to sample."""


KINDS = ("prob", "re", "im")


@dataclass(frozen=True)
class AtomicConstraint:
    """sum of coeff*feature  (<=|>=)  bound, with features over one state."""

    terms: tuple[tuple[str, int, float], ...]  # (kind, index, coefficient)
    op: str  # "<=" or ">="
    bound: float
    bound_exact: Fraction | None = None

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise RegionError(f"bad comparison operator {self.op!r}")
        if not self.terms:
            raise RegionError("constraint needs at least one term")
        for kind, idx, _ in self.terms:
            if kind not in KINDS:
                raise RegionError(f"unknown feature kind {kind!r}")
            if idx < 0:
                raise RegionError(f"negative index {idx}")
        if self.bound_exact is None:
            object.__setattr__(self, "bound_exact", Fraction(self.bound))

    def max_index(self) -> int:
        return max(idx for _, idx, _ in self.terms)

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(states)
        acc = np.zeros(states.shape[0])
        for kind, idx, coeff in self.terms:
            if kind == "prob":
                acc += coeff * (np.abs(states[:, idx]) ** 2)
            elif kind == "re":
                acc += coeff * states[:, idx].real
            else:
                acc += coeff * states[:, idx].imag
        return acc

    def satisfied_batch(self, states: np.ndarray) -> np.ndarray:
        vals = self.evaluate_batch(states)
        if self.op == "<=":
            return vals <= self.bound
        return vals >= self.bound

    def __str__(self) -> str:
        def fmt(kind, idx, coeff):
            base = f"{kind}({idx})"
            return base if coeff == 1.0 else f"{coeff}*{base}"

        body = " + ".join(fmt(*t) for t in self.terms)
        return f"{body} {self.op} {self.bound}"


@dataclass(frozen=True)
class Region:
    """Conjunction of atomic predicates intersected with the unit sphere."""

    dim: int
    constraints: tuple[AtomicConstraint, ...] = ()
    name: str = "region"

    def __post_init__(self):
        if self.dim < 2:
            raise RegionError("region dimension must be >= 2")
        for c in self.constraints:
            if c.max_index() >= self.dim:
                raise RegionError(
                    f"constraint {c} references index >= dim {self.dim}"
                )

    @property
    def is_full_sphere(self) -> bool:
        return not self.constraints

    def membership_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(states)
        ok = np.abs(np.linalg.norm(states, axis=1) - 1.0) <= NORM_TOL
        for c in self.constraints:
            ok &= c.satisfied_batch(states)
        return ok


def full_sphere(dim: int, name: str = "sphere") -> Region:
    return Region(dim=dim, name=name)


def membership(r: Region, s: QuantumState) -> bool:
    """True iff the state satisfies every predicate and has unit norm."""
    if s.dim != r.dim:
        raise RegionError(f"state dim {s.dim} != region dim {r.dim}")
    return bool(r.membership_batch(s.amps.reshape(1, -1))[0])


_TERM_RE = _re.compile(
    r"^\s*(?:(?P<coeff>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*\*\s*)?"
    r"(?P<kind>prob|re|im)\s*\(\s*(?P<idx>\d+)\s*\)\s*$"
)


def parse_constraint(text: str) -> AtomicConstraint:
    """Parse one predicate like "prob(0) >= 0.9" or "prob(1)+prob(2) >= 0.5"."""
    for op in ("<=", ">="):
        if op in text:
            lhs, _, rhs = text.partition(op)
            break
    else:
        raise RegionError(f"constraint {text!r} needs '<=' or '>='")
    rhs = rhs.strip()
    try:
        bound_exact = Fraction(rhs)
    except (ValueError, ZeroDivisionError):
        raise RegionError(f"bad bound {rhs!r} in constraint {text!r}") from None
    terms = []
    # split on +/- while keeping the sign with the term
    pieces = _re.findall(r"[+-]?[^+-]+", lhs.replace(" ", ""))
    for piece in pieces:
        sign = 1.0
        if piece.startswith("+"):
            piece = piece[1:]
        elif piece.startswith("-"):
            sign = -1.0
            piece = piece[1:]
        m = _TERM_RE.match(piece)
        if not m:
            raise RegionError(f"bad term {piece!r} in constraint {text!r}")
        coeff = sign * (float(m.group("coeff")) if m.group("coeff") else 1.0)
        terms.append((m.group("kind"), int(m.group("idx")), coeff))
    return AtomicConstraint(
        terms=tuple(terms), op=op, bound=float(bound_exact), bound_exact=bound_exact
    )


def parse_region(specs: Iterable[str], dim: int, name: str) -> Region:
    constraints = []
    for raw in specs:
        raw = raw.strip()
        if not raw:
            continue
        constraints.append(parse_constraint(raw))
    return Region(dim=dim, constraints=tuple(constraints), name=name)


@dataclass(frozen=True)
class ScenarioSet:
    """Accepted samples from one region, reproducible from (region, N, seed)."""

    states: np.ndarray  # (N, dim) complex
    region_name: str
    seed: int
    count: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "count", arr.shape[0])


def sobol_to_state(point: np.ndarray, n: int) -> QuantumState:
    """Map one point in [0,1)^(2^n - 1 + 2^n) to a state on the sphere.

    The first 2^n - 1 coordinates select a probability vector by sorted-uniform
    stick-breaking (sorted coordinates with 0 and 1 appended, consecutive
    differences taken in index order, so the all-zero corner puts the whole
    mass on the last coordinate). The remaining 2^n coordinates map linearly
    to phases in [0, 2*pi).
    """
    dim = 2 ** n
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape[0] != 2 * dim - 1:
        raise RegionError(
            f"need {2 * dim - 1} coordinates for n={n}, got {point.shape[0]}"
        )
    probs = _stick_break(point[np.newaxis, : dim - 1])[0]
    thetas = 2.0 * math.pi * point[dim - 1 :]
    amps = np.sqrt(probs) * np.exp(1j * thetas)
    return QuantumState(amps)


def _stick_break(u: np.ndarray) -> np.ndarray:
    """Sorted-uniform stick-breaking, batched: (N, D-1) -> (N, D) simplex."""
    n, dm1 = u.shape
    breaks = np.sort(u, axis=1)
    padded = np.concatenate(
        [np.zeros((n, 1)), breaks, np.ones((n, 1))], axis=1
    )
    return np.diff(padded, axis=1)


def _sub_simplex(u: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Stick-break each row of u and scale row i by total[i]."""
    if u.shape[1] == 0:
        return np.ones((u.shape[0], 1)) * total[:, None]
    return _stick_break(u) * total[:, None]


class _SingleCoordPlan:
    """All predicates bound prob(j) for one fixed j."""

    def __init__(self, j: int, lo: float, hi: float):
        self.j, self.lo, self.hi = j, lo, hi


class _BoxPlan:
    """Per-coordinate prob boxes (all coordinates) plus optional im boxes."""

    def __init__(self, prob_lo, prob_hi, im_bound):
        self.prob_lo, self.prob_hi, self.im_bound = prob_lo, prob_hi, im_bound


def _classify(region: Region):
    if region.is_full_sphere:
        return "sphere"
    dim = region.dim
    prob_single: dict[int, list[tuple[str, float]]] = {}
    simple = True
    for c in region.constraints:
        if len(c.terms) == 1 and c.terms[0][0] == "prob" and c.terms[0][2] == 1.0:
            prob_single.setdefault(c.terms[0][1], []).append((c.op, c.bound))
        else:
            simple = False
    if simple and len(prob_single) == 1:
        (j, conds), = prob_single.items()
        lo, hi = 0.0, 1.0
        for op, b in conds:
            if op == ">=":
                lo = max(lo, b)
            else:
                hi = min(hi, b)
        return _SingleCoordPlan(j, lo, hi)
    # box plan: prob bounds on every coordinate, plus symmetric im bounds
    im_bound = np.full(dim, np.inf)
    prob_lo = np.zeros(dim)
    prob_hi = np.ones(dim)
    boxish = True
    seen_prob = np.zeros(dim, dtype=bool)
    for c in region.constraints:
        if len(c.terms) != 1 or c.terms[0][2] not in (1.0, -1.0):
            boxish = False
            break
        kind, idx, coeff = c.terms[0]
        lo_hi = (c.op == ">=") == (coeff == 1.0)
        bound = c.bound / coeff
        if kind == "prob":
            seen_prob[idx] = True
            if lo_hi:
                prob_lo[idx] = max(prob_lo[idx], bound)
            else:
                prob_hi[idx] = min(prob_hi[idx], bound)
        elif kind == "im":
            # keep only symmetric |Im| <= b style bounds
            if lo_hi and bound <= 0:
                im_bound[idx] = min(im_bound[idx], -bound)
            elif not lo_hi and bound >= 0:
                im_bound[idx] = min(im_bound[idx], bound)
            else:
                boxish = False
                break
        else:
            boxish = False
            break
    if boxish and seen_prob.all():
        return _BoxPlan(prob_lo, prob_hi, im_bound)
    return "reject"


@functools.cache
def _joe_kuo() -> tuple[np.ndarray, np.ndarray]:
    """(poly, vinit) rows of the Joe-Kuo table, read-only."""
    with np.load(_SOBOL_TABLE) as table:
        poly, vinit = table["poly"].astype(np.int64), table["vinit"].astype(np.int64)
    poly.setflags(write=False)
    vinit.setflags(write=False)
    return poly, vinit


def _direction_matrix(d: int) -> np.ndarray:
    """(SOBOL_BITS, d) int32: row b holds the direction number of bit b for
    every coordinate, scaled to SOBOL_BITS bits (all below 2^30)."""
    poly, vinit = _joe_kuo()
    m = np.zeros((d, SOBOL_BITS), dtype=np.int64)
    m[0] = 1
    deg = np.frexp(poly[:d])[1] - 1
    for s in np.unique(deg[1:]):
        rows = np.flatnonzero(deg == s)
        ms = m[rows]
        ms[:, :s] = vinit[rows, :s]
        # bits a_1 .. a_{s-1}, 1 of the polynomial below its leading term
        a = (poly[rows, None] >> np.arange(s - 1, -1, -1)) & 1
        shifts = np.arange(1, s + 1)
        for j in range(s, SOBOL_BITS):
            terms = (a * ms[:, j - s : j][:, ::-1]) << shifts
            ms[:, j] = ms[:, j - s] ^ np.bitwise_xor.reduce(terms, axis=1)
        m[rows] = ms
    return (m << np.arange(SOBOL_BITS - 1, -1, -1)).T.astype(np.int32)


@functools.lru_cache(maxsize=16)
def _powers_of_two(d: int) -> np.ndarray:
    """(SOBOL_BITS, d) int32, read-only: row b is point(2^b) of the stream,
    direction b XOR direction b-1 for b >= 1, as gray(2^b) = 2^b + 2^(b-1)."""
    v = _direction_matrix(d)
    points = v.copy()
    points[1:] ^= v[:-1]
    points.setflags(write=False)
    return points


class SobolStream:
    """Unscrambled Sobol points in [0,1)^d, bit for bit those of SciPy's
    ``qmc.Sobol(d, scramble=False).random`` over consecutive draws:
    Joe-Kuo direction numbers in Gray-code order (Bratley & Fox, ACM TOMS
    Algorithm 659), SOBOL_BITS bits.

    Point(i) is the XOR of the direction numbers of the set bits of
    gray(i) = i ^ (i >> 1). Both maps are linear under XOR, so point(i) is
    the XOR of point(2^b) over the set bits b of i, and for i a multiple of
    2k and j < k, point(i + k + j) = point(i + j) XOR point(k). A draw fills
    aligned power-of-two blocks by doubling, with no sequential scan."""

    def __init__(self, d: int):
        if not 1 <= d <= MAX_SOBOL_DIMS:
            raise RegionError(
                f"Sobol stream needs 1 to {MAX_SOBOL_DIMS} coordinates "
                f"(at most 14 qubits), got {d}"
            )
        self._pow2 = _powers_of_two(d)
        self._count = 0

    def draw(self, n: int) -> np.ndarray:
        """The next n points, (n, d) float64."""
        start, stop = self._count, self._count + n
        if stop > 2**SOBOL_BITS:
            raise RegionError(f"Sobol stream exhausted after 2^{SOBOL_BITS} points")
        points = np.empty((n, self._pow2.shape[1]), dtype=np.int32)
        pos = start
        while pos < stop:
            size = pos & -pos or 2**SOBOL_BITS  # largest aligned block at pos
            while size > stop - pos:
                size //= 2
            block = points[pos - start : pos - start + size]
            bits = [b for b in range(pos.bit_length()) if pos >> b & 1]
            block[0] = np.bitwise_xor.reduce(self._pow2[bits], axis=0)
            k = 1
            while k < size:
                step = self._pow2[k.bit_length() - 1]
                np.bitwise_xor(block[:k], step, out=block[k : 2 * k])
                k *= 2
            pos += size
        self._count = stop
        return points * 2.0**-SOBOL_BITS


def _phases(rng: np.random.Generator, shape) -> np.ndarray:
    return 2.0 * math.pi * rng.random(shape)


def _candidates_sphere(dim, batch, stream, rng):
    u = stream.draw(batch)
    probs = _stick_break(u)
    return np.sqrt(probs) * np.exp(1j * _phases(rng, (batch, dim)))


def _candidates_single(plan, dim, batch, stream, rng):
    if plan.lo > plan.hi:
        raise RegionEmptyError(
            "region appears empty or thin: contradictory bounds on "
            f"prob({plan.j})"
        )
    u = stream.draw(batch)
    pj = plan.lo + u[:, 0] * (plan.hi - plan.lo)
    rest = _sub_simplex(u[:, 1:], 1.0 - pj)
    probs = np.empty((batch, dim))
    probs[:, plan.j] = pj
    others = [j for j in range(dim) if j != plan.j]
    probs[:, others] = rest[:, : len(others)]
    return np.sqrt(probs) * np.exp(1j * _phases(rng, (batch, dim)))


def _candidates_box(plan, dim, batch, stream, rng):
    lo, hi = plan.prob_lo, plan.prob_hi
    if lo.sum() > 1.0 or hi.sum() < 1.0:
        raise RegionEmptyError(
            "region appears empty or thin: probability boxes cannot sum to 1"
        )
    u = stream.draw(batch)
    probs = np.empty((batch, dim))
    used = np.zeros(batch)
    tail_lo = np.concatenate([np.cumsum(lo[::-1])[::-1][1:], [0.0]])
    tail_hi = np.concatenate([np.cumsum(hi[::-1])[::-1][1:], [0.0]])
    for j in range(dim):
        if j < dim - 1:
            low = np.maximum(lo[j], 1.0 - used - tail_hi[j])
            high = np.minimum(hi[j], 1.0 - used - tail_lo[j])
            high = np.maximum(high, low)  # numeric guard; rejection re-checks
            probs[:, j] = low + u[:, j] * (high - low)
        else:
            probs[:, j] = np.clip(1.0 - used, 0.0, None)
        used += probs[:, j]
    amp = np.sqrt(probs)
    thetas = _phases(rng, (batch, dim))
    for j in range(dim):
        b = plan.im_bound[j]
        if not np.isfinite(b):
            continue
        # |sin(theta)| <= b / |z_j|: sample within the allowed arcs
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(amp[:, j] > 0, np.minimum(b / amp[:, j], 1.0), 1.0)
        half = np.arcsin(ratio)
        t = rng.random(batch) * 2.0 - 1.0
        base = t * half
        flip = rng.random(batch) < 0.5
        thetas[:, j] = np.where(flip, math.pi - base, base)
    return amp * np.exp(1j * thetas)


def sample_states(r: Region, count: int, seed: int) -> ScenarioSet:
    """Draw `count` states satisfying the region, deterministically by seed.

    Raises RegionEmptyError after 10^4 * count consecutive rejections.
    """
    if count < 1:
        raise RegionError("sample count must be >= 1")
    dim = r.dim
    plan = _classify(r)
    stream = SobolStream(dim - 1)
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    n_acc = 0
    consecutive_rejects = 0
    budget = REJECTION_FACTOR * count
    batch = max(64, min(4096, count))
    while n_acc < count:
        if plan == "sphere":
            cand = _candidates_sphere(dim, batch, stream, rng)
        elif isinstance(plan, _SingleCoordPlan):
            cand = _candidates_single(plan, dim, batch, stream, rng)
        elif isinstance(plan, _BoxPlan):
            cand = _candidates_box(plan, dim, batch, stream, rng)
        else:
            cand = _candidates_sphere(dim, batch, stream, rng)
        ok = r.membership_batch(cand)
        got = cand[ok]
        if got.shape[0] == 0:
            consecutive_rejects += batch
            if consecutive_rejects >= budget:
                raise RegionEmptyError(
                    f"region {r.name!r} appears empty or thin: "
                    f"{consecutive_rejects} consecutive rejects"
                )
        else:
            consecutive_rejects = 0
            accepted.append(got)
            n_acc += got.shape[0]
    states = np.concatenate(accepted, axis=0)[:count]
    return ScenarioSet(states=states, region_name=r.name, seed=seed)
