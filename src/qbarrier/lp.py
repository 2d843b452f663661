"""Scenario linear programs for certificate synthesis, and the search loop.

For a chosen flavor the sampled conditions become linear rows over the real
and imaginary parts of the template coefficients plus the flavor constants;
the objective maximizes the flavor's separation slack. Extraction polishes
the raw optimum (canonical level, small L1, trailing terms zeroed), rounds
coefficients to a decimal grid, recomputes constants directly from the
scenario extrema with directional rounding, and keeps part of the separation
slack as a buffer so that sampling noise near region boundaries does not
immediately refute the candidate.

The loop follows the incremental recipe: grow the term list one monomial at
a time, solve the scenario LP, and hand positive candidates to the SMT gate;
refutation models are fed back into the scenario rows (counterexample-guided
rounds) before the template grows.
"""
from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .heap import trim_heap
from .quantum import Dynamics
from .regions import Region, sample_states
from .smt.run import (
    BUILTIN_COMMAND,
    VerificationReport,
    model_params,
    model_to_state,
    verify_certificate,
)
from .templates import (
    FLAVORS,
    THRESHOLDS,
    BarrierTemplate,
    Certificate,
    CertificateError,
    full_template,
    real_combination,
)

log = logging.getLogger(__name__)

# default cap on the incremental term search; the full term count grows
# combinatorially with the dimension, far past anything an LP of this kind
# can use (override per job with max-terms)
DEFAULT_TERM_BUDGET = 60
# strictness margin rho of the side condition
MARGIN = 1e-4
# box bound on every coefficient and flavor constant
COEFF_BOUND = 100.0
# parameter draws per scenario row of an uncertain step map
UNCERTAINTY_SAMPLES = 5


class LPError(RuntimeError):
    pass


class LPSolverError(LPError):
    """Numerical failure inside the solver, distinct from infeasibility."""


class NoCandidateError(LPError):
    """The LP optimum does not encode a candidate at this template size."""


@dataclass
class SynthesisConfig:
    flavor: str = "invariant"
    degree: int = 2
    samples: int = 1000
    seed: int = 1
    k: int = 1
    eps: float | str = 0.01  # fixed value or "free"
    gamma: float | str = 0.01  # hybrid time-shift bound, fixed or "free"
    horizon: int | None = None
    max_terms: int | None = None
    resample_rounds: int = 10

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise LPError(f"unknown flavor {self.flavor!r}")
        for name in ("degree", "samples", "k"):
            if getattr(self, name) < 1:
                raise LPError(f"{name} must be >= 1")
        if self.max_terms is not None and self.max_terms < 1:
            raise LPError("max-terms must be >= 1")
        if self.resample_rounds < 0:
            raise LPError("resample-rounds must be >= 0")
        if self.flavor == "finite-horizon" and (self.horizon or 0) < 1:
            raise LPError("finite-horizon flavor needs a horizon >= 1")
        for key, value in (("epsilon", self.eps), ("gamma", self.gamma)):
            if value != "free" and not math.isfinite(value):
                raise LPError(f"{key} must be finite or free, got {value}")
        # the side row takes k times each fixed threshold
        rhs = MARGIN
        for name, value in self.fixed_constants().items():
            rhs += self.k * value
            if not math.isfinite(rhs):
                key = "epsilon" if name == "eps" else name
                raise LPError(f"{key} = {value:g} overflows the side condition at k = {self.k}")

    def fixed_constants(self) -> dict[str, float]:
        """The thresholds this job fixes: epsilon is the step threshold eps
        and gamma the time-shift threshold, where the flavor has them."""
        values = {"eps": self.eps, "gamma": self.gamma}
        return {
            name: 0.0 + float(values[name])
            for kind, name in (("step", "eps"), ("time-shift", "gamma"))
            if THRESHOLDS[self.flavor].get(kind) == name and values[name] != "free"
        }


class DenseRows:
    """Rows a @ x <= b held as one dense matrix, for small LPs."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]

    def take(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A[idx], b[idx])."""
        return self.a[idx], self.b[idx]

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A @ x - b over every row."""
        return self.a @ x - self.b


@dataclass
class LPProblem:
    # the rows A @ x <= b: n_rows, n_cols, take(idx) -> (A[idx], b[idx]) and
    # residual(x) -> A @ x - b over every row
    rows: DenseRows | ScenarioMatrix
    bounds: list[tuple[float | None, float | None]]
    objective: np.ndarray  # maximized
    families: list[tuple[str, int, int]]  # (family, start row, stop row)

    @property
    def n_rows(self) -> int:
        return self.rows.n_rows

    @property
    def n_vars(self) -> int:
        return self.rows.n_cols

    def family_rows(self, name: str) -> int:
        return sum(stop - start for f, start, stop in self.families if f == name)


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    rows_kept: int = 0  # rows in the final working set
    highs_calls: int = 0  # cut rounds


# Constraint generation: only a few hundred of the sampled rows are active at
# an optimum, so HiGHS sees a small working set of rows and the rest are
# checked with one matrix-vector product per round.
CUT_SEED_ROWS = 200  # evenly spaced rows in the first working set
CUT_BATCH_ROWS = 100  # most violated rows added per round
CUT_TOL = 1e-9  # a row outside the working set is violated above this


def _spread(n_rows: int, count: int) -> np.ndarray:
    """`count` evenly spaced row indices; every family is a contiguous block
    of i.i.d. samples, so this picks from each family in proportion."""
    count = min(count, n_rows)
    return np.unique(np.linspace(0, n_rows - 1, count).round().astype(np.intp))


def linprog(**kwargs):
    """scipy.optimize.linprog, imported at the first solve: importing
    scipy.optimize takes most of the package's start-up, and the paths that
    only verify certificates never solve an LP."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(**kwargs)


def _cut_solve(
    cost: np.ndarray,
    rows: DenseRows | ScenarioMatrix,
    bounds: list,
    keep: np.ndarray,
    a_fixed: np.ndarray | None = None,
    b_fixed: np.ndarray | None = None,
):
    """Minimize cost @ x subject to rows A @ x[:rows.n_cols] <= b and
    a_fixed @ x <= b_fixed, by constraint generation over the A rows.

    Each round solves on the rows `keep` plus every fixed row, then adds the
    most violated remaining rows; it stops when no row outside the working
    set is violated, so the point satisfies every row. An infeasible
    relaxation proves the full problem infeasible; an unbounded one doubles
    the working set until it is bounded or holds every row.

    Returns (the last scipy result, the final working set, HiGHS calls).
    """
    n_rows, n_cols = rows.n_rows, rows.n_cols
    width = len(cost)
    if a_fixed is None:
        a_fixed = np.zeros((0, width))
        b_fixed = np.zeros(0)
    calls = 0
    while True:
        sub, b_sub = rows.take(keep)
        if n_cols < width:
            sub = np.hstack([sub, np.zeros((len(keep), width - n_cols))])
        res = linprog(
            c=cost,
            A_ub=np.vstack([sub, a_fixed]),
            b_ub=np.concatenate([b_sub, b_fixed]),
            bounds=bounds,
            method="highs",
        )
        calls += 1
        # HiGHS status 4 includes "unbounded or infeasible" from presolve
        if res.status in (3, 4) and len(keep) < n_rows:
            keep = np.union1d(keep, _spread(n_rows, 2 * max(len(keep), 1)))
            continue
        if res.status != 0:
            return res, keep, calls
        viol = rows.residual(res.x[:n_cols])
        viol[keep] = -np.inf
        out = np.flatnonzero(viol > CUT_TOL)
        if out.size == 0:
            return res, keep, calls
        if out.size > CUT_BATCH_ROWS:
            out = out[np.argpartition(viol[out], -CUT_BATCH_ROWS)[-CUT_BATCH_ROWS:]]
        keep = np.union1d(keep, out)


def _seed_rows(problem: LPProblem) -> np.ndarray:
    """First working set: evenly spaced rows plus every side-condition row."""
    side = [i for f, start, stop in problem.families if f == "side" for i in range(start, stop)]
    return np.union1d(_spread(problem.n_rows, CUT_SEED_ROWS), np.array(side, dtype=np.intp))


def solve_lp(problem: LPProblem) -> LPSolution:
    """Solve with scipy's HiGHS backend by constraint generation over the
    rows; the returned point satisfies every row.  Numerical failures raise."""
    res, keep, calls = _cut_solve(
        -problem.objective, problem.rows, problem.bounds, _seed_rows(problem)
    )
    stats = {"rows_kept": len(keep), "highs_calls": calls}
    if res.status == 0:
        return LPSolution(status="optimal", x=res.x, objective=float(-res.fun), **stats)
    if res.status == 2:
        return LPSolution(status="infeasible", **stats)
    if res.status == 3:
        return LPSolution(status="unbounded", **stats)
    raise LPSolverError(f"LP solver failed: status {res.status}: {res.message}")


def recheck_solution(problem: LPProblem, x: np.ndarray) -> float:
    """Max constraint violation, evaluated outside the solver."""
    if problem.n_rows == 0:
        return 0.0
    return float(np.max(problem.rows.residual(x)))


@dataclass
class Scenarios:
    """Sampled state arrays per region."""

    init: np.ndarray
    unsafe: np.ndarray
    global_states: np.ndarray


def sample_scenarios(
    init_region: Region, unsafe_region: Region, global_region: Region, cfg
) -> Scenarios:
    """`cfg.samples` states from each region, drawn at seeds `cfg.seed`,
    `cfg.seed + 1` and `cfg.seed + 2`.

    The three draws write to no shared state, and their numpy loops release
    the interpreter lock, so each runs on a thread of its own. An error in
    any draw is raised here. The threads' freed temporaries go back to the
    system before the arrays are returned."""
    regions = (init_region, unsafe_region, global_region)
    with ThreadPoolExecutor(max_workers=len(regions)) as pool:
        draws = [
            pool.submit(sample_states, region, cfg.samples, cfg.seed + i)
            for i, region in enumerate(regions)
        ]
    init, unsafe, global_states = (draw.result().states for draw in draws)
    trim_heap()
    return Scenarios(init=init, unsafe=unsafe, global_states=global_states)


def _step_matrices(dynamics: Dynamics, cfg: SynthesisConfig, t0: int, count: int):
    """Matrices of `count` scheduled steps from `t0`: the composed matrix, or
    one product per sampled parameter sequence when a map is uncertain."""
    if not any(dynamics.map_at(t0 + i).n_params for i in range(count)):
        return [dynamics.composed_matrix(t0, count)]
    rng = np.random.default_rng([cfg.seed, 1009, t0, count])
    domains = [dynamics.map_at(t0 + i).param_domain for i in range(count)]
    mats = []
    for _ in range(UNCERTAINTY_SAMPLES):
        params = [tuple(rng.uniform(lo, hi) for lo, hi in d) or None for d in domains]
        mats.append(dynamics.composed_matrix(t0, count, params))
    return mats


def _image(states: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """states @ mat.T.  BLAS multiplies a single row with another kernel,
    whose last bits can differ, so one row goes through a two-row product:
    an absorbed state gets the image it would get among the sampled ones."""
    if len(states) == 1:
        return (np.vstack([states, states]) @ mat.T)[:1]
    return states @ mat.T


class _Block:
    """States and their term values: one column per term evaluated so far.

    The columns live in a buffer with spare capacity that doubles when it
    fills, so a longer template writes its new columns in place."""

    def __init__(self, states: np.ndarray):
        self.states = states
        self.n_terms = 0
        self._buf = np.empty((len(states), 0), dtype=complex)

    @property
    def values(self) -> np.ndarray:
        return self._buf[:, : self.n_terms]

    def extend(self, new: np.ndarray) -> None:
        stop = self.n_terms + new.shape[1]
        if stop > self._buf.shape[1]:
            buf = np.empty((len(self.states), max(stop, 2 * self._buf.shape[1])), dtype=complex)
            buf[:, : self.n_terms] = self.values
            self._buf = buf
        self._buf[:, self.n_terms : stop] = new
        self.n_terms = stop


class ScenarioRows:
    """Term values of every scenario row of one job.

    The sampled states are fixed for a job and the template only grows, so
    each term is evaluated once per row: a longer template adds columns and a
    counterexample adds a block of one row. A step family is the global blocks
    and their images under each parameter draw, then its own counterexamples.
    """

    def __init__(self, scenarios: Scenarios, dynamics: Dynamics, cfg: SynthesisConfig):
        self.k = cfg.k if cfg.flavor in ("k-inductive", "hybrid") else 1
        if cfg.flavor != "hybrid" and not dynamics.schedule.is_constant:
            raise LPError(f"{cfg.flavor} flavor needs a constant schedule")
        if cfg.flavor == "hybrid" and self.k % dynamics.schedule.period != 0:
            raise LPError("hybrid flavor needs the schedule period to divide k")
        self.dyn = dynamics
        self.cfg = cfg
        self.template: BarrierTemplate | None = None  # the terms evaluated so far
        self.blocks: list[_Block] = []
        gl = scenarios.global_states
        self.init, self.unsafe = [self._new(scenarios.init)], [self._new(scenarios.unsafe)]
        self.glob = [self._new(gl)]
        self.draws = []  # (matrix, image blocks of the global blocks)

        def images(t0, count):
            mats = _step_matrices(dynamics, cfg, t0, count)
            out = [(m, [self._new(_image(gl, m))]) for m in mats]
            self.draws += out
            return out

        offsets = range(self.k) if cfg.flavor == "hybrid" else [0]
        self.steps = [(images(t, 1), []) for t in offsets]  # (draws, own (before, after))
        self.kstep = None
        if cfg.flavor in ("k-inductive", "hybrid"):
            # a one-step window draws what step 0 draws: share its images
            self.kstep = (self.steps[0][0] if self.k == 1 else images(0, self.k), [])

    def _new(self, states: np.ndarray) -> _Block:
        self.blocks.append(_Block(states))
        return self.blocks[-1]

    @property
    def cells(self) -> int:
        """Term values evaluated so far; each one is evaluated once."""
        return sum(b.values.size for b in self.blocks)

    def families(self, template: BarrierTemplate):
        """(init_T, unsafe_T, global_T, step_data, kstep_data) on a prefix of
        the table's terms, or on a template extending them, evaluated first."""
        have = self.template.n_terms if self.template else 0
        nt = template.n_terms
        if self.template and template.terms[:have] != self.template.terms[:nt]:
            raise LPError("the template does not extend the evaluated terms")
        if nt > have:
            self.template = template
        for b in self.blocks:
            if b.n_terms < self.template.n_terms:
                new = self.template.evaluate_terms(b.states, b.n_terms)
                if not np.isfinite(new).all():
                    raise LPError("non-finite coefficients in the scenario rows")
                b.extend(new)

        def rows(blocks):
            parts = [b.values[:, :nt] for b in blocks]
            return parts[0] if len(parts) == 1 else np.vstack(parts)

        def family(draws, own):
            after = [b for _, blocks in draws for b in blocks] + [a for _, a in own]
            return rows(self.glob * len(draws) + [b for b, _ in own]), rows(after)

        return (
            rows(self.init),
            rows(self.unsafe),
            rows(self.glob),
            [family(*step) for step in self.steps],
            family(*self.kstep) if self.kstep else None,
        )

    def absorb(self, condition_id: str, state, params) -> None:
        """Add a refuted condition's counterexample to the rows of that
        condition; its term values are evaluated with the next families."""
        state = np.asarray(state, dtype=complex).reshape(1, -1)
        if condition_id == "init":
            self.init.append(self._new(state))
        elif condition_id.startswith("unsafe"):
            self.unsafe.append(self._new(state))
        elif condition_id.startswith("step"):
            t = int(condition_id.rsplit("-t", 1)[1]) if "-t" in condition_id else 0
            mat = self.dyn.map_at(t).matrix(params or None)
            self.steps[t][1].append((self._new(state), self._new((mat @ state[0])[None])))
        elif condition_id == "k-step":
            flat = iter(params)  # the parameters of each step in turn
            seq = [tuple(islice(flat, self.dyn.map_at(i).n_params)) or None for i in range(self.k)]
            mat = self.dyn.composed_matrix(0, self.k, seq)
            self.kstep[1].append((self._new(state), self._new((mat @ state[0])[None])))
        else:  # time-shift (or side): a global state, so a row of every image
            self.glob.append(self._new(state))
            for mat, blocks in self.draws:
                blocks.append(self._new(_image(state, mat)))


@dataclass
class _Family:
    """Rows sign * B_vec(after) - B_before_vec(before) + flavor @ x <= rhs,
    one per row of term values (`before` only for difference rows); without
    term values, one row over the flavor variables alone."""

    after: np.ndarray | None = None
    vec: int = 0
    sign: float = 1.0
    before: np.ndarray | None = None
    before_vec: int = 0
    flavor: dict[int, float] = field(default_factory=dict)  # column -> coefficient
    rhs: float = 0.0

    @property
    def n(self) -> int:
        return 1 if self.after is None else len(self.after)


def _real_view(term_vals: np.ndarray) -> np.ndarray:
    """(N, 2T) float view of complex term values: Re, Im of each term."""
    return term_vals.view(np.float64)


class ScenarioMatrix:
    """The scenario rows of one LP, kept as term values per family.

    Over variables (re, im of each coefficient vector, then the flavor
    variables), B_v at term values T is the row T.real at re_v and -T.imag
    at im_v. No matrix of every row is formed: `take` builds the rows of a
    working set, and `residual` multiplies the term values.
    """

    def __init__(self, nt: int, width: int):
        self.nt = nt
        self.n_cols = width
        self.n_rows = 0
        self.parts: list[tuple[int, _Family]] = []  # (first row, family)

    def add(self, fam: _Family) -> None:
        self.parts.append((self.n_rows, fam))
        self.n_rows += fam.n

    def _coef_block(self, term_vals: np.ndarray, vec: int, sign=1.0) -> np.ndarray:
        """Columns for sign * B_vec at the given term values."""
        block = np.zeros((term_vals.shape[0], self.n_cols))
        base = vec * 2 * self.nt
        block[:, base : base + 2 * self.nt : 2] = sign * term_vals.real
        block[:, base + 1 : base + 2 * self.nt : 2] = -sign * term_vals.imag
        return block

    def take(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A[idx], b[idx])."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_rows):
            raise IndexError("row index out of range")
        a = np.empty((len(idx), self.n_cols))
        b = np.empty(len(idx))
        for first, fam in self.parts:
            hit = (idx >= first) & (idx < first + fam.n)
            if not hit.any():
                continue
            sel = idx[hit] - first
            if fam.after is None:
                blk = np.zeros((len(sel), self.n_cols))
            else:
                blk = self._coef_block(fam.after[sel], fam.vec, fam.sign)
                if fam.before is not None:
                    blk = blk - self._coef_block(fam.before[sel], fam.before_vec)
            for col, value in fam.flavor.items():
                blk[:, col] = value
            a[hit] = blk
            b[hit] = fam.rhs
        return a, b

    def _part(self, x: np.ndarray, vec: int) -> np.ndarray:
        """Vector `vec` of x with its imaginary entries negated, so that
        _real_view(T) @ part is B_vec at T."""
        base = vec * 2 * self.nt
        part = x[base : base + 2 * self.nt].copy()
        part[1::2] *= -1.0
        return part

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A @ x - b over every row."""
        out = np.empty(self.n_rows)
        for first, fam in self.parts:
            r = out[first : first + fam.n]
            shift = sum(value * x[col] for col, value in fam.flavor.items()) - fam.rhs
            if fam.after is None:
                r.fill(shift)
                continue
            np.matmul(_real_view(fam.after), fam.sign * self._part(x, fam.vec), out=r)
            if fam.before is not None:
                r -= _real_view(fam.before) @ self._part(x, fam.before_vec)
            r += shift
        return out


class ScenarioLP:
    """Rows, objective, and scenario extrema for one template size."""

    def __init__(self, template: BarrierTemplate, rows: ScenarioRows):
        self.template = template
        self.cfg = rows.cfg
        self.flavor = rows.cfg.flavor
        self.k = rows.k
        self.n_vec = self.k if self.flavor == "hybrid" else 1
        self.nt = template.n_terms
        self.polish_calls = 0  # HiGHS calls (cut rounds) made by polish
        self.polish_rows_kept = 0
        families = rows.families(template)
        self.init_T, self.unsafe_T, self.global_T, self.step_data, self.kstep_data = families
        self.thresholds = THRESHOLDS[self.flavor]
        self.term_families = self._term_families()

    def _term_families(self) -> list[tuple[str, str, _Family]]:
        """(family name, condition kind, rows without their threshold) in
        condition order: sign * B at `after`, less B at `before` for the
        conditions on a difference."""

        def name(base, t):
            return f"{base}@{t}" if self.n_vec > 1 else base

        out = []
        for kind in self.thresholds:
            if kind == "init":
                out.append(("init", kind, _Family(after=self.init_T)))
            elif kind == "unsafe":
                out += [
                    (name("unsafe", v), kind, _Family(after=self.unsafe_T, vec=v, sign=-1.0))
                    for v in range(self.n_vec)
                ]
            elif kind == "step":
                out += [
                    (name("step", t), kind, _Family(after=after, vec=t, before=before, before_vec=t))
                    for t, (before, after) in enumerate(self.step_data)
                ]
            elif kind == "time-shift":  # B_{t+1} - B_t on the global states
                gl = self.global_T
                out += [
                    (f"shift@{t}", kind, _Family(after=gl, vec=(t + 1) % self.k, before=gl, before_vec=t))
                    for t in range(self.k)
                ]
            else:  # k-step
                before, after = self.kstep_data
                out.append(("k-step", kind, _Family(after=after, before=before)))
        return out

    # ----- variable layout ----------------------------------------------

    def var_layout(self):
        names = []
        for v in range(self.n_vec):
            for i in range(self.nt):
                names.append(f"re[{v}][{i}]")
                names.append(f"im[{v}][{i}]")
        self.flavor_vars: dict[str, int] = {}
        for fv in self._flavor_var_names():
            self.flavor_vars[fv] = len(names)
            names.append(fv)
        return names

    def _flavor_var_names(self):
        """The thresholds the job does not fix, in condition order."""
        fixed = self.cfg.fixed_constants()
        return [c for c in self.thresholds.values() if c is not None and c not in fixed]

    # ----- LP assembly ----------------------------------------------------

    def build(self) -> LPProblem:
        cfg = self.cfg
        names = self.var_layout()
        width = len(names)
        fv = self.flavor_vars
        rows = ScenarioMatrix(self.nt, width)
        families: list[tuple[str, int, int]] = []

        def family(name, fam):
            start = rows.n_rows
            rows.add(fam)
            families.append((name, start, rows.n_rows))

        # sign * B <= sign * threshold: a column of the LP or a fixed bound
        fixed = cfg.fixed_constants()
        for name, kind, fam in self.term_families:
            const = self.thresholds[kind]
            if const in fv:
                fam = replace(fam, flavor={fv[const]: -fam.sign})
            elif const is not None:
                fam = replace(fam, rhs=fam.sign * fixed[const])
            family(name, fam)

        # side-condition row and objective
        objective = np.zeros(width)
        if self.flavor == "invariant":
            objective[fv["gamma"]] = 1.0
        elif self.flavor == "finite-horizon":
            t_hor = int(cfg.horizon)
            objective[fv["gamma"]] = -1.0
            objective[fv["lam"]] = 1.0
            objective[fv["delta"]] = -float(t_hor)
            side = {fv["gamma"]: 1.0, fv["lam"]: -1.0, fv["delta"]: float(t_hor)}
            family("side", _Family(flavor=side, rhs=-MARGIN))
        else:  # d > k * (eps [+ gamma]) + margin
            objective[fv["d"]] = 1.0
            side = {fv["d"]: -1.0}
            bound = -MARGIN
            for name in ("eps", "gamma") if self.flavor == "hybrid" else ("eps",):
                if name in fv:
                    side[fv[name]] = float(self.k)
                    objective[fv[name]] = -float(self.k)
                else:
                    bound -= self.k * fixed[name]
            family("side", _Family(flavor=side, rhs=bound))

        bounds: list[tuple[float | None, float | None]] = []
        for v in range(self.n_vec):
            bounds += [(-COEFF_BOUND, COEFF_BOUND)] * (2 * self.nt)
        for fname in self._flavor_var_names():
            if fname in ("delta", "eps", "d"):
                bounds.append((0.0, COEFF_BOUND))
            elif fname == "gamma" and self.flavor == "hybrid":
                bounds.append((0.0, COEFF_BOUND))
            else:
                bounds.append((-COEFF_BOUND, COEFF_BOUND))

        return LPProblem(rows=rows, bounds=bounds, objective=objective, families=families)

    # ----- candidate extraction -------------------------------------------

    def coeff_vectors_from(self, x: np.ndarray):
        out = []
        for v in range(self.n_vec):
            base = v * 2 * self.nt
            re = x[base : base + 2 * self.nt : 2]
            im = x[base + 1 : base + 2 * self.nt : 2]
            out.append(re + 1j * im)
        return out

    def _extrema(self, vectors) -> dict[str, float]:
        """Per condition kind, the scenario maximum of sign * B over its rows."""
        ext: dict[str, float] = {}
        for _, kind, fam in self.term_families:
            vals = fam.sign * real_combination(vectors[fam.vec], fam.after)
            if fam.before is not None:
                vals = vals - real_combination(vectors[fam.before_vec], fam.before)
            ext[kind] = max(ext.get(kind, -math.inf), float(np.max(vals)))
        return ext

    def polish(self, problem: LPProblem, opt_value: float) -> np.ndarray:
        """Re-solve with the separation pinned at half the optimum and an L1
        objective over coefficients, then zero trailing terms greedily.

        The scenario rows are generated as in `solve_lp`; the gap, |coef|
        and coefficient-difference rows stay in every solve."""
        width = problem.n_vars
        n_coef = self.n_vec * 2 * self.nt
        gap = max(MARGIN, 0.5 * opt_value)
        # |coef| helper variables; for hybrid families also penalize the
        # coefficient differences between consecutive vectors so the polish
        # prefers time-uniform certificates
        n_diff = (self.n_vec - 1) * 2 * self.nt if self.n_vec > 1 else 0
        gap_row = np.concatenate([-problem.objective, np.zeros(n_coef + n_diff)])
        eye = np.eye(width)[:n_coef]
        a_abs = np.vstack([eye, -eye])
        blocks = [
            gap_row.reshape(1, -1),
            np.hstack(
                [a_abs, np.vstack([-np.eye(n_coef)] * 2), np.zeros((2 * n_coef, n_diff))]
            ),
        ]
        b_fixed_parts = [np.array([-gap]), np.zeros(2 * n_coef)]
        if n_diff:
            d_rows = np.zeros((n_diff, width))
            for v in range(self.n_vec - 1):
                for i in range(2 * self.nt):
                    r = v * 2 * self.nt + i
                    d_rows[r, (v + 1) * 2 * self.nt + i] = 1.0
                    d_rows[r, v * 2 * self.nt + i] = -1.0
            d_aux = -np.eye(n_diff)
            blocks.append(
                np.hstack([d_rows, np.zeros((n_diff, n_coef)), d_aux])
            )
            blocks.append(
                np.hstack([-d_rows, np.zeros((n_diff, n_coef)), d_aux])
            )
            b_fixed_parts += [np.zeros(n_diff), np.zeros(n_diff)]
        a_fixed = np.vstack(blocks)
        b_fixed = np.concatenate(b_fixed_parts)
        bounds = list(problem.bounds) + [(0.0, None)] * (n_coef + n_diff)
        if self.flavor == "finite-horizon":
            gi = self.flavor_vars["gamma"]
            bounds[gi] = (0.0, 0.0)  # canonical level: initial states at or below 0
        objective = np.zeros(width + n_coef + n_diff)
        objective[width : width + n_coef] = -1.0  # maximize -sum|coef|
        objective[width + n_coef :] = -10.0  # and strongly prefer uniform families

        def solve(keep):
            res, keep, calls = _cut_solve(
                -objective, problem.rows, bounds, keep, a_fixed, b_fixed
            )
            self.polish_calls += calls
            self.polish_rows_kept = len(keep)
            return res, keep

        res, keep = solve(_seed_rows(problem))
        if res.status != 0:
            return None
        x = res.x[:width]
        # trailing-term elimination re-solves once per term; the gate stays on
        # the full row count it had when every solve saw every row, so the
        # same sizes are polished and the same candidates come out
        if self.nt <= 24 and problem.n_rows <= 40000:
            for i in range(self.nt - 1, 0, -1):
                saved = [bounds[v * 2 * self.nt + 2 * i] for v in range(self.n_vec)]
                if all(
                    abs(x[v * 2 * self.nt + 2 * i]) < 1e-12
                    and abs(x[v * 2 * self.nt + 2 * i + 1]) < 1e-12
                    for v in range(self.n_vec)
                ):
                    continue
                for v in range(self.n_vec):
                    base = v * 2 * self.nt + 2 * i
                    bounds[base] = (0.0, 0.0)
                    bounds[base + 1] = (0.0, 0.0)
                res2, keep = solve(keep)
                if res2.status == 0:
                    x = res2.x[:width]
                else:
                    for v, sv in zip(range(self.n_vec), saved):
                        base = v * 2 * self.nt + 2 * i
                        bounds[base] = sv
                        bounds[base + 1] = sv
        return x

    def finalize(self, x: np.ndarray) -> Certificate | None:
        """Round coefficients, recompute constants from scenario extrema with
        directional rounding, and keep a slack buffer inside the optimum."""
        raw_vectors = self.coeff_vectors_from(x)
        for dec in (6, 7, 8, 9, 10, 11, 12):
            vectors = [self._round_vec(v, dec) for v in raw_vectors]
            scale = max(max(np.max(np.abs(v)) for v in vectors), 1.0)
            vectors = [np.where(np.abs(v) < 1e-9 * scale, 0.0, v) for v in vectors]
            # prefer the sparsified variant: stray near-zero coefficients
            # survive large polish problems and only complicate the queries
            sparse = [np.where(np.abs(v) < 1e-3 * scale, 0.0, v) for v in vectors]
            for cand in (sparse, vectors):
                cert = self._finalize_at(cand, dec)
                if cert is not None:
                    return cert
        cert = self._finalize_at(raw_vectors, None)
        return cert

    def _finalize_at(self, vectors, dec) -> Certificate | None:
        cfg = self.cfg
        rho = MARGIN

        def up(v):
            return math.ceil(v * 10 ** dec) / 10 ** dec if dec is not None else v

        def down(v):
            return math.floor(v * 10 ** dec) / 10 ** dec if dec is not None else v

        ext = self._extrema(vectors)
        flavor = self.flavor
        k = self.k
        # sampled rows hold up to solver/float tolerance; the SMT gate is the
        # authority on the real conditions
        scale = max(max(float(np.max(np.abs(v))) for v in vectors), 1.0)
        dust = 1e-9 * scale
        if flavor == "finite-horizon":
            t_hor = int(cfg.horizon)
            gamma = up(ext["init"])
            lam = down(-ext["unsafe"])
            delta = up(max(0.0, ext["step"]))
            s = lam - gamma - delta * t_hor - rho
            if s < 0:
                return None
            gamma = up(gamma + s / 4.0)
            lam = down(lam - s / 4.0)
            delta = up(delta + s / (6.0 * t_hor))
            constants = {"gamma": gamma, "lam": lam, "delta": delta, "T": t_hor}
        elif flavor == "invariant":
            shift = max(0.0, ext["init"])
            if ext["step"] > dust:
                return None
            vectors = self._shifted(vectors, up(shift))
            gamma_raw = float(
                np.min(real_combination(vectors[0], self.unsafe_T))
            )
            gamma = down(max(rho, gamma_raw / 2.0))
            if gamma < rho or gamma_raw < rho:
                return None
            constants = {"gamma": gamma}
        else:
            fixed = cfg.fixed_constants()
            eps, gam = fixed.get("eps"), fixed.get("gamma")
            if eps is None:
                eps = up(max(0.0, ext["step"]))
            if flavor == "hybrid" and gam is None:
                gam = up(max(0.0, ext["time-shift"]))
            # rounding can push the fixed-threshold rows marginally over;
            # shrink the whole family, which preserves every condition
            # with a zero or scaled threshold
            beta = 1.0
            if ext["step"] > eps and ext["step"] > 0:
                beta = min(beta, eps / ext["step"])
            if flavor == "hybrid" and ext["time-shift"] > gam and ext["time-shift"] > 0:
                beta = min(beta, gam / ext["time-shift"])
            if beta < 1.0:
                vectors = [self._round_vec(v * (0.999 * beta), dec) for v in vectors]
                ext = self._extrema(vectors)
            if ext["step"] > eps + dust:
                return None
            if flavor == "hybrid" and ext["time-shift"] > gam + dust:
                return None
            if ext["k-step"] > dust:
                return None
            shift = max(0.0, ext["init"])
            vectors = self._shifted(vectors, up(shift))
            d_raw = min(
                float(np.min(real_combination(vectors[v], self.unsafe_T)))
                for v in range(self.n_vec)
            )
            need = k * eps + (k * gam if flavor == "hybrid" else 0.0)
            s = d_raw - need - rho
            if s < 0:
                return None
            d = down(d_raw - s / 2.0)
            if d - need < rho * 0.999:
                return None
            constants = {"d": d, "eps": eps, "k": k}
            if flavor == "hybrid":
                constants["gamma"] = gam
        try:
            cert = Certificate(
                template=self.template,
                coeff_vectors=tuple(vectors),
                flavor=flavor,
                constants=constants,
                decimals=dec,
            )
        except CertificateError:
            return None
        if self.row_violation(cert) > 1e-6:
            return None
        return cert

    @staticmethod
    def _round_vec(v: np.ndarray, dec: int | None) -> np.ndarray:
        if dec is None:
            return v
        q = 10 ** dec
        return np.round(v.real * q) / q + 1j * (np.round(v.imag * q) / q)

    def _shifted(self, vectors, amount):
        """Subtract a constant from every vector (constant term is index 0)."""
        if not amount:
            return vectors
        out = []
        for v in vectors:
            w = v.copy()
            w[0] = w[0] - amount
            out.append(w)
        return out

    def row_violation(self, cert: Certificate) -> float:
        """Largest violated margin of the sampled conditions by the final
        certificate (independent re-check of the rounded candidate)."""
        ext = self._extrema(list(cert.coeff_vectors))
        c = cert.constants
        sign = {kind: fam.sign for _, kind, fam in self.term_families}
        worst = max(
            ext[kind] - (sign[kind] * c[name] if name else 0.0)
            for kind, name in self.thresholds.items()
        )
        if cert.flavor == "finite-horizon":
            worst = max(worst, c["gamma"] + c["delta"] * c["T"] + MARGIN * 0.5 - c["lam"])
        return worst


def build_lp(
    template: BarrierTemplate,
    dynamics: Dynamics,
    cfg: SynthesisConfig,
    scenarios: Scenarios,
) -> LPProblem:
    """Assemble the scenario LP for the configured flavor."""
    return ScenarioLP(template, ScenarioRows(scenarios, dynamics, cfg)).build()


def extract_certificate(
    slp: ScenarioLP, problem: LPProblem, solution: LPSolution
) -> Certificate:
    """Polish and round an optimal LP point into a certificate."""
    if solution.status != "optimal":
        raise NoCandidateError("no candidate at this template size")
    if not solution.objective >= MARGIN:  # a NaN objective included
        raise NoCandidateError(
            f"no candidate at this template size (objective {solution.objective:.3g})"
        )
    x = slp.polish(problem, solution.objective)
    if x is None:
        x = solution.x
    cert = slp.finalize(x)
    if cert is None:
        raise NoCandidateError("candidate did not survive rounding re-checks")
    return cert


@dataclass
class SynthesisResult:
    status: str  # solved | unsolved | unknown
    certificate: Certificate | None
    verification: VerificationReport | None
    terms_used: int
    lp_time: float
    smt_time: float
    rejections: list


def synthesis_loop(
    dynamics: Dynamics,
    init_region: Region,
    unsafe_region: Region,
    global_region: Region,
    cfg: SynthesisConfig,
    solver_command: str = BUILTIN_COMMAND,
    workdir: str | Path = "runs",
    timeout_s: float = 300.0,
    jobs: int = 1,
    scenarios: Scenarios | None = None,
) -> SynthesisResult:
    """Grow the template term by term; candidates must pass the SMT gate.

    A refuted candidate feeds its counterexample back into the scenario rows
    for up to `resample_rounds` re-solves before the template grows. The
    verdict taxonomy: solved means found and SMT-verified; unknown means a
    candidate could not be adjudicated (timeout or out-of-scope query), and
    the loop stops at the first one; unsolved means every size was exhausted
    without an accepted candidate.
    """
    workdir = Path(workdir)
    t_lp = 0.0
    t_smt = 0.0
    start = time.perf_counter()
    if scenarios is None:
        scenarios = sample_scenarios(init_region, unsafe_region, global_region, cfg)
    rows = ScenarioRows(scenarios, dynamics, cfg)
    t_lp += time.perf_counter() - start
    full_count = math.comb(2 * dynamics.dim + cfg.degree, cfg.degree)
    budget = cfg.max_terms if cfg.max_terms else DEFAULT_TERM_BUDGET
    budget = min(budget, full_count)
    template_all = full_template(dynamics.dim, cfg.degree, budget)
    max_terms = template_all.n_terms
    rejections: list = []
    for size in range(1, max_terms + 1):
        template = template_all.prefix(size)
        for round_idx in range(cfg.resample_rounds + 1):
            t0 = time.perf_counter()
            cells = rows.cells
            slp = ScenarioLP(template, rows)
            problem = slp.build()
            solution = solve_lp(problem)
            try:
                cert = extract_certificate(slp, problem, solution)
            except NoCandidateError:
                cert = None
            t_lp += time.perf_counter() - t0
            log.info(
                "terms %d round %d: %d term values evaluated; %d LP rows; solve kept %d rows"
                " over %d HiGHS calls; polish kept %d rows over %d HiGHS calls",
                size,
                round_idx,
                rows.cells - cells,
                problem.n_rows,
                solution.rows_kept,
                solution.highs_calls,
                slp.polish_rows_kept,
                slp.polish_calls,
            )
            if cert is None:
                break  # grow the template
            t1 = time.perf_counter()
            report, queries = verify_certificate(
                cert,
                init_region,
                unsafe_region,
                global_region,
                dynamics,
                command=solver_command,
                workdir=workdir / f"terms{size:02d}-round{round_idx}",
                timeout_s=timeout_s,
                jobs=jobs,
            )
            t_smt += time.perf_counter() - t1
            if report.overall != "refuted":
                return SynthesisResult(
                    status="solved" if report.overall == "verified" else "unknown",
                    certificate=cert,
                    verification=report,
                    terms_used=size,
                    lp_time=t_lp,
                    smt_time=t_smt,
                    rejections=rejections,
                )
            ref = report.refutation
            query = next(q for q in queries if q.condition_id == ref.condition_id)
            state = model_to_state(query, ref.model)
            params = model_params(query, ref.model)
            rejections.append(
                {
                    "terms": size,
                    "round": round_idx,
                    "condition": ref.condition_id,
                    "state": [[float(a.real), float(a.imag)] for a in state],
                    "params": list(params),
                }
            )
            log.info(
                "candidate rejected at %d terms (round %d): %s",
                size,
                round_idx,
                ref.condition_id,
            )
            rows.absorb(ref.condition_id, state, params)
    return SynthesisResult(
        status="unsolved",
        certificate=None,
        verification=None,
        terms_used=max_terms,
        lp_time=t_lp,
        smt_time=t_smt,
        rejections=rejections,
    )

