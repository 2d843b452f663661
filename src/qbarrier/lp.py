"""Scenario linear programs for certificate synthesis, and the search loop.

For a chosen flavor the sampled conditions become linear rows over the flavor
constants plus the real and imaginary parts of the template coefficients:
one row part per entry of `templates.state_conditions` and block of states,
named by its condition id, over the entry's region or the images of the
global states under its step window. The objective maximizes the flavor's
separation slack. Extraction polishes
the raw optimum (canonical level, small L1, trailing terms zeroed), rounds
coefficients to a decimal grid, recomputes constants directly from the
scenario extrema with directional rounding, and keeps part of the separation
slack as a buffer so that sampling noise near region boundaries does not
immediately refute the candidate.

The loop follows the incremental recipe: grow the term list one monomial at
a time, solve the scenario LP, and hand positive candidates to the SMT gate;
refutation models are fed back into the scenario rows (counterexample-guided
rounds) before the template grows. A job's scenario LP only appends: a new
term's columns follow the earlier columns, and a counterexample's rows
follow the sampled rows. One live HiGHS model carries the LP across every
size and round, holding a prefix of it: a new term adds its columns, and the
rows it holds and its basis are kept.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
    side_conditions,
    side_value,
    state_conditions,
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
        if self.seed < 0:
            raise LPError(f"seed must be >= 0, got {self.seed}")
        if self.max_terms is not None and self.max_terms < 1:
            raise LPError("max-terms must be >= 1")
        if self.resample_rounds < 0:
            raise LPError("resample-rounds must be >= 0")
        if self.flavor == "finite-horizon" and (self.horizon or 0) < 1:
            raise LPError("finite-horizon flavor needs a horizon >= 1")
        for key, value in (("epsilon", self.eps), ("gamma", self.gamma)):
            if value != "free" and not math.isfinite(value):
                raise LPError(f"{key} must be finite or free, got {value}")
        self.side_bound()

    def fixed_constants(self) -> dict[str, float]:
        """The thresholds this job fixes: epsilon is the step threshold eps
        and gamma the time-shift threshold, where the flavor has them."""
        values = {"eps": self.eps, "gamma": self.gamma}
        return {
            name: 0.0 + float(values[name])
            for kind, name in (("step", "eps"), ("time-shift", "gamma"))
            if THRESHOLDS[self.flavor].get(kind) == name and values[name] != "free"
        }

    def separation(self) -> dict[str, int]:
        """The linear form of the side condition that synthesis maximizes."""
        return side_conditions(self.flavor, self.k, self.horizon)[-1][1]

    def side_bound(self) -> float:
        """Bound of the side row -separation <= bound: -MARGIN plus the
        separation's terms in the constants this job fixes."""
        fixed = self.fixed_constants()
        bound = -MARGIN
        for name, coef in self.separation().items():
            if name in fixed:
                bound += coef * fixed[name]
                if not math.isfinite(bound):
                    key = "epsilon" if name == "eps" else name
                    raise LPError(f"{key} = {fixed[name]:g} overflows the side condition at k = {self.k}")
        return bound


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
    rows: DenseRows | ScenarioLP
    bounds: list[tuple[float | None, float | None]]
    objective: np.ndarray  # maximized
    families: list[tuple[str, int, int]]  # (family, start row, stop row)

    @property
    def n_rows(self) -> int:
        return self.rows.n_rows

    @property
    def n_vars(self) -> int:
        return self.rows.n_cols


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    rows_kept: int = 0  # rows in the final working set
    highs_calls: int = 0  # cut rounds
    simplex_iterations: int = 0  # summed over the cut rounds


# ----- the live HiGHS model -------------------------------------------------
# Every call into HiGHS is in this section. The bindings are scipy's private
# `scipy.optimize._highspy._core._Highs`, loaded when the first model is made
# from the extension's own file: importing the scipy.optimize package around
# it costs about 0.5 s and 40-50 MB that no LP uses, and the paths that only
# verify certificates never solve an LP. Models are built on the main thread
# only (`synthesis_loop`, the angle LP and polish), so the loader is never
# raced.
_HIGHS_CORE = "scipy.optimize._highspy._core"


@functools.cache
def _highs_class():
    """scipy's `_Highs` class. A module already in `sys.modules` (when
    scipy.optimize was imported first) is reused. Otherwise the extension
    goes into `sys.modules` under its full name before it runs, so a later
    `import scipy.optimize` reuses it and pybind11 registers the class once.

    After such a direct load, the import forms `from scipy.optimize._highspy
    import _core` and `import scipy.optimize._highspy._core` give this
    module, but the attribute chain `scipy.optimize._highspy._core` raises
    AttributeError: the import system binds a submodule to its package only
    when it loads the submodule itself, and this one was in `sys.modules`
    first. SciPy itself uses the import forms alone."""
    module = sys.modules.get(_HIGHS_CORE)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            _HIGHS_CORE,
            [os.path.join(p, "optimize", "_highspy") for p in scipy.submodule_search_locations],
        )
        if spec is None:
            raise LPSolverError(f"no HiGHS bindings {_HIGHS_CORE}: qbarrier needs scipy>=1.17")
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_HIGHS_CORE]
            raise
    return module._Highs


# HiGHS model status -> its outcome: optimal, infeasible, unbounded,
# "limit" (a time or iteration limit reached), or "unresolved": unbounded or
# infeasible, or a failure; any other status raises
_OUTCOMES = {
    "kNotset": "unresolved",
    "kLoadError": "unresolved",
    "kModelError": "infeasible",
    "kPresolveError": "unresolved",
    "kSolveError": "unresolved",
    "kPostsolveError": "unresolved",
    "kModelEmpty": "unresolved",
    "kObjectiveBound": "unresolved",
    "kObjectiveTarget": "unresolved",
    "kOptimal": "optimal",
    "kTimeLimit": "limit",
    "kIterationLimit": "limit",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
    "kUnboundedOrInfeasible": "unresolved",
}


@dataclass
class HighsResult:
    status: str  # an outcome of _OUTCOMES
    message: str
    x: np.ndarray | None = None  # the optimal point, only when optimal
    fun: float | None = None  # the optimal objective, only when optimal


def _bound_arrays(bounds) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds, None read as an infinite bound."""
    lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds], dtype=float)
    hi = np.array([np.inf if b[1] is None else b[1] for b in bounds], dtype=float)
    return lo, hi


class HighsModel:
    """One HiGHS model: minimize cost @ x over box bounds and rows a @ x <= b.

    Rows and columns are appended and column bounds changed in place, so
    each run restarts from the basis of the last. `held` is the working set
    of scenario rows that `_cut_solve` has appended, in the model's row
    order; a job's model holds a prefix of its scenario LP, whose rows and
    columns keep their positions as it grows. `calls` and `iterations`
    count the runs and their simplex iterations."""

    def __init__(self, cost=(), bounds=(), a_fixed=None, b_fixed=None):
        self._highs = _highs_class()()
        self._check(self._highs.setOptionValue("output_flag", False), "set its options")
        self.n_cols = 0
        self.held = np.zeros(0, dtype=np.intp)
        self.calls = 0
        self.iterations = 0
        self.add_cols(cost, bounds, np.zeros((0, len(cost))))
        if a_fixed is not None:
            self.add_rows(a_fixed, b_fixed)

    @staticmethod
    def _check(status, what: str) -> None:
        if status.name == "kError":
            raise LPSolverError(f"HiGHS could not {what}")

    def add_cols(self, cost, bounds, a: np.ndarray) -> None:
        """Append columns with these costs and bounds; column j has the
        entries a[:, j] on the model's rows."""
        lo, hi = _bound_arrays(bounds)
        c, r = np.nonzero(a.T)
        starts = np.searchsorted(c, np.arange(a.shape[1])).astype(np.int32)
        self._check(
            self._highs.addCols(
                a.shape[1], np.asarray(cost, dtype=float), lo, hi,
                len(r), starts, r.astype(np.int32), a[r, c],
            ),
            "add the columns",
        )
        self.n_cols += a.shape[1]

    def add_rows(self, a: np.ndarray, b: np.ndarray) -> None:
        """Append the rows a @ x <= b; `a` may have fewer columns than the
        model, the rest being zero. Only the nonzero entries are passed."""
        if len(a) == 0:
            return
        r, c = np.nonzero(a)
        starts = np.searchsorted(r, np.arange(len(a))).astype(np.int32)
        self._check(
            self._highs.addRows(
                len(a), np.full(len(a), -np.inf), np.asarray(b, dtype=float),
                len(r), starts, c.astype(np.int32), a[r, c],
            ),
            "add rows",
        )

    def set_bounds(self, cols, bounds) -> None:
        """Replace the bounds of columns `cols`."""
        lo, hi = _bound_arrays(bounds)
        self._check(
            self._highs.changeColsBounds(len(cols), np.asarray(cols, dtype=np.int32), lo, hi),
            "change column bounds",
        )

    def run(self) -> HighsResult:
        self._highs.run()  # a failed run shows in the model status
        status = self._highs.getModelStatus()
        outcome = _OUTCOMES.get(status.name)
        if outcome is None:
            raise LPSolverError(f"HiGHS ended with an unknown model status: {status.name}")
        info = self._highs.getInfo()
        self.calls += 1
        self.iterations += info.simplex_iteration_count
        message = self._highs.modelStatusToString(status)
        if outcome != "optimal":
            return HighsResult(outcome, message)
        x = np.array(self._highs.getSolution().col_value)
        return HighsResult(outcome, message, x=x, fun=info.objective_function_value)


def linprog(model: HighsModel, *, A_ub: np.ndarray, b_ub: np.ndarray) -> HighsResult:
    """Append the rows A_ub @ x <= b_ub to `model` and run HiGHS from its
    last basis: every HiGHS run goes through here."""
    model.add_rows(A_ub, b_ub)
    return model.run()


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


def _cut_solve(model: HighsModel, rows: DenseRows | ScenarioLP, keep: np.ndarray):
    """Minimize the model's cost subject to its rows and the rows
    A @ x[:rows.n_cols] <= b, by constraint generation over the A rows.

    Each round appends to the model the rows of `keep` it does not hold yet
    and re-solves from the last basis, then adds the most violated remaining
    rows to `keep`; it stops when no row outside the working set is
    violated, so the point satisfies every row. An infeasible relaxation
    proves the full problem infeasible; an unbounded or unresolved one
    doubles the working set until it is neither or holds every row.

    Returns (the last HiGHS result, the final working set).
    """
    n_rows, n_cols = rows.n_rows, rows.n_cols
    while True:
        new = np.setdiff1d(keep, model.held, assume_unique=True)
        model.held = np.concatenate([model.held, new])
        a_new, b_new = rows.take(new)
        res = linprog(model, A_ub=a_new, b_ub=b_new)
        if res.status in ("unbounded", "unresolved") and len(keep) < n_rows:
            keep = np.union1d(keep, _spread(n_rows, 2 * max(len(keep), 1)))
            continue
        if res.status != "optimal":
            return res, keep
        viol = rows.residual(res.x[:n_cols])
        viol[keep] = -np.inf
        out = np.flatnonzero(viol > CUT_TOL)
        if out.size == 0:
            return res, keep
        if out.size > CUT_BATCH_ROWS:
            out = out[np.argpartition(viol[out], -CUT_BATCH_ROWS)[-CUT_BATCH_ROWS:]]
        keep = np.union1d(keep, out)


def _seed_rows(problem: LPProblem) -> np.ndarray:
    """First working set: evenly spaced rows plus every side-condition row."""
    side = [i for f, start, stop in problem.families if f == "side" for i in range(start, stop)]
    return np.union1d(_spread(problem.n_rows, CUT_SEED_ROWS), np.array(side, dtype=np.intp))


def solve_lp(problem: LPProblem, model: HighsModel | None = None) -> LPSolution:
    """Solve by constraint generation over the rows; the returned point
    satisfies every row.  Numerical failures raise.

    The model holds a prefix of the problem's rows and columns: a job's
    model (`synthesis_loop`) holds its last LP, which this one extends, and
    without a model the solve starts from an empty one. The model gains the
    columns it lacks, with their entries on the rows it holds, and starts
    from those rows, or from `_seed_rows` when it holds none. The counts are
    this solve's own."""
    if model is None:
        model = HighsModel()
    if model.n_cols > problem.n_vars:
        raise LPError("a job's scenario LP only gains terms and rows")
    new = np.arange(model.n_cols, problem.n_vars)
    if new.size:
        a, _ = problem.rows.take(model.held)
        model.add_cols(-problem.objective[new], [problem.bounds[i] for i in new], a[:, new])
    keep = model.held if len(model.held) else _seed_rows(problem)
    calls, iterations = model.calls, model.iterations
    res, keep = _cut_solve(model, problem.rows, keep)
    stats = {
        "rows_kept": len(keep),
        "highs_calls": model.calls - calls,
        "simplex_iterations": model.iterations - iterations,
    }
    if res.status == "optimal":
        return LPSolution(status="optimal", x=res.x, objective=float(-res.fun), **stats)
    if res.status in ("infeasible", "unbounded"):
        return LPSolution(status=res.status, **stats)
    raise LPSolverError(f"LP solver failed: {res.status}: {res.message}")


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


def term_budget(dim: int, cfg: SynthesisConfig) -> int:
    """Most template terms a job tries: its max-terms, else
    DEFAULT_TERM_BUDGET, and never more than the full count of terms."""
    return min(cfg.max_terms or DEFAULT_TERM_BUDGET, math.comb(2 * dim + cfg.degree, cfg.degree))


class _Block:
    """States and their term values, stored term-major: row t of the buffer
    holds term t at every state, so a new term writes one contiguous row.

    The buffer has a row for every term the job may try, and no value is
    ever copied. Rows not written yet are never touched: a large buffer has
    a mapping of its own, whose untouched pages take no memory."""

    def __init__(self, states: np.ndarray, capacity: int):
        self.states = states
        self.n_terms = 0
        self._buf = np.empty((capacity, len(states)), dtype=complex)

    @property
    def terms(self) -> np.ndarray:
        """(n_terms, N): each term's values at the states."""
        return self._buf[: self.n_terms]

    @property
    def values(self) -> np.ndarray:
        """(N, n_terms): the same values, one row per state."""
        return self.terms.T

    def extend(self, new: np.ndarray) -> None:
        """Store the values (N, m) of the next m terms."""
        stop = self.n_terms + new.shape[1]
        self._buf[self.n_terms : stop] = new.T
        self.n_terms = stop


@dataclass
class _Part:
    """Rows sign * B_vec(after) - B_before_vec(before) + flavor @ x <= rhs of
    one condition, one per state of the `after` block (the `before` block
    pairs with it state by state, and only difference rows have one);
    without blocks, the one side row over the flavor variables."""

    name: str  # the condition id, or "side"
    kind: str
    after: _Block | None = None
    before: _Block | None = None
    vec: int = 0
    sign: float = 1.0
    before_vec: int = 0
    flavor: dict[int, float] = field(default_factory=dict)  # column -> coefficient
    rhs: float = 0.0

    @property
    def n(self) -> int:
        return 1 if self.after is None else len(self.after.states)


class ScenarioRows:
    """The scenario rows of one job, as parts that are only ever appended.

    The sampled states are fixed for a job and the template only grows, so
    each term is evaluated once per row: a longer template adds a row of
    values to each block. A part holds the rows of one condition at one
    block of states: a block of its region or, over a step window, that
    block's image under one of the window's parameter draws. The sampled
    parts come in condition order, then the side row; a counterexample
    appends its parts after them. The flavor variables are the first
    columns, so a part's threshold column or right-hand side is fixed for
    the job.
    """

    def __init__(self, scenarios: Scenarios, dynamics: Dynamics, cfg: SynthesisConfig):
        self.k = cfg.k if cfg.flavor in ("k-inductive", "hybrid") else 1
        if cfg.flavor != "hybrid" and not dynamics.schedule.is_constant:
            raise LPError(f"{cfg.flavor} flavor needs a constant schedule")
        if cfg.flavor == "hybrid" and self.k % dynamics.schedule.period != 0:
            raise LPError("hybrid flavor needs the schedule period to divide k")
        self.dyn = dynamics
        self.cfg = cfg
        self.capacity = term_budget(dynamics.dim, cfg)
        self.conditions = {c.condition_id: c for c in state_conditions(cfg.flavor, self.k)}
        # the thresholds the job does not fix, in condition order: column j
        fixed = cfg.fixed_constants()
        names = [c for c in THRESHOLDS[cfg.flavor].values() if c is not None and c not in fixed]
        self.flavor_vars = {name: j for j, name in enumerate(names)}
        self.template: BarrierTemplate | None = None  # the terms evaluated so far
        self.blocks: list[_Block] = []
        self.parts: list[_Part] = []
        self.regions = {
            "init": [self._new(scenarios.init)],
            "unsafe": [self._new(scenarios.unsafe)],
            "global": [self._new(scenarios.global_states)],
        }
        self.draws = {}  # window -> its step matrix at each parameter draw
        for c in self.conditions.values():
            if c.window is not None and c.window not in self.draws:
                self.draws[c.window] = _step_matrices(dynamics, cfg, *c.window)
        self._append({name: blocks[0] for name, blocks in self.regions.items()})
        form = cfg.separation()
        if len(form) > 1:
            # a separation of one constant is that constant's lower bound,
            # which the acceptance test objective >= MARGIN enforces, so only
            # a sum gets the row separation >= MARGIN
            side = {self.flavor_vars[n]: -float(coef) for n, coef in form.items() if n in self.flavor_vars}
            self.parts.append(_Part("side", "side", flavor=side, rhs=cfg.side_bound()))

    def _new(self, states: np.ndarray) -> _Block:
        self.blocks.append(_Block(states, self.capacity))
        return self.blocks[-1]

    def _part(self, c, after: _Block, before: _Block) -> None:
        """Append the part of condition `c` at these blocks: sign * B <=
        sign * threshold, the threshold a column of the LP or a fixed bound."""
        part = _Part(
            c.condition_id, c.kind, after, before if c.before is not None else None,
            vec=c.vec, sign=float(c.sign), before_vec=c.before or 0,
        )
        const = THRESHOLDS[self.cfg.flavor][c.kind]
        if const in self.flavor_vars:
            part.flavor = {self.flavor_vars[const]: -part.sign}
        elif const is not None:
            part.rhs = part.sign * self.cfg.fixed_constants()[const]
        self.parts.append(part)

    def _append(self, blocks: dict[str, _Block]) -> None:
        """Append the part of every condition over a region of `blocks` at
        that region's block, in condition order; over a step window, one
        part per draw, at the block's image under the draw's matrix."""
        images = {}  # window -> image blocks; every window is over the global states
        for c in self.conditions.values():
            block = blocks.get(c.region)
            if block is None:
                continue
            if c.window is None:
                self._part(c, block, block)
                continue
            if c.window not in images:
                images[c.window] = [self._new(_image(block.states, m)) for m in self.draws[c.window]]
            for image in images[c.window]:
                self._part(c, image, block)

    @property
    def cells(self) -> int:
        """Term values evaluated so far; each one is evaluated once."""
        return sum(b.values.size for b in self.blocks)

    def evaluate(self, template: BarrierTemplate) -> None:
        """Evaluate every block on the template's terms. The template must
        extend the terms evaluated so far, or be a prefix of them."""
        have = self.template.n_terms if self.template else 0
        nt = template.n_terms
        if self.template and template.terms[:have] != self.template.terms[:nt]:
            raise LPError("the template does not extend the evaluated terms")
        if nt > self.capacity:
            raise LPError(f"the template has {nt} terms, more than the job's {self.capacity}")
        if nt > have:
            self.template = template
        for b in self.blocks:
            if b.n_terms < self.template.n_terms:
                new = self.template.evaluate_terms(b.states, b.n_terms)
                if not np.isfinite(new).all():
                    raise LPError("non-finite coefficients in the scenario rows")
                b.extend(new)

    def absorb(self, condition_id: str, state, params) -> None:
        """Append the parts of a refuted condition's counterexample; its term
        values are evaluated with the next LP. Over a step window the state
        and its image under the model's parameters make one part of that
        condition; otherwise the state joins its region, with a part for
        every condition over the region, and a global state has a part for
        each draw of every step window."""
        c = self.conditions.get(condition_id)
        if c is None:
            raise LPError(f"condition {condition_id!r} has no scenario rows")
        state = np.asarray(state, dtype=complex).reshape(1, -1)
        if c.window is not None:
            t0, count = c.window
            flat = iter(params)  # the parameters of each step in turn
            seq = [tuple(islice(flat, self.dyn.map_at(t0 + i).n_params)) or None for i in range(count)]
            mat = self.dyn.composed_matrix(t0, count, seq)
            before = self._new(state)
            self._part(c, self._new((mat @ state[0])[None]), before)
            return
        block = self._new(state)
        self.regions[c.region].append(block)
        self._append({c.region: block})


def _combination(coeffs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """`real_combination` at term-major values (nt, N). Both real sums run
    term by term from zero, as numpy's matmul does on the strided real
    view, so a state's value has the same bits in a block of one state as
    among the sampled ones (numpy takes a BLAS dot for a single row)."""
    re = np.zeros(terms.shape[1])
    im = np.zeros(terms.shape[1])
    for t, c in enumerate(coeffs):
        re += terms[t].real * c.real
        im += terms[t].imag * c.imag
    return re - im


def _coef_cols(n_fv: int, n_vec: int, nt: int, vec: int) -> tuple[slice, slice]:
    """The re and the im columns of coefficient vector `vec`. The n_fv
    flavor columns come first, then term-major, for each term the re and
    im column of every vector in turn, so a new term's columns come last."""
    start, stop, step = n_fv + 2 * vec, n_fv + 2 * n_vec * nt, 2 * n_vec
    return slice(start, stop, step), slice(start + 1, stop, step)


class ScenarioLP:
    """The scenario LP for one template size: the job's parts so far, over
    the template's terms, as the rows A @ x <= b that `solve_lp` reads, the
    objective, and the scenario extrema.

    B_v at term values T is the row T.real at v's re columns and -T.imag at
    its im columns (`_coef_cols`). No matrix of every row is formed: `take`
    builds the rows of a working set, and `residual` multiplies the term
    values.
    """

    def __init__(self, template: BarrierTemplate, rows: ScenarioRows):
        self.template = template
        self.cfg = rows.cfg
        self.flavor = rows.cfg.flavor
        self.k = rows.k
        self.n_vec = self.k if self.flavor == "hybrid" else 1
        self.nt = template.n_terms
        self.polish_calls = 0  # HiGHS calls (cut rounds) made by polish
        self.polish_rows_kept = 0
        self.polish_iterations = 0  # simplex iterations of those calls
        rows.evaluate(template)
        self.thresholds = THRESHOLDS[self.flavor]
        self.flavor_vars = rows.flavor_vars  # flavor variable -> its column
        self.parts = list(rows.parts)
        self._unsafe = list(rows.regions["unsafe"])  # the unsafe blocks so far
        self.n_cols = len(self.flavor_vars) + 2 * self.n_vec * self.nt
        self.starts = np.cumsum([0] + [p.n for p in self.parts])  # first row of each part
        self.n_rows = int(self.starts[-1])

    def _values(self, block: _Block) -> np.ndarray:
        """(nt, N): the block's values of the template's terms."""
        return block.terms[: self.nt]

    # ----- the rows ---------------------------------------------------------

    def _coef_block(self, block: _Block, sel: np.ndarray, vec: int, sign=1.0) -> np.ndarray:
        """Rows sign * B_vec at states `sel` of the block."""
        vals = self._values(block)[:, sel].T
        out = np.zeros((len(sel), self.n_cols))
        re, im = _coef_cols(len(self.flavor_vars), self.n_vec, self.nt, vec)
        out[:, re] = sign * vals.real
        out[:, im] = -sign * vals.imag
        return out

    def take(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A[idx], b[idx])."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_rows):
            raise IndexError("row index out of range")
        a = np.empty((len(idx), self.n_cols))
        b = np.empty(len(idx))
        seg = np.searchsorted(self.starts, idx, side="right") - 1
        for j in np.unique(seg):
            hit = seg == j
            part, sel = self.parts[j], idx[hit] - self.starts[j]
            if part.after is None:
                blk = np.zeros((len(sel), self.n_cols))
            else:
                blk = self._coef_block(part.after, sel, part.vec, part.sign)
                if part.before is not None:
                    blk = blk - self._coef_block(part.before, sel, part.before_vec)
            for col, value in part.flavor.items():
                blk[:, col] = value
            a[hit] = blk
            b[hit] = part.rhs
        return a, b

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A @ x - b over every row."""
        vectors = self.coeff_vectors_from(x)
        out = np.empty(self.n_rows)
        for start, part in zip(self.starts, self.parts):
            r = out[start : start + part.n]
            shift = sum(value * x[col] for col, value in part.flavor.items()) - part.rhs
            if part.after is None:
                r.fill(shift)
                continue
            r[:] = part.sign * (vectors[part.vec] @ self._values(part.after)).real
            if part.before is not None:
                r -= (vectors[part.before_vec] @ self._values(part.before)).real
            r += shift
        return out

    def build(self) -> LPProblem:
        fv = self.flavor_vars
        families = [(p.name, int(start), int(start) + p.n) for start, p in zip(self.starts, self.parts)]
        objective = np.zeros(self.n_cols)
        for name, coef in self.cfg.separation().items():
            if name in fv:
                objective[fv[name]] = coef
        bounds: list[tuple[float | None, float | None]] = [
            (0.0, COEFF_BOUND)
            if name in ("delta", "eps", "d") or (name == "gamma" and self.flavor == "hybrid")
            else (-COEFF_BOUND, COEFF_BOUND)
            for name in fv
        ]
        bounds += [(-COEFF_BOUND, COEFF_BOUND)] * (self.n_cols - len(fv))
        return LPProblem(rows=self, bounds=bounds, objective=objective, families=families)

    # ----- candidate extraction -------------------------------------------

    def coeff_vectors_from(self, x: np.ndarray):
        cols = (_coef_cols(len(self.flavor_vars), self.n_vec, self.nt, v) for v in range(self.n_vec))
        return [x[re] + 1j * x[im] for re, im in cols]

    def _extrema(self, vectors) -> dict[str, float]:
        """Per condition kind, the scenario maximum of sign * B over its rows."""
        ext: dict[str, float] = {}
        for p in self.parts:
            if p.after is None:
                continue
            vals = p.sign * _combination(vectors[p.vec], self._values(p.after))
            if p.before is not None:
                vals = vals - _combination(vectors[p.before_vec], self._values(p.before))
            ext[p.kind] = max(ext.get(p.kind, -math.inf), float(np.max(vals)))
        return ext

    def _unsafe_min(self, vector: np.ndarray) -> float:
        """The scenario minimum of B at the unsafe states."""
        return min(float(np.min(_combination(vector, self._values(b)))) for b in self._unsafe)

    def polish(self, problem: LPProblem, opt_value: float) -> np.ndarray:
        """Re-solve with the separation pinned at half the optimum and an L1
        objective over coefficients, then zero trailing terms greedily.

        The scenario rows are generated as in `solve_lp`; the gap, |coef|
        and coefficient-difference rows stay in every solve."""
        width = problem.n_vars
        n_fv = len(self.flavor_vars)
        n_coef = width - n_fv
        gap = max(MARGIN, 0.5 * opt_value)
        # |coef| helper variables; for hybrid families also penalize the
        # coefficient differences between consecutive vectors so the polish
        # prefers time-uniform certificates
        n_diff = (self.n_vec - 1) * 2 * self.nt
        gap_row = np.concatenate([-problem.objective, np.zeros(n_coef + n_diff)])
        eye = np.eye(width)[n_fv:]
        a_abs = np.vstack([eye, -eye])
        blocks = [
            gap_row.reshape(1, -1),
            np.hstack(
                [a_abs, np.vstack([-np.eye(n_coef)] * 2), np.zeros((2 * n_coef, n_diff))]
            ),
        ]
        b_fixed_parts = [np.array([-gap]), np.zeros(2 * n_coef)]
        if n_diff:
            # one row per column of vectors 0..n_vec-2: the same term and
            # part of the next vector, two columns on, less that column
            cols = n_fv + np.arange(n_coef).reshape(self.nt, self.n_vec, 2)[:, :-1].ravel()
            d_rows = np.zeros((n_diff, width))
            d_rows[np.arange(n_diff), cols + 2] = 1.0
            d_rows[np.arange(n_diff), cols] = -1.0
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

        # one model for every solve: a trailing-term re-solve changes column
        # bounds in place and restarts from the last basis
        model = HighsModel(-objective, bounds, a_fixed, b_fixed)

        def solve(keep):
            res, keep = _cut_solve(model, problem.rows, keep)
            self.polish_calls, self.polish_iterations = model.calls, model.iterations
            self.polish_rows_kept = len(keep)
            return res, keep

        res, keep = solve(_seed_rows(problem))
        if res.status != "optimal":
            return None
        x = res.x[:width]
        # trailing-term elimination re-solves once per term; the gate stays on
        # the full row count it had when every solve saw every row, so the
        # same sizes are polished and the same candidates come out
        if self.nt <= 24 and problem.n_rows <= 40000:
            for i in range(self.nt - 1, 0, -1):
                cols = list(range(n_fv + 2 * self.n_vec * i, n_fv + 2 * self.n_vec * (i + 1)))  # term i's
                if all(abs(x[c]) < 1e-12 for c in cols):
                    continue
                model.set_bounds(cols, [(0.0, 0.0)] * len(cols))
                res2, keep = solve(keep)
                if res2.status == "optimal":
                    x = res2.x[:width]
                else:
                    model.set_bounds(cols, [bounds[c] for c in cols])
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
            gamma_raw = self._unsafe_min(vectors[0])
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
            d_raw = min(self._unsafe_min(vectors[v]) for v in range(self.n_vec))
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
        sign = {p.kind: p.sign for p in self.parts}
        worst = max(
            ext[kind] - (sign[kind] * c[name] if name else 0.0)
            for kind, name in self.thresholds.items()
        )
        separation = side_value(cert.side_conditions[-1][1], c, cert.decimals)
        return max(worst, MARGIN * 0.5 - float(separation))


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
    """Outcome of one job of either model; the angle model counts no terms
    and feeds back no counterexamples."""

    status: str  # solved | unsolved | unknown
    # a templates.Certificate, or a grover.AngleCertificate for the angle model
    certificate: object | None
    verification: VerificationReport | None
    terms_used: int | None
    lp_time: float
    smt_time: float
    rejections: list
    # one `lp_entry` per (terms, round)
    lp: list


def lp_entry(terms: int | None, round_idx: int, problem: LPProblem, solution: LPSolution) -> dict:
    """One solve's entry of `SynthesisResult.lp`: the LP's rows, and the
    rows kept, HiGHS calls and simplex iterations of its solve; then the
    outcome, no-candidate until the gate's verdict (refuted, verified or
    unknown) replaces it."""
    return {
        "terms": terms,
        "round": round_idx,
        "rows": problem.n_rows,
        "rows_kept": solution.rows_kept,
        "highs_calls": solution.highs_calls,
        "simplex_iterations": solution.simplex_iterations,
        "outcome": "no-candidate",
    }


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
    for up to `resample_rounds` re-solves before the template grows. Every
    size and round is solved on one live HiGHS model, which gains the new
    terms' columns and keeps its rows and basis. The verdict taxonomy:
    solved means found and SMT-verified; unknown means a candidate could
    not be adjudicated (timeout or out-of-scope query), and the loop stops
    at the first one; unsolved means every size was exhausted without an
    accepted candidate.
    """
    workdir = Path(workdir)
    t_lp = 0.0
    t_smt = 0.0
    start = time.perf_counter()
    if scenarios is None:
        scenarios = sample_scenarios(init_region, unsafe_region, global_region, cfg)
    rows = ScenarioRows(scenarios, dynamics, cfg)
    model = HighsModel()
    t_lp += time.perf_counter() - start
    template_all = full_template(dynamics.dim, cfg.degree, rows.capacity)
    max_terms = template_all.n_terms
    rejections: list = []
    solves: list = []

    def result(status, cert=None, report=None, terms=max_terms):
        return SynthesisResult(status, cert, report, terms, t_lp, t_smt, rejections, solves)

    for size in range(1, max_terms + 1):
        template = template_all.prefix(size)
        for round_idx in range(cfg.resample_rounds + 1):
            t0 = time.perf_counter()
            cells = rows.cells
            slp = ScenarioLP(template, rows)
            problem = slp.build()
            solution = solve_lp(problem, model)
            try:
                cert = extract_certificate(slp, problem, solution)
            except NoCandidateError:
                cert = None
            t_lp += time.perf_counter() - t0
            log.info(
                "terms %d round %d: %d term values evaluated; %d LP rows; solve kept %d rows"
                " over %d HiGHS calls and %d simplex iterations; polish kept %d rows over"
                " %d HiGHS calls and %d simplex iterations",
                size,
                round_idx,
                rows.cells - cells,
                problem.n_rows,
                solution.rows_kept,
                solution.highs_calls,
                solution.simplex_iterations,
                slp.polish_rows_kept,
                slp.polish_calls,
                slp.polish_iterations,
            )
            solves.append(lp_entry(size, round_idx, problem, solution))
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
            solves[-1]["outcome"] = report.overall
            if report.overall != "refuted":
                return result(report.status, cert, report, size)
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
    return result("unsolved")
