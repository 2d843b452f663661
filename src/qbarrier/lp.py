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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

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
    BarrierTemplate,
    Certificate,
    CertificateError,
    full_template,
    real_combination,
)

log = logging.getLogger(__name__)

FLAVOR_ROWS = {
    "invariant": ("init", "unsafe", "step"),
    "k-inductive": ("init", "unsafe", "step", "k-step", "side"),
    "hybrid": ("init", "unsafe", "step", "shift", "k-step", "side"),
    "finite-horizon": ("init", "unsafe", "step", "side"),
}

# default cap on the incremental term search; the full term count grows
# combinatorially with the dimension, far past anything an LP of this kind
# can use (override per job with max-terms)
DEFAULT_TERM_BUDGET = 60


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
    margin: float = 1e-4  # strictness margin rho
    coeff_bound: float = 100.0
    max_terms: int | None = None
    resample_rounds: int = 10
    uncertainty_samples: int = 5
    on_unknown: str = "stop"  # or "continue"

    def __post_init__(self):
        if self.flavor not in FLAVOR_ROWS:
            raise LPError(f"unknown flavor {self.flavor!r}")
        if self.k < 1:
            raise LPError("k must be >= 1")
        if self.margin <= 0:
            raise LPError("margin must be positive")
        if self.coeff_bound <= 0:
            raise LPError("coefficient bound must be positive")
        if self.flavor == "finite-horizon" and not self.horizon:
            raise LPError("finite-horizon flavor needs a horizon")


@dataclass
class LPProblem:
    a_ub: np.ndarray
    b_ub: np.ndarray
    bounds: list[tuple[float | None, float | None]]
    objective: np.ndarray  # maximized
    var_names: list[str]
    families: list[tuple[str, int, int]]  # (family, start row, stop row)
    flavor: str

    @property
    def n_rows(self) -> int:
        return self.a_ub.shape[0]

    @property
    def n_vars(self) -> int:
        return self.a_ub.shape[1]

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


def _cut_solve(
    cost: np.ndarray,
    a_gen: np.ndarray,
    b_gen: np.ndarray,
    bounds: list,
    keep: np.ndarray,
    a_fixed: np.ndarray | None = None,
    b_fixed: np.ndarray | None = None,
):
    """Minimize cost @ x subject to a_gen @ x[:a_gen.shape[1]] <= b_gen and
    a_fixed @ x <= b_fixed, by constraint generation over the a_gen rows.

    Each round solves on the rows `keep` plus every fixed row, then adds the
    most violated remaining rows; it stops when no row outside the working
    set is violated, so the point satisfies every row. An infeasible
    relaxation proves the full problem infeasible; an unbounded one doubles
    the working set until it is bounded or holds every row.

    Returns (the last scipy result, the final working set, HiGHS calls).
    """
    n_rows, n_cols = a_gen.shape
    width = len(cost)
    if a_fixed is None:
        a_fixed = np.zeros((0, width))
        b_fixed = np.zeros(0)
    calls = 0
    while True:
        sub = a_gen[keep]
        if n_cols < width:
            sub = np.hstack([sub, np.zeros((len(keep), width - n_cols))])
        res = linprog(
            c=cost,
            A_ub=np.vstack([sub, a_fixed]),
            b_ub=np.concatenate([b_gen[keep], b_fixed]),
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
        viol = a_gen @ res.x[:n_cols] - b_gen
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
        -problem.objective, problem.a_ub, problem.b_ub, problem.bounds, _seed_rows(problem)
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
    return float(np.max(problem.a_ub @ x - problem.b_ub))


@dataclass
class Scenarios:
    """State arrays per region plus counterexamples accumulated by the loop."""

    init: np.ndarray
    unsafe: np.ndarray
    global_states: np.ndarray
    extra_init: list = field(default_factory=list)
    extra_unsafe: list = field(default_factory=list)
    extra_global: list = field(default_factory=list)  # plain states
    extra_step: list = field(default_factory=list)  # (state, params, offset)
    extra_kstep: list = field(default_factory=list)  # (state, param_seq)

    def init_all(self) -> np.ndarray:
        return _stack(self.init, self.extra_init)

    def unsafe_all(self) -> np.ndarray:
        return _stack(self.unsafe, self.extra_unsafe)

    def global_all(self) -> np.ndarray:
        return _stack(self.global_states, self.extra_global)


def _stack(base: np.ndarray, extras: list) -> np.ndarray:
    if not extras:
        return base
    return np.vstack([base] + [np.asarray(e, dtype=complex).reshape(1, -1) for e in extras])


def sample_scenarios(
    init_region: Region, unsafe_region: Region, global_region: Region, cfg
) -> Scenarios:
    n = cfg.samples
    return Scenarios(
        init=sample_states(init_region, n, cfg.seed).states,
        unsafe=sample_states(unsafe_region, n, cfg.seed + 1).states,
        global_states=sample_states(global_region, n, cfg.seed + 2).states,
    )


class ScenarioLP:
    """Rows, objective, and scenario extrema for one template size."""

    def __init__(
        self,
        template: BarrierTemplate,
        dynamics: Dynamics,
        cfg: SynthesisConfig,
        scen: Scenarios,
    ):
        self.template = template
        self.dyn = dynamics
        self.cfg = cfg
        self.scen = scen
        self.flavor = cfg.flavor
        self.k = cfg.k if cfg.flavor in ("k-inductive", "hybrid") else 1
        self.n_vec = self.k if cfg.flavor == "hybrid" else 1
        self.nt = template.n_terms
        self.polish_calls = 0  # HiGHS calls (cut rounds) made by polish
        self.polish_rows_kept = 0
        if cfg.flavor in ("invariant", "k-inductive", "finite-horizon"):
            if not dynamics.schedule.is_constant:
                raise LPError(f"{cfg.flavor} flavor needs a constant schedule")
        if cfg.flavor == "hybrid" and self.k % dynamics.schedule.period != 0:
            raise LPError("hybrid flavor needs the schedule period to divide k")
        self._evaluate()

    # ----- scenario evaluation ------------------------------------------

    def _expand_uncertain(self, states, t0, count, tag):
        """(states_expanded, after_states) for `count` scheduled steps, one
        row per sampled parameter sequence when maps are uncertain."""
        needs = any(self.dyn.map_at(t0 + i).n_params for i in range(count))
        if not needs:
            mat = self.dyn.composed_matrix(t0, count)
            return states, states @ mat.T, None
        rng = np.random.default_rng([self.cfg.seed, 1009, t0, count])
        reps = self.cfg.uncertainty_samples
        outs, befores, seqs = [], [], []
        for _ in range(reps):
            seq = []
            mat = np.eye(self.dyn.dim, dtype=complex)
            for i in range(count):
                m = self.dyn.map_at(t0 + i)
                params = tuple(
                    rng.uniform(lo, hi) for lo, hi in m.param_domain
                )
                seq.append(params if params else None)
                mat = m.matrix(params if params else None) @ mat
            befores.append(states)
            outs.append(states @ mat.T)
            seqs.append(seq)
        return np.vstack(befores), np.vstack(outs), seqs

    def _evaluate(self):
        tmpl = self.template
        self.init_T = tmpl.evaluate_terms(self.scen.init_all())
        self.unsafe_T = tmpl.evaluate_terms(self.scen.unsafe_all())
        gl = self.scen.global_all()
        self.global_T = tmpl.evaluate_terms(gl)
        self.step_data = []  # per offset: (before_T, after_T)
        offsets = range(self.k) if self.flavor == "hybrid" else [0]
        for t in offsets:
            before, after, _ = self._expand_uncertain(gl, t, 1, "step")
            extras = [
                (np.asarray(s), p) for (s, p, off) in self.scen.extra_step if off == t
            ]
            if extras:
                eb = np.vstack([e[0].reshape(1, -1) for e in extras])
                ea = np.vstack(
                    [
                        (self.dyn.map_at(t).matrix(p) @ s.reshape(-1)).reshape(1, -1)
                        for s, p in extras
                    ]
                )
                before = np.vstack([before, eb])
                after = np.vstack([after, ea])
            self.step_data.append(
                (tmpl.evaluate_terms(before), tmpl.evaluate_terms(after))
            )
        if self.flavor in ("k-inductive", "hybrid"):
            before, after, _ = self._expand_uncertain(gl, 0, self.k, "kstep")
            extras = self.scen.extra_kstep
            if extras:
                eb = np.vstack([np.asarray(s).reshape(1, -1) for s, _ in extras])
                rows = []
                for s, seq in extras:
                    mat = np.eye(self.dyn.dim, dtype=complex)
                    for i in range(self.k):
                        mat = self.dyn.map_at(i).matrix(seq[i] if seq else None) @ mat
                    rows.append((mat @ np.asarray(s).reshape(-1)).reshape(1, -1))
                before = np.vstack([before, eb])
                after = np.vstack([after, np.vstack(rows)])
            self.kstep_data = (tmpl.evaluate_terms(before), tmpl.evaluate_terms(after))
        else:
            self.kstep_data = None

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
        cfg = self.cfg
        if self.flavor == "invariant":
            return ["gamma"]
        if self.flavor == "k-inductive":
            return ["d"] + (["eps"] if cfg.eps == "free" else [])
        if self.flavor == "hybrid":
            out = ["d"]
            if cfg.eps == "free":
                out.append("eps")
            if cfg.gamma == "free":
                out.append("gamma")
            return out
        return ["gamma", "lam", "delta"]

    def _coef_block(self, term_vals: np.ndarray, vec: int, width: int, sign=1.0):
        """Columns for sign * B_vec at the given term values."""
        rows = term_vals.shape[0]
        block = np.zeros((rows, width))
        base = vec * 2 * self.nt
        block[:, base : base + 2 * self.nt : 2] = sign * term_vals.real
        block[:, base + 1 : base + 2 * self.nt : 2] = -sign * term_vals.imag
        return block

    # ----- LP assembly ----------------------------------------------------

    def build(self) -> LPProblem:
        cfg = self.cfg
        names = self.var_layout()
        width = len(names)
        fv = self.flavor_vars
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        families: list[tuple[str, int, int]] = []

        def family(name, block, bvals):
            start = sum(b.shape[0] for b in rows)
            rows.append(block)
            rhs.extend(bvals)
            families.append((name, start, start + block.shape[0]))

        eps_fixed = None if cfg.eps == "free" else float(cfg.eps)
        gam_fixed = None if cfg.gamma == "free" else float(cfg.gamma)

        # init rows: B_0 <= 0 (or <= gamma for finite horizon)
        blk = self._coef_block(self.init_T, 0, width)
        b = np.zeros(blk.shape[0])
        if self.flavor == "finite-horizon":
            blk[:, fv["gamma"]] = -1.0
        family("init", blk, b)

        # unsafe rows: B_t >= threshold  ->  -B_t + threshold <= 0
        for v in range(self.n_vec):
            blk = self._coef_block(self.unsafe_T, v, width, sign=-1.0)
            if self.flavor == "invariant":
                blk[:, fv["gamma"]] = 1.0
            elif self.flavor == "finite-horizon":
                blk[:, fv["lam"]] = 1.0
            else:
                blk[:, fv["d"]] = 1.0
            family(f"unsafe@{v}" if self.n_vec > 1 else "unsafe", blk, np.zeros(blk.shape[0]))

        # step rows: B_t(f_t z) - B_t(z) <= {0 | eps | delta}
        for t, (before_T, after_T) in enumerate(self.step_data):
            v = t if self.flavor == "hybrid" else 0
            blk = self._coef_block(after_T, v, width) - self._coef_block(before_T, v, width)
            b = np.zeros(blk.shape[0])
            if self.flavor == "finite-horizon":
                blk[:, fv["delta"]] = -1.0
            elif self.flavor in ("k-inductive", "hybrid"):
                if eps_fixed is None:
                    blk[:, fv["eps"]] = -1.0
                else:
                    b += eps_fixed
            family(f"step@{t}" if self.n_vec > 1 else "step", blk, b)

        # hybrid time-shift rows: B_{t+1} - B_t <= gamma
        if self.flavor == "hybrid":
            for t in range(self.k):
                nxt = (t + 1) % self.k
                blk = self._coef_block(self.global_T, nxt, width) - self._coef_block(
                    self.global_T, t, width
                )
                b = np.zeros(blk.shape[0])
                if gam_fixed is None:
                    blk[:, fv["gamma"]] = -1.0
                else:
                    b += gam_fixed
                family(f"shift@{t}", blk, b)

        # k-step rows: B_0(f^{(k)} z) - B_0(z) <= 0
        if self.kstep_data is not None:
            before_T, after_T = self.kstep_data
            blk = self._coef_block(after_T, 0, width) - self._coef_block(before_T, 0, width)
            family("k-step", blk, np.zeros(blk.shape[0]))

        # side-condition row and objective
        objective = np.zeros(width)
        if self.flavor == "invariant":
            objective[fv["gamma"]] = 1.0
        elif self.flavor == "finite-horizon":
            t_hor = int(cfg.horizon)
            objective[fv["gamma"]] = -1.0
            objective[fv["lam"]] = 1.0
            objective[fv["delta"]] = -float(t_hor)
            side = np.zeros((1, width))
            side[0, fv["gamma"]] = 1.0
            side[0, fv["lam"]] = -1.0
            side[0, fv["delta"]] = float(t_hor)
            family("side", side, np.array([-cfg.margin]))
        else:
            objective[fv["d"]] = 1.0
            side = np.zeros((1, width))
            side[0, fv["d"]] = -1.0
            bound = -cfg.margin
            if eps_fixed is None:
                side[0, fv["eps"]] = float(self.k)
                objective[fv["eps"]] = -float(self.k)
            else:
                bound -= self.k * eps_fixed
            if self.flavor == "hybrid":
                if gam_fixed is None:
                    side[0, fv["gamma"]] = float(self.k)
                    objective[fv["gamma"]] = -float(self.k)
                else:
                    bound -= self.k * gam_fixed
            family("side", side, np.array([bound]))

        c_bound = cfg.coeff_bound
        bounds: list[tuple[float | None, float | None]] = []
        for v in range(self.n_vec):
            bounds += [(-c_bound, c_bound)] * (2 * self.nt)
        for fname in self._flavor_var_names():
            if fname in ("delta", "eps", "d"):
                bounds.append((0.0, c_bound))
            elif fname == "gamma" and self.flavor == "hybrid":
                bounds.append((0.0, c_bound))
            else:
                bounds.append((-c_bound, c_bound))

        a_ub = np.vstack(rows)
        b_ub = np.asarray(rhs)
        if not (np.isfinite(a_ub).all() and np.isfinite(b_ub).all()):
            raise LPError("non-finite coefficients in the scenario rows")
        return LPProblem(
            a_ub=a_ub,
            b_ub=b_ub,
            bounds=bounds,
            objective=objective,
            var_names=names,
            families=families,
            flavor=self.flavor,
        )

    # ----- candidate extraction -------------------------------------------

    def coeff_vectors_from(self, x: np.ndarray):
        out = []
        for v in range(self.n_vec):
            base = v * 2 * self.nt
            re = x[base : base + 2 * self.nt : 2]
            im = x[base + 1 : base + 2 * self.nt : 2]
            out.append(re + 1j * im)
        return out

    def _extrema(self, vectors):
        """Scenario extrema of the candidate before constants are pinned."""
        ext = {}
        ext["init_max"] = float(np.max(real_combination(vectors[0], self.init_T)))
        ext["unsafe_min"] = min(
            float(np.min(real_combination(vectors[v], self.unsafe_T)))
            for v in range(self.n_vec)
        )
        step_max = -math.inf
        for t, (before_T, after_T) in enumerate(self.step_data):
            v = t if self.flavor == "hybrid" else 0
            diff = real_combination(vectors[v], after_T) - real_combination(
                vectors[v], before_T
            )
            step_max = max(step_max, float(np.max(diff)))
        ext["step_max"] = step_max
        if self.flavor == "hybrid":
            shift_max = -math.inf
            for t in range(self.k):
                nxt = (t + 1) % self.k
                diff = real_combination(vectors[nxt], self.global_T) - real_combination(
                    vectors[t], self.global_T
                )
                shift_max = max(shift_max, float(np.max(diff)))
            ext["shift_max"] = shift_max
        if self.kstep_data is not None:
            before_T, after_T = self.kstep_data
            diff = real_combination(vectors[0], after_T) - real_combination(
                vectors[0], before_T
            )
            ext["kstep_max"] = float(np.max(diff))
        return ext

    def polish(self, problem: LPProblem, opt_value: float) -> np.ndarray:
        """Re-solve with the separation pinned at half the optimum and an L1
        objective over coefficients, then zero trailing terms greedily.

        The scenario rows are generated as in `solve_lp`; the gap, |coef|
        and coefficient-difference rows stay in every solve."""
        cfg = self.cfg
        width = problem.n_vars
        n_coef = self.n_vec * 2 * self.nt
        gap = max(cfg.margin, 0.5 * opt_value)
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
                -objective, problem.a_ub, problem.b_ub, bounds, keep, a_fixed, b_fixed
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
        cfg = self.cfg
        rho = cfg.margin
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
        rho = cfg.margin

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
            gamma = up(ext["init_max"])
            lam = down(ext["unsafe_min"])
            delta = up(max(0.0, ext["step_max"]))
            s = lam - gamma - delta * t_hor - rho
            if s < 0:
                return None
            gamma = up(gamma + s / 4.0)
            lam = down(lam - s / 4.0)
            delta = up(delta + s / (6.0 * t_hor))
            constants = {"gamma": gamma, "lam": lam, "delta": delta, "T": t_hor}
        elif flavor == "invariant":
            shift = max(0.0, ext["init_max"])
            if ext["step_max"] > dust:
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
            eps = float(cfg.eps) if cfg.eps != "free" else None
            gam = float(cfg.gamma) if cfg.gamma != "free" else None
            if eps is None:
                eps = up(max(0.0, ext["step_max"]))
            if flavor == "hybrid" and gam is None:
                gam = up(max(0.0, ext["shift_max"]))
            # rounding can push the fixed-threshold rows marginally over;
            # shrink the whole family, which preserves every condition
            # with a zero or scaled threshold
            beta = 1.0
            if ext["step_max"] > eps and ext["step_max"] > 0:
                beta = min(beta, eps / ext["step_max"])
            if flavor == "hybrid" and ext["shift_max"] > gam and ext["shift_max"] > 0:
                beta = min(beta, gam / ext["shift_max"])
            if beta < 1.0:
                vectors = [self._round_vec(v * (0.999 * beta), dec) for v in vectors]
                ext = self._extrema(vectors)
            if ext["step_max"] > eps + dust:
                return None
            if flavor == "hybrid" and ext["shift_max"] > gam + dust:
                return None
            if ext["kstep_max"] > dust:
                return None
            shift = max(0.0, ext["init_max"])
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
        worst = -math.inf
        if cert.flavor == "finite-horizon":
            worst = max(
                ext["init_max"] - c["gamma"],
                c["lam"] - ext["unsafe_min"],
                ext["step_max"] - c["delta"],
                c["gamma"] + c["delta"] * c["T"] + self.cfg.margin * 0.5 - c["lam"],
            )
        elif cert.flavor == "invariant":
            worst = max(
                ext["init_max"],
                c["gamma"] - ext["unsafe_min"],
                ext["step_max"],
            )
        else:
            worst = max(
                ext["init_max"],
                c["d"] - ext["unsafe_min"],
                ext["step_max"] - c["eps"],
                ext["kstep_max"],
            )
            if cert.flavor == "hybrid":
                worst = max(worst, ext["shift_max"] - c["gamma"])
        return worst


def build_lp(
    template: BarrierTemplate,
    dynamics: Dynamics,
    cfg: SynthesisConfig,
    scenarios: Scenarios,
) -> LPProblem:
    """Assemble the scenario LP for the configured flavor."""
    return ScenarioLP(template, dynamics, cfg, scenarios).build()


def extract_certificate(
    slp: ScenarioLP, problem: LPProblem, solution: LPSolution
) -> Certificate:
    """Polish and round an optimal LP point into a certificate."""
    if solution.status != "optimal" or solution.objective is None:
        raise NoCandidateError("no candidate at this template size")
    if solution.objective < slp.cfg.margin:
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
    unknown_seen: bool = False


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
    candidate could not be adjudicated (timeout or out-of-scope query);
    unsolved means every size was exhausted without an accepted candidate.
    """
    workdir = Path(workdir)
    t_lp = 0.0
    t_smt = 0.0
    start = time.perf_counter()
    if scenarios is None:
        scenarios = sample_scenarios(init_region, unsafe_region, global_region, cfg)
        t_lp += time.perf_counter() - start
    full_count = math.comb(2 * dynamics.dim + cfg.degree, cfg.degree)
    budget = cfg.max_terms if cfg.max_terms else DEFAULT_TERM_BUDGET
    budget = min(budget, full_count)
    template_all = full_template(dynamics.dim, cfg.degree, budget)
    max_terms = template_all.n_terms
    rejections: list = []
    unknown_seen = False
    last_unknown: tuple[Certificate, VerificationReport] | None = None
    for size in range(1, max_terms + 1):
        template = template_all.prefix(size)
        for round_idx in range(cfg.resample_rounds + 1):
            t0 = time.perf_counter()
            slp = ScenarioLP(template, dynamics, cfg, scenarios)
            problem = slp.build()
            solution = solve_lp(problem)
            cert = None
            if solution.status == "optimal" and solution.objective >= cfg.margin:
                try:
                    cert = extract_certificate(slp, problem, solution)
                except NoCandidateError:
                    cert = None
            t_lp += time.perf_counter() - t0
            log.info(
                "terms %d round %d: %d LP rows; solve kept %d rows over %d HiGHS"
                " calls; polish kept %d rows over %d HiGHS calls",
                size,
                round_idx,
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
            if report.overall == "verified":
                return SynthesisResult(
                    status="solved",
                    certificate=cert,
                    verification=report,
                    terms_used=size,
                    lp_time=t_lp,
                    smt_time=t_smt,
                    rejections=rejections,
                    unknown_seen=unknown_seen,
                )
            if report.overall == "refuted":
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
                _absorb_counterexample(
                    scenarios, ref.condition_id, state, params, cfg, dynamics
                )
                continue
            unknown_seen = True
            last_unknown = (cert, report)
            if cfg.on_unknown == "stop":
                return SynthesisResult(
                    status="unknown",
                    certificate=cert,
                    verification=report,
                    terms_used=size,
                    lp_time=t_lp,
                    smt_time=t_smt,
                    rejections=rejections,
                    unknown_seen=True,
                )
            break  # on_unknown == continue: try a larger template
    if unknown_seen and last_unknown is not None:
        cert, report = last_unknown
        return SynthesisResult(
            status="unknown",
            certificate=cert,
            verification=report,
            terms_used=cert.template.n_terms,
            lp_time=t_lp,
            smt_time=t_smt,
            rejections=rejections,
            unknown_seen=True,
        )
    return SynthesisResult(
        status="unsolved",
        certificate=None,
        verification=None,
        terms_used=max_terms,
        lp_time=t_lp,
        smt_time=t_smt,
        rejections=rejections,
        unknown_seen=unknown_seen,
    )


def _absorb_counterexample(
    scen: Scenarios, condition_id: str, state, params, cfg, dynamics: Dynamics
):
    if condition_id == "init":
        scen.extra_init.append(state)
    elif condition_id.startswith("unsafe"):
        scen.extra_unsafe.append(state)
    elif condition_id.startswith("shift"):
        scen.extra_global.append(state)
    elif condition_id.startswith("step"):
        t = 0
        if "-t" in condition_id:
            t = int(condition_id.rsplit("-t", 1)[1])
        scen.extra_step.append((state, params if params else None, t))
    elif condition_id == "k-step":
        k = cfg.k
        seq: list = []
        used = 0
        for i in range(k):
            need = dynamics.map_at(i).n_params
            seq.append(tuple(params[used : used + need]) if need else None)
            used += need
        scen.extra_kstep.append((state, seq))
    else:
        scen.extra_global.append(state)
