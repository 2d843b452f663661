"""Two-dimensional angle model of the quantum search iteration.

The search operator acts as a rotation in the plane spanned by the uniform
superpositions of non-solution and solution basis states, so the full state
collapses to one angle phi. The solution count may be perturbed by a bound
err (widening the initial angle interval) and the per-step rotation by a
bound eta. Certificates here are linear in the angle, B = c * phi, with
finite-horizon constants (gamma, lam, delta, T); certificate arithmetic uses
the unwrapped angle while state semantics can wrap into [0, 2*pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .lp import COEFF_BOUND, MARGIN, DenseRows, LPProblem, solve_lp
# unused here: the angle LP goes through lp.solve_lp, but perfbench/layers.py
# still wraps this name and its smoke test requires every wrapped name to
# exist; taking it from lp keeps scipy.optimize unloaded until the first solve
from .lp import linprog  # noqa: F401
from .smt.encode import SMTQuery, StructConstraint, side_query
from .smt.run import BUILTIN_COMMAND, VerificationReport, verify_queries
from .realpoly import RealPoly
from .regions import SobolStream
from .templates import side_conditions, side_holds, side_value


class GroverError(ValueError):
    pass


UNSAFE_LO = 9.0 * math.pi / 6.0
UNSAFE_HI = 11.0 * math.pi / 6.0


@dataclass(frozen=True)
class GroverInstance:
    """Search instance: n qubits, K = 2^n entries, M marked (real-valued to
    admit perturbation by err), rotation noise bound eta, horizon T."""

    n: int
    solutions: float
    err: float = 0.0
    eta: float = 0.0
    steps: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise GroverError("need at least one qubit")
        k = float(self.space_size)
        if not 0.0 < self.solutions - self.err:
            raise GroverError("solution count minus err must stay positive")
        if not self.solutions + self.err < k:
            raise GroverError("solution count plus err must stay below 2^n")
        if self.eta < 0:
            raise GroverError("eta must be nonnegative")
        if self.steps is not None and self.steps < 1:
            raise GroverError("horizon must be >= 1")

    @property
    def space_size(self) -> int:
        return 2 ** self.n

    @property
    def horizon_steps(self) -> int:
        return self.steps if self.steps is not None else horizon(self)


def theta_for(space_size: float, solutions: float) -> float:
    """Rotation angle per step: 2*arcsin(sqrt(M/K)), in (0, pi)."""
    if not 0 < solutions < space_size:
        raise GroverError(f"need 0 < M < K, got M={solutions}, K={space_size}")
    return 2.0 * math.asin(math.sqrt(solutions / space_size))


def theta(g: GroverInstance) -> float:
    return theta_for(g.space_size, g.solutions)


def initial_interval(g: GroverInstance) -> tuple[float, float]:
    """Initial angles: half the perturbed rotation angle over M -+ err."""
    k = g.space_size
    lo = theta_for(k, g.solutions - g.err) / 2.0 if g.err else theta(g) / 2.0
    hi = theta_for(k, g.solutions + g.err) / 2.0 if g.err else theta(g) / 2.0
    return lo, hi


def unsafe_interval() -> tuple[float, float]:
    """Fixed unsafe arc [9*pi/6, 11*pi/6]."""
    return UNSAFE_LO, UNSAFE_HI


def horizon(g: GroverInstance) -> int:
    """Step budget: ceil((pi/4) * sqrt(K/M))."""
    return horizon_for(g.space_size, g.solutions)


def horizon_for(space_size: float, solutions: float) -> int:
    if solutions <= 0 or solutions > space_size:
        raise GroverError("need 0 < M <= K for the step budget")
    return int(math.ceil(math.pi / 4.0 * math.sqrt(space_size / solutions)))


def grover_step(phi: float, theta_step: float) -> float:
    """One rotation with the (possibly noisy) step angle; unwrapped."""
    return phi + theta_step


def wrap_angle(phi: float) -> float:
    """Representative in [0, 2*pi) for state-space semantics."""
    return phi % (2.0 * math.pi)


@dataclass(frozen=True)
class AngleCertificate:
    """Linear angle certificate c*phi with finite-horizon constants."""

    c: float
    gamma: float
    lam: float
    delta: float
    horizon: int

    def __post_init__(self):
        for cid, form, strict in side_conditions("finite-horizon", horizon=self.horizon):
            if not side_holds(side_value(form, self.constants), strict):
                raise GroverError(f"side condition {cid} fails")

    @property
    def constants(self) -> dict[str, float]:
        return {"gamma": self.gamma, "lam": self.lam, "delta": self.delta}

    def value(self, phi: float) -> float:
        return self.c * phi

    @staticmethod
    def from_dict(doc: dict) -> "AngleCertificate":
        """The certificate `to_dict` writes; a field that is not a finite
        number, or a horizon T that is not an integer >= 1, raises
        GroverError naming it. A boolean is not a number here."""
        for name in ("c", "gamma", "lam", "delta", "T"):
            value = doc[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise GroverError(f"angle certificate field {name!r} must be a finite number, got {value!r}")
        if not isinstance(doc["T"], int) or doc["T"] < 1:
            raise GroverError(f"angle certificate field 'T' must be an integer >= 1, got {doc['T']!r}")
        return AngleCertificate(doc["c"], doc["gamma"], doc["lam"], doc["delta"], horizon=doc["T"])

    def to_dict(self) -> dict:
        return {
            "kind": "angle-linear",
            "c": self.c,
            "gamma": self.gamma,
            "lam": self.lam,
            "delta": self.delta,
            "T": self.horizon,
        }


def sample_interval(lo: float, hi: float, count: int, seed: int) -> np.ndarray:
    """Low-discrepancy points in [lo, hi]; the first point hits lo exactly."""
    if count < 1:
        raise GroverError("sample count must be >= 1")
    u = SobolStream(1).draw(count).reshape(-1)
    return lo + u * (hi - lo)


def _fr(x: float) -> Fraction:
    return Fraction(float(x))


def angle_queries(
    cert: AngleCertificate, g: GroverInstance, timeout_s: float = 300.0
) -> list[SMTQuery]:
    """Negated finite-horizon conditions over the angle variable.

    Variables: t (angle phi), u0 (rotation noise mu). Thresholds and interval
    endpoints are emitted as exact rationals of their float values.
    """
    lo, hi = initial_interval(g)
    th = theta(g)
    names = ("t", "u0")
    t_poly = RealPoly.variable(2, 0)
    u_poly = RealPoly.variable(2, 1)

    def q(condition_id, constraints):
        return SMTQuery(
            condition_id=condition_id,
            dim=0,
            var_names=names,
            constraints=tuple(constraints),
            timeout_s=timeout_s,
        )

    init_q = q(
        "init",
        [
            StructConstraint(t_poly, ">=", _fr(lo)),
            StructConstraint(t_poly, "<=", _fr(hi)),
            StructConstraint(
                t_poly.scale(_fr(cert.c)), ">", _fr(cert.gamma), negated_condition=True
            ),
        ],
    )
    unsafe_q = q(
        "unsafe",
        [
            StructConstraint(t_poly, ">=", _fr(UNSAFE_LO)),
            StructConstraint(t_poly, "<=", _fr(UNSAFE_HI)),
            StructConstraint(
                t_poly.scale(_fr(cert.c)), "<", _fr(cert.lam), negated_condition=True
            ),
        ],
    )
    # decrement: c*(theta + mu) <= delta for all mu in [-eta, eta]
    step_q = q(
        "step",
        [
            StructConstraint(u_poly, ">=", _fr(-g.eta)),
            StructConstraint(u_poly, "<=", _fr(g.eta)),
            StructConstraint(
                u_poly.scale(_fr(cert.c)),
                ">",
                _fr(cert.delta) - _fr(cert.c) * _fr(th),
                negated_condition=True,
            ),
        ],
    )
    sides = side_conditions("finite-horizon", horizon=g.horizon_steps)
    return [init_q, unsafe_q, step_q] + [
        side_query(cond, side_value(cond[1], cert.constants), timeout_s) for cond in sides
    ]


@dataclass
class AngleSynthesisResult:
    status: str  # solved | unsolved | unknown
    certificate: AngleCertificate | None
    verification: VerificationReport | None
    lp_time: float
    smt_time: float


def synth_angle_certificate(
    g: GroverInstance,
    samples: int,
    seed: int,
    solver_command: str = BUILTIN_COMMAND,
    workdir: str | Path = "runs/grover",
    timeout_s: float = 300.0,
) -> AngleSynthesisResult:
    """Scenario LP over (c, gamma, lam, delta) followed by the SMT gate.

    Rows: c*phi <= gamma on sampled initial angles, c*phi >= lam on sampled
    unsafe angles, one worst-case decrement row c*(theta+eta) <= delta, and
    the side condition lam - gamma - delta*T >= MARGIN; the objective
    maximizes that side slack, with every variable boxed by COEFF_BOUND and
    c constrained nonnegative.
    """
    import time as _time

    t0 = _time.perf_counter()
    t_steps = g.horizon_steps
    lo, hi = initial_interval(g)
    init_phis = sample_interval(lo, hi, samples, seed)
    unsafe_phis = sample_interval(UNSAFE_LO, UNSAFE_HI, samples, seed + 1)
    th = theta(g)
    # variables: c, gamma, lam, delta; with c >= 0 the sampled rows
    # c*phi <= gamma and c*phi >= lam reduce exactly to the extreme angles;
    # the objective is the separation, and the side row bounds it below
    form = side_conditions("finite-horizon", horizon=t_steps)[-1][1]
    separation = np.array([0.0] + [float(form[n]) for n in ("gamma", "lam", "delta")])
    problem = LPProblem(
        rows=DenseRows(
            np.array(
                [
                    [float(np.max(init_phis)), -1.0, 0.0, 0.0],
                    [-float(np.min(unsafe_phis)), 0.0, 1.0, 0.0],
                    [th + g.eta, 0.0, 0.0, -1.0],
                    0.0 - separation,
                ]
            ),
            np.array([0.0, 0.0, 0.0, -MARGIN]),
        ),
        bounds=[
            (0.0, COEFF_BOUND),
            (-COEFF_BOUND, COEFF_BOUND),
            (-COEFF_BOUND, COEFF_BOUND),
            (0.0, COEFF_BOUND),
        ],
        objective=separation,
        families=[("init", 0, 1), ("unsafe", 1, 2), ("step", 2, 3), ("side", 3, 4)],
    )
    sol = solve_lp(problem)
    lp_time = _time.perf_counter() - t0
    if sol.status != "optimal" or sol.objective < MARGIN:
        return AngleSynthesisResult("unsolved", None, None, lp_time, 0.0)
    c, gamma, lam, delta = (float(v) for v in sol.x)
    # keep part of the slack as a buffer against boundary samples
    slack = lam - gamma - delta * t_steps - MARGIN
    gamma += slack / 4.0
    lam -= slack / 4.0
    delta += slack / (6.0 * t_steps)
    cert = AngleCertificate(
        c=round(c, 6),
        gamma=round(gamma, 6) + 1e-6,
        lam=round(lam, 6) - 1e-6,
        delta=round(delta, 6) + 1e-6,
        horizon=t_steps,
    )
    t1 = _time.perf_counter()
    report = verify_queries(
        angle_queries(cert, g, timeout_s), solver_command, workdir, jobs=1
    )
    smt_time = _time.perf_counter() - t1
    status = {"verified": "solved", "refuted": "unsolved", "unknown": "unknown"}[
        report.overall
    ]
    return AngleSynthesisResult(status, cert, report, lp_time, smt_time)


def noise_envelope_safe(g: GroverInstance) -> bool:
    """Exact per-step reachable envelope check over the horizon.

    At step t the reachable angles form the interval [lo + t*(theta-eta),
    hi + t*(theta+eta)]. Membership in the unsafe arc is taken on the
    unwrapped angle, matching the linear certificate's semantics (the
    declared sets are angle intervals, not their mod-2*pi shadows)."""
    lo, hi = initial_interval(g)
    th = theta(g)
    for t in range(g.horizon_steps + 1):
        a = lo + t * (th - g.eta)
        b = hi + t * (th + g.eta)
        if a <= UNSAFE_HI and b >= UNSAFE_LO:
            return False
    return True


def enumerate_noise_safe(g: GroverInstance, grid: int = 33, limit: int = 4000) -> bool:
    """Trajectory enumeration over a grid of initial angles and noise
    sequences drawn from {-eta, 0, eta}; exhaustive when 3^T fits in the
    limit, extreme-plus-random otherwise."""
    lo, hi = initial_interval(g)
    th = theta(g)
    t_steps = g.horizon_steps
    phis = np.linspace(lo, hi, grid)
    if 3 ** t_steps <= limit:
        choices = [(-g.eta, 0.0, g.eta)] * t_steps
        seqs = [[]]
        for opts in choices:
            seqs = [s + [o] for s in seqs for o in opts]
    else:
        rng = np.random.default_rng(7)
        seqs = [[-g.eta] * t_steps, [0.0] * t_steps, [g.eta] * t_steps]
        seqs += [
            list(rng.choice([-g.eta, 0.0, g.eta], size=t_steps))
            for _ in range(min(limit, 200))
        ]
    for phi0 in phis:
        for seq in seqs:
            phi = float(phi0)
            for mu in seq:
                phi = grover_step(phi, th + mu)
                if UNSAFE_LO <= phi <= UNSAFE_HI:
                    return False
    return True
