"""External SMT process handling and certificate verification.

Any SMT-LIB2 solver that prints sat/unsat/unknown as its first output token
and answers (get-model) can be plugged in through a command template with
{file} and {timeout_s} placeholders. The sentinel command "builtin" routes
the query through the bundled decision engine in-process. The file is still
written, as the audit record, but the engine decides the query's structured
mirror, rebuilt as the Problem that parsing the written bytes would give;
a round-trip test over stored certificates holds the two equal.

Refuted verdicts always carry a model that is re-checked numerically: the
model must satisfy the asserted system and violate the negated condition by
more than 1e-9, otherwise the run is reported as a tool error rather than a
refutation.
"""
from __future__ import annotations

import concurrent.futures
import logging
import shlex
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import builtin as _builtin
from .encode import SMTQuery

RECHECK_SLACK = 1e-9
BUILTIN_COMMAND = "builtin"
EXTERNAL_DECIDER = "external"

log = logging.getLogger(__name__)


class SolverToolError(RuntimeError):
    """Solver crash, unparsable output, or a model that fails the re-check."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one condition query."""

    condition_id: str
    status: str  # "unsat" (verified) | "sat" (refuted) | "unknown"
    wall_s: float
    model: dict[str, float] | None = None
    reason: str = ""
    # the builtin decider that answered (see `builtin.Decision`), or
    # "external" for any other solver
    decider: str = EXTERNAL_DECIDER

    @property
    def verified(self) -> bool:
        return self.status == "unsat"


@dataclass(frozen=True)
class VerificationReport:
    overall: str  # "verified" | "refuted" | "unknown"
    verdicts: tuple[Verdict, ...]
    wall_s: float

    @property
    def status(self) -> str:
        """The job status this outcome gives: solved, unsolved or unknown."""
        return {"verified": "solved", "refuted": "unsolved", "unknown": "unknown"}[self.overall]

    @property
    def refutation(self) -> Verdict | None:
        for v in self.verdicts:
            if v.status == "sat":
                return v
        return None


def _parse_model_text(text: str) -> dict[str, float]:
    try:
        forms = _builtin.parse_sexprs(text)
    except _builtin.SmtParseError as exc:
        raise SolverToolError(f"unparsable model output: {exc}") from exc
    model: dict[str, float] = {}

    def walk(form):
        if not isinstance(form, list):
            return
        if len(form) >= 5 and form[0] == "define-fun" and form[2] == [] :
            name = form[1]
            try:
                model[name] = float(_builtin.parse_numeral(form[4]))
            except (_builtin.SmtParseError, OverflowError) as exc:
                raise SolverToolError(
                    f"model value for {name} is not a finite rational: {exc}"
                ) from exc
            return
        for sub in form:
            walk(sub)

    for form in forms:
        walk(form)
    return model


def recheck_model(query: SMTQuery, model: dict[str, float]) -> bool:
    """True iff the model satisfies every assertion, with the negated
    condition violated by more than the rounding slack."""
    point = query.amplitude_point(model)
    return all(c.holds(point, RECHECK_SLACK) for c in query.constraints)


def builtin_problem(query: SMTQuery) -> _builtin.Problem:
    """The Problem that `parse_problem(query.text)` returns, built without
    the text: variables numbered in declaration order, terms in the order
    they are emitted, each constraint normalised as the parser does. Each
    normal form is the one its constraint keeps, shared by every query that
    holds the constraint; the deciders only read it."""
    names = list(query.declarations)
    index = {name: i for i, name in enumerate(names)}
    where = tuple(index.get(name) for name in query.var_names)
    constraints = [c.normal_form(where) for c in query.constraints]
    return _builtin.Problem(names=names, constraints=constraints)


def _run_builtin(query: SMTQuery) -> tuple[str, dict | None, str]:
    decision = _builtin.solve_problem(builtin_problem(query), timeout_s=query.timeout_s)
    return (*decision, decision.decider)


def solver_argv(command: str, path: str | Path, timeout_s: float) -> list[str]:
    """The argv that runs `command` on the query file at `path`: the
    template's {file} and {timeout_s} (in whole seconds) are filled and it is
    split; a command without {file} takes the path as its last argument.

    Raises what str.format raises for a placeholder the template cannot
    fill (KeyError, IndexError, AttributeError, TypeError or ValueError),
    and ValueError for a command that does not split (an unclosed quote) or
    names no program."""
    argv = shlex.split(command.format(file=str(path), timeout_s=int(round(timeout_s))))
    if not argv:
        raise ValueError("the solver command is empty")
    return argv if "{file}" in command else argv + [str(path)]


def _run_external(query: SMTQuery, path: Path, command: str) -> tuple[str, dict | None]:
    argv = solver_argv(command, path, query.timeout_s)
    try:
        grace = min(10.0, max(2.0, 0.2 * query.timeout_s))
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=query.timeout_s + grace,
        )
    except subprocess.TimeoutExpired:
        return "unknown", None
    except OSError as exc:
        raise SolverToolError(f"cannot launch solver {argv[0]!r}: {exc}") from exc
    tokens = proc.stdout.split()
    if not tokens or tokens[0] not in ("sat", "unsat", "unknown"):
        raise SolverToolError(
            f"solver output not recognized (exit {proc.returncode}): "
            f"{proc.stdout[:200]!r} {proc.stderr[:200]!r}"
        )
    status = tokens[0]
    model = None
    if status == "sat":
        rest = proc.stdout.split("\n", 1)[1] if "\n" in proc.stdout else ""
        model = _parse_model_text(rest)
    return status, model


def run_solver(
    query: SMTQuery, command: str = BUILTIN_COMMAND, workdir: str | Path = "."
) -> Verdict:
    """Write the query file, invoke the solver, parse and re-check."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{query.condition_id}.smt2"
    path.write_text(query.text, encoding="utf-8")
    start = time.perf_counter()
    if command == BUILTIN_COMMAND:
        status, model, decider = _run_builtin(query)
    else:
        status, model = _run_external(query, path, command)
        decider = EXTERNAL_DECIDER
    wall = time.perf_counter() - start
    log.info("%s: %s (%s, %.3f s)", query.condition_id, status, decider, wall)
    if status == "sat":
        if model is None:
            raise SolverToolError(
                f"{query.condition_id}: sat verdict without a model"
            )
        if not recheck_model(query, model):
            raise SolverToolError(
                f"{query.condition_id}: sat model fails the numeric re-check"
            )
        return Verdict(query.condition_id, "sat", wall, model=model, decider=decider)
    if status == "unsat":
        return Verdict(query.condition_id, "unsat", wall, decider=decider)
    return Verdict(
        query.condition_id, "unknown", wall, reason="solver unknown/timeout", decider=decider
    )


def model_to_state(query: SMTQuery, model: dict[str, float]) -> np.ndarray:
    """Amplitudes from a model, renormalized onto the sphere."""
    dim = query.dim
    amps = np.array(
        [
            complex(model.get(f"x{j}", 0.0), model.get(f"y{j}", 0.0))
            for j in range(dim)
        ]
    )
    norm = np.linalg.norm(amps)
    if norm <= 0:
        raise SolverToolError("model state has zero norm")
    return amps / norm


def model_params(query: SMTQuery, model: dict[str, float]) -> tuple[float, ...]:
    out = []
    i = 0
    while f"u{i}" in model:
        out.append(model[f"u{i}"])
        i += 1
    return tuple(out)


def verify_queries(
    queries: Iterable[SMTQuery],
    command: str = BUILTIN_COMMAND,
    workdir: str | Path = ".",
    jobs: int = 1,
) -> VerificationReport:
    """Run condition queries in canonical order.

    Sequential runs short-circuit on the first refutation, and take no query
    from `queries` past it. With `jobs` > 1, an external solver's queries
    run on a thread pool, which evaluates everything and joins
    deterministically in iteration order. The builtin engine always runs in
    order: it holds the interpreter lock, so threads would gain nothing.
    """
    start = time.perf_counter()
    verdicts: list[Verdict] = []
    if jobs <= 1 or command == BUILTIN_COMMAND:
        for q in queries:
            v = run_solver(q, command, workdir)
            verdicts.append(v)
            if v.status == "sat":
                break
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_solver, q, command, workdir) for q in queries]
            verdicts = [f.result() for f in futures]
    wall = time.perf_counter() - start
    statuses = [v.status for v in verdicts]
    if "sat" in statuses:
        overall = "refuted"
    elif "unknown" in statuses:
        overall = "unknown"
    else:
        overall = "verified"
    return VerificationReport(overall=overall, verdicts=tuple(verdicts), wall_s=wall)


def verify_certificate(
    cert,
    init_region,
    unsafe_region,
    global_region,
    dynamics,
    command: str = BUILTIN_COMMAND,
    workdir: str | Path = ".",
    timeout_s: float = 300.0,
    jobs: int = 1,
) -> tuple[VerificationReport, list[SMTQuery]]:
    """Encode the flavor conditions and adjudicate; verified iff all unsat.

    Each condition is encoded when it is reached, so a sequential run that
    stops at a refutation encodes nothing past it. Returns the report and
    the queries encoded, in condition order.
    """
    from .encode import conditions_for, encode_condition

    queries: list[SMTQuery] = []

    def encoded():
        for spec in conditions_for(cert):
            queries.append(
                encode_condition(
                    cert, spec, init_region, unsafe_region, global_region, dynamics,
                    timeout_s,
                )
            )
            yield queries[-1]

    report = verify_queries(encoded(), command, workdir, jobs)
    return report, queries
