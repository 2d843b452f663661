"""qbarrier benchmark: certify, grow and recheck workloads.

    python3 perfbench/run.py --workload {certify,grow,recheck} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; qbarrier is imported from its `src/` and
from nowhere else. One client runs the workload's operations one at a time
(a closed loop), in a single process. An operation is one synthesis job
(`qbarrier.cli.run_job`) or one re-check of a stored certificate
(`qbarrier.smt.run.verify_certificate`).

With `--trace 0` the workload is run in full passes until the next pass
would end after `--seconds`, at least once, and the end-to-end metrics are
reported: wall time of a pass (median over passes), set-up time (median of
several fresh processes), peak resident memory, the share of operations with
a correct verdict and the number of certificate terms. With `--trace 1` one
untraced pass is followed by one traced pass, and the per-layer metrics of
the traced pass are reported, with the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Results with the environment
are written to `perfbench/out/`, spans of a traced run too.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DATA = HERE / "data"
CONFIGS = HERE / "configs"

WORKLOADS = {
    # the full solved path: sampling, LP rebuilds per counterexample round,
    # polish/finalize, encoding and the builtin deciders
    "certify": (
        "swap6_infinite",
        "altcxcz4_infinite",
        "tgate5_infinite",
        "cnot4_infinite",
        "xgate2_infinite",
        "zgate3_finite",
        "hadamard1_finite_t1",
        "czgate2_infinite",
        "grover_n5_m1",
        "grover_n5_m8",
        "grover_n10_m128",
        "grover_n30_m1000",
        "zgate3_invariant",
        "zhe2_invariant",
    ),
    # exhausts the template search without a candidate: cold HiGHS solves
    "grow": ("xgate3_finite_t1", "groverfull2_infinite", "xgate1_infinite"),
    # stored candidates only: encoding, parsing, deciders, model re-check
    "recheck": (),
}

# Expected statuses of the bundled rows with the builtin solver, as the
# README lists them.
README_STATUS = {
    "swap6_infinite": "solved",
    "altcxcz4_infinite": "solved",
    "tgate5_infinite": "solved",
    "cnot4_infinite": "solved",
    "xgate2_infinite": "solved",
    "zgate3_finite": "solved",
    "hadamard1_finite_t1": "solved",
    "czgate2_infinite": "solved",
    "grover_n5_m1": "solved",
    "grover_n5_m8": "solved",
    "grover_n10_m128": "solved",
    "grover_n30_m1000": "solved",
    "xgate3_finite_t1": "unsolved",
    "groverfull2_infinite": "unsolved",
    "xgate1_infinite": "unsolved",
}

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "verdict_ok", "cert_terms")
TRACE_METRICS = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
SETUP_PROBES = 3
ORACLE_STEPS = 50  # stands in for an unbounded horizon, as in the acceptance tests
ORACLE_GRID = 1000
ORACLE_SEED = 1234


def import_program():
    """Put this checkout's `src/` first on the path and import qbarrier."""
    if not (SRC / "qbarrier" / "__init__.py").is_file():
        raise SystemExit(f"error: no qbarrier sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qbarrier

    where = Path(qbarrier.__file__).resolve().parent
    if where != (SRC / "qbarrier").resolve():
        raise SystemExit(f"error: imported qbarrier from {where}, not {SRC}")


# ----- inputs ---------------------------------------------------------------


def config_path(name: str) -> Path:
    """The bench-local config of that name, else the bundled one."""
    from qbarrier.cli import bundled_config_path

    local = CONFIGS / f"{name}.cfg"
    return local if local.is_file() else bundled_config_path(name)


def load_expected() -> dict[int, dict[str, str]]:
    """Expected status of each certify/grow job at each synthesis seed."""
    doc = json.loads((DATA / "expected_status.json").read_text(encoding="utf-8"))
    return {int(seed): table for seed, table in doc.items()}


def synthesis_seeds(seed: int, count: int, pool: list[int]) -> list[int]:
    """Synthesis seed of each of `count` jobs: consecutive entries of the
    pool of seeds with recorded statuses, starting at the benchmark seed.
    Spreading one run over the pool keeps the work of a run close to that of
    any other run, while each seed still gives its own inputs."""
    pool = sorted(pool)
    return [pool[(seed + i) % len(pool)] for i in range(count)]


@dataclass
class Recheck:
    config: str
    job: object
    cert: object
    verdict: str


def load_recheck(path: Path) -> list[Recheck]:
    """Stored candidate certificates with the verdict each one got.

    Raises ValueError when a certificate's dimension differs from its job's."""
    from qbarrier import load_config
    from qbarrier.templates import Certificate

    doc = json.loads(path.read_text(encoding="utf-8"))
    jobs: dict[str, object] = {}
    out = []
    for i, entry in enumerate(doc["certificates"]):
        name = entry["config"]
        if name not in jobs:
            jobs[name] = load_config(config_path(name))
        job = jobs[name]
        cert = Certificate.from_dict(entry["certificate"])
        if job.kind != "circuit" or cert.dim != job.dynamics.dim:
            raise ValueError(
                f"certificate {i}: dimension {cert.dim} does not match the "
                f"{job.kind} job {name}"
            )
        out.append(Recheck(name, job, cert, entry["verdict"]))
    return out


# ----- passes ---------------------------------------------------------------


@dataclass
class Outcome:
    name: str
    status: str
    expected: str
    seconds: float
    terms: int | None = None
    error: str | None = None


def job_span(tracer):
    """The span around one operation, when tracing."""
    return tracer.span("job") if tracer else contextlib.nullcontext()


def run_jobs_pass(jobs, expected: dict[str, str], workdir: Path, tracer=None):
    import qbarrier.cli
    from qbarrier.lp import LPError
    from qbarrier.regions import RegionError
    from qbarrier.smt.run import SolverToolError

    outcomes = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            with job_span(tracer):
                report = qbarrier.cli.run_job(job, workdir / job.name)
            status, terms, error = report.status, report.terms_used, None
        except (SolverToolError, LPError, RegionError) as exc:
            status, terms, error = "error", None, f"{type(exc).__name__}: {exc}"
        outcomes.append(
            Outcome(job.name, status, expected.get(job.name, "?"),
                    time.perf_counter() - t0, terms, error)
        )
    return time.perf_counter() - start, outcomes


def run_recheck_pass(items: list[Recheck], workdir: Path, tracer=None):
    import qbarrier.smt.run

    outcomes = []
    start = time.perf_counter()
    for i, item in enumerate(items):
        job = item.job
        t0 = time.perf_counter()
        try:
            with job_span(tracer):
                report, _ = qbarrier.smt.run.verify_certificate(
                    item.cert,
                    job.init_region,
                    job.unsafe_region,
                    job.global_region,
                    job.dynamics,
                    command=job.smt.solver,
                    workdir=workdir / f"{i:03d}",
                    timeout_s=job.smt.timeout,
                    jobs=1,
                )
            status, error = report.overall, None
        except qbarrier.smt.run.SolverToolError as exc:
            status, error = "error", f"SolverToolError: {exc}"
        outcomes.append(
            Outcome(item.config, status, item.verdict, time.perf_counter() - t0,
                    item.cert.template.n_terms, error)
        )
    return time.perf_counter() - start, outcomes


class Runner:
    """One workload's inputs, set up once, and its passes, which write
    their query files under `perfbench/out/work/`."""

    def __init__(self, workload: str, seed: int):
        from qbarrier import load_config

        self.workload = workload
        self.workdir = OUT / "work" / workload
        self.expected: dict[str, str] = {}
        if workload == "recheck":
            self.items = load_recheck(DATA / "recheck.json")
            random.Random(seed).shuffle(self.items)
            return
        table = load_expected()
        names = WORKLOADS[workload]
        self.items = []
        for name, syn_seed in zip(names, synthesis_seeds(seed, len(names), list(table))):
            job = load_config(config_path(name))
            job.synthesis.seed = syn_seed
            self.expected[name] = table[syn_seed][name]
            self.items.append(job)

    def synthesis_seeds(self) -> dict[str, int]:
        if self.workload == "recheck":
            return {}
        return {j.name: j.synthesis.seed for j in self.items}

    def jobs_by_name(self) -> dict:
        return {} if self.workload == "recheck" else {j.name: j for j in self.items}

    def run_pass(self, tracer=None):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        try:
            if self.workload == "recheck":
                return run_recheck_pass(self.items, self.workdir, tracer)
            return run_jobs_pass(self.items, self.expected, self.workdir, tracer)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


# ----- checks ---------------------------------------------------------------


def oracle_safe(job) -> bool:
    """Independent check of a safety claim: trajectory replay for circuit
    jobs, the exact reachable-angle envelope for angle jobs."""
    from qbarrier.grover import noise_envelope_safe
    from qbarrier.oracle import trajectory_safe

    if job.kind == "grover":
        return noise_envelope_safe(job.grover)
    steps = job.synthesis.horizon or ORACLE_STEPS
    return trajectory_safe(
        job.dynamics, job.init_region, job.unsafe_region,
        steps=steps, grid=ORACLE_GRID, seed=ORACLE_SEED,
    )


def check(passes: list[list[Outcome]], jobs_by_name: dict) -> list[str]:
    """Failure messages, at most one per operation."""
    failures = []
    oracle: dict[str, bool] = {}
    for p, outcomes in enumerate(passes):
        for o in outcomes:
            if o.error is not None:
                failures.append(f"pass {p} {o.name}: {o.error}")
            elif o.status != o.expected:
                failures.append(f"pass {p} {o.name}: {o.status}, expected {o.expected}")
            elif o.status == "solved":
                if o.name not in oracle:
                    oracle[o.name] = oracle_safe(jobs_by_name[o.name])
                if not oracle[o.name]:
                    failures.append(f"pass {p} {o.name}: solved but the oracle "
                                    "finds an unsafe trajectory")
    return failures


# ----- measurement ------------------------------------------------------------


def measure(runner: Runner, seconds: float):
    """Whole passes until the next one would end after `seconds`."""
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        wall, outcomes = runner.run_pass()
        walls.append(wall)
        passes.append(outcomes)
        used = time.perf_counter() - start
        if used + statistics.median(walls) > seconds:
            return walls, passes


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh benchmark process to its first job."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read from its own
    .git directory so that no enclosing repository is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, synthesis_seeds: dict[str, int]) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "synthesis_seeds": synthesis_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def traced_run(runner: Runner):
    """One untraced pass, then one traced pass; the per-layer metrics."""
    import layers
    from spans import Tracer

    untraced, first = runner.run_pass()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced, second = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = layers.metrics(tracer)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return [untraced, traced], [first, second], metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    runner = Runner(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    env = environment(args, runner.synthesis_seeds())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = None
    if args.trace:
        walls, passes, metrics, tracer = traced_run(runner)
        failures = check(passes, runner.jobs_by_name())
        attempted = sum(len(p) for p in passes)
        tracer.write(OUT / f"spans-{stem}.json", {"environment": env})
    else:
        walls, passes = measure(runner, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check(passes, runner.jobs_by_name())
        attempted = sum(len(p) for p in passes)
        env["setup_samples_s"] = [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(env["setup_samples_s"]), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "verdict_ok": ((attempted - len(failures)) / attempted, "ratio"),
            "cert_terms": (sum(o.terms or 0 for o in passes[0]), "count"),
        }

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    doc = dict(result, environment=env, pass_walls_s=walls, failures=failures,
               operations=[asdict(o) for o in passes[0]])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env))
    for o in passes[0]:
        print(f"  {o.name:<22} {o.status:<9} expected {o.expected:<9} {o.seconds:8.3f} s")
    print("passes " + " ".join(f"{w:.3f}" for w in walls) + " s")
    for msg in failures:
        print("FAILED " + msg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
