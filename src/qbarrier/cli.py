"""Command-line front end: synthesis jobs, standalone re-verification, the
bundled benchmark corpus, and sampler inspection.

Subcommands and exit codes:

    qbarrier synth  --config JOB.cfg [--out DIR] [--seed N] [--solver-cmd C]
                    [--timeout S] [--jobs J]
    qbarrier verify CERT.json --config JOB.cfg [--out DIR] [...]
    qbarrier bench  --suite {infinite,finite,grover} [--repetitions R]
                    [--out DIR] [--jobs J]
    qbarrier sample --config JOB.cfg --count N --out FILE.csv [--seed N]

synth/verify exit 0 when solved/verified, 1 when unsolved/refuted, 2 when
unknown, and >2 on tool or configuration errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.resources
import json
import logging
import os
import statistics
import sys
import time
from pathlib import Path

from .config import ConfigError, JobConfig, load_config
from .grover import AngleCertificate, angle_queries, synth_angle_certificate
from .heap import pin_blas_threads, pin_mmap_threshold
from .lp import LPError, sample_scenarios, synthesis_loop
from .regions import RegionError
from .report import EXIT_CODES, TOOL_ERROR_EXIT, RunReport, conditions_doc
from .smt.run import SolverToolError, verify_certificate, verify_queries
from .templates import Certificate

log = logging.getLogger("qbarrier")

SUITES: dict[str, list[str]] = {
    "infinite": [
        "zgate3_infinite",
        "zgate4_infinite",
        "zgate5_infinite",
        "cnot2_infinite",
        "cnot4_infinite",
        "tgate3_infinite",
        "tgate4_infinite",
        "tgate5_infinite",
        "czgate2_infinite",
        "hadamard1_infinite",
        "xgate1_infinite",
        "xgate2_infinite",
        "xgate3_infinite",
        "swap2_infinite",
        "swap4_infinite",
        "swap6_infinite",
        "altcxcz2_infinite",
        "altcxcz4_infinite",
        "cxcz2_infinite",
        "cxcz4_infinite",
        "groverfull2_infinite",
        "groverfull5_infinite",
    ],
    "finite": [
        "zgate3_finite",
        "zgate3_finite_t8",
        "hadamard1_finite_t1",
        "hadamard1_finite_t2",
        "hadamard2_finite_t1",
        "xgate1_finite_t1",
        "xgate1_finite_t10",
        "xgate2_finite_t1",
        "xgate2_finite_t2",
        "xgate3_finite_t1",
        "xgate3_finite_t2",
    ],
    "grover": [
        "grover_n5_m1",
        "grover_n5_m8",
        "grover_n10_m128",
        "grover_n30_m1000",
    ],
}


def bundled_config_path(name: str) -> Path:
    res = importlib.resources.files("qbarrier") / "configs" / f"{name}.cfg"
    return Path(str(res))


def _apply_overrides(job: JobConfig, args) -> JobConfig:
    if getattr(args, "seed", None) is not None:
        try:
            job.synthesis = dataclasses.replace(job.synthesis, seed=args.seed)
        except LPError as exc:
            raise ConfigError(f"command line: {exc}") from None
    if getattr(args, "solver_cmd", None):
        job.smt.solver = args.solver_cmd
    elif os.environ.get("QBARRIER_SOLVER"):
        # the solver path is the one setting with an environment override
        job.smt.solver = os.environ["QBARRIER_SOLVER"]
    budgets = {
        key: getattr(args, key)
        for key in ("timeout", "jobs")
        if getattr(args, key, None) is not None
    }
    try:
        job.smt = dataclasses.replace(job.smt, **budgets)
    except ConfigError as exc:
        raise ConfigError(f"command line: {exc}") from None
    return job


def run_job(job: JobConfig, out_dir: Path) -> RunReport:
    """Execute one synthesis job end to end and assemble its report."""
    pin_mmap_threshold()
    pin_blas_threads()
    cfg = job.synthesis
    if job.kind == "grover":
        sampling_s = 0.0
        samples = {"init": cfg.samples, "unsafe": cfg.samples}
        result = synth_angle_certificate(
            job.grover,
            samples=cfg.samples,
            solver_command=job.smt.solver,
            workdir=out_dir / "smt2",
            timeout_s=job.smt.timeout,
        )
    else:
        t0 = time.perf_counter()
        scenarios = sample_scenarios(
            job.init_region, job.unsafe_region, job.global_region, cfg
        )
        sampling_s = time.perf_counter() - t0
        samples = {
            "init": int(scenarios.init.shape[0]),
            "unsafe": int(scenarios.unsafe.shape[0]),
            "global": int(scenarios.global_states.shape[0]),
        }
        result = synthesis_loop(
            job.dynamics,
            job.init_region,
            job.unsafe_region,
            job.global_region,
            cfg,
            solver_command=job.smt.solver,
            workdir=out_dir / "smt2",
            timeout_s=job.smt.timeout,
            jobs=job.smt.jobs,
            scenarios=scenarios,
        )
    return RunReport(
        name=job.name,
        status=result.status,
        kind=job.kind,
        certificate=result.certificate.to_dict() if result.certificate else None,
        conditions=conditions_doc(result.verification),
        generation_s=sampling_s + result.lp_time,
        verification_s=result.smt_time,
        samples=samples,
        seed=cfg.seed,
        solver=job.smt.solver,
        timeout_s=job.smt.timeout,
        terms_used=result.terms_used,
        rejections=result.rejections,
        config_echo=job.raw,
        lp=result.lp,
    )


def cmd_synth(args) -> int:
    try:
        job = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    out_dir = Path(args.out) if args.out else Path("runs") / job.name
    try:
        report = run_job(job, out_dir)
    except (SolverToolError, LPError, RegionError) as exc:
        print(f"tool error: {exc}", file=sys.stderr)
        return TOOL_ERROR_EXIT
    report.write(out_dir)
    print(report.summary(), end="")
    return EXIT_CODES[report.status]


def _load_certificate(path: str):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict) and doc.get("kind") == "angle-linear":
        return AngleCertificate.from_dict(doc)
    return Certificate.from_dict(doc)


def _certificate_mismatch(cert, job: JobConfig) -> str | None:
    """Why the certificate does not fit the job: its kind, its dimension or
    its horizon T; None when it fits."""
    if isinstance(cert, AngleCertificate):
        if job.kind != "grover":
            return "angle certificate needs a [grover] job"
        horizon = job.grover.horizon_steps
    else:
        if job.kind != "circuit":
            return "polynomial certificate needs a circuit job"
        if cert.dim != job.dynamics.dim:
            return (
                f"certificate dimension {cert.dim} does not "
                f"match the circuit dimension {job.dynamics.dim}"
            )
        horizon = job.synthesis.horizon
    if cert.horizon is not None and cert.horizon != horizon:
        return f"certificate horizon T = {cert.horizon} does not match the job horizon {horizon}"
    return None


def cmd_verify(args) -> int:
    try:
        job = _apply_overrides(load_config(args.config), args)
        cert = _load_certificate(args.certificate)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    mismatch = _certificate_mismatch(cert, job)
    if mismatch:
        print(f"config error: {mismatch}", file=sys.stderr)
        return 4
    out_dir = Path(args.out) if args.out else Path("runs") / f"{job.name}-verify"
    try:
        if isinstance(cert, AngleCertificate):
            queries = angle_queries(cert, job.grover, job.smt.timeout)
            report = verify_queries(
                queries, job.smt.solver, out_dir / "smt2", jobs=job.smt.jobs
            )
        else:
            report, _ = verify_certificate(
                cert,
                job.init_region,
                job.unsafe_region,
                job.global_region,
                job.dynamics,
                command=job.smt.solver,
                workdir=out_dir / "smt2",
                timeout_s=job.smt.timeout,
                jobs=job.smt.jobs,
            )
    except SolverToolError as exc:
        print(f"tool error: {exc}", file=sys.stderr)
        return TOOL_ERROR_EXIT
    for v in report.verdicts:
        print(f"{v.condition_id:<16} {v.status:<8} ({v.wall_s:.3f} s)")
    print(f"overall: {report.overall}")
    return EXIT_CODES[report.status]


def cmd_sample(args) -> int:
    try:
        job = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    if args.count < 1:
        print("config error: --count must be >= 1", file=sys.stderr)
        return 4
    if job.kind != "circuit":
        print("config error: sample needs a circuit job with regions",
              file=sys.stderr)
        return 4
    cfg = dataclasses.replace(job.synthesis, samples=args.count)
    regions = (job.init_region, job.unsafe_region, job.global_region)
    try:
        scenarios = sample_scenarios(*regions, cfg)
    except RegionError as exc:
        print(f"tool error: {exc}", file=sys.stderr)
        return TOOL_ERROR_EXIT
    rows = []
    draws = (scenarios.init, scenarios.unsafe, scenarios.global_states)
    for region, states in zip(regions, draws):
        for state in states:
            row = [region.name]
            for amp in state:
                row += [f"{amp.real:.17g}", f"{amp.imag:.17g}"]
            rows.append(row)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        dim = job.dynamics.dim
        header = ["region"]
        for j in range(dim):
            header += [f"re{j}", f"im{j}"]
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _bench_row_meta(job: JobConfig) -> dict:
    if job.kind == "grover":
        return {
            "experiment": job.name,
            "qubits": job.grover.n,
            "steps": job.grover.horizon_steps,
            "degree": "-",
            "samples": job.synthesis.samples,
        }
    n = job.dynamics.n
    return {
        "experiment": job.name,
        "qubits": n,
        "steps": job.synthesis.horizon if job.synthesis.horizon else "-",
        "degree": job.synthesis.degree,
        "samples": job.synthesis.samples,
    }


def cmd_bench(args) -> int:
    if args.suite not in SUITES:
        print(f"config error: unknown suite {args.suite!r}", file=sys.stderr)
        return 4
    if args.repetitions < 1:
        print("config error: --repetitions must be >= 1", file=sys.stderr)
        return 4
    out_dir = Path(args.out) if args.out else Path("runs") / f"bench-{args.suite}"
    out_dir.mkdir(parents=True, exist_ok=True)
    table = []
    for name in SUITES[args.suite]:
        path = bundled_config_path(name)
        gen_times, ver_times, statuses, terms = [], [], [], []
        for rep in range(args.repetitions):
            try:
                job = _apply_overrides(load_config(path), args)
            except ConfigError as exc:
                print(f"config error in {name}: {exc}", file=sys.stderr)
                return 4
            job.synthesis.seed = job.synthesis.seed + rep
            rep_dir = out_dir / name / f"rep{rep}"
            try:
                report = run_job(job, rep_dir)
            except (SolverToolError, LPError, RegionError) as exc:
                print(f"tool error in {name}: {exc}", file=sys.stderr)
                return TOOL_ERROR_EXIT
            report.write(rep_dir)
            gen_times.append(report.generation_s)
            ver_times.append(report.verification_s)
            statuses.append(report.status)
            terms.append(report.terms_used)
        meta = _bench_row_meta(job)
        status = statuses[0] if len(set(statuses)) == 1 else "/".join(sorted(set(statuses)))
        row = dict(
            meta,
            terms=terms[0] if terms[0] is not None else "-",
            status=status,
            generation_mean=statistics.mean(gen_times),
            generation_std=statistics.pstdev(gen_times) if len(gen_times) > 1 else 0.0,
            verification_mean=statistics.mean(ver_times),
            verification_std=statistics.pstdev(ver_times) if len(ver_times) > 1 else 0.0,
        )
        table.append(row)
        print(
            f"{row['experiment']:<22} q={row['qubits']:<3} deg={row['degree']!s:<3} "
            f"N={row['samples']:<7} {row['status']:<9} "
            f"gen {row['generation_mean']:.2f} +- {row['generation_std']:.2f} s  "
            f"ver {row['verification_mean']:.2f} +- {row['verification_std']:.2f} s"
        )
    csv_path = out_dir / f"{args.suite}.csv"
    fields = [
        "experiment",
        "qubits",
        "steps",
        "degree",
        "terms",
        "samples",
        "status",
        "generation_mean",
        "generation_std",
        "verification_mean",
        "verification_std",
    ]
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in table:
            writer.writerow({k: row.get(k, "") for k in fields})
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbarrier",
        description="Scenario-LP synthesis and SMT checking of barrier "
        "certificates for quantum circuits",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required)
        p.add_argument("--seed", type=int)
        p.add_argument("--solver-cmd", dest="solver_cmd")
        p.add_argument("--timeout", type=float)
        p.add_argument("--jobs", type=int)
        p.add_argument("--out")

    p_synth = sub.add_parser("synth", help="synthesize and verify a certificate")
    common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file")
    p_verify.add_argument("certificate")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", required=True)
    p_bench.add_argument("--repetitions", type=int, default=10)
    common(p_bench, config_required=False)
    p_bench.set_defaults(func=cmd_bench)

    p_sample = sub.add_parser("sample", help="dump region samples to CSV")
    common(p_sample)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
