"""One-off capture of the benchmark's recorded inputs and expectations.

    python3 perfbench/capture.py recheck
    python3 perfbench/capture.py statuses SEED [SEED ...]

`recheck` runs the seed-7 synthesis of every bundled circuit row that
produces candidates (except the full-state search rows and
hadamard2_finite_t1, which cost minutes and add no new query shapes) and of
the bench-local jobs, records every candidate handed to
`qbarrier.lp.verify_certificate` with the verdict it got, and writes
`data/recheck.json`.

`statuses` runs every certify and grow job at each given synthesis seed and
records its status in `data/expected_status.json`. A seed at which a bundled
row's status differs from the README's list is reported and not recorded.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

RECHECK_SEED = 7
RECHECK_SKIP = ("groverfull2_infinite", "groverfull5_infinite", "hadamard2_finite_t1")
LOCAL_JOBS = ("zgate3_invariant", "zhe2_invariant")


def capture_recheck() -> None:
    import qbarrier.lp
    from qbarrier import load_config
    from qbarrier.cli import SUITES, run_job

    names = [n for n in SUITES["infinite"] + SUITES["finite"] if n not in RECHECK_SKIP]
    names += list(LOCAL_JOBS)
    records = []
    original = qbarrier.lp.verify_certificate

    def recording(cert, *args, **kwargs):
        report, queries = original(cert, *args, **kwargs)
        records.append(
            {"config": current, "verdict": report.overall, "certificate": cert.to_dict()}
        )
        return report, queries

    qbarrier.lp.verify_certificate = recording
    try:
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            for current in names:
                job = load_config(run.config_path(current))
                job.synthesis.seed = RECHECK_SEED
                before = len(records)
                report = run_job(job, Path(tmp) / current)
                print(f"{current:<22} {report.status:<9} {len(records) - before} candidates",
                      flush=True)
    finally:
        qbarrier.lp.verify_certificate = original
    doc = {"seed": RECHECK_SEED, "certificates": records}
    (run.DATA / "recheck.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    verdicts = [r["verdict"] for r in records]
    print({v: verdicts.count(v) for v in sorted(set(verdicts))})


def capture_statuses(seeds: list[int]) -> None:
    from qbarrier import load_config
    from qbarrier.cli import run_job

    path = run.DATA / "expected_status.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    names = run.WORKLOADS["certify"] + run.WORKLOADS["grow"]
    for seed in seeds:
        statuses = {}
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            for name in names:
                job = load_config(run.config_path(name))
                job.synthesis.seed = seed
                statuses[name] = run_job(job, Path(tmp) / name).status
        wrong = {
            n: s for n, s in statuses.items()
            if n in run.README_STATUS and s != run.README_STATUS[n]
        }
        if wrong:
            print(f"seed {seed}: not recorded, differs from the README: {wrong}")
            continue
        table[str(seed)] = statuses
        print(f"seed {seed}: {statuses}", flush=True)
    ordered = {k: table[k] for k in sorted(table, key=int)}
    path.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    run.import_program()
    run.DATA.mkdir(exist_ok=True)
    if argv[:1] == ["recheck"]:
        capture_recheck()
    elif argv[:1] == ["statuses"] and len(argv) > 1:
        capture_statuses([int(s) for s in argv[1:]])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
