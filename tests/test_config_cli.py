import csv
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbarrier
from qbarrier import load_config
from qbarrier.cli import bundled_config_path, main, pin_mmap_threshold
from qbarrier.config import ConfigError
from qbarrier.lp import sample_scenarios
from qbarrier.report import TOOL_ERROR_EXIT

TINY_CFG = """
[circuit]
qubits = 1
map.u0 = Z 0
schedule = constant u0

[regions]
init = prob(0) >= 0.9
unsafe = prob(0) <= 0.1

[synthesis]
flavor = k-inductive
degree = 2
samples = 200
seed = 3
k = 1
epsilon = 0.01

[smt]
solver = builtin
timeout = 60
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def test_load_bundled_configs_parse():
    for name in ("zgate3_finite", "hadamard1_infinite", "grover_n5_m8"):
        job = load_config(bundled_config_path(name))
        assert job.smt.timeout == 300.0


SHIPPED_CONFIGS = sorted(
    (Path(qbarrier.__file__).parent / "configs").glob("*.cfg")
) + sorted((Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.cfg"))


def test_config_corpus_is_found():
    assert len(SHIPPED_CONFIGS) == 39


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_every_shipped_config_loads(path):
    job = load_config(path)
    assert job.kind == ("grover" if "grover" in job.raw else "circuit")


def test_config_error_reports_field(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG.replace("prob(0) >= 0.9", "prob(zero) >= 0.9"))
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "init" in str(err.value)
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text(TINY_CFG.replace("Z 0", "WUMPUS 0"))
    with pytest.raises(ConfigError):
        load_config(bad2)
    bad3 = tmp_path / "bad3.cfg"
    bad3.write_text(TINY_CFG.replace("Z 0", "Z 4"))
    with pytest.raises(ConfigError):
        load_config(bad3)
    bad4 = tmp_path / "bad4.cfg"
    bad4.write_text(
        TINY_CFG.replace("qubits = 1", "qubits = 2").replace("Z 0", "Z 0; HE 5")
    )
    with pytest.raises(ConfigError, match="map.u0.*out of range"):
        load_config(bad4)


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("unsafe = prob(0) <= 0.1", "unsafe = prob(0) <= 0.1\nglobl =", "globl"),
        ("seed = 3", "seed = 3\nmarginn = 5", "marginn"),
        ("seed = 3", "seed = 3\non-unknown = continue", "on-unknown"),
        ("[smt]", "[extras]\nx = 1\n\n[smt]", "extras"),
        ("timeout = 60", "timeout = soon", "timeout"),
        ("degree = 2", "degree = 0", "degree"),
        ("seed = 3", "seed = -3", "seed"),
        ("seed = 3", "seed = 3\nmax-terms = -1", "max-terms"),
        ("seed = 3", "seed = 3\nresample-rounds = -1", "resample-rounds"),
        ("timeout = 60", "timeout = -5", "timeout"),
        ("timeout = 60", "timeout = 0", "timeout"),
        ("timeout = 60", "timeout = inf", "timeout"),
        ("timeout = 60", "timeout = nan", "timeout"),
        ("timeout = 60", "timeout = 60\njobs = -2", "jobs"),
        ("epsilon = 0.01", "epsilon = inf", "epsilon"),
        ("epsilon = 0.01", "epsilon = nan", "epsilon"),
        ("epsilon = 0.01", "epsilon = 0.01\ngamma = -inf", "gamma"),
        ("k = 1\nepsilon = 0.01", "k = 2\nepsilon = 1e308", "epsilon"),
        # the HE gate is not unitary at an infinite weight, nor where the
        # weight's square overflows
        ("Z 0", "HE 0 [0.9,inf]", "map.u0"),
        ("Z 0", "HE 0 [1e200,1e201]", "map.u0"),
    ],
    ids=[
        "regions-key",
        "synthesis-key",
        "removed-key",
        "section",
        "smt-value",
        "degree-range",
        "seed-range",
        "max-terms-range",
        "rounds-range",
        "timeout-negative",
        "timeout-zero",
        "timeout-inf",
        "timeout-nan",
        "jobs-range",
        "epsilon-inf",
        "epsilon-nan",
        "gamma-inf",
        "epsilon-overflow",
        "he-infinite-end",
        "he-overflowing-end",
    ],
)
def test_strict_parser_exits_four_naming_the_key(tmp_path, capsys, old, new, key):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG.replace(old, new))
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 4
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--timeout", "-5"), ("--timeout", "inf"), ("--jobs", "0"), ("--seed", "-1")],
)
def test_budget_overrides_exit_four_naming_the_key(tiny_config, tmp_path, capsys, flag, value):
    code = main(["synth", "--config", str(tiny_config), "--out", str(tmp_path / "o"), flag, value])
    assert code == 4
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_synth_command_solves_and_writes_report(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["synth", "--config", str(tiny_config), "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "solved"
    assert (out / "certificate.json").exists()
    assert (out / "report.txt").exists()
    smt_files = list((out / "smt2").rglob("*.smt2"))
    assert smt_files, "solver artifacts are written"


def test_synth_reports_reproducible_modulo_times(tiny_config, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        doc.pop("generation_s")
        doc.pop("verification_s")
        for cond in doc["conditions"]:
            cond.pop("wall_s")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_report_lp_counts_repeat_at_a_seed(tiny_config, tmp_path):
    docs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
        docs.append(json.loads((out / "report.json").read_text()))
    lp = docs[0]["lp"]
    assert lp and lp == docs[1]["lp"]
    keys = {"terms", "round", "rows", "rows_kept", "highs_calls", "simplex_iterations", "outcome"}
    assert all(set(entry) == keys for entry in lp)
    assert lp[-1]["outcome"] == "verified" and lp[-1]["terms"] == docs[0]["terms_used"]
    assert {e["outcome"] for e in lp[:-1]} <= {"no-candidate", "refuted"}
    assert all(0 < e["rows_kept"] <= e["rows"] and e["highs_calls"] >= 1 for e in lp)


def test_malformed_config_exits_above_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG.replace("prob(0) >= 0.9", "prob(0) == 0.9"))
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code > 2


def test_verify_roundtrip_and_tamper(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
    cert_path = out / "certificate.json"
    code = main(
        ["verify", str(cert_path), "--config", str(tiny_config),
         "--out", str(tmp_path / "v1")]
    )
    assert code == 0

    doc = json.loads(cert_path.read_text())
    doc["coefficients"][0][0][0] -= 50.0  # drop the constant term badly
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code = main(
        ["verify", str(tampered), "--config", str(tiny_config),
         "--out", str(tmp_path / "v2")]
    )
    captured = capsys.readouterr().out
    assert code == 1
    assert "unsafe" in captured and "sat" in captured


def test_verify_dimension_mismatch(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
    two_qubit = tmp_path / "two.cfg"
    two_qubit.write_text(
        TINY_CFG.replace("qubits = 1", "qubits = 2").replace(
            "map.u0 = Z 0", "map.u0 = Z 0; Z 1"
        )
    )
    code = main(
        ["verify", str(out / "certificate.json"), "--config", str(two_qubit),
         "--out", str(tmp_path / "v3")]
    )
    assert code > 2


# one X flip carries init into unsafe
X_FLIP_CFG = """
[circuit]
qubits = 1
map.u0 = X 0
schedule = constant u0

[regions]
init = prob(0) >= 0.9
unsafe = prob(1) >= 0.9

[synthesis]
flavor = k-inductive
k = 2
"""

# B = 0 with d = 0.4, eps = 0.1 as written, but d = eps = 0 at zero
# decimals, which is what every state condition reads
ZERO_CERT = {
    "dim": 2,
    "flavor": "k-inductive",
    "terms": [[0, 0, 0, 0]],
    "coefficients": [[[0, 0]]],
    "constants": {"d": 0.4, "eps": 0.1, "k": 2},
    "decimals": 0,
}


def _verify(tmp_path, cfg_text, cert_doc):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(cfg_text)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_doc))
    return main(["verify", str(cert), "--config", str(cfg), "--out", str(tmp_path / "v")])


def test_verify_reads_side_conditions_at_the_certificate_decimals(tmp_path, capsys):
    assert _verify(tmp_path, X_FLIP_CFG, ZERO_CERT) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split()[:2] == ["side-margin", "sat"]
    assert lines[-1] == "overall: refuted"
    assert all(line.split()[1] == "unsat" for line in lines[:-2])


ANGLE_CERT = {"kind": "angle-linear", "c": 1.0, "gamma": 0.0, "lam": 1.0, "delta": 0.0, "T": 2}
# the grover_n5_m1 certificate; its job's horizon is 5 steps
GROVER_N5_CERT = {
    "kind": "angle-linear", "c": 21.220659, "gamma": 11.087338, "lam": 93.543261, "delta": 14.769369, "T": 5,
}


@pytest.mark.parametrize(
    "change,message",
    [
        ({"decimals": -1}, "decimals must be null or an integer >= 0"),
        ({"constants": {"d": 0.4, "eps": 0.1, "k": 0}}, "k must be an integer >= 1"),
        # written as Infinity, which json reads back as a float
        ({"coefficients": [[[float("inf"), 0]]]}, "coefficients must be finite"),
        # an angle certificate's horizon is checked against its job, as a
        # circuit certificate's is, and a boolean is not a number
        (GROVER_N5_CERT | {"T": 1}, "T = 1 does not match the job horizon 5"),
        (GROVER_N5_CERT | {"T": 2.5}, "'T' must be an integer >= 1"),
        (GROVER_N5_CERT | {"T": True}, "'T' must be a finite number"),
        (GROVER_N5_CERT | {"c": True}, "'c' must be a finite number"),
    ],
)
def test_verify_rejects_malformed_certificates(tmp_path, capsys, change, message):
    if change.get("kind") == "angle-linear":
        cfg, doc = bundled_config_path("grover_n5_m1").read_text(), change
    else:
        cfg, doc = X_FLIP_CFG, ZERO_CERT | change
    assert _verify(tmp_path, cfg, doc) == 4
    assert message in capsys.readouterr().err


def test_verify_accepts_the_angle_certificate_at_its_job_horizon(tmp_path, capsys):
    cfg = bundled_config_path("grover_n5_m1").read_text()
    assert _verify(tmp_path, cfg, GROVER_N5_CERT) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: verified"


# a value of the wrong type is a certificate error that names its field,
# not a crash whose exit code reads as refuted
@pytest.mark.parametrize(
    "doc,field",
    [
        ([ZERO_CERT], "JSON object"),
        (ZERO_CERT | {"constants": {"d": None, "eps": 0.1, "k": 2}}, "'constants'"),
        (ZERO_CERT | {"coefficients": [[["a", 0]]]}, "'coefficients'"),
        (ZERO_CERT | {"terms": 5}, "'terms'"),
        (ANGLE_CERT | {"T": "2"}, "'T'"),
    ],
    ids=["list", "null-constant", "string-coefficient", "int-terms", "string-T"],
)
def test_verify_rejects_wrongly_typed_certificate_values(tmp_path, capsys, doc, field):
    assert _verify(tmp_path, X_FLIP_CFG, doc) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


# the 3-cycle |01> -> |10> -> |11>: init reaches unsafe at step 2
CYCLE_CFG = """
[circuit]
qubits = 2
map.u0 = CX 0 1; SWAP 0 1
schedule = constant u0

[regions]
init = prob(1) >= 0.9
unsafe = prob(3) >= 0.9

[synthesis]
flavor = finite-horizon
horizon = 2
"""

# B = |z2|^2 + 2|z3|^2 proves one step safe
ONE_STEP_CERT = {
    "dim": 4,
    "flavor": "finite-horizon",
    "terms": [[0] * 8, [0, 0, 1, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 0, 1]],
    "coefficients": [[[0, 0], [1, 0], [2, 0]]],
    "constants": {"gamma": 0.2, "lam": 1.7, "delta": 1, "T": 1},
}


def test_verify_checks_the_certificate_horizon_against_the_job(tmp_path, capsys):
    from qbarrier.oracle import trajectory_safe

    job = tmp_path / "cycle.cfg"
    job.write_text(CYCLE_CFG)
    job = load_config(job)
    assert not trajectory_safe(job.dynamics, job.init_region, job.unsafe_region, 2, grid=50)
    assert _verify(tmp_path, CYCLE_CFG, ONE_STEP_CERT) == 4
    assert "horizon T = 1 does not match the job horizon 2" in capsys.readouterr().err
    no_horizon = CYCLE_CFG.replace("flavor = finite-horizon\nhorizon = 2", "flavor = invariant")
    assert _verify(tmp_path, no_horizon, ONE_STEP_CERT) == 4
    assert "job horizon None" in capsys.readouterr().err
    assert _verify(tmp_path, CYCLE_CFG.replace("horizon = 2", "horizon = 1"), ONE_STEP_CERT) == 0


def test_sample_command_rows_and_determinism(tiny_config, tmp_path):
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sample", "--config", str(tiny_config), "--count", "10",
                 "--out", str(f1)]) == 0
    assert main(["sample", "--config", str(tiny_config), "--count", "10",
                 "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    with f1.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["region", "re0", "im0", "re1", "im1"]
    assert len(rows) == 1 + 3 * 10  # header + three regions
    for row in rows[1:]:
        amps = np.array(
            [complex(float(row[1]), float(row[2])),
             complex(float(row[3]), float(row[4]))]
        )
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-9


def test_sample_command_dumps_the_synthesis_scenarios(tiny_config, tmp_path):
    # synthesis draws init, unsafe and global at seeds seed, seed + 1 and
    # seed + 2; the dump must hold those same states
    out = tmp_path / "s.csv"
    assert main(["sample", "--config", str(tiny_config), "--count", "7",
                 "--seed", "11", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))[1:]
    job = load_config(tiny_config)
    cfg = dataclasses.replace(job.synthesis, samples=7, seed=11)
    scenarios = sample_scenarios(job.init_region, job.unsafe_region, job.global_region, cfg)
    draws = (scenarios.init, scenarios.unsafe, scenarios.global_states)
    for k, (region, states) in enumerate(zip(("init", "unsafe", "global"), draws)):
        block = rows[7 * k : 7 * (k + 1)]
        assert [row[0] for row in block] == [region] * 7
        values = np.array([[float(v) for v in row[1:]] for row in block])
        assert values.tobytes() == states.view(float).tobytes()


def test_seed_flag_and_solver_env_override(tiny_config, tmp_path, monkeypatch):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--config", str(tiny_config), "--count", "5",
                 "--out", str(f1), "--seed", "99"]) == 0
    assert main(["sample", "--config", str(tiny_config), "--count", "5",
                 "--out", str(f2)]) == 0
    assert f1.read_bytes() != f2.read_bytes()
    monkeypatch.setenv("QBARRIER_SOLVER", "definitely-not-a-solver {file}")
    code = main(["synth", "--config", str(tiny_config),
                 "--out", str(tmp_path / "envrun")])
    assert code > 2  # the env-selected solver cannot be launched


def test_sample_count_zero_rejected(tiny_config, tmp_path):
    code = main(["sample", "--config", str(tiny_config), "--count", "0",
                 "--out", str(tmp_path / "s.csv")])
    assert code > 2


@pytest.mark.parametrize("repetitions", ["0", "-2"])
def test_bench_rejects_fewer_than_one_repetition(tmp_path, capsys, repetitions):
    out = tmp_path / "bench"
    code = main(
        ["bench", "--suite", "grover", "--repetitions", repetitions, "--out", str(out)]
    )
    assert code == 4
    assert "--repetitions" in capsys.readouterr().err
    assert not out.exists()


def test_bench_grover_suite_single_repetition(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(
        ["bench", "--suite", "grover", "--repetitions", "1", "--out", str(out)]
    )
    assert code == 0
    csv_path = out / "grover.csv"
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert row["status"] == "solved"
        assert float(row["generation_std"]) == 0.0
        assert float(row["verification_std"]) == 0.0


def test_unknown_suite_rejected(tmp_path):
    assert main(["bench", "--suite", "nope", "--out", str(tmp_path)]) > 2


def test_unseparable_regions_report_unsolved(tmp_path):
    # initial and unsafe sets overlap, so no certificate can exist at any
    # template size: the loop must exhaust its budget and exit with 1
    cfg = tmp_path / "overlap.cfg"
    cfg.write_text(
        TINY_CFG.replace("prob(0) <= 0.1", "prob(0) >= 0.89").replace(
            "samples = 200", "samples = 150\nmax-terms = 6"
        )
    )
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["status"] == "unsolved"
    assert report["certificate"] is None


def test_contradictory_bounds_exit_as_tool_error(tmp_path, capsys):
    # the unsafe region is sampled on a worker thread; its error must still
    # end the run as a tool error
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(TINY_CFG.replace("prob(0) <= 0.1", "prob(0) <= 0.1, prob(0) >= 0.2"))
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == TOOL_ERROR_EXIT
    assert "tool error: region appears empty or thin" in capsys.readouterr().err


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/statm"),
    reason="glibc allocator settings, read through /proc",
)
def test_pinned_mmap_threshold_returns_freed_arrays():
    assert pin_mmap_threshold()
    # unpinned, freeing the first block lifts the threshold above 20 MiB, and
    # the second block then stays resident in the heap after it is freed
    for _ in range(2):
        before = _resident_mb()
        block = np.ones(20 << 17)  # 20 MiB, every page touched
        del block
        assert _resident_mb() - before < 4


# Run in a fresh process: which glibc arenas exist, and what the heap holds,
# depends on every test run before it in the same process.
SAMPLING_FOOTPRINT = """
import os
from qbarrier.cli import pin_mmap_threshold
from qbarrier.lp import SynthesisConfig, sample_scenarios
from qbarrier.regions import full_sphere, parse_region, sample_states


def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


assert pin_mmap_threshold()
dim = 32
init = parse_region(["prob(0) >= 0.9"], dim, "init")
unsafe = parse_region(["prob(0) <= 0.1"], dim, "unsafe")
sample_states(full_sphere(dim), 64, seed=9)  # loads the Sobol table here
before = resident_mb()
scenarios = sample_scenarios(init, unsafe, full_sphere(dim), SynthesisConfig(samples=20000, seed=1))
held = sum(a.nbytes for a in (scenarios.init, scenarios.unsafe, scenarios.global_states))
print(resident_mb() - before - held / 2**20)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/statm"),
    reason="glibc allocator settings, read through /proc",
)
def test_threaded_sampling_leaves_only_its_result_resident():
    # the 3 x 20,000 x 32 states take 29.3 MiB. Each worker thread's own
    # arena would keep about 10 MiB of freed batches resident, and the one
    # arena without malloc_trim about 18 MiB
    src = str(Path(qbarrier.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", SAMPLING_FOOTPRINT],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert float(out.stdout) < 4
