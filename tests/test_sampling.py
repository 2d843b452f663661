"""Pins of the sampled scenario states and tests of the in-repo Sobol stream.

The digests were recorded with `scipy.stats.qmc.Sobol(d, scramble=False)`
as the stream; the in-repo stream must reproduce them bit for bit. scipy's
generator stays the reference here and is imported by no program module.
"""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qbarrier
from qbarrier import load_config, sample_scenarios, sample_states
from qbarrier.grover import UNSAFE_HI, UNSAFE_LO, initial_interval, sample_interval
from qbarrier.regions import (
    MAX_SOBOL_DIMS,
    RegionError,
    SobolStream,
    _direction_matrix,
    _joe_kuo,
    _powers_of_two,
)
from test_lp import PINNED_SYNTHESIS

CONFIGS = Path(qbarrier.__file__).parent / "configs"

# sha256 over the bytes of every sample a bundled job draws, in order: for a
# circuit job, init, unsafe and global at seeds 1-3 with min(samples, 5000)
# states each; for a grover job, its init and unsafe angle samples.
SAMPLE_DIGESTS = {
    "altcxcz2_infinite": "c2b3a4901ecd3992494a04a44c675a73223bda8fdad1bd1884921e6fc1ec7efb",
    "altcxcz4_infinite": "5e853a333477006c5f80cd2d38f36ac8d735c508abc9c35f3f172ccdc3501a38",
    "cnot2_infinite": "8d47e0a7b452f66f0f30a9c34c82001d4e7f2fc6c7252fcab77d9bbd83472e41",
    "cnot4_infinite": "5e853a333477006c5f80cd2d38f36ac8d735c508abc9c35f3f172ccdc3501a38",
    "cxcz2_infinite": "c2b3a4901ecd3992494a04a44c675a73223bda8fdad1bd1884921e6fc1ec7efb",
    "cxcz4_infinite": "5e853a333477006c5f80cd2d38f36ac8d735c508abc9c35f3f172ccdc3501a38",
    "czgate2_infinite": "60bb493fdd8c45890f5f3e73090fdb1af103e0a4d69e34b5e9d45ef00c8ba404",
    "grover_n10_m128": "c085e22d5e75e86aa62728df22b3e81f930e0830242a936007d4ce98040f4ca3",
    "grover_n30_m1000": "c9ad2795f5916129b73404c235f32ab3981264fbd656349bb3f11bf1470cad0c",
    "grover_n5_m1": "87f5149d673d38692091545cceec3a7dcbdbc47333f687a647bf88b8d15309fd",
    "grover_n5_m8": "8ea2f415dd7ae4d3c39c90207a8caf5a8fff24967e0525758326d9d0e1c1fd7d",
    "groverfull2_infinite": "e51ee0b445f90a6d7177dc0fafe5f8114d65e932ea97d902e82c5fe4756a55f5",
    "groverfull5_infinite": "0fbb68f51c9e354925db047e0252f49d7ac54e8c699b358ded84a94a53abcdfd",
    "hadamard1_finite_t1": "6a42585b4010861a8199f32a8f2852569396272d1f76d365cab85482129344eb",
    "hadamard1_finite_t2": "6a42585b4010861a8199f32a8f2852569396272d1f76d365cab85482129344eb",
    "hadamard1_infinite": "72771365cc4a6889510ae572d572106e1cceda960f2a4f1f7c1df1978fe661f8",
    "hadamard2_finite_t1": "2bfbdb643293b8f9840dae678c88d00c50895e10dafda4f53f0ca5edf95d03f0",
    "swap2_infinite": "ff2b047c7efbdba05dbfc7e46656727713093651dc1d6ec3d9fe6b3621acd292",
    "swap4_infinite": "be1ca90b71e17e841e6fe81ccca5e432ae62d3878db0cd9957cd5e8d1b36f49c",
    "swap6_infinite": "2548d27e501dcdcc03515cc0429d9f5d4d82e140f341f04a1d3f2f43fba56021",
    "tgate3_infinite": "9c87c620d673eb3d51fec5f07b38969fc349f12e6ec3d4c10604438ec7c4e379",
    "tgate4_infinite": "3a9b0e03e8d648f3e3332ca87d34ff9c71b8bbf8860778a09ff9aa01d1c4639c",
    "tgate5_infinite": "5af99efe9668b1626bb7134880c136f15a42345a85a3232db4367785a0b67f0e",
    "xgate1_finite_t1": "0eedf2140a91d477b57b42cdbd3a5eff14db7c542b4ad853202016904d3c4da2",
    "xgate1_finite_t10": "0eedf2140a91d477b57b42cdbd3a5eff14db7c542b4ad853202016904d3c4da2",
    "xgate1_infinite": "08e52bbb1954791c235493c5fc2ffdbe34507fc7dc680ea40ef5e1a22f99976b",
    "xgate2_finite_t1": "ea8c1a23c2f3eca903b53602b88a24cc64aed07c3d490ba0315acda6f3bdf653",
    "xgate2_finite_t2": "ea8c1a23c2f3eca903b53602b88a24cc64aed07c3d490ba0315acda6f3bdf653",
    "xgate2_infinite": "ea8c1a23c2f3eca903b53602b88a24cc64aed07c3d490ba0315acda6f3bdf653",
    "xgate3_finite_t1": "1e84af16737a50b6bb99d3d1461e17e978e269efe4aaeac5dd26dd261828d8f4",
    "xgate3_finite_t2": "1e84af16737a50b6bb99d3d1461e17e978e269efe4aaeac5dd26dd261828d8f4",
    "xgate3_infinite": "1e84af16737a50b6bb99d3d1461e17e978e269efe4aaeac5dd26dd261828d8f4",
    "zgate3_finite": "0e90490b5896e9e4883eec11751a1b167e3719b59ba5bea6239b9a206a40b23e",
    "zgate3_finite_t8": "0e90490b5896e9e4883eec11751a1b167e3719b59ba5bea6239b9a206a40b23e",
    "zgate3_infinite": "9c87c620d673eb3d51fec5f07b38969fc349f12e6ec3d4c10604438ec7c4e379",
    "zgate4_infinite": "3a9b0e03e8d648f3e3332ca87d34ff9c71b8bbf8860778a09ff9aa01d1c4639c",
    "zgate5_infinite": "5af99efe9668b1626bb7134880c136f15a42345a85a3232db4367785a0b67f0e",
}


def _digest(job) -> str:
    h = hashlib.sha256()
    if job.kind == "circuit":
        n = min(job.synthesis.samples, 5000)
        for region in (job.init_region, job.unsafe_region, job.global_region):
            for seed in (1, 2, 3):
                h.update(sample_states(region, n, seed).states.tobytes())
    else:
        lo, hi = initial_interval(job.grover)
        n = job.synthesis.samples
        h.update(sample_interval(lo, hi, n).tobytes())
        h.update(sample_interval(UNSAFE_LO, UNSAFE_HI, n).tobytes())
    return h.hexdigest()


def test_every_bundled_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.cfg")) == sorted(SAMPLE_DIGESTS)


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_samples_are_pinned(name):
    assert _digest(load_config(CONFIGS / f"{name}.cfg")) == SAMPLE_DIGESTS[name]


# sha256 over init, unsafe and global at the job's full `samples`, drawn one
# after another at seeds seed, seed + 1 and seed + 2 by the sampler that
# collected accepted batches in a list and concatenated them. The jobs cover
# the single-coordinate plan (tgate5), a region whose rejection draw accepts
# only part of each batch (altcxcz4's unsafe) and the box plan (groverfull2's
# init). The pins above stop at 5,000 states, short of the last, partly
# used batch of tgate5's and altcxcz4's full draws.
FULL_SIZE_DIGESTS = {
    "altcxcz4_infinite": "f211c4763ede4225aef5daf05b621e20233784a93d00bf9b136a368c2fd55c48",
    "groverfull2_infinite": "b9a8e88eded4de27603358366d8141c769f9ea4e0eab2dadd247522ea151147c",
    "tgate5_infinite": "d4c6abe32d7cff13d92e04e80493231705a50303dcbc8d175458bdd92622952c",
}


def _differing_rows(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Indices of the rows of two same-shaped arrays whose bytes differ."""
    def as_bytes(a):
        return np.frombuffer(a.tobytes(), dtype=np.uint8).reshape(len(a), -1)

    return np.flatnonzero((as_bytes(got) != as_bytes(want)).any(axis=1))


@pytest.mark.parametrize("name", sorted(FULL_SIZE_DIGESTS))
def test_threaded_full_size_draws_match_sequential_draws(name):
    job = load_config(CONFIGS / f"{name}.cfg")
    cfg = job.synthesis
    regions = (job.init_region, job.unsafe_region, job.global_region)
    sequential = [
        sample_states(region, cfg.samples, cfg.seed + i).states
        for i, region in enumerate(regions)
    ]
    # the three threads then fill the direction-number caches at once
    _joe_kuo.cache_clear()
    _powers_of_two.cache_clear()
    scenarios = sample_scenarios(*regions, cfg)
    threaded = (scenarios.init, scenarios.unsafe, scenarios.global_states)
    for label, want, got in zip(("init", "unsafe", "global"), sequential, threaded):
        if got.shape == want.shape:
            rows = _differing_rows(got, want)
            assert len(rows) == 0, (
                f"{label}: {len(rows)} of {len(want)} states differ, the first at row {rows[0]}: "
                f"threaded {got[rows[0]].tolist()}, sequential {want[rows[0]].tolist()}"
            )
    h = hashlib.sha256()
    for want, got in zip(sequential, threaded):
        assert got.shape == (cfg.samples, job.dynamics.dim)
        assert got.tobytes() == want.tobytes()
        h.update(got.tobytes())
    assert h.hexdigest() == FULL_SIZE_DIGESTS[name]


@pytest.mark.parametrize("d", [1, 2, 3, 15, 63, 1023, MAX_SOBOL_DIMS])
def test_stream_matches_scipy(d):
    qmc = pytest.importorskip("scipy.stats").qmc
    ref = qmc.Sobol(d, scramble=False)
    ours = SobolStream(d)
    # the all-bits check is on the direction numbers; at the cap, 4096-point
    # draws would hold over 0.5 GB per array
    assert _direction_matrix(d).T.astype(np.uint32).tobytes() == ref._sv.tobytes()
    draws = (1, 7, 4096, 333, 4096) if d <= 1023 else (1, 7, 333)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy's power-of-two balance warning
        for n in draws:
            want = ref.random(n)
            got = ours.draw(n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_stream_rejects_dimensions_past_the_cap():
    with pytest.raises(RegionError, match=str(MAX_SOBOL_DIMS)):
        SobolStream(MAX_SOBOL_DIMS + 1)
    with pytest.raises(RegionError):
        sample_states(qbarrier.full_sphere(2 * (MAX_SOBOL_DIMS + 1)), 1, seed=1)


def test_stream_refuses_points_past_its_bits():
    stream = SobolStream(3)
    stream.draw(5)
    stream._count = 2**30 - 1  # as if all but one point had been drawn
    with pytest.raises(RegionError, match="exhausted"):
        stream.draw(2)
    assert stream.draw(1).shape == (1, 3)


IMPORT_PROBE = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
import qbarrier, qbarrier.cli, qbarrier.smt.builtin
from qbarrier import Certificate, full_template, load_config
from qbarrier.cli import bundled_config_path
from qbarrier.lp import DenseRows, LPProblem, _highs_class, solve_lp, synthesis_loop
from qbarrier.smt.run import verify_certificate

def loaded():
    return ["scipy.stats" in sys.modules, "scipy.optimize" in sys.modules]

seen = {"import": loaded()}
job = load_config(bundled_config_path("zgate3_finite"))
cert = Certificate(
    template=full_template(8, 2).prefix(2),
    coeff_vectors=(np.array([13.0, -10.0], dtype=complex),),
    flavor="finite-horizon",
    constants={"gamma": 4.001, "lam": 4.999, "delta": 0.0, "T": 5},
    decimals=6,
)
report, _ = verify_certificate(
    cert, job.init_region, job.unsafe_region, job.global_region, job.dynamics,
    workdir=sys.argv[1],
)
seen["verify"] = loaded() + [report.overall]
solve_lp(LPProblem(
    rows=DenseRows(np.array([[1.0]]), np.array([1.0])),
    bounds=[(None, None)],
    objective=np.array([1.0]),
    families=[("only", 0, 1)],
))
seen["solve"] = loaded()
job.synthesis.seed = 13
res = synthesis_loop(
    job.dynamics, job.init_region, job.unsafe_region, job.global_region, job.synthesis,
    solver_command=job.smt.solver, workdir=Path(sys.argv[1]) / "synth", timeout_s=job.smt.timeout,
)
text = res.certificate.to_json() + json.dumps(res.rejections, sort_keys=True)
seen["synthesis"] = loaded() + [res.status, hashlib.sha256(text.encode()).hexdigest()]
import scipy.optimize
from scipy.optimize._highspy._core import _Highs
lp = scipy.optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -2.0]], b_ub=[-2.0], bounds=[(0, None)] * 2)
seen["scipy"] = [_Highs is _highs_class(), lp.status, lp.fun]
print(json.dumps(seen))
"""


def test_import_leaves_scipy_stats_out(tmp_path):
    """Importing the package loads neither scipy.stats nor scipy.optimize,
    and neither does verifying a certificate, an LP solve or a pinned
    synthesis run: HiGHS loads from its extension alone. A later import of
    scipy.optimize reuses that extension, and its linprog still solves."""
    src = str(Path(qbarrier.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    seen = json.loads(out.stdout)
    assert seen["import"] == [False, False]
    assert seen["verify"] == [False, False, "verified"]
    assert seen["solve"] == [False, False]
    assert seen["synthesis"] == [False, False, "solved", PINNED_SYNTHESIS[("zgate3_finite", 13)]]
    assert seen["scipy"][:2] == [True, 0]
    assert seen["scipy"][2] == pytest.approx(1.0)
