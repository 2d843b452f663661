import math
import sys
import time

import numpy as np
import pytest

from qbarrier import (
    QuantumState,
    Region,
    SynthesisConfig,
    basis_state,
    full_sphere,
    membership,
    parse_constraint,
    parse_region,
    sample_scenarios,
    sample_states,
    sobol_to_state,
)
from qbarrier.regions import RegionEmptyError, RegionError


def test_membership_basis_states():
    r = parse_region(["prob(1) >= 0.2"], 8, "r")
    assert membership(r, basis_state(1, 3))
    uniform = QuantumState(np.full(8, 1 / math.sqrt(8), dtype=complex))
    r2 = parse_region(["prob(0) >= 0.9"], 8, "r2")
    assert not membership(r2, uniform)
    assert membership(full_sphere(8), uniform)


def test_membership_dimension_check():
    r = parse_region(["prob(0) >= 0.5"], 4, "r")
    with pytest.raises(RegionError):
        membership(r, basis_state(0, 3))


def test_sample_states_postconditions():
    r = parse_region(["prob(0) >= 0.9"], 2, "init")
    scen = sample_states(r, 3, seed=1)
    assert scen.count == 3
    p0 = np.abs(scen.states[:, 0]) ** 2
    assert (p0 >= 0.9).all()
    norms = np.linalg.norm(scen.states, axis=1)
    assert np.max(np.abs(norms - 1)) <= 1e-9


def test_sampling_deterministic_bit_for_bit():
    r = parse_region(["prob(0) >= 0.9"], 8, "init")
    a = sample_states(r, 257, seed=42)
    b = sample_states(r, 257, seed=42)
    assert np.array_equal(a.states, b.states)
    c = sample_states(r, 257, seed=43)
    assert not np.array_equal(a.states, c.states)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_sphere_coverage_against_random_oracle(n):
    dim = 2 ** n
    scen = sample_states(full_sphere(dim), 1000, seed=3)
    means = np.mean(np.abs(scen.states) ** 2, axis=0)
    assert np.max(np.abs(means - 1 / dim)) < 0.05
    # oracle: pseudo-random uniform sphere sampling agrees
    rng = np.random.default_rng(99)
    raw = rng.normal(size=(1000, dim)) + 1j * rng.normal(size=(1000, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    oracle_means = np.mean(np.abs(raw) ** 2, axis=0)
    assert np.max(np.abs(oracle_means - 1 / dim)) < 0.05


def test_all_emitted_samples_pass_membership():
    specs = {
        "single": ["prob(0) >= 0.9"],
        "two-sided": ["prob(0) >= 0.24", "prob(0) <= 0.26"],
        "sum": ["prob(1)+prob(2)+prob(3) >= 0.5"],
    }
    for name, spec in specs.items():
        r = parse_region(spec, 4, name)
        scen = sample_states(r, 400, seed=8)
        assert r.membership_batch(scen.states).all(), name


def test_real_part_constraint_sampled_by_rejection():
    r = parse_region(["re(0) >= 0.2"], 2, "rehalf")
    scen = sample_states(r, 200, seed=3)
    assert (scen.states[:, 0].real >= 0.2).all()
    assert r.membership_batch(scen.states).all()


def test_contradictory_region_raises_empty():
    r = parse_region(["prob(0) >= 0.9", "prob(0) <= 0.1"], 2, "bad")
    with pytest.raises(RegionEmptyError):
        sample_states(r, 1, seed=0)


def test_thin_region_exhausts_rejection_budget():
    # satisfiable only on a measure-zero set: re(0) both-signs pinned
    r = parse_region(["re(0) >= 0.70710678", "re(0) <= 0.70710678"], 2, "thin")
    with pytest.raises(RegionEmptyError):
        sample_states(r, 2, seed=0)


@pytest.mark.parametrize(
    "spec",
    [
        ["prob(0) >= 0.9", "prob(0) <= 0.1"],  # refused before any draw
        ["re(0) >= 0.70710678", "re(0) <= 0.70710678"],  # rejection budget
    ],
    ids=["contradictory", "thin"],
)
@pytest.mark.parametrize("which", [0, 1, 2], ids=["init", "unsafe", "global"])
def test_region_errors_reach_the_caller_of_sample_scenarios(spec, which):
    bad = parse_region(spec, 2, "bad")
    with pytest.raises(RegionEmptyError) as direct:
        sample_states(bad, 2, seed=1 + which)
    regions = [full_sphere(2)] * 3
    regions[which] = bad
    with pytest.raises(RegionEmptyError) as threaded:
        sample_scenarios(*regions, SynthesisConfig(samples=2, seed=1))
    assert type(threaded.value) is type(direct.value)
    assert str(threaded.value) == str(direct.value)


def test_membership_calls_from_sampling_threads_take_turns(monkeypatch):
    # a counter kept by a wrapper, as the traced benchmark keeps one: a
    # read-modify-write that a thread switch between read and write splits
    seen = [0]
    original = Region.membership_batch

    def counting(self, states):
        ok = original(self, states)
        count = seen[0]
        time.sleep(0)  # let another thread run
        seen[0] = count + ok.shape[0]
        return ok

    monkeypatch.setattr(Region, "membership_batch", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # five 4096-state batches per region, every state accepted
        sample_scenarios(*[full_sphere(4)] * 3, SynthesisConfig(samples=20000, seed=1))
    finally:
        sys.setswitchinterval(interval)
    assert seen[0] == 3 * 5 * 4096


def test_sobol_to_state_degenerate_corner():
    # all simplex coordinates zero: mass lands on the last coordinate
    s = sobol_to_state(np.zeros(3), 1)
    assert np.allclose(np.abs(s.amps) ** 2, [0.0, 1.0])


def test_sobol_to_state_phase_mapping():
    point = np.array([0.5, 0.5, 0.5])  # phases 0.5 -> pi
    s = sobol_to_state(point, 1)
    assert abs(np.angle(s.amps[0]) - math.pi) < 1e-12 or abs(s.amps[0]) < 1e-12
    assert abs(np.angle(s.amps[1]) - math.pi) < 1e-12


def test_sobol_to_state_normalization_exact():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        dim = 2 ** n
        for _ in range(20):
            point = rng.random(2 * dim - 1)
            given = point.copy()
            s = sobol_to_state(point, n)
            assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) <= 1e-12
            assert point.tobytes() == given.tobytes()


def test_constraint_parsing():
    c = parse_constraint("prob(1)+prob(2)+prob(3) >= 0.5")
    assert c.op == ">=" and len(c.terms) == 3
    c2 = parse_constraint("im(3) <= 0.01")
    assert c2.terms == (("im", 3, 1.0),)
    c3 = parse_constraint("0.5*prob(1) - re(0) <= 0.3")
    assert c3.terms[0] == ("prob", 1, 0.5)
    assert c3.terms[1] == ("re", 0, -1.0)
    c4 = parse_constraint("1e-3*prob(0)+2.5E+1*re(1) <= 0.5")
    assert c4.terms == (("prob", 0, 1e-3), ("re", 1, 25.0))
    c5 = parse_constraint("prob(0)-1e-3*prob(1) >= 0")
    assert c5.terms == (("prob", 0, 1.0), ("prob", 1, -1e-3))
    with pytest.raises(RegionError):
        parse_constraint("prob(0) == 0.5")
    with pytest.raises(RegionError):
        parse_constraint("mag(0) >= 0.5")


def test_region_index_bounds():
    with pytest.raises(RegionError):
        parse_region(["prob(4) >= 0.5"], 4, "r")
