import math

import numpy as np
import pytest

from qbarrier import (
    Dynamics,
    Schedule,
    basis_state,
    constant_dynamics,
    lift,
    standard_gate,
    step,
    tensor,
)
from qbarrier.quantum import (
    Gate,
    NonUnitaryError,
    QuantumError,
    QuantumState,
    StepMap,
    UncertainGate,
    UnknownGateError,
    fixed_step,
)

SQ2 = 1 / math.sqrt(2)


def test_standard_gate_values():
    h = standard_gate("H")
    out = h.matrix @ basis_state(0, 1).amps
    assert np.allclose(out, [SQ2, SQ2])
    t = standard_gate("T")
    out = t.matrix @ basis_state(1, 1).amps
    assert np.allclose(out[1], np.exp(1j * math.pi / 4))
    cz = standard_gate("CZ")
    out = cz.matrix @ basis_state(3, 2).amps
    assert np.allclose(out[3], -1.0)


def test_unknown_gate_name():
    with pytest.raises(UnknownGateError):
        standard_gate("Q")


def test_tensor_single_is_identity_case():
    z = standard_gate("Z")
    assert np.array_equal(tensor([z]).matrix, z.matrix)


def test_tensor_three_z_fixes_000():
    z = standard_gate("Z")
    g = tensor([z, z, z])
    assert g.m == 3
    out = g.matrix @ basis_state(0, 3).amps
    assert np.allclose(out, basis_state(0, 3).amps)


def test_tensor_x_i_flips_first_qubit():
    g = tensor([standard_gate("X"), standard_gate("I")])
    out = g.matrix @ basis_state(0, 2).amps
    assert np.allclose(out, basis_state(2, 2).amps)  # |00> -> |10>


def test_tensor_empty_rejected():
    with pytest.raises(QuantumError):
        tensor([])


def test_step_z_dynamics_on_zero():
    d = constant_dynamics(standard_gate("Z"))
    out = step(d, 0, basis_state(0, 1))
    assert np.allclose(out.amps, basis_state(0, 1).amps)


def test_step_alternating_cx_cz_flips_target():
    d = Dynamics(
        maps=(fixed_step(standard_gate("CX")), fixed_step(standard_gate("CZ"))),
        schedule=Schedule((0, 1)),
    )
    out = step(d, 0, basis_state(2, 2))  # |10>
    assert np.allclose(out.amps, basis_state(3, 2).amps)  # |11>


def test_uncertain_mixing_gate_at_one_is_hadamard():
    ug = UncertainGate(0, 0.9, 1.1)
    g = ug.instantiate(1.0)
    assert np.allclose(g.matrix, standard_gate("H").matrix)
    d = Dynamics(
        maps=(StepMap(n=1, factors=(ug,)),), schedule=Schedule((0,))
    )
    out = step(d, 0, basis_state(0, 1), uncertainty=(1.0,))
    assert np.allclose(out.amps, [SQ2, SQ2])
    with pytest.raises(QuantumError):
        step(d, 0, basis_state(0, 1))  # missing parameter point


def test_step_factor_must_be_a_gate_or_an_uncertain_gate():
    with pytest.raises(QuantumError, match="bad step factor"):
        StepMap(n=1, factors=((UncertainGate(0), (0,)),))


def test_uncertain_parameter_outside_domain_rejected():
    ug = UncertainGate(0, 0.9, 1.1)
    with pytest.raises(QuantumError):
        ug.instantiate(2.0)
    for eps in np.linspace(0.9, 1.1, 7):
        ug.instantiate(float(eps))  # every sampled member is unitary


def test_norm_preservation_random_dynamics():
    rng = np.random.default_rng(3)
    gates = [standard_gate(n) for n in ("H", "T", "S", "X")]
    for g in gates:
        full = lift(g, [1], 2)
        d = constant_dynamics(full)
        for _ in range(20):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = QuantumState(raw / np.linalg.norm(raw))
            out = step(d, 0, s)
            assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-9


def test_composition_consistency_cz_cx():
    cx, cz = standard_gate("CX"), standard_gate("CZ")
    composed = Gate(cz.matrix @ cx.matrix)
    rng = np.random.default_rng(5)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = QuantumState(raw / np.linalg.norm(raw))
    one = step(constant_dynamics(composed), 0, s)
    two = step(constant_dynamics(cz), 0, step(constant_dynamics(cx), 0, s))
    assert np.max(np.abs(one.amps - two.amps)) <= 1e-12


def test_periodic_schedule_alternates():
    sched = Schedule((0, 1))
    for t in range(8):
        assert sched(t) == t % 2


def test_non_unitary_matrix_rejected():
    with pytest.raises(NonUnitaryError):
        Gate(np.array([[1, 0], [0, 2]], dtype=complex))


def test_nan_matrix_rejected():
    with pytest.raises(NonUnitaryError, match="nan"):
        Gate(np.array([[0, np.nan], [np.nan, 0]], dtype=complex))


@pytest.mark.parametrize("lo,hi", [(0.9, np.inf), (-np.inf, 1.1), (1e200, 1e201)])
def test_he_interval_ends_must_give_unitary_gates(lo, hi):
    with pytest.raises(NonUnitaryError):
        UncertainGate(0, lo, hi)


def test_he_gate_is_unitary_across_a_wide_interval():
    ug = UncertainGate(0, -1e150, 1e150)
    for eps in (-1e150, -3.0, 0.0, 1e-8, 7.5, 1e150):
        assert np.allclose(ug.instantiate(eps).matrix @ ug.instantiate(eps).matrix.conj().T, np.eye(2))


def test_state_validation():
    with pytest.raises(QuantumError):
        QuantumState(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(QuantumError):
        QuantumState(np.array([1.0, 0.0, 0.0]))  # not a power of two


def test_lift_places_gate_on_target():
    x = standard_gate("X")
    g = lift(x, [1], 2)
    out = g.matrix @ basis_state(0, 2).amps
    assert np.allclose(out, basis_state(1, 2).amps)  # |00> -> |01>
    with pytest.raises(QuantumError):
        lift(x, [2], 2)
