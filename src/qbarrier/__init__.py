"""Barrier-certificate synthesis and checking for quantum circuits.

The pipeline: model a circuit as a discrete-time unitary system on the unit
sphere of C^(2^n), sample scenario states from the initial/unsafe/global
regions, fit certificate coefficients by linear programming, and confirm the
universally quantified conditions with an SMT solver on the negated
formulas.
"""

from .quantum import (
    Dynamics,
    Gate,
    QuantumState,
    Schedule,
    StepMap,
    UncertainGate,
    basis_state,
    constant_dynamics,
    grover_operator,
    hadamard_uncertain,
    lift,
    standard_gate,
    step,
    tensor,
)
from .regions import (
    Region,
    RegionEmptyError,
    ScenarioSet,
    full_sphere,
    membership,
    parse_constraint,
    parse_region,
    sample_states,
    sobol_to_state,
)
from .templates import (
    BarrierTemplate,
    Certificate,
    Monomial,
    enumerate_terms,
    eval_real,
    eval_real_batch,
    full_template,
)
from .lp import (
    DenseRows,
    LPProblem,
    LPSolution,
    Scenarios,
    ScenarioLP,
    ScenarioRows,
    SynthesisConfig,
    SynthesisResult,
    extract_certificate,
    recheck_solution,
    sample_scenarios,
    solve_lp,
    synthesis_loop,
)
from .smt import (
    SMTQuery,
    SolverToolError,
    Verdict,
    VerificationReport,
    conditions_for,
    encode_condition,
    run_solver,
    verify_certificate,
)
from .grover import (
    AngleCertificate,
    GroverInstance,
    grover_step,
    horizon,
    initial_interval,
    synth_angle_certificate,
    theta,
    unsafe_interval,
    wrap_angle,
)
from .config import ConfigError, JobConfig, load_config

__version__ = "0.1.0"
