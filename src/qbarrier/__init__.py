"""Barrier-certificate synthesis and checking for quantum circuits.

The pipeline: model a circuit as a discrete-time unitary system on the unit
sphere of C^(2^n), sample scenario states from the initial/unsafe/global
regions, fit certificate coefficients by linear programming, and confirm the
universally quantified conditions with an SMT solver on the negated
formulas.
"""

import importlib
import sys

# public name -> the submodule that defines it. Each submodule is imported on
# first use of one of its names (PEP 562), so `import qbarrier.smt.builtin`,
# the `qbarrier-smt` entry point, loads none of the synthesis modules.
_EXPORTS = {
    "quantum": (
        "Dynamics",
        "Gate",
        "QuantumState",
        "Schedule",
        "StepMap",
        "UncertainGate",
        "basis_state",
        "constant_dynamics",
        "grover_operator",
        "lift",
        "standard_gate",
        "step",
        "tensor",
    ),
    "regions": (
        "Region",
        "RegionEmptyError",
        "ScenarioSet",
        "full_sphere",
        "membership",
        "parse_constraint",
        "parse_region",
        "sample_states",
        "sobol_to_state",
    ),
    "templates": (
        "BarrierTemplate",
        "Certificate",
        "Monomial",
        "enumerate_terms",
        "eval_real",
        "eval_real_batch",
        "full_template",
    ),
    "lp": (
        "DenseRows",
        "LPProblem",
        "LPSolution",
        "Scenarios",
        "ScenarioLP",
        "ScenarioRows",
        "SynthesisConfig",
        "SynthesisResult",
        "extract_certificate",
        "recheck_solution",
        "sample_scenarios",
        "solve_lp",
        "synthesis_loop",
    ),
    "smt": (
        "SMTQuery",
        "SolverToolError",
        "Verdict",
        "VerificationReport",
        "conditions_for",
        "encode_condition",
        "run_solver",
        "verify_certificate",
    ),
    "grover": (
        "AngleCertificate",
        "GroverInstance",
        "grover_step",
        "horizon",
        "initial_interval",
        "synth_angle_certificate",
        "theta",
        "unsafe_interval",
        "wrap_angle",
    ),
    "config": ("ConfigError", "JobConfig", "load_config"),
}


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """`__all__` and a module `__getattr__` (PEP 562) for a package whose
    public names live in its submodules: the first use of a name, or of a
    submodule by its name, imports that submodule."""
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in exports:
            return importlib.import_module(f".{name}", package)
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module_of[name]}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(module_of), __getattr__


__all__, __getattr__ = _lazy_exports(__name__, _EXPORTS)
__version__ = "0.1.0"
