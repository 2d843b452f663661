"""SMT encoding of certificate conditions and the solver runs that decide them.

The exports load their submodule on first use: the `qbarrier-smt` entry
point imports `qbarrier.smt.builtin`, which needs neither."""
from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(
    __name__,
    {
        "encode": ("SMTQuery", "StructConstraint", "conditions_for", "encode_condition"),
        "run": ("Verdict", "VerificationReport", "SolverToolError", "run_solver", "verify_certificate"),
    },
)
