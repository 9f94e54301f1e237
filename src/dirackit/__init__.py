"""dirackit: exact Poisson/Dirac bracket analysis of finite-dimensional
constrained Hamiltonian systems.

Everything is exact rational arithmetic; floating point appears only in
numeric evaluation and on-shell sampling.
"""

__version__ = "0.1.0"

from .analysis import (
    Classification,
    SamplerConfig,
    TraceIdentity,
    classify_constraints,
    dof_count,
    reduction_check,
    sample_on_shell,
    trace_identity,
)
from .brackets import (
    ConstraintSystem,
    DiracContext,
    bracket_table,
    constraint_gradients,
    delta_matrix,
    dirac_bracket,
    make_context,
    poisson_bracket,
)
from .closure import (
    AlgebraReport,
    PrimarySet,
    Verdict,
    closure_analysis,
    decompose_linear,
    finite_dim_obstruction,
    lemma_verdict,
    trace_verdict,
)
from .expr import RationalExpr
from .matrix import invert_matrix
from .parser import parse_expression
from .phase_space import PhaseSpace
from .poly import Polynomial
from .sysfile import SystemSpec, load_system

__all__ = [
    "AlgebraReport",
    "Classification",
    "ConstraintSystem",
    "DiracContext",
    "PhaseSpace",
    "Polynomial",
    "PrimarySet",
    "RationalExpr",
    "SamplerConfig",
    "SystemSpec",
    "TraceIdentity",
    "Verdict",
    "bracket_table",
    "classify_constraints",
    "closure_analysis",
    "constraint_gradients",
    "decompose_linear",
    "delta_matrix",
    "dirac_bracket",
    "dof_count",
    "finite_dim_obstruction",
    "invert_matrix",
    "lemma_verdict",
    "load_system",
    "make_context",
    "parse_expression",
    "poisson_bracket",
    "reduction_check",
    "sample_on_shell",
    "trace_identity",
    "trace_verdict",
]
