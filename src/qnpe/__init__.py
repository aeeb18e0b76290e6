"""Matrix-free quasi-Newton proximal extragradient solver for smooth
(strongly) monotone nonlinear equations."""

from .certificates import verify_iteration_certificates
from .driver import (
    Mode,
    SolverConfig,
    extragradient_baseline,
    solve,
)
from .learner import Learner, observe_loss
from .linear_solver import CglsStart, KrylovBasis, linear_solve
from .problems import (
    GenerationError,
    General,
    JSymmetric,
    PrimalDualBox,
    Problem,
    SolverError,
    Sparse,
    Symmetric,
    evaluate_gap,
    make_bilinear_minimax,
    make_logsumexp_min,
    make_quadratic_min,
    make_sparse_equation,
)
from .spectral import SepCase, ext_evec, max_svec
from .trace import RunTrace, trace_from_csv, trace_to_csv

__version__ = "0.1.0"

__all__ = [
    "CglsStart",
    "General",
    "GenerationError",
    "JSymmetric",
    "KrylovBasis",
    "Learner",
    "Mode",
    "PrimalDualBox",
    "Problem",
    "RunTrace",
    "SepCase",
    "SolverConfig",
    "SolverError",
    "Sparse",
    "Symmetric",
    "evaluate_gap",
    "ext_evec",
    "extragradient_baseline",
    "linear_solve",
    "make_bilinear_minimax",
    "make_logsumexp_min",
    "make_quadratic_min",
    "make_sparse_equation",
    "max_svec",
    "observe_loss",
    "solve",
    "trace_from_csv",
    "trace_to_csv",
    "verify_iteration_certificates",
]
