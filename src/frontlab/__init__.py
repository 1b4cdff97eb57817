"""Numerical laboratory for a two-species free boundary problem in which one
species diffuses by a nonlocal convolution operator and the other by ordinary
diffusion, on a shared interval whose endpoints move with the solution.

Public surface: what the README and the CLI use (kernels, the moving-domain
solver, principal eigenvalues and the critical length, spreading/vanishing
classification, threshold estimation, parameter sweeps, super-solution
domination checks, config loading), plus the control, result and error types
those functions take or return.  Everything else stays in its submodule.
"""

from .classify import (
    Classification,
    PhaseTable,
    ScanControl,
    ThresholdEstimate,
    classify,
    estimate_threshold,
    make_dichotomy_stop,
    sweep,
)
from .config import RunConfig, load_config
from .eigen import (
    CriticalLengthResult,
    EigenProblem,
    EigenResult,
    critical_length,
    default_n,
    lambda_p,
    lambda_p_interval,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    FrontlabError,
    InconclusiveError,
    RegimeError,
    SolverFailure,
)
from .kernels import Kernel, make_kernel
from .model import InitialData, ModelParams
from .solver import RunControl, Trajectory, run
from .supersolution import (
    DominationReport,
    SuperSolutionSpec,
    build_vanishing_supersolution,
    check_domination,
)

__version__ = "0.1.0"

__all__ = [
    # simulation and classification
    "InitialData", "ModelParams", "RunControl", "Trajectory", "run",
    "Classification", "classify", "make_dichotomy_stop",
    "ScanControl", "ThresholdEstimate", "estimate_threshold",
    "PhaseTable", "sweep",
    # kernels, eigenvalues, critical length
    "Kernel", "make_kernel",
    "EigenProblem", "EigenResult", "default_n", "lambda_p", "lambda_p_interval",
    "CriticalLengthResult", "critical_length",
    # super-solution checks
    "SuperSolutionSpec", "DominationReport", "build_vanishing_supersolution", "check_domination",
    # configs
    "RunConfig", "load_config",
    # errors
    "FrontlabError", "ConfigError", "ConvergenceError", "InconclusiveError", "RegimeError", "SolverFailure",
]
