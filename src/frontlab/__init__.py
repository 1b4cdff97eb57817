"""Numerical laboratory for a two-species free boundary problem in which one
species diffuses by a nonlocal convolution operator and the other by ordinary
diffusion, on a shared interval whose endpoints move with the solution.

Public surface: kernels, model parameters and bounds, the principal-eigenvalue
tools, the moving-domain solver, spreading/vanishing classification, threshold
estimation, parameter sweeps, super-solution domination checks, and the
config-driven CLI.
"""

from .classify import (
    CERT_A_RATE,
    CERT_ELL_STAR,
    CERT_HORIZON,
    CERT_PI_SQRT_D2,
    CERT_PLATEAU,
    PHASE_COLUMNS,
    SPREADING,
    SWEEP_AXES,
    UNDECIDED,
    VANISHING,
    Classification,
    ClassifyTolerances,
    PhaseTable,
    ScanControl,
    ThresholdEstimate,
    classify,
    ell_star_cached,
    estimate_threshold,
    make_dichotomy_stop,
    spreading_length_threshold,
    sweep,
)
from .config import RunConfig, load_config, parse_config, render_config
from .errors import (
    ConfigError,
    ConvergenceError,
    FrontlabError,
    InconclusiveError,
    RegimeError,
    SolverFailure,
)
from .eigen import (
    CriticalLengthResult,
    EigenProblem,
    EigenResult,
    critical_length,
    default_n,
    lambda_p,
    lambda_p_interval,
)
from .kernels import KNOWN_FAMILIES, Kernel, make_kernel
from .model import (
    KINDS,
    Bounds,
    InitialData,
    ModelParams,
    coexistence_state,
    cosine_bump,
    field_bounds,
    in_weak_regime,
    reaction,
)
from .solver import (
    RunControl,
    Snapshot,
    State,
    Trajectory,
    TransformedCoeffs,
    auto_dt,
    boundary_velocities,
    fixed_domain_run,
    initial_state,
    run,
    step,
    transform_coefficients,
)
from .supersolution import (
    DominationReport,
    SuperSolutionSpec,
    build_vanishing_supersolution,
    build_vanishing_supersolution_predation,
    check_domination,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
