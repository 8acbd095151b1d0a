"""Distributed Luenberger observers over directed communication graphs.

Given an LTI plant whose output is partitioned across the nodes of a
strongly connected weighted digraph, this package designs a full-order
local observer per node (output injection on the node's own measurement
plus consensus coupling on the neighbors' estimates), certifies that the
joint estimation error decays at a prescribed exponential rate, and
simulates the networked error dynamics.
"""

from .decomp import (
    NodeDecomposition,
    SystemModel,
    joint_observability_rank,
    observability_matrix,
)
from .errors import (
    AssumptionViolationError,
    ConfigError,
    DimensionError,
    DivergenceError,
    InsufficientDataError,
    NumericalFailureError,
    ObserverKitError,
    SingularEquationError,
)
from .graph import BalancedStructure, Digraph, balance, is_strongly_connected, laplacian
from .sim import (
    SimulationConfig,
    SimulationTrace,
    estimate_decay_rate,
    integrate,
    write_csv,
)
from .synth import (
    NodeGains,
    ObserverDesign,
    SynthesisParams,
    assemble_gains,
    check_assumptions,
    compute_epsilon,
    place_observer_poles,
    synthesize,
)
from .verify import (
    GlobalErrorSystem,
    VerificationReport,
    build_global_error_matrix,
    lyapunov_certificate,
    spectral_abscissa_certificate,
    verify_design,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolationError",
    "BalancedStructure",
    "ConfigError",
    "Digraph",
    "DimensionError",
    "DivergenceError",
    "GlobalErrorSystem",
    "InsufficientDataError",
    "NodeDecomposition",
    "NodeGains",
    "NumericalFailureError",
    "ObserverDesign",
    "ObserverKitError",
    "SimulationConfig",
    "SimulationTrace",
    "SingularEquationError",
    "SynthesisParams",
    "SystemModel",
    "VerificationReport",
    "assemble_gains",
    "balance",
    "build_global_error_matrix",
    "check_assumptions",
    "compute_epsilon",
    "estimate_decay_rate",
    "integrate",
    "is_strongly_connected",
    "joint_observability_rank",
    "laplacian",
    "lyapunov_certificate",
    "observability_matrix",
    "place_observer_poles",
    "spectral_abscissa_certificate",
    "synthesize",
    "verify_design",
    "write_csv",
]
