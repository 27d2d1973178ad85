"""Extractable qubit-reservoir entanglement for a Lorentzian-spectrum bath.

The closed-form no-jump amplitudes, two independent dynamical oracles (a
pseudomode Lindblad propagator and a brute-force discretized continuum),
the Wootters concurrence of the embedded two-qubit state, the C_max(xi)
non-Markovianity curve, and the sideband-drive control map.
"""
from ._version import SCHEMA_VERSION, __version__
from .analytic import (
    OptimumRecord,
    amplitudes,
    c_max,
    c_max_derivative,
    concurrence,
    survival_probability,
    t_opt_formula,
)
from .entanglement import (
    TwoQubitDensity,
    embed,
    wootters_concurrence,
    xstate_concurrence,
)
from .errors import (
    DomainError,
    EigensolverError,
    FormError,
    IntegrationError,
    InvariantError,
    TargetNotReachable,
)
from .lindblad import LindbladConfig, LindbladTrajectory, concurrence_from_state, integrate, rhs
from .model import (
    DensityMatrix3,
    ModelParams,
    PureAmplitudes,
    RescaledTime,
    params_from_physical,
    pure_to_density,
    tau_from_time,
)
from .multimode import (
    DiscretizedBath,
    MultimodeState,
    MultimodeTrajectory,
    collective_amplitude,
    evolve,
    reservoir_concurrence,
    sample_bath,
)
from .sideband import (
    SidebandConfig,
    bessel_jn,
    effective_coupling,
    preferred_sideband_order,
    solve_amplitude,
)
from .sweep import (
    CheckResult,
    CmaxCurve,
    SweepGrid,
    SweepResult,
    VerificationReport,
    cmax_curve,
    heatmap,
    verify,
)

__all__ = [
    "SCHEMA_VERSION",
    "__version__",
    "OptimumRecord",
    "amplitudes",
    "c_max",
    "c_max_derivative",
    "concurrence",
    "survival_probability",
    "t_opt_formula",
    "TwoQubitDensity",
    "embed",
    "wootters_concurrence",
    "xstate_concurrence",
    "DomainError",
    "EigensolverError",
    "FormError",
    "IntegrationError",
    "InvariantError",
    "TargetNotReachable",
    "LindbladConfig",
    "LindbladTrajectory",
    "concurrence_from_state",
    "integrate",
    "rhs",
    "DensityMatrix3",
    "ModelParams",
    "PureAmplitudes",
    "RescaledTime",
    "params_from_physical",
    "pure_to_density",
    "tau_from_time",
    "DiscretizedBath",
    "MultimodeState",
    "MultimodeTrajectory",
    "collective_amplitude",
    "evolve",
    "reservoir_concurrence",
    "sample_bath",
    "SidebandConfig",
    "bessel_jn",
    "effective_coupling",
    "preferred_sideband_order",
    "solve_amplitude",
    "CheckResult",
    "CmaxCurve",
    "SweepGrid",
    "SweepResult",
    "VerificationReport",
    "cmax_curve",
    "heatmap",
    "verify",
]
