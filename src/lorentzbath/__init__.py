"""Extractable qubit-reservoir entanglement for a Lorentzian-spectrum bath.

The closed-form no-jump amplitudes, two independent dynamical oracles (a
pseudomode Lindblad propagator and a brute-force discretized continuum),
the Wootters concurrence of the two-qubit state, the C_max(xi)
non-Markovianity curve, and the sideband-drive control map.

``import lorentzbath`` runs only ``_version``.  Every other submodule is
registered in ``sys.modules`` and on the package by ``importlib``'s
``LazyLoader`` and runs on its first attribute access, so a command loads
only the modules it uses.  Each name of ``__all__`` is served from its
defining module on access (PEP 562).  ``LazyLoader`` is not
thread-safe: load the package from one thread.
"""
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from ._version import SCHEMA_VERSION, __version__

# defining submodule -> its public names, in the order of __all__
_EXPORTS = {
    "analytic": "OptimumRecord amplitudes c_max concurrence t_opt_formula",
    "battery": "CheckResult VerificationReport",
    "entanglement": "wootters_concurrence",
    "errors": "DomainError EigensolverError FormError IntegrationError InvariantError "
              "TargetNotReachable",
    "lindblad": "LindbladTrajectory integrate rhs",
    "model": "DensityMatrix3 ModelParams PureAmplitudes params_from_physical "
             "pure_to_density tau_from_time xstate_concurrence",
    "multimode": "DiscretizedBath MultimodeTrajectory collective_amplitude evolve sample_bath",
    "sideband": "SidebandConfig bessel_jn effective_coupling solve_amplitude",
    "sweep": "CmaxCurve SweepGrid SweepResult cmax_curve heatmap verify",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["SCHEMA_VERSION", "__version__", *_ORIGIN]


def _lazy(name):
    """Register submodule ``name``; its code runs on first attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__():
    return sorted({*globals(), *_ORIGIN})
