"""Pseudomode master equation, solved by the exact propagator of its generator.

The Lorentzian reservoir is equivalent to one lossy mode: on the rescaled
single-excitation basis (|e,0>, |g,1>, |g,0>) the generator is

    d(rho)/d(tau) = -i [H, rho] + kappa~ (a rho a+ - {a+ a, rho}/2)

with H = xi (|e,0><g,1| + h.c.), a = |g,0><g,1| and kappa~ = 4.  The
coherence 2|rho_{e0,g1}| of the solution equals the extractable concurrence
of the closed-form no-jump dynamics, which is what the cross-checks assert.
The generator is constant, so rho(tau) = exp(tau L) rho(0) holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, InvariantError
from .model import DensityMatrix3, ModelParams, RescaledTime, _as_tau, _sample_times

KAPPA_RESCALED = 4.0

# Degree-13 Pade coefficients and the 1-norm up to which they give exp to
# double precision (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class LindbladConfig:
    """Propagation request: parameters and horizon."""

    params: ModelParams
    t_end: RescaledTime | float

    def __post_init__(self):
        t = _as_tau(self.t_end)
        if t < 0 or not np.isfinite(t):
            raise DomainError(f"t_end must be nonnegative, got {t}")
        object.__setattr__(self, "t_end", float(t))


def rhs(rho, params: ModelParams) -> np.ndarray:
    """Generator applied to a state; returns the (traceless) time derivative."""
    m = rho.matrix if isinstance(rho, DensityMatrix3) else np.asarray(rho, dtype=complex)
    xi = params.xi
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = xi
    out = -1j * (h @ m - m @ h)
    half = 0.5 * KAPPA_RESCALED
    out[1, :] -= half * m[1, :]
    out[:, 1] -= half * m[:, 1]
    out[2, 2] += KAPPA_RESCALED * m[1, 1]
    return out


@dataclass(frozen=True)
class IntegratorStats:
    """Deterministic counters of one run."""

    propagators: int  # one per distinct sample interval
    squarings: int  # summed over the propagators
    generator_calls: int
    worst_trace_drift: float  # over the emitted samples
    min_eigenvalue: float


@dataclass(frozen=True)
class LindbladTrajectory:
    taus: np.ndarray
    states: list[DensityMatrix3]
    solver: IntegratorStats

    @property
    def p_e0(self) -> np.ndarray:
        return np.array([s.p_e0 for s in self.states])

    @property
    def p_g1(self) -> np.ndarray:
        return np.array([s.p_g1 for s in self.states])

    @property
    def p_g0(self) -> np.ndarray:
        return np.array([s.p_g0 for s in self.states])

    @property
    def coherences(self) -> np.ndarray:
        return np.array([s.coherence for s in self.states])

    @property
    def concurrences(self) -> np.ndarray:
        return 2.0 * np.abs(self.coherences)


def _liouvillian(f, params: ModelParams) -> np.ndarray:
    """The linear generator ``f`` as a 9x9 matrix on row-major flattened states."""
    basis = np.eye(9, dtype=complex).reshape(9, 3, 3)
    return np.array([np.asarray(f(e, params), dtype=complex).reshape(9) for e in basis]).T


def _expm(a: np.ndarray) -> tuple[np.ndarray, int]:
    """exp(a) by scaling and squaring; returns it and the number of squarings.

    No eigendecomposition, so it stays accurate where the generator is defective
    (the exceptional point at xi = 1).
    """
    s = max(0, int(np.frexp(np.abs(a).sum(axis=0).max() / _THETA13)[1]))
    a = a * 2.0**-s
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # (v - u)^-1 (v + u) written so that exp(0) is exactly the identity
    e = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        e = e @ e
    return e, s


def integrate(
    config: LindbladConfig,
    sample_taus: np.ndarray | None = None,
    rhs_fn=None,
) -> LindbladTrajectory:
    """Propagate the master equation exactly from one sample time to the next.

    The generator is probed once into a 9x9 matrix L on the flattened state.
    Each distinct interval h between consecutive samples (the first one
    counted from tau = 0) gets one propagator exp(h L), so a sample costs one
    matvec.  Every sample is validated as a :class:`DensityMatrix3`; one
    outside its floors, or a propagator that is not finite, raises
    ``IntegrationError``.

    ``rhs_fn`` replaces the built-in generator (same signature as :func:`rhs`
    applied to a 3x3 array, and linear like it: it is probed on the nine basis
    matrices, and a generator that is not linear raises ``DomainError``); the
    verification harness uses this to prove the cross-checks catch an
    injected defect.
    """
    samples = _sample_times(sample_taus, float(config.t_end))
    f = rhs if rhs_fn is None else rhs_fn
    L = _liouvillian(f, config.params)
    # the probes pin a linear generator down; an affine or nonlinear one
    # would be silently replaced, so check it on one generic combination
    probe = np.arange(1.0, 10.0) + 1j * np.arange(9.0, 0.0, -1.0)
    gap = np.abs(np.asarray(f(probe.reshape(3, 3), config.params)).reshape(9) - L @ probe)
    if not gap.max() <= 1e-12 * np.abs(L).max() * np.abs(probe).sum():
        raise DomainError(f"generator is not linear: off by {gap.max()} on a probe state")

    steps, which = np.unique(np.diff(samples, prepend=0.0), return_inverse=True)
    propagators, squarings = [], 0
    for h in steps:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
            e, s = _expm(h * L)
        if not np.isfinite(e).all():
            raise IntegrationError(f"propagator over a tau step of {h} is not finite")
        propagators.append(e)
        squarings += s

    y = np.zeros(9, dtype=complex)
    y[0] = 1.0
    out: list[DensityMatrix3] = []
    for tau, k in zip(samples, which):
        y = propagators[k] @ y
        m = y.reshape(3, 3)
        try:
            out.append(DensityMatrix3(0.5 * (m + m.conj().T)))
        except InvariantError as exc:
            raise IntegrationError(f"{exc} at tau={tau}") from None
    stats = IntegratorStats(
        propagators=len(steps), squarings=squarings,
        generator_calls=L.shape[1] + 1,  # one probe per basis matrix, one check
        worst_trace_drift=max(float(abs(s.matrix.trace().real - 1.0)) for s in out),
        min_eigenvalue=min(s.min_eigenvalue for s in out),
    )
    return LindbladTrajectory(samples, out, stats)


def concurrence_from_state(rho: DensityMatrix3) -> float:
    """Extractable concurrence read off the unconditional state."""
    return 2.0 * abs(rho.coherence)
