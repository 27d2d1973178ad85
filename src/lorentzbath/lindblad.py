"""Pseudomode master equation, integrated with an embedded adaptive RK pair.

The Lorentzian reservoir is equivalent to one lossy mode: on the rescaled
single-excitation basis (|e,0>, |g,1>, |g,0>) the generator is

    d(rho)/d(tau) = -i [H, rho] + kappa~ (a rho a+ - {a+ a, rho}/2)

with H = xi (|e,0><g,1| + h.c.), a = |g,0><g,1| and kappa~ = 4.  The
coherence 2|rho_{e0,g1}| of the solution equals the extractable concurrence
of the closed-form no-jump dynamics, which is what the cross-checks assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, InvariantError, StiffnessError
from .model import (
    SAMPLE_SLACK,
    DensityMatrix3,
    ModelParams,
    RescaledTime,
    _as_tau,
    _sample_times,
)

KAPPA_RESCALED = 4.0

_MIN_STEP = 1e-14

# Dormand-Prince 5(4) tableau, stage i combining rows A[i, :i]; the last row
# doubles as the 5th-order weights (FSAL), _B4 is the embedded 4th-order one.
# Complex, so the stage combinations with the complex stages need no cast.
_A = np.zeros((7, 7), dtype=complex)
_A[1, :1] = [1 / 5]
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _A[6] - _B4


@dataclass(frozen=True)
class LindbladConfig:
    """Integration request: parameters, horizon, initial step, tolerance."""

    params: ModelParams
    t_end: RescaledTime | float
    dt: float = 1e-3
    tol: float = 1e-10

    def __post_init__(self):
        t = _as_tau(self.t_end)
        if t < 0 or not np.isfinite(t):
            raise DomainError(f"t_end must be nonnegative, got {t}")
        object.__setattr__(self, "t_end", float(t))
        if self.dt <= 0 or self.tol <= 0:
            raise DomainError("dt and tol must be positive")


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
    """Deterministic counters of one run; the step sizes read 0 if none was taken."""

    accepted: int
    rejected: int  # error-test failures
    capped: int  # steps shrunk by the interpolation bound
    generator_calls: int
    h_min: float
    h_max: float
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


def _hermite(y0, y1, f0, f1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2 * t3 - 3 * t2 + 1) * y0
        + (t3 - 2 * t2 + theta) * h * f0
        + (-2 * t3 + 3 * t2) * y1
        + (t3 - t2) * h * f1
    )


def _check_sample(m: np.ndarray, budget: float, tau: float) -> DensityMatrix3:
    herm = 0.5 * (m + m.conj().T)
    drift = abs(herm.trace().real - 1.0)
    if drift > budget:
        raise IntegrationError(f"trace drift {drift} beyond budget at tau={tau}")
    try:
        state = DensityMatrix3(herm)
        low, evals = state.min_eigenvalue, None
    except InvariantError:
        evals, vecs = np.linalg.eigh(herm)
        low = evals.min()
    if low < -budget:
        raise IntegrationError(f"eigenvalue {low} beyond budget at tau={tau}")
    if evals is None:
        return state
    # Inside the 10*tol budget but outside the strict state type, which can
    # only happen when tol is looser than the type's own floors: project onto
    # the physical cone and renormalise.  At the default tol the budget
    # coincides with the floors, so this never engages.
    evals = np.clip(evals, 0.0, None)
    return DensityMatrix3((vecs * (evals / evals.sum())) @ vecs.conj().T)


def integrate(
    config: LindbladConfig,
    sample_taus: np.ndarray | None = None,
    rhs_fn=None,
) -> LindbladTrajectory:
    """Integrate the master equation and sample by dense output.

    The generator is probed once into a 9x9 matrix L on the flattened state,
    so each Dormand-Prince 5(4) stage is one matvec; PI step-size control.
    Requested sample times are filled in by cubic Hermite interpolation inside
    each accepted step.  Every emitted sample is validated: trace or
    positivity drift beyond 10*tol raises, a step size underflow (below
    1e-14) raises a stiffness error.

    ``rhs_fn`` replaces the built-in generator (same signature as :func:`rhs`
    applied to a 3x3 array, and linear like it: it is probed on the nine basis
    matrices, and a generator that is not linear raises ``DomainError``); the
    verification harness uses this to prove the cross-checks catch an
    injected defect.
    """
    t_end = float(config.t_end)
    samples = _sample_times(sample_taus, t_end)
    f = rhs if rhs_fn is None else rhs_fn
    L = _liouvillian(f, config.params)
    # the probes pin a linear generator down; an affine or nonlinear one
    # would be silently replaced, so check it on one generic combination
    probe = np.arange(1.0, 10.0) + 1j * np.arange(9.0, 0.0, -1.0)
    gap = np.abs(np.asarray(f(probe.reshape(3, 3), config.params)).reshape(9) - L @ probe)
    if not gap.max() <= 1e-12 * np.abs(L).max() * np.abs(probe).sum():
        raise DomainError(f"generator is not linear: off by {gap.max()} on a probe state")
    # The {e0, g1} block stays exactly rank one, so the zero eigenvalue sits
    # on the positivity boundary and the cubic Hermite interpolant must beat
    # the -1e-9 floor on its own.  Its error (h^4/384)|y^(4)|, with
    # y^(4) = L^3 k0, is capped before the stages of any step that emits a sample.
    L3 = L @ L @ L
    cap = 384.0 * min(config.tol, 1e-10)
    budget = 10.0 * config.tol

    y = np.zeros(9, dtype=complex)
    y[0] = 1.0
    t = 0.0
    h = min(config.dt, t_end)
    tol = config.tol
    err_prev = 1.0

    slack = SAMPLE_SLACK * max(1.0, t_end)
    out: list[DensityMatrix3] = []
    idx = 0
    while idx < len(samples) and samples[idx] <= t + slack:
        out.append(_check_sample(y.reshape(3, 3), budget, samples[idx]))
        idx += 1

    k = np.zeros((7, 9), dtype=complex)
    k[0] = L @ y
    steps, rejected, capped = [], 0, 0
    while t < t_end and idx < len(samples):
        h = min(h, t_end - t)
        if samples[idx] <= t + h + slack:
            d4 = float(np.abs(L3 @ k[0]).max())
            if d4 * h**4 > cap:
                h, capped = 0.9 * (cap / d4) ** 0.25, capped + 1
        if h < _MIN_STEP:
            raise StiffnessError(f"step size underflow ({h}) at tau={t}")
        ah = h * _A
        for i in range(1, 7):
            acc = y + ah[i, :i] @ k[:i]
            k[i] = L @ acc
        y_new = acc  # stage 7 argument equals the 5th-order solution (FSAL)
        r = h * (_E @ k) / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        err = float(np.sqrt(np.vdot(r, r).real / 9))  # RMS over the 9 components
        if err <= 1.0:
            while idx < len(samples) and samples[idx] <= t + h + slack:
                theta = min(max((samples[idx] - t) / h, 0.0), 1.0)
                m = _hermite(y, y_new, k[0], k[6], h, theta)
                out.append(_check_sample(m.reshape(3, 3), budget, samples[idx]))
                idx += 1
            t += h
            y = y_new
            k[0] = k[6]
            steps.append(h)
            fac = 0.9 * err ** -0.14 * err_prev**0.08 if err > 0 else 5.0
            h *= min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-4)
        else:
            rejected += 1
            h *= max(0.1, 0.9 * err**-0.2)
    if idx < len(samples):
        raise IntegrationError(
            f"integration stopped at tau={t} before the last sample time"
        )
    stats = IntegratorStats(
        accepted=len(steps), rejected=rejected, capped=capped,
        generator_calls=L.shape[1] + 1,  # one probe per basis matrix, one check
        h_min=min(steps, default=0.0), h_max=max(steps, default=0.0),
        worst_trace_drift=max(float(abs(s.matrix.trace().real - 1.0)) for s in out),
        min_eigenvalue=min(s.min_eigenvalue for s in out),
    )
    return LindbladTrajectory(samples, out, stats)


def concurrence_from_state(rho: DensityMatrix3) -> float:
    """Extractable concurrence read off the unconditional state."""
    return 2.0 * abs(rho.coherence)
