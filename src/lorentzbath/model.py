"""Core state types for a qubit exchanging one excitation with a lossy mode.

Everything downstream works in dimensionless variables: the coupling ratio
``xi = 4*lambda0/kappa`` and the rescaled time ``tau = kappa*t/4``.  Physical
rates, both in one unit of the caller's choosing, enter only through
:func:`params_from_physical` / :func:`tau_from_time`, which keep only xi and tau.

Each input is checked once, here: :func:`_xi_values` is the one coupling
guard (behind :class:`ModelParams` and every xi grid) and :func:`_sample_times`
the one time-grid guard (behind every oracle and every tau grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
NORM_TOL = 1e-12
MAX_XI = 1e150  # (xi - 1)*(xi + 1) overflows above ~1.3e154


def _xi_values(xi_values) -> np.ndarray:
    """The coupling guard: a finite, non-empty, strictly increasing 1-d array
    of ratios in (0, MAX_XI]."""
    xi = np.asarray(xi_values, dtype=float)
    if xi.ndim != 1 or len(xi) == 0 or not np.isfinite(xi).all():
        raise DomainError(f"xi values must be a finite non-empty 1-d array, got {xi}")
    if not (xi[1:] > xi[:-1]).all():
        raise DomainError("xi values must be strictly increasing")
    if not (xi[0] > 0.0 and xi[-1] <= MAX_XI):
        raise DomainError(f"xi values must lie in (0, {MAX_XI:g}], got {xi[0]} to {xi[-1]}")
    return xi


@dataclass(frozen=True)
class ModelParams:
    """The dimensionless coupling ratio xi = 4*lambda0/kappa, the model's one input."""

    xi: float

    def __post_init__(self):
        _xi_values([self.xi])


def params_from_physical(kappa: float, lambda0: float) -> ModelParams:
    """Build :class:`ModelParams` from the two physical rates, given in one unit."""
    if kappa <= 0 or not np.isfinite(kappa):
        raise DomainError(f"kappa must be positive, got {kappa}")
    if lambda0 <= 0 or not np.isfinite(lambda0):
        raise DomainError(f"lambda0 must be positive, got {lambda0}")
    return ModelParams(xi=4.0 * lambda0 / kappa)


def tau_from_time(t: float, kappa: float) -> float:
    """Rescale a physical time by kappa/4."""
    if kappa <= 0 or not np.isfinite(kappa):
        raise DomainError(f"kappa must be positive, got {kappa}")
    return float(_sample_times([kappa * t / 4.0])[0])


def _sample_times(taus) -> np.ndarray:
    """The time-grid guard: finite, 1-d, non-empty, strictly increasing and >= 0.

    An oracle runs to the last sample, so these checks also cover its horizon.
    """
    samples = np.asarray(taus, dtype=float)
    if samples.ndim != 1 or len(samples) == 0 or not np.isfinite(samples).all():
        raise DomainError(f"sample times must be a finite non-empty 1-d array, got {samples}")
    if not (samples[1:] > samples[:-1]).all():
        raise DomainError("sample times must be strictly increasing")
    if samples[0] < 0:
        raise DomainError(f"sample times must be >= 0, got {samples[0]}")
    return samples


@dataclass(frozen=True)
class PureAmplitudes:
    """No-jump amplitudes on {|e,0>, |g,1>}; the weight 1-<psi|psi> sits in |g,0>."""

    c_e0: complex
    c_g1: complex

    def __post_init__(self):
        n2 = self.norm_sq
        if not np.isfinite(n2) or n2 > 1.0 + NORM_TOL:
            raise InvariantError(f"|c_e0|^2+|c_g1|^2 = {n2} exceeds 1")

    @property
    def norm_sq(self) -> float:
        return abs(self.c_e0) ** 2 + abs(self.c_g1) ** 2


def validate_density(stack: np.ndarray) -> np.ndarray:
    """Check a stack ``(..., d, d)`` of density matrices; return each smallest eigenvalue.

    In order: finite entries, Hermitian within 1e-10, trace 1 within 1e-9, and
    no eigenvalue of the symmetrised matrix below -1e-9 (one batched ``eigvalsh``).
    The earliest failing matrix raises ``InvariantError`` for its first failed
    check, with ``index`` set to its flat position in the stack.
    """
    flat = stack.reshape((-1,) + stack.shape[-2:])
    finite = np.isfinite(flat).all(axis=(1, 2))
    flat = np.where(finite[:, None, None], flat, 0.0)  # keeps nan and inf out of eigvalsh
    adjoint = flat.conj().swapaxes(1, 2)
    tr = flat.trace(axis1=1, axis2=2).real
    low = np.linalg.eigvalsh(0.5 * (flat + adjoint)).min(axis=1)
    fails = (~finite, np.abs(flat - adjoint).max(axis=(1, 2)) > HERMITICITY_TOL,
             np.abs(tr - 1.0) > TRACE_TOL, low < EIGENVALUE_FLOOR)
    bad = fails[0] | fails[1] | fails[2] | fails[3]
    if bad.any():
        i = int(np.argmax(bad))
        exc = InvariantError((
            "matrix has a non-finite entry",
            "matrix is not Hermitian within 1e-10",
            f"trace {tr[i]} deviates from 1 beyond 1e-9",
            "matrix has an eigenvalue below -1e-9",
        )[[f[i] for f in fails].index(True)])
        exc.index = i
        raise exc
    return low.reshape(stack.shape[:-2])


@dataclass(frozen=True)
class DensityMatrix3:
    """Validated density matrix, or ``(..., 3, 3)`` stack of them, on the basis
    (|e,0>, |g,1>, |g,0>); each property has the stack's leading shape."""

    matrix: np.ndarray = field(repr=False)
    min_eigenvalue: float = field(init=False, repr=False, compare=False)  # found by validation

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape[-2:] != (3, 3):
            raise InvariantError(f"expected 3x3 matrices, got shape {m.shape}")
        low = validate_density(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "min_eigenvalue", float(low) if low.ndim == 0 else low)

    @property
    def p_e0(self) -> float:
        return self.matrix[..., 0, 0].real[()]

    @property
    def p_g1(self) -> float:
        return self.matrix[..., 1, 1].real[()]

    @property
    def p_g0(self) -> float:
        return self.matrix[..., 2, 2].real[()]

    @property
    def coherence(self) -> complex:
        """The |e,0><g,1| matrix element."""
        return self.matrix[..., 0, 1][()]

    @property
    def survival(self) -> float:
        """Weight remaining in the no-jump sector."""
        return self.p_e0 + self.p_g1


def pure_to_density(psi: PureAmplitudes) -> DensityMatrix3:
    """Unconditional state: |psi><psi| plus the jump weight on |g,0><g,0|."""
    return _pure_density(psi.c_e0, psi.c_g1)


def _pure_density(c_e0, c_g1) -> DensityMatrix3:
    """:func:`pure_to_density` of amplitude arrays, as one stack of that shape.

    The |g,0> row and column are exactly zero off the diagonal: the emitted
    photon carries no coherence back into the no-jump sector.
    """
    m = np.zeros(np.shape(c_e0) + (3, 3), dtype=complex)
    m[..., 0, 0] = np.abs(c_e0) ** 2
    m[..., 1, 1] = np.abs(c_g1) ** 2
    m[..., 0, 1] = c_e0 * np.conj(c_g1)
    m[..., 1, 0] = np.conj(m[..., 0, 1])
    m[..., 2, 2] = np.maximum(1.0 - (m[..., 0, 0].real + m[..., 1, 1].real), 0.0)
    return DensityMatrix3(m)
