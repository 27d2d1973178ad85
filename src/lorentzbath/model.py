"""Core state types for a qubit exchanging one excitation with a lossy mode.

Everything downstream works in dimensionless variables: the coupling ratio
``xi = 4*lambda0/kappa`` and the rescaled time ``tau = kappa*t/4``.  Physical
rates, both in one unit of the caller's choosing, enter only through
:func:`params_from_physical` / :func:`tau_from_time`, which keep only xi and tau.

Each input is checked once, by the guards of ``errors``.  :class:`ModelParams`
and :class:`PureAmplitudes` are scalar Python; only the density matrices load
numpy, when one is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import MAX_XI, InvariantError, _positive, _sample_times, _xi_values

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
NORM_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """The dimensionless coupling ratio xi = 4*lambda0/kappa, the model's one input."""

    xi: float

    def __post_init__(self):
        _xi_values([self.xi])


def params_from_physical(kappa: float, lambda0: float) -> ModelParams:
    """Build :class:`ModelParams` from the two physical rates, given in one unit."""
    _positive("kappa", kappa)
    _positive("lambda0", lambda0)
    return ModelParams(xi=4.0 * lambda0 / kappa)


def tau_from_time(t: float, kappa: float) -> float:
    """Rescale a physical time by kappa/4."""
    _positive("kappa", kappa)
    return _sample_times([kappa * t / 4.0])[0]


@dataclass(frozen=True)
class PureAmplitudes:
    """No-jump amplitudes on {|e,0>, |g,1>}; the weight 1-<psi|psi> sits in |g,0>."""

    c_e0: complex
    c_g1: complex

    def __post_init__(self):
        n2 = self.norm_sq
        if not math.isfinite(n2) or n2 > 1.0 + NORM_TOL:
            raise InvariantError(f"|c_e0|^2+|c_g1|^2 = {n2} exceeds 1")

    @property
    def norm_sq(self) -> float:
        return abs(self.c_e0) ** 2 + abs(self.c_g1) ** 2


def validate_density(stack):
    """Check a stack ``(..., d, d)`` of density matrices; return each smallest eigenvalue.

    In order: finite entries, Hermitian within 1e-10, trace 1 within 1e-9, and
    no eigenvalue of the symmetrised matrix below -1e-9 (one batched ``eigvalsh``).
    The earliest failing matrix raises ``InvariantError`` for its first failed
    check, with ``index`` set to its flat position in the stack.
    """
    import numpy as np
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

    matrix: object = field(repr=False)  # a numpy array
    min_eigenvalue: float = field(init=False, repr=False, compare=False)  # found by validation

    def __post_init__(self):
        import numpy as np
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
    import numpy as np
    m = np.zeros(np.shape(c_e0) + (3, 3), dtype=complex)
    m[..., 0, 0] = np.abs(c_e0) ** 2
    m[..., 1, 1] = np.abs(c_g1) ** 2
    m[..., 0, 1] = c_e0 * np.conj(c_g1)
    m[..., 1, 0] = np.conj(m[..., 0, 1])
    m[..., 2, 2] = np.maximum(1.0 - (m[..., 0, 0].real + m[..., 1, 1].real), 0.0)
    return DensityMatrix3(m)
