"""Core state types for a qubit exchanging one excitation with a lossy mode.

Everything downstream works in dimensionless variables: the coupling ratio
``xi = 4*lambda0/kappa`` and the rescaled time ``tau = kappa*t/4``.  Physical
rates, both in one unit of the caller's choosing, enter only through
:func:`params_from_physical` / :func:`tau_from_time`, which keep only xi and tau.

Each input is checked once, by the guards of ``errors``.  A state is one
:class:`DensityMatrix3`, a 3x3 tuple of row tuples of complex, and the one
shape guard; the one density-matrix validator :func:`validate_density`
measures and symmetrises 3x3 matrices.  The exact concurrence of any state
is :func:`xstate_concurrence`.  Everything here is scalar Python: no numpy.
"""

from __future__ import annotations

import math
from math import copysign, sqrt
from operator import add, sub

from .errors import MAX_XI, InvariantError, _finite, _positive, _Record, _sample_times, _xi_values

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
NORM_TOL = 1e-12
_JACOBI_SWEEPS = 50  # cyclic Jacobi converges quadratically; a bound, not a setting


class ModelParams(_Record):
    """The dimensionless coupling ratio xi = 4*lambda0/kappa, the model's one input."""

    xi: float

    def __post_init__(self):
        object.__setattr__(self, "xi", _xi_values([self.xi])[0])


def params_from_physical(kappa: float, lambda0: float) -> ModelParams:
    """Build :class:`ModelParams` from the two physical rates, given in one unit."""
    _positive("kappa", kappa)
    _positive("lambda0", lambda0)
    return ModelParams(xi=4.0 * lambda0 / kappa)


def tau_from_time(t: float, kappa: float) -> float:
    """Rescale a physical time by kappa/4."""
    _positive("kappa", kappa)
    return _sample_times([kappa * _finite(t) / 4.0])[0]


class PureAmplitudes(_Record):
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


def validate_density(matrices) -> tuple[list, dict]:
    """Check an iterable of 3x3 density matrices, each three rows of three
    numbers, one at a time; return the Hermitian part (m + m+)/2 of each, as
    three row tuples, and one report of the worst max |trace - 1|, smallest
    eigenvalue, max |m - m+| and |g,0> coherence max |h_{e0,g0}|, |h_{g1,g0}|.

    In order: finite entries, Hermitian within 1e-10, trace 1 within 1e-9, and
    no eigenvalue of the Hermitian part h below -1e-9 (by
    :func:`_smallest_eigenvalue`).  The first failing matrix raises
    ``InvariantError`` for its first failed check, with ``index`` set to its
    position in ``matrices``.
    """
    from cmath import isfinite  # a compiled module that the closed form never needs

    parts, drift, low, defect, leak = [], 0.0, math.inf, 0.0, 0.0
    for k, ((a, b, c), (d, e, f), (g, h, i)) in enumerate(matrices):
        m = a, b, c, d, e, f, g, h, i
        adjoint = (a.conjugate(), d.conjugate(), g.conjugate(), b.conjugate(), e.conjugate(),
                   h.conjugate(), c.conjugate(), f.conjugate(), i.conjugate())
        trace = sum((a, e, i)).real
        if not all(map(isfinite, m)):
            message = "matrix has a non-finite entry"
        elif (worst := max(map(abs, map(sub, m, adjoint)))) > HERMITICITY_TOL:
            message = "matrix is not Hermitian within 1e-10"
        elif abs(trace - 1.0) > TRACE_TOL:
            message = f"trace {trace} deviates from 1 beyond 1e-9"
        else:
            doubled = list(map(add, m, adjoint))
            half = [0.5 * x for x in doubled]  # before Jacobi overwrites doubled
            # the spectrum of m + m+ is twice that of the Hermitian part,
            # exactly: Jacobi is homogeneous and doubling rounds nothing
            eigenvalue = 0.5 * _smallest_eigenvalue(doubled)
            if not eigenvalue < EIGENVALUE_FLOOR:
                parts.append(((half[0], half[1], half[2]), (half[1].conjugate(), half[4], half[5]),
                              (half[2].conjugate(), half[5].conjugate(), half[8])))
                drift, low = max(drift, abs(trace - 1.0)), min(low, eigenvalue)
                defect, leak = max(defect, worst), max(leak, abs(half[2]), abs(half[5]))
                continue
            message = "matrix has an eigenvalue below -1e-9"
        exc = InvariantError(message)
        exc.index = k
        raise exc
    return parts, {"worst_trace_drift": drift, "min_eigenvalue": low,
                   "worst_hermiticity_defect": defect, "worst_g0_coherence": leak}


# the rotations of a row-major 3x3 matrix, one for each p < q: p, q, the
# positions of (p, q) and (q, p), and those of (r, p), (r, q), (p, r) and
# (q, r) for the third index r
_ROTATIONS = ((0, 1, 1, 3, 6, 7, 2, 5), (0, 2, 2, 6, 3, 5, 1, 7), (1, 2, 5, 7, 1, 2, 3, 6))


def _smallest_eigenvalue(a: list) -> float:
    """Smallest eigenvalue of a Hermitian 3x3 matrix, given as its row-major
    entries in a list that is overwritten.

    Cyclic Jacobi: each rotation zeroes one off-diagonal entry, made real by
    a phase first, until none is left.  Exact zeros are skipped, and entries
    below 2^-60 of their two diagonal entries are dropped, which moves no
    eigenvalue by more than that.
    """
    diag = [a[0].real, a[4].real, a[8].real]
    for _ in range(_JACOBI_SWEEPS):
        if not (a[1] or a[2] or a[5]):
            break
        for p, q, pq, qp, rp, rq, pr, qr in _ROTATIONS:
            apq = a[pq]
            if not apq:
                continue
            a[pq] = a[qp] = 0j
            g = abs(apq)
            if g <= 2.0**-60 * (abs(diag[p]) + abs(diag[q])):
                continue
            theta = (diag[q] - diag[p]) / (2.0 * g)
            t = copysign(1.0 / (abs(theta) + sqrt(theta * theta + 1.0)), theta)
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            diag[p] -= t * g
            diag[q] += t * g
            phase = apq.conjugate() / g
            arp, arq = a[rp], a[rq]
            if arp or arq:
                arq *= phase
                a[rp] = x = c * arp - s * arq
                a[rq] = y = s * arp + c * arq
                a[pr], a[qr] = x.conjugate(), y.conjugate()
    return min(diag)


class DensityMatrix3(_Record, hide=("matrix",)):
    """Validated density matrix on the basis (|e,0>, |g,1>, |g,0>), held as a
    tuple of three row tuples of complex.  The attribute ``min_eigenvalue``,
    found by validation, is not a field."""

    matrix: tuple

    def __post_init__(self):
        try:  # 0j + x takes a number, where complex(x) would also parse text
            m = tuple(tuple(complex(0j + x) for x in row) for row in self.matrix)
        except TypeError:  # not a sequence of rows of numbers
            m = ()
        if len(m) != 3 or any(len(row) != 3 for row in m):
            raise InvariantError(f"expected a 3x3 matrix, got {self.matrix!r:.200}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "min_eigenvalue", validate_density([m])[1]["min_eigenvalue"])

    @property
    def p_e0(self) -> float:
        return self.matrix[0][0].real

    @property
    def p_g1(self) -> float:
        return self.matrix[1][1].real

    @property
    def p_g0(self) -> float:
        return self.matrix[2][2].real

    @property
    def coherence(self) -> complex:
        """The |e,0><g,1| matrix element."""
        return self.matrix[0][1]

    @property
    def survival(self) -> float:
        """Weight remaining in the no-jump sector."""
        return self.p_e0 + self.p_g1


def pure_to_density(psi: PureAmplitudes) -> DensityMatrix3:
    """Unconditional state: |psi><psi| plus the jump weight on |g,0><g,0|.

    The |g,0> row and column are exactly zero off the diagonal: the emitted
    photon carries no coherence back into the no-jump sector.
    """
    a, b = psi.c_e0, psi.c_g1
    p, q, ab = abs(a) ** 2, abs(b) ** 2, a * b.conjugate()
    return DensityMatrix3(((p, ab, 0j), (ab.conjugate(), q, 0j), (0j, 0j, max(1.0 - (p + q), 0.0))))


def xstate_concurrence(rho) -> float:
    """Wootters concurrence 2|rho_{e0,g1}| of a :class:`DensityMatrix3` or its
    3x3 tuple, exact whatever its |g,0> coherences: the spin flip swaps |g,0>
    with the empty |e,1>, so the nonzero Wootters lambdas are sqrt(pq) +- |c|
    of the {e0, g1} block [[p, c], [c*, q]] (Wootters, PRL 80, 2245, 1998)."""
    m = rho.matrix if isinstance(rho, DensityMatrix3) else rho
    return 2.0 * abs(m[0][1])
