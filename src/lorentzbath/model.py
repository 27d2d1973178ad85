"""Core state types for a qubit exchanging one excitation with a lossy mode.

Everything downstream works in dimensionless variables: the coupling ratio
``xi = 4*lambda0/kappa`` and the rescaled time ``tau = kappa*t/4``.  Physical
rates, both in one unit of the caller's choosing, enter only through
:func:`params_from_physical` / :func:`tau_from_time`, which keep only xi and tau.

Each input is checked once, by the guards of ``errors``.  A state is one
:class:`DensityMatrix3`, a 3x3 tuple of row tuples of complex checked by the
one density-matrix validator :func:`validate_density`; its X-form
concurrence is :func:`xstate_concurrence`.  Everything here is scalar
Python: no numpy.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain
from math import copysign, sqrt
from operator import add, sub

from .errors import (MAX_XI, FormError, InvariantError, _finite, _positive, _Record, _sample_times,
                     _xi_values)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
NORM_TOL = 1e-12
X_FORM_TOL = 1e-8
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


def validate_density(matrices) -> list:
    """Check a sequence of d x d density matrices, each a sequence of rows of
    numbers; return the smallest eigenvalue of each.

    In order: finite entries, Hermitian within 1e-10, trace 1 within 1e-9, and
    no eigenvalue of the symmetrised matrix below -1e-9 (by
    :func:`_smallest_eigenvalue`).  The earliest failing matrix raises
    ``InvariantError`` for its first failed check, with ``index`` set to its
    position in ``matrices``.  The entry-wise checks run over all matrices at
    once; the eigenvalues, one matrix at a time, up to the first failure.
    """
    from cmath import isfinite  # a compiled module that the closed form never needs

    n = len(matrices)
    if not n:
        return []
    d = len(matrices[0])
    rows = list(chain.from_iterable(matrices))
    if len(rows) != n * d or set(map(len, rows)) - {d}:
        raise InvariantError(f"expected square matrices of one size, got rows of "
                             f"{sorted(set(map(len, rows)))} in matrices of {d} rows")
    dd = d * d
    flat = list(chain.from_iterable(rows))
    adjoint = [flat[k + i].conjugate() for k in range(0, n * dd, dd) for i in _transposition(d)]
    finite = list(map(isfinite, flat))
    skew = list(map(abs, map(sub, flat, adjoint)))
    traces = [sum(flat[k:k + dd:d + 1]).real for k in range(0, n * dd, dd)]
    # the first matrix that fails each entry-wise check, or n; an entry is
    # looked for only once a test over the whole stack has failed
    fails = (
        n if all(finite) else finite.index(False) // dd,
        n if max(skew) <= HERMITICITY_TOL else
        next((i // dd for i, x in enumerate(skew) if x > HERMITICITY_TOL), n),
        next((k for k, t in enumerate(traces) if abs(t - 1.0) > TRACE_TOL), n),
    )
    first = min(fails)
    sym = list(map(add, flat, adjoint))
    low = []
    for k in range(first):
        # the spectrum of m + m+ is twice that of the symmetrised matrix,
        # exactly: Jacobi is homogeneous and doubling rounds nothing
        low.append(0.5 * _smallest_eigenvalue(sym[k * dd:(k + 1) * dd], d))
        if low[-1] < EIGENVALUE_FLOOR:
            first, message = k, "matrix has an eigenvalue below -1e-9"
            break
    else:
        if first == n:
            return low
        message = ("matrix has a non-finite entry" if fails[0] == first else
                   "matrix is not Hermitian within 1e-10" if fails[1] == first else
                   f"trace {traces[first]} deviates from 1 beyond 1e-9")
    exc = InvariantError(message)
    exc.index = first
    raise exc


@cache
def _transposition(d: int) -> tuple:
    """Row-major positions of a d x d matrix, in the order of its transpose."""
    return tuple(i * d + j for j in range(d) for i in range(d))


@cache
def _jacobi_pairs(d: int) -> tuple:
    """The rotations of a row-major d x d matrix, and its positions above the
    diagonal.  A rotation is, for p < q: p, q, the positions of (p, q) and
    (q, p), and those of (r, p), (r, q), (p, r), (q, r) for each other r."""
    pairs = tuple(
        (p, q, p * d + q, q * d + p,
         tuple((r * d + p, r * d + q, p * d + r, q * d + r) for r in range(d) if r not in (p, q)))
        for p in range(d) for q in range(p + 1, d)
    )
    return pairs, tuple(pq for _, _, pq, _, _ in pairs)


def _smallest_eigenvalue(a: list, d: int) -> float:
    """Smallest eigenvalue of a Hermitian d x d matrix, given as its row-major
    entries in a list that is overwritten.

    Cyclic Jacobi: each rotation zeroes one off-diagonal entry, made real by
    a phase first, until none is left.  Exact zeros are skipped, and entries
    below 2^-60 of their two diagonal entries are dropped, which moves no
    eigenvalue by more than that.
    """
    diag = [z.real for z in a[::d + 1]]
    pairs, upper = _jacobi_pairs(d)
    for _ in range(_JACOBI_SWEEPS):
        if not any(map(a.__getitem__, upper)):
            break
        for p, q, pq, qp, others in pairs:
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
            for rp, rq, pr, qr in others:
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
        object.__setattr__(self, "min_eigenvalue", validate_density([m])[0])

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
    """Concurrence 2|rho_{e0,g1}| of an X-form state, one whose |g,0> level
    carries no coherence; ``rho`` is a :class:`DensityMatrix3` or, as the
    Lindblad oracle holds its samples, its 3x3 tuple.  |g,0> coherences
    above ``X_FORM_TOL`` raise ``FormError``."""
    m = rho.matrix if isinstance(rho, DensityMatrix3) else rho
    leak = max(abs(m[0][2]), abs(m[1][2]))
    if leak > X_FORM_TOL:
        raise FormError(f"|g,0> coherences of magnitude {leak} break the X form")
    return 2.0 * abs(m[0][1])
