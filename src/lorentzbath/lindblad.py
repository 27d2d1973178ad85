"""Pseudomode master equation, solved by the exact propagator of its generator.

The Lorentzian reservoir is equivalent to one lossy mode: on the rescaled
single-excitation basis (|e,0>, |g,1>, |g,0>) the generator is

    d(rho)/d(tau) = -i [H, rho] + kappa~ (a rho a+ - {a+ a, rho}/2)

with H = xi (|e,0><g,1| + h.c.), a = |g,0><g,1| and kappa~ = 4.  The
coherence 2|rho_{e0,g1}| of the solution equals the extractable concurrence
of the closed-form no-jump dynamics, which is what the cross-checks assert.
The generator is constant, so rho(tau) = exp(tau L) rho(0) holds exactly.

``integrate(params, taus)`` has the shape of ``multimode.evolve(bath, taus)``:
both run to the last sample time and check the times with the one time-grid
guard of ``errors``.  A 3x3 state and a 9x9 generator are scalar-sized work,
so everything here is ``math`` on lists: no numpy.
"""

from __future__ import annotations

import math
from cmath import isfinite
from itertools import chain
from operator import add, sub

from .errors import DomainError, IntegrationError, InvariantError, _Record, _sample_times
from .model import DensityMatrix3, ModelParams, validate_density, xstate_concurrence

KAPPA_RESCALED = 4.0

# Degree-13 Pade coefficients and the 1-norm up to which they give exp to
# double precision (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# exp((h + d) L) = E + d (L E) with E = exp(h L) drops (d L)^2 E / 2 and
# smaller terms: below half an ulp of E while |d| ||L||_1 < 2^-27
_FIRST_ORDER = 2.0**-27


def rhs(rho, params: ModelParams) -> list:
    """Generator applied to a state, a 3x3 nested sequence or a
    :class:`DensityMatrix3`; returns the (traceless) time derivative as a
    list of three row lists."""
    m = rho.matrix if isinstance(rho, DensityMatrix3) else rho
    (a, b, c), (d, e, f), (g, h, k) = m
    u = -1j * params.xi  # -i [H, m] with H = xi (|0><1| + |1><0|)
    half = 0.5 * KAPPA_RESCALED
    return [
        [u * (d - b), u * (e - a) - half * b, u * f],
        [u * (a - e) - half * d, u * (b - d) - KAPPA_RESCALED * e, u * c - half * f],
        [-u * h, -u * g - half * h, KAPPA_RESCALED * e],
    ]


class LindbladTrajectory(_Record):
    """The samples ``taus`` and, in ``rho``, one validated state per sample,
    each a tuple of three row tuples of complex, the form a
    :class:`DensityMatrix3` holds; the populations, coherences and X-form
    concurrences are tuples of one value per sample."""

    taus: tuple
    rho: tuple
    # deterministic counters: propagators (one per distinct interval), squarings,
    # generator_calls, and over the samples worst_trace_drift and min_eigenvalue
    solver: dict

    @property
    def states(self) -> list[DensityMatrix3]:
        return [DensityMatrix3(m) for m in self.rho]

    @property
    def p_e0(self) -> tuple:
        return tuple(m[0][0].real for m in self.rho)

    @property
    def p_g1(self) -> tuple:
        return tuple(m[1][1].real for m in self.rho)

    @property
    def p_g0(self) -> tuple:
        return tuple(m[2][2].real for m in self.rho)

    @property
    def coherences(self) -> tuple:
        return tuple(m[0][1] for m in self.rho)

    @property
    def concurrences(self) -> tuple:
        return tuple(map(xstate_concurrence, self.rho))


def _flat(m) -> list:
    """A 3x3 nested sequence as its nine entries, row-major."""
    v = [complex(x) for row in m for x in row]
    if len(v) != 9:
        raise DomainError(f"generator must return a 3x3 matrix, got {len(v)} entries")
    return v


def _liouvillian(f, params: ModelParams) -> list:
    """The linear generator ``f`` as a 9x9 matrix, a list of rows, on row-major
    flattened states."""
    columns = []
    for k in range(9):
        e = [[0j] * 3 for _ in range(3)]
        e[k // 3][k % 3] = 1 + 0j
        columns.append(_flat(f(e, params)))
    return [list(row) for row in zip(*columns)]


def _matmul(a: list, b: list) -> list:
    """a @ b for square matrices as lists of rows; products with an exact
    zero are skipped."""
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0j] * len(row)
        for x, nonzero in zip(row, b_nonzero):
            if x:
                for j, y in nonzero:
                    acc[j] += x * y
        out.append(acc)
    return out


def _solve(a: list, b: list) -> list:
    """a^-1 b by Gaussian elimination with partial pivoting; both are lists
    of rows and are overwritten.  A zero pivot raises ``ZeroDivisionError``."""
    n = len(a)
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[p], b[col], b[p] = a[p], a[col], b[p], b[col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    for col in range(n - 1, -1, -1):
        pivot = a[col][col]
        b[col] = [x / pivot for x in b[col]]
        for r in range(col):
            if f := a[r][col]:
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    return b


def _norm1(a: list) -> float:
    """The 1-norm, the largest column sum of absolute values."""
    return max(map(sum, zip(*(map(abs, row) for row in a))))


def _expm(a: list) -> tuple[list, int]:
    """exp(a) by scaling and squaring; returns it and the number of squarings.

    No eigendecomposition, so it stays accurate where the generator is defective
    (the exceptional point at xi = 1).
    """
    n = len(a)
    s = max(0, math.frexp(_norm1(a) / _THETA13)[1])
    scale = 2.0**-s
    a = [[scale * x for x in row] for row in a]
    a2 = _matmul(a, a)
    a4 = _matmul(a2, a2)
    a6 = _matmul(a4, a2)

    def poly(c6, c4, c2, c0=0.0, top=None):
        """c6 a6 + c4 a4 + c2 a2 + c0 I, plus the matrix ``top``."""
        out = [[c6 * x + c4 * y + c2 * z for x, y, z in zip(*rows)] for rows in zip(a6, a4, a2)]
        if top is not None:
            out = [list(map(add, t, r)) for t, r in zip(top, out)]
        for i in range(n):
            out[i][i] += c0
        return out

    b = _PADE13
    u = _matmul(a, poly(b[7], b[5], b[3], b[1], _matmul(a6, poly(b[13], b[11], b[9]))))
    v = poly(b[6], b[4], b[2], b[0], _matmul(a6, poly(b[12], b[10], b[8])))
    # (v - u)^-1 (v + u) written so that exp(0) is exactly the identity
    e = _solve([list(map(sub, vr, ur)) for vr, ur in zip(v, u)], u)
    e = [[2.0 * x for x in row] for row in e]
    for i in range(n):
        e[i][i] += 1.0
    for _ in range(s):
        e = _matmul(e, e)
    return e, s


def _propagators(L: list, steps) -> tuple[list, int]:
    """exp(h L) for each h of the increasing ``steps``, and the squarings taken.

    Sample grids have intervals that differ by a few ulps.  An interval
    within d of the last full exponential E, with |d| ||L||_1 < 2^-27, takes
    E + d (L E) (see ``_FIRST_ORDER``); any other gets a full one.  The first
    propagator that is not finite raises ``IntegrationError`` naming its h.
    """
    n, norm = len(L), _norm1(L)
    # the first base is exp(0 L) = I, with L I = L
    base = 0.0, [[complex(i == j) for j in range(n)] for i in range(n)], L
    out, squarings = [], 0
    for h in steps:
        try:
            if (h - base[0]) * norm < _FIRST_ORDER:
                h0, e0, le0 = base
                d = h - h0
                e = [[x + d * y for x, y in zip(xr, yr)] for xr, yr in zip(e0, le0)]
            else:
                e, s = _expm([[h * x for x in row] for row in L])
                squarings += s
                base = h, e, _matmul(L, e)
            finite = all(map(isfinite, chain.from_iterable(e)))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise IntegrationError(f"propagator over a tau step of {h} is not finite")
        out.append(e)
    return out, squarings


def integrate(params: ModelParams, taus, *, rhs_fn=None) -> LindbladTrajectory:
    """Propagate the master equation exactly from one sample time to the next.

    The generator is probed once into a 9x9 matrix L on the flattened state.
    Each distinct interval between consecutive samples (the first one counted
    from tau = 0) gets one propagator (:func:`_propagators`) on the entries
    that L connects to rho(0), kept as its nonzero entries, so a sample costs
    one matvec that skips the exact zeros.
    Every symmetrised state gets the checks of :func:`validate_density`.  The
    earliest sample outside its floors, or a propagator that is not finite,
    raises ``IntegrationError`` naming its tau.

    ``rhs_fn`` replaces the built-in generator (same signature as :func:`rhs`:
    a 3x3 nested sequence in and out, and linear like it: it is probed on the
    nine basis matrices, and a generator that is not linear raises
    ``DomainError``); the verification harness uses this to prove the
    cross-checks catch an injected defect.
    """
    samples = _sample_times(taus)
    f = rhs if rhs_fn is None else rhs_fn
    L = _liouvillian(f, params)
    # the probes pin a linear generator down; an affine or nonlinear one
    # would be silently replaced, so check it on one generic combination
    probe = [complex(k, 10 - k) for k in range(1, 10)]
    got = _flat(f([probe[0:3], probe[3:6], probe[6:9]], params))
    want = [sum(x * y for x, y in zip(row, probe)) for row in L]
    gap = max(map(abs, map(sub, got, want)))
    if not gap <= 1e-12 * max(abs(x) for row in L for x in row) * sum(map(abs, probe)):
        raise DomainError(f"generator is not linear: off by {gap} on a probe state")

    # rho(0) = |e,0><e,0| is entry 0; the entries L connects it to span an
    # invariant subspace and every other entry stays an exact zero, so only
    # the block of L on that subspace is exponentiated
    reach, grown = set(), {0}
    while grown - reach:
        reach |= grown
        grown = {i for i, row in enumerate(L) if any(row[j] for j in reach)}
    block = sorted(reach)
    intervals = [b - a for a, b in zip((0.0, *samples), samples)]
    steps = sorted(set(intervals))
    propagators, squarings = _propagators([[L[i][j] for j in block] for i in block], steps)
    sparse = {h: [(block[i], block[j], x) for i, row in enumerate(e) for j, x in enumerate(row) if x]
              for h, e in zip(steps, propagators)}

    rho = []
    y = [1 + 0j] + [0j] * 8  # rho(0) = |e,0><e,0|
    for h in intervals:
        nxt = [0j] * 9
        for i, j, x in sparse[h]:
            nxt[i] += x * y[j]
        y = nxt
        # the Hermitian part, (m + m+)/2
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = y
        m01, m02, m12 = (0.5 * (m01 + m10.conjugate()), 0.5 * (m02 + m20.conjugate()),
                         0.5 * (m12 + m21.conjugate()))
        rho.append(((complex(m00.real), m01, m02),
                    (m01.conjugate(), complex(m11.real), m12),
                    (m02.conjugate(), m12.conjugate(), complex(m22.real))))
    try:
        low = validate_density(rho)
    except InvariantError as exc:
        raise IntegrationError(f"{exc} at tau={samples[exc.index]}") from None
    solver = {
        "propagators": len(steps), "squarings": squarings,
        "generator_calls": len(L) + 1,  # one probe per basis matrix, one check
        "worst_trace_drift": max(abs(m[0][0].real + m[1][1].real + m[2][2].real - 1.0) for m in rho),
        "min_eigenvalue": min(low),
    }
    return LindbladTrajectory(samples, tuple(rho), solver)
