"""Control-knob map: modulation drive to effective sideband coupling.

Modulating the qubit at frequency nu with amplitude epsilon couples it to
the resonator through the nth sideband with strength g * J_n(epsilon/nu).
This module evaluates that map, inverts it for a target coupling ratio xi,
and carries the package's Bessel evaluation (ascending series at small
argument, Miller downward recurrence at large) so the forward and inverse
paths share one consistent J_n.  The continuum oracle's Chebyshev propagator
takes its J_n(rho*tau) from the same recurrence and start rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TargetNotReachable
from .model import _xi_values

MAX_ORDER = 64
MAX_ARGUMENT = 700.0
_SERIES_SPLIT = 9.0
_RESCALE = 1e250
_TINY = 1e-50  # least recurrence argument: a step grows b by < 1e58, inside _RESCALE
_FREQ_MATCH_TOL = 1e-9


def _series(n: int, x: float) -> float:
    """Ascending power series, term-recursive; converges fast for |x| <= 9."""
    half = 0.5 * x
    term = 1.0
    for m in range(1, n + 1):
        term *= half / m
    total = term
    m = 1
    while True:
        term *= -(half * half) / (m * (n + m))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 1e-300 or m > 400:
            return total
        m += 1


def _miller_start(n: int, x: float) -> int:
    """Even order at which the downward recurrence for J_0..J_n at x starts,
    padded far enough past max(n, x) that its arbitrary seed has died out."""
    m0 = max(n, int(x))
    start = m0 + 40 + int(1.1 * m0 ** (2.0 / 3.0))
    return start + start % 2


def _miller(n: int, x: float) -> list:
    """J_0..J_start at x >= 0: downward recurrence from _miller_start(n, x),
    normalized by the identity J_0 + 2*sum(J_even) = 1."""
    # below _TINY, J_k(x) = q^k J_k(_TINY) to a relative _TINY^2
    q, x = min(x / _TINY, 1.0), max(x, _TINY)
    b_hi = 0.0          # b[k+1]
    b = 1e-290          # b[k], seeded at k = start
    even_sum = 2.0 * b  # start is even and >= 2
    out = [b]
    for k in range(_miller_start(n, x), 0, -1):
        b_lo = (2.0 * k / x) * b - b_hi
        b_hi = b
        b = b_lo
        if abs(b) > _RESCALE:
            b *= 1.0 / _RESCALE
            b_hi *= 1.0 / _RESCALE
            even_sum *= 1.0 / _RESCALE
            out = [v * (1.0 / _RESCALE) for v in out]
        idx = k - 1
        if idx == 0:
            even_sum += b
        elif idx % 2 == 0:
            even_sum += 2.0 * b
        out.append(b)
    return [v / even_sum * q**k for k, v in enumerate(reversed(out))]


def _miller_sums(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] * J_k(x_s) for each x_s >= 0, one row per argument.

    The recurrence of :func:`_miller` in ratio form, r_k = J_k/J_(k-1) =
    x/(2k - x*r_(k+1)), runs across all arguments at once and sums by Horner's
    rule; it never divides by x, so it needs neither _RESCALE nor _TINY.  Each
    argument starts from r = 0 at its own _miller_start(0, x_s), so its row
    does not depend on the others.  ``coef`` needs a row per order up to the
    largest start.
    """
    starts = {}
    for s, start in enumerate(_miller_start(0, v) for v in x.tolist()):
        starts.setdefault(start, []).append(s)
    evens = np.resize([2.0, 0.0], len(coef))
    evens[0] = 1.0
    w = np.c_[coef, evens][:, :, None]  # the last row sums to J_0 + 2*sum(J_even) over J_0
    r, acc = np.zeros(len(x)), np.zeros((w.shape[1], len(x)))
    for k in range(max(starts), 0, -1):
        if k in starts:
            r[starts[k]] = 0.0
        acc *= r  # r = r_(k+1)
        acc += w[k]
        np.multiply(x, r, out=r)
        np.subtract(2.0 * k, r, out=r)
        np.divide(x, r, out=r)
    acc = acc * r + w[0]
    return (acc[:-1] / acc[-1]).T


def bessel_jn(n: int, mu: float) -> float:
    """Bessel function of the first kind, integer order 0..64, |mu| < 700."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"order must be an integer, got {n!r}")
    if not 0 <= n <= MAX_ORDER:
        raise DomainError(f"order must lie in [0, {MAX_ORDER}], got {n}")
    mu = float(mu)
    if not math.isfinite(mu) or abs(mu) >= MAX_ARGUMENT:
        raise DomainError(f"argument must satisfy |mu| < {MAX_ARGUMENT}, got {mu}")
    sign = -1.0 if (mu < 0 and n % 2) else 1.0
    x = abs(mu)
    if x <= _SERIES_SPLIT:
        return sign * _series(n, x)
    return sign * _miller(n, x)[n]


@dataclass(frozen=True)
class SidebandConfig:
    """Drive settings for one sideband.  n=0 is the carrier.

    When both bare frequencies are given the resonance condition
    nu = (omega_r - omega_q)/n is enforced (skipped for the carrier, which
    has no such condition).
    """

    g: float
    epsilon: float
    nu: float
    n: int
    omega_q: float | None = None
    omega_r: float | None = None

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"sideband order must be an integer >= 0, got {self.n!r}")
        if not (self.g > 0 and math.isfinite(self.g)):
            raise DomainError(f"g must be positive, got {self.g}")
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise DomainError(f"nu must be positive, got {self.nu}")
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise DomainError(f"epsilon must be non-negative, got {self.epsilon}")
        have_q, have_r = self.omega_q is not None, self.omega_r is not None
        if have_q != have_r:
            raise DomainError("omega_q and omega_r must be given together")
        if have_q and self.n >= 1:
            mismatch = abs(self.nu - (self.omega_r - self.omega_q) / self.n) / self.nu
            if mismatch >= _FREQ_MATCH_TOL:
                raise DomainError(
                    f"nu is off the n={self.n} sideband resonance by {mismatch:.3e} relative"
                )


def effective_coupling(cfg: SidebandConfig) -> float:
    """lambda = g * J_n(epsilon/nu); the sign is physical and kept."""
    return cfg.g * bessel_jn(cfg.n, cfg.epsilon / cfg.nu)


def preferred_sideband_order(xi: float) -> int:
    """Crosstalk-avoidance preset used in the experiment: first order below
    xi=1, second order from there up.  A convention, not physics."""
    _xi_values([xi])
    return 1 if xi < 1.0 else 2


def _bisect(below, lo: float, hi: float) -> float:
    """Midpoint of [lo, hi] shrunk below width 1e-12 around where ``below`` turns false."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _first_peak(n: int) -> tuple[float, float]:
    """Location and value of the first maximum of J_n on mu > 0 (n >= 1).

    The first zero of J_n' = (J_{n-1} - J_{n+1})/2 = J_{n-1} - n J_n/mu (the
    second form needs no order above MAX_ORDER).  For every order up to
    MAX_ORDER, n + 2 n^(1/3) lies between it and the next zero of J_n'.
    """
    rising = lambda mu: mu * bessel_jn(n - 1, mu) > n * bessel_jn(n, mu)
    mu = _bisect(rising, 0.0, n + 2.0 * n ** (1 / 3))
    return mu, bessel_jn(n, mu)


def solve_amplitude(g: float, nu: float, n: int, kappa: float, target_xi: float) -> float:
    """Smallest epsilon achieving xi = 4*g*J_n(epsilon/nu)/kappa.

    Inverts on the first rising branch of J_n only (smallest drive);
    a target beyond the first maximum raises with the reachable ceiling.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"solve_amplitude needs a sideband order >= 1, got {n!r}")
    if not (g > 0 and nu > 0 and kappa > 0):
        raise DomainError("g, nu and kappa must all be positive")
    if not (target_xi >= 0 and math.isfinite(target_xi)):
        raise DomainError(f"target_xi must be non-negative, got {target_xi}")
    if target_xi == 0.0:
        return 0.0
    target_lambda = target_xi * kappa / 4.0
    mu_peak, j_peak = _first_peak(n)
    lam_max = g * j_peak
    if target_lambda > lam_max * (1.0 + 1e-12):
        raise TargetNotReachable(
            f"target xi={target_xi} needs lambda={target_lambda}, but "
            f"g*max J_{n} = {lam_max} caps xi at {4.0 * lam_max / kappa}",
            max_xi=4.0 * lam_max / kappa,
        )
    if target_lambda >= lam_max:
        return mu_peak * nu
    # J_n rises monotonically from 0 to its first peak
    return _bisect(lambda mu: g * bessel_jn(n, mu) < target_lambda, 0.0, mu_peak) * nu
