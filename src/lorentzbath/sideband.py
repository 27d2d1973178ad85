"""Control-knob map: modulation drive to effective sideband coupling.

Modulating the qubit at frequency nu with amplitude epsilon couples it to
the resonator through the nth sideband with strength g * J_n(epsilon/nu).
This module evaluates that map, inverts it for a target coupling ratio xi,
and carries its own Bessel evaluation (ascending series at small argument,
Miller downward recurrence at large) so the forward and inverse paths share
one consistent J_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, TargetNotReachable
from .model import _xi_values

MAX_ORDER = 64
MAX_ARGUMENT = 700.0
_SERIES_SPLIT = 9.0
_RESCALE = 1e250
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


def _miller(n: int, x: float) -> float:
    """Downward recurrence from a padded even order, normalized by the
    identity J_0 + 2*sum(J_even) = 1.  Valid for x > 0."""
    m0 = max(n, int(x))
    start = m0 + 40 + int(1.1 * m0 ** (2.0 / 3.0))
    if start % 2:
        start += 1
    b_hi = 0.0          # b[k+1]
    b = 1e-290          # b[k], seeded at k = start
    even_sum = 2.0 * b  # start is even and >= 2
    ans = 0.0
    for k in range(start, 0, -1):
        b_lo = (2.0 * k / x) * b - b_hi
        b_hi = b
        b = b_lo
        if abs(b) > _RESCALE:
            b *= 1.0 / _RESCALE
            b_hi *= 1.0 / _RESCALE
            even_sum *= 1.0 / _RESCALE
            ans *= 1.0 / _RESCALE
        idx = k - 1
        if idx == 0:
            even_sum += b
        elif idx % 2 == 0:
            even_sum += 2.0 * b
        if idx == n:
            ans = b
    return ans / even_sum


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
    return sign * _miller(n, x)


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
