"""Control-knob map: modulation drive to effective sideband coupling.

Modulating the qubit at frequency nu with amplitude epsilon couples it to
the resonator through the nth sideband with strength g * J_n(epsilon/nu).
This module evaluates that map, inverts it for a target coupling ratio xi,
and carries the package's one Bessel evaluation, the Miller downward
recurrence in ratio form (Gautschi, SIAM Rev. 9, 24, 1967), so the forward
and inverse paths share one consistent J_n.  The continuum oracle's Chebyshev
propagator takes its J_n(rho*tau) from the same recurrence and start rule,
running it across many arguments at once in ``multimode``.

Everything here is scalar Python: the module loads no numpy.
"""
from __future__ import annotations

import math

from .errors import DomainError, TargetNotReachable, _non_negative, _order, _positive, _Record

MAX_ORDER = 64
MAX_ARGUMENT = 700.0


def _miller_start(n: int, x: float) -> int:
    """Even order at which the downward recurrence for J_0..J_n at x starts,
    padded far enough past max(n, x) that its arbitrary seed has died out."""
    m0 = max(n, int(x))
    start = m0 + 40 + int(1.1 * m0 ** (2.0 / 3.0))
    return start + start % 2


def _miller(n: int, x: float) -> list:
    """J_0..J_start at x >= 0, start = _miller_start(n, x).

    The ratios r_k = J_k/J_(k-1) = x/(2k - x*r_(k+1)) run down from r = 0 at
    the start, the orders J_k = J_(k-1)*r_k run up from J_0 = 1, and the
    identity J_0 + 2*sum(J_even) = 1 normalizes them.  No step divides by x,
    so no argument, however small, needs rescaling.
    """
    x = float(x)
    r, ratios = 0.0, []
    for k in range(_miller_start(n, x), 0, -1):
        r = x / (2.0 * k - x * r)
        ratios.append(r)
    out = [1.0]
    for r in reversed(ratios):
        out.append(out[-1] * r)
    norm = out[0] + 2.0 * sum(out[2::2])
    return [v / norm for v in out]


def bessel_jn(n: int, mu: float) -> float:
    """Bessel function of the first kind, integer order 0..64, |mu| < 700."""
    _order("order", n, MAX_ORDER)
    mu = float(mu)
    if not math.isfinite(mu) or abs(mu) >= MAX_ARGUMENT:
        raise DomainError(f"argument must satisfy |mu| < {MAX_ARGUMENT}, got {mu}")
    sign = -1.0 if (mu < 0 and n % 2) else 1.0
    return sign * _miller(n, abs(mu))[n]


class SidebandConfig(_Record):
    """Drive settings for one sideband, n=0 the carrier.  The drive frequency
    is given once, as nu; the bare frequencies it puts on resonance are not inputs."""

    g: float
    epsilon: float
    nu: float
    n: int

    def __post_init__(self):
        _order("sideband order", self.n, MAX_ORDER)
        _positive("g", self.g)
        _positive("nu", self.nu)
        _non_negative("epsilon", self.epsilon)


def effective_coupling(cfg: SidebandConfig) -> float:
    """lambda = g * J_n(epsilon/nu); the sign is physical and kept."""
    return cfg.g * bessel_jn(cfg.n, cfg.epsilon / cfg.nu)


def _bisect(below, lo: float, hi: float) -> float:
    """Midpoint of [lo, hi] shrunk below width 1e-12*min(1, hi) around where
    ``below`` turns false.  The width is relative for a root below 1, so a
    weak target keeps its digits; 1100 halvings reach it from any double."""
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
        if hi - lo < 1e-12 * min(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _first_peak(n: int) -> tuple[float, float]:
    """Location and value of the first maximum of J_n on mu > 0 (n >= 1).

    The first zero of J_n' = (J_{n-1} - J_{n+1})/2 = J_{n-1} - n J_n/mu (the
    second form needs no order above MAX_ORDER).  For every order up to
    MAX_ORDER, n + 2 n^(1/3) lies between it and the next zero of J_n'.
    One recurrence per bisection step gives both J_{n-1} and J_n.
    """
    def rising(mu):
        j = _miller(n, mu)
        return mu * j[n - 1] > n * j[n]
    mu = _bisect(rising, 0.0, n + 2.0 * n ** (1 / 3))
    return mu, bessel_jn(n, mu)


def solve_amplitude(g: float, nu: float, n: int, kappa: float, target_xi: float) -> float:
    """Smallest epsilon achieving xi = 4*g*J_n(epsilon/nu)/kappa.

    Inverts on the first rising branch of J_n only (smallest drive);
    a target beyond the first maximum raises with the reachable ceiling.
    """
    SidebandConfig(g=g, epsilon=0.0, nu=nu, n=n)  # the drive guards, before any J_n
    if n < 1:
        raise DomainError(f"solve_amplitude needs a sideband order >= 1, got {n}")
    _positive("kappa", kappa)
    _non_negative("target_xi", target_xi)
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
