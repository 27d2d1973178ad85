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
    """Smallest double of (lo, hi] where ``below``, true up to some point and
    false from it on, is false: [lo, hi] halves until no double lies strictly
    between its ends.  The midpoint cannot overflow, so any finite bracket
    ends within ~2100 halvings; a NaN end ends it before ``below`` is called."""
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return hi


def _climb(n: int, g: float, cap: float) -> float:
    """Where g*J_n, climbing its first rising branch from mu = 0 (n >= 1),
    reaches ``cap`` or its peak, whichever comes first; the first maximum of
    J_n for an infinite cap.

    J_n' = J_{n-1} - n J_n/mu needs no order above MAX_ORDER, so one
    recurrence per step tests both.  For every order up to MAX_ORDER,
    n + 2 n^(1/3) lies between the first two zeros of J_n', so over that
    bracket the test holds exactly on (0, min(mu_cap, mu_peak)).
    """
    def below(mu):
        j = _miller(n, mu)
        return mu * j[n - 1] > n * j[n] and g * j[n] < cap
    return _bisect(below, 0.0, n + 2.0 * n ** (1 / 3))


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
    target_lambda = target_xi * kappa / 4.0
    if target_lambda == 0.0:
        return 0.0
    mu = _climb(n, g, target_lambda)
    lam = g * bessel_jn(n, mu)
    # the slack lets a rounded ceiling back in as a target
    if target_lambda > lam * (1.0 + 1e-12):
        raise TargetNotReachable(
            f"target xi={target_xi} needs lambda={target_lambda}, but "
            f"g*max J_{n} = {lam} caps xi at {4.0 * lam / kappa}",
            max_xi=4.0 * lam / kappa,
        )
    return mu * nu
