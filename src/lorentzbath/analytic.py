"""Closed-form no-jump dynamics and the concurrence optimum.

With ``xi = 4*lambda0/kappa``, ``tau = kappa*t/4`` and
``z = (xi - 1)*(xi + 1)*tau^2`` the no-jump amplitudes are

    c_e0(tau) = exp(-tau) * (cos(sqrt z) + tau*sin(sqrt z)/sqrt z)
    c_g1(tau) = -i * xi * tau * exp(-tau) * sin(sqrt z)/sqrt z

for every xi.  Both are entire in z: ``sin(s)/s`` is 1 at s = 0, so the
critical line xi = 1 gives ``exp(-tau)*(1+tau)`` with no special case, and
for z < 0 the trigonometric functions turn hyperbolic.  The extractable
concurrence is ``C = 2*|c_e0|*|c_g1|``.

Its first stationary point is the global maximum.  With ``w = sqrt|xi^2-1|``
and ``R = sqrt(1+xi^2)`` it sits at ``tau* = arctan(w/R)/w`` for xi > 1,
``artanh(w/R)/w`` for xi < 1 and ``1/sqrt 2`` at xi = 1: there ``dC/dtau``
vanishes exactly where ``tan(2*theta) = xi`` with ``tan(theta) =
|c_g1|/|c_e0|``.  Each later local maximum is ``(xi/R)`` times a smaller
survival ``|c_e0|^2 + |c_g1|^2``, so ``C_max = C(tau*)``.

There ``|c_g1| = exp(-tau*)/sqrt 2``, so ``C_max = (1+R)/xi * exp(-2*tau*)``
and ``dC_max/dxi = 2*xi*C_max*G/R^3``.  With ``u = w/R``, ``u^3*G`` is
``arctan(u) - u/(1+u^2)`` for xi > 1 and ``u/(1-u^2) - artanh(u)`` for
xi < 1: each is 0 at u = 0 and has the derivative ``2u^2/(1 +- u^2)^2 > 0``,
and ``G = 2/3`` at xi = 1.  So C_max grows strictly with xi for every xi > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import ModelParams, PureAmplitudes, _sample_times


def _amplitude_arrays(xi, tau) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised complex (c_e0, c_g1); ``xi`` and ``tau`` broadcast."""
    xi, tau = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(tau, dtype=float))
    # (xi-1)(xi+1) avoids cancellation in xi**2 - 1 near the critical line
    w2 = (xi - 1.0) * (xi + 1.0)
    w = np.sqrt(np.abs(w2))
    osc = w2 >= 0.0
    x = w * tau  # sqrt|z|
    env = np.exp(-tau)
    # z >= 0: tau*sin(x)/x is sin(x)/w, and tau itself on the critical line
    sinc = np.divide(np.sin(x), w, out=tau.copy(), where=w > 0.0)
    # z < 0: a difference of decaying exponentials cannot overflow at large
    # tau; the small-x cancellation in that difference goes through expm1.
    # 1 - w is written xi^2/(1 + w), which stays >= 0 where w > 1 too, so
    # the points with z >= 0 evaluate this side without overflow as well.
    ea = np.exp(-tau * (xi * xi / (1.0 + w)))
    eb = np.exp(-(1.0 + w) * tau)
    diff = np.where(x < 0.5, eb * np.expm1(np.minimum(2.0 * x, 1.0)), ea - eb)
    sinh = np.divide(diff, 2.0 * w, out=np.zeros_like(diff), where=~osc)
    c_e0 = np.where(osc, env * (np.cos(x) + sinc), 0.5 * (ea + eb) + sinh)
    return c_e0 + 0j, -1j * xi * np.where(osc, env * sinc, sinh)


def amplitudes(params: ModelParams, tau: float) -> PureAmplitudes:
    """No-jump amplitudes at a single rescaled time."""
    ce, cg = _amplitude_arrays(params.xi, _sample_times([tau]))
    return PureAmplitudes(complex(ce[0]), complex(cg[0]))


def _concurrence_arrays(xi, tau) -> np.ndarray:
    ce, cg = _amplitude_arrays(xi, tau)
    return 2.0 * np.abs(ce) * np.abs(cg)


def concurrence(params: ModelParams, tau: float) -> float:
    """Extractable concurrence C = 2|c_e0||c_g1| at one time."""
    return float(_concurrence_arrays(params.xi, _sample_times([tau]))[0])


def _t_opt(xi) -> np.ndarray:
    """First (and global) concurrence maximiser for every xi of an array."""
    xi = np.asarray(xi, dtype=float)
    w = np.sqrt(np.abs((xi - 1.0) * (xi + 1.0)))
    r = np.sqrt(1.0 + xi * xi)
    x = w / r
    # arctan(x)/(x*R), which is 1/R = 1/sqrt(2) on the critical line
    above = np.divide(np.arctan(x), x, out=np.ones_like(x), where=x > 0.0) / r
    # artanh(w/R) = log1p(u)/2 with u = w(R+w)/xi^2, free of cancellation as
    # xi -> 1; taken from log(u) so that u cannot overflow as xi -> 0
    wt = np.where(w > 0.0, w, 1.0)
    below = 0.5 * np.logaddexp(0.0, np.log(wt * (r + w) / xi) - np.log(xi)) / wt
    return np.where(xi >= 1.0, above, below)


def t_opt_formula(params: ModelParams) -> float:
    """Closed-form location of the concurrence maximum, on every branch."""
    return float(_t_opt(params.xi))


@dataclass(frozen=True)
class OptimumRecord:
    """Location and value of the concurrence maximum for one xi."""

    xi: float
    tau_opt: float
    c_max: float

    def __post_init__(self):
        if self.tau_opt < 0:
            raise DomainError("tau_opt must be >= 0")
        if not -1e-12 <= self.c_max <= 1.0 + 1e-12:
            raise DomainError(f"c_max {self.c_max} outside [0, 1]")


def _optimum(xi) -> tuple:
    """``(tau_opt, c_max)`` for every xi of an array, from the closed forms."""
    tau = _t_opt(xi)
    return tau, _concurrence_arrays(xi, tau)


def c_max(params: ModelParams) -> OptimumRecord:
    """Maximum extractable concurrence over the evolution, at ``t_opt_formula``."""
    xi = float(params.xi)
    tau, c = _optimum(np.array([xi]))
    return OptimumRecord(xi, float(tau[0]), float(c[0]))


# G(s) = sum_(k=1..17) 2k(-s)^(k-1)/(2k+1), highest power first, for np.polyval
_G_SERIES = np.array([2.0 * k / (2 * k + 1) for k in range(17, 0, -1)])


def _dcmax_dxi(xi, tau_opt, c_max) -> np.ndarray:
    """Exact dC_max/dxi for every xi of an array, from its optimum.

    ``C_max (2 xi tau* - R/xi)/((xi-1)(xi+1))`` for ``|s| >= 0.1``, where
    ``s = (xi^2-1)/(xi^2+1)``; near the critical line, where that quotient
    is 0/0, ``2 xi C_max G(s)/R^3``.
    """
    xi, tau, c = (np.asarray(a, dtype=float) for a in (xi, tau_opt, c_max))
    r = np.sqrt(1.0 + xi * xi)
    w2 = (xi - 1.0) * (xi + 1.0)
    s = w2 / (1.0 + xi * xi)
    # xi/R/R/R underflows where R^3 would overflow
    series = 2.0 * c * np.polyval(_G_SERIES, -s) * (xi / r / r / r)
    return np.divide(c * (2.0 * xi * tau - r / xi), w2, out=series, where=np.abs(s) >= 0.1)
