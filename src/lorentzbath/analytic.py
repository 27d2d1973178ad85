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

Everything here is scalar ``math``, one branch of xi at a time: no numpy.
"""

from __future__ import annotations

import math
from math import cos, exp, expm1, sin

from .errors import DomainError, _Record, _sample_times
from .model import ModelParams, PureAmplitudes


def _amplitude_arrays(xi: float, taus) -> tuple[list, list]:
    """``c_e0`` and ``Im c_g1`` at every tau of ``taus``, for one xi: c_e0 is
    real and c_g1 imaginary on every branch, so two lists of floats carry both."""
    xi = float(xi)
    # (xi-1)(xi+1) avoids cancellation in xi**2 - 1 near the critical line
    w2 = (xi - 1.0) * (xi + 1.0)
    w = math.sqrt(abs(w2))
    ce, cg = [], []
    if w2 >= 0.0:
        for tau in taus:
            env, x = exp(-tau), w * tau
            # tau*sin(x)/x is sin(x)/w, and tau itself on the critical line
            sinc = sin(x) / w if w > 0.0 else tau
            ce.append(env * (cos(x) + sinc))
            cg.append(0.0 - xi * (env * sinc))  # 0.0 - keeps Im c_g1(0) = +0.0
        return ce, cg
    # a difference of decaying exponentials cannot overflow at large tau; its
    # small-x cancellation goes through expm1, and the slow rate 1 - w is
    # written xi^2/(1 + w), free of cancellation as xi -> 0
    for tau in taus:
        ea = exp(-tau * (xi * xi / (1.0 + w)))
        eb = exp(-(1.0 + w) * tau)
        x = w * tau
        sinh = (eb * expm1(2.0 * x) if x < 0.5 else ea - eb) / (2.0 * w)
        ce.append(0.5 * (ea + eb) + sinh)
        cg.append(0.0 - xi * sinh)
    return ce, cg


def amplitudes(params: ModelParams, tau: float) -> PureAmplitudes:
    """No-jump amplitudes at a single rescaled time."""
    (ce,), (cg,) = _amplitude_arrays(params.xi, _sample_times([tau]))
    return PureAmplitudes(complex(ce), complex(0.0, cg))


def _concurrence(xi: float, tau: float) -> float:
    (ce,), (cg,) = _amplitude_arrays(xi, (tau,))
    if not cg and ce and tau > 0.0:
        # Im c_g1 underflowed while c_e0 did not (xi or tau near 5e-324): C is
        # its leading order in xi, |c_e0| xi (1 - exp(-2 tau)), rounded once
        return abs(ce) * -expm1(-2.0 * tau) * xi
    return 2.0 * abs(ce) * abs(cg)


def concurrence(params: ModelParams, tau: float) -> float:
    """Extractable concurrence C = 2|c_e0||c_g1| at one time."""
    return _concurrence(params.xi, _sample_times([tau])[0])


def _t_opt(xi: float) -> float:
    """First (and global) concurrence maximiser."""
    w = math.sqrt(abs((xi - 1.0) * (xi + 1.0)))
    r = math.sqrt(1.0 + xi * xi)
    if xi >= 1.0:
        # arctan(x)/(x*R), which is 1/R = 1/sqrt(2) on the critical line
        x = w / r
        return (math.atan(x) / x if x > 0.0 else 1.0) / r
    # artanh(w/R) = log1p(u)/2 with u = w(R+w)/xi^2, free of cancellation as
    # xi -> 1; where u overflows (xi below ~1e-154) log1p(u) is log(u), taken
    # as a difference of logarithms, which stays finite for a subnormal xi
    u = w * (r + w) / xi / xi
    log1p = math.log1p(u) if u < math.inf else math.log(w * (r + w)) - 2.0 * math.log(xi)
    return 0.5 * log1p / w


def t_opt_formula(params: ModelParams) -> float:
    """Closed-form location of the concurrence maximum, on every branch."""
    return _t_opt(float(params.xi))


class OptimumRecord(_Record):
    """Location and value of the concurrence maximum for one xi."""

    xi: float
    tau_opt: float
    c_max: float

    def __post_init__(self):
        if self.tau_opt < 0:
            raise DomainError("tau_opt must be >= 0")
        if not -1e-12 <= self.c_max <= 1.0:
            raise DomainError(f"c_max {self.c_max} outside [0, 1]")


def _optimum(xi: float) -> tuple[float, float]:
    """``(tau_opt, c_max)`` from the closed forms.  C_max = 1 - (pi/2 - 1)/xi to
    leading order rounds to 1 above xi ~ 1.03e16, so the clip at 1 is exact there."""
    tau = _t_opt(xi)
    return tau, min(_concurrence(xi, tau), 1.0)


def c_max(params: ModelParams) -> OptimumRecord:
    """Maximum extractable concurrence over the evolution, at ``t_opt_formula``."""
    xi = float(params.xi)
    return OptimumRecord(xi, *_optimum(xi))


# G(s) = sum_(k=1..17) 2k(-s)^(k-1)/(2k+1), highest power first, for Horner's rule
_G_SERIES = tuple(2.0 * k / (2 * k + 1) for k in range(17, 0, -1))


def _dcmax_dxi(xi: float, tau_opt: float, c_max: float) -> float:
    """Exact dC_max/dxi, from the optimum.

    ``C_max (2 xi tau* - R/xi)/((xi-1)(xi+1))`` for ``|s| >= 0.1``, where
    ``s = (xi^2-1)/(xi^2+1)``; near the critical line, where that quotient
    is 0/0, ``2 xi C_max G(s)/R^3``.
    """
    r = math.sqrt(1.0 + xi * xi)
    w2 = (xi - 1.0) * (xi + 1.0)
    s = w2 / (1.0 + xi * xi)
    if abs(s) >= 0.1:
        if r / xi < math.inf:
            return c_max * (2.0 * xi * tau_opt - r / xi) / w2
        # subnormal xi: R/xi overflows and 2 xi tau* vanishes beside it, but
        # C_max is about xi, so C_max/xi is about 1
        return -(c_max / xi) * r / w2
    g = 0.0
    for coefficient in _G_SERIES:
        g = g * -s + coefficient
    # xi/R/R/R underflows where R^3 would overflow
    return 2.0 * c_max * g * (xi / r / r / r)
