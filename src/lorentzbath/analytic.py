"""Closed-form no-jump dynamics and the concurrence optimum.

With ``xi = 4*lambda0/kappa`` and ``tau = kappa*t/4`` the no-jump amplitudes
are, writing ``w = sqrt(xi^2 - 1)``,

    c_e0(tau) = exp(-tau) * (cos(w*tau) + sin(w*tau)/w)        (xi > 1)
    c_g1(tau) = -i * exp(-tau) * (xi/w) * sin(w*tau)

with trigonometric functions replaced by hyperbolic ones (and
``w = sqrt(1 - xi^2)``) for xi < 1, and by their polynomial limit
``c_e0 = exp(-tau)*(1+tau)``, ``c_g1 = -i*xi*tau*exp(-tau)`` on the critical
line.  The extractable concurrence is ``C = <psi|psi> sin(2*theta)`` with
``tan(theta) = |c_g1|/|c_e0|``, identical to ``2*|c_e0|*|c_g1|``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchNotApplicable, DomainError, SearchError
from .model import ModelParams, PureAmplitudes, RescaledTime, _as_tau

CRITICAL_WINDOW = 1e-6
ZERO_MAX_FLOOR = 1e-14

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_POINTS = 4096
_GOLDEN_TOL = 1e-10


class Regime(enum.Enum):
    UNDERDAMPED = "underdamped"
    OVERDAMPED = "overdamped"
    CRITICAL = "critical"


def regime(params: ModelParams) -> Regime:
    """Branch selection, with a +-1e-6 window around xi=1 mapped to critical."""
    if abs(params.xi - 1.0) < CRITICAL_WINDOW:
        return Regime.CRITICAL
    return Regime.UNDERDAMPED if params.xi > 1.0 else Regime.OVERDAMPED


def _omega(xi):
    # (xi-1)(xi+1) avoids cancellation in xi**2 - 1 near the critical line
    return np.sqrt(np.abs((xi - 1.0) * (xi + 1.0)))


def _critical(xi, tau):
    env = np.exp(-tau)
    return env * (1.0 + tau), -1j * xi * tau * env


def _underdamped(xi, tau):
    w = _omega(xi)
    x = w * tau
    env = np.exp(-tau)
    sinc = np.sin(x) / w
    return env * (np.cos(x) + sinc), -1j * xi * env * sinc


def _overdamped(xi, tau):
    # a difference of decaying exponentials cannot overflow at large tau;
    # the small-w*tau cancellation in that difference goes through expm1
    w = _omega(xi)
    ea = np.exp(-(1.0 - w) * tau)
    eb = np.exp(-(1.0 + w) * tau)
    x = 2.0 * w * tau
    diff = np.where(x < 1.0, eb * np.expm1(np.minimum(x, 1.0)), ea - eb)
    c_e0 = 0.5 * (ea + eb) + diff / (2.0 * w)
    c_g1 = -1j * xi * diff / (2.0 * w)
    return c_e0.astype(complex), c_g1


_BRANCHES = (_critical, _underdamped, _overdamped)


def _amplitude_arrays(xi, tau) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (c_e0, c_g1) over coupling ratios and rescaled times.

    ``xi`` and ``tau`` broadcast against each other; every point is
    evaluated by the branch its xi selects, on that branch's mask.
    """
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    crit = np.abs(xi - 1.0) < CRITICAL_WINDOW
    under = ~crit & (xi > 1.0)
    masks = (crit, under, ~crit & ~under)
    for mask, branch in zip(masks, _BRANCHES):
        if mask.all():
            return branch(xi, tau)
    xi, tau, *masks = np.broadcast_arrays(xi, tau, *masks)
    c_e0 = np.empty(xi.shape, dtype=complex)
    c_g1 = np.empty(xi.shape, dtype=complex)
    for mask, branch in zip(masks, _BRANCHES):
        c_e0[mask], c_g1[mask] = branch(xi[mask], tau[mask])
    return c_e0, c_g1


def amplitudes(params: ModelParams, tau: RescaledTime | float) -> PureAmplitudes:
    """No-jump amplitudes at a single rescaled time."""
    t = _as_tau(tau)
    if t < 0:
        raise DomainError(f"tau must be >= 0, got {t}")
    ce, cg = _amplitude_arrays(params.xi, np.asarray([t]))
    return PureAmplitudes(complex(ce[0]), complex(cg[0]))


def survival_probability(params: ModelParams, tau: RescaledTime | float) -> float:
    """Norm of the no-jump wavefunction, |c_e0|^2 + |c_g1|^2."""
    psi = amplitudes(params, tau)
    return psi.norm_sq


def _concurrence_arrays(xi: float, tau: np.ndarray) -> np.ndarray:
    ce, cg = _amplitude_arrays(xi, tau)
    return 2.0 * np.abs(ce) * np.abs(cg)


def concurrence(params: ModelParams, tau: RescaledTime | float) -> float:
    """Extractable concurrence C = <psi|psi> sin(2*theta) at one time.

    On the oscillatory branch this is evaluated through the survival/angle
    form; on the critical and overdamped branches through the equivalent
    amplitude product 2|c_e0||c_g1|.
    """
    t = _as_tau(tau)
    if t < 0:
        raise DomainError(f"tau must be >= 0, got {t}")
    xi = params.xi
    if regime(params) is Regime.UNDERDAMPED:
        w = _omega(xi)
        x = w * t
        theta = math.atan2(abs(xi * math.sin(x)), abs(w * math.cos(x) + math.sin(x)))
        psi = amplitudes(params, t)
        return psi.norm_sq * math.sin(2.0 * theta)
    return float(_concurrence_arrays(xi, np.asarray([t]))[0])


def t_opt_formula(params: ModelParams) -> RescaledTime:
    """Closed-form location of the first concurrence maximum (xi > 1 only).

    Evaluates tau* = |2*arctan(sqrt(16 + 12w^2 - 4 xi S)/w / 2)| / w with
    S = sqrt(16 + 8 w^2), written in the algebraically identical form
    2*arctan(2w / sqrt(16 + 12 w^2 + 4 xi S)) / w whose argument has no
    subtractive cancellation near the critical line.
    """
    if regime(params) is not Regime.UNDERDAMPED:
        raise BranchNotApplicable(
            f"closed-form optimum needs xi > 1, got xi={params.xi}"
        )
    xi = params.xi
    w2 = (xi - 1.0) * (xi + 1.0)
    w = math.sqrt(w2)
    s = math.sqrt(16.0 + 8.0 * w2)
    alpha = 2.0 * w / math.sqrt(16.0 + 12.0 * w2 + 4.0 * xi * s)
    return RescaledTime(abs(2.0 * math.atan(alpha) / w))


def _search_window(xi: float) -> float:
    if xi > 1.0 + CRITICAL_WINDOW:
        return max(10.0, 4.0 * math.pi / _omega(xi))
    # twice the weak-coupling optimum ln(2/xi^2)/2, written so xi^2 cannot underflow
    return max(10.0, math.log(2.0) - 2.0 * math.log(xi))


def _coarse_bracket(xi: float) -> tuple[float, float]:
    """Grid neighbours of the coarse concurrence argmax; (0, 0) if degenerate."""
    ub = _search_window(xi)
    grid = np.linspace(0.0, ub, _COARSE_POINTS)
    if xi > 1.0 + CRITICAL_WINDOW:
        # resolve the first two Rabi periods so the coarse argmax cannot
        # land in a lower lobe when the window is much longer than 2*pi/w
        head = np.linspace(0.0, min(ub, 2.0 * math.pi / _omega(xi)), _COARSE_POINTS)
        grid = np.sort(np.concatenate([grid, head]))
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    values = _concurrence_arrays(xi, grid)
    i = int(values.argmax())
    if values[i] < ZERO_MAX_FLOOR:
        return 0.0, 0.0
    if i == len(grid) - 1:
        raise SearchError(
            f"concurrence maximum sits on the search window edge tau={ub} at xi={xi!r}"
        )
    return grid[max(i - 1, 0)], grid[i + 1]


def t_opt_batch(xi_values) -> np.ndarray:
    """Earliest concurrence maximiser for every xi of an array, found at once.

    Each xi gets its own coarse grid scan.  The golden-section refinements
    then run in lock-step: each pass shrinks every open bracket by the
    comparison its own search would make and evaluates all the new points
    in one call, so each xi gets the bits a search of its own would give.
    A bracket closes once it is narrower than ``_GOLDEN_TOL``.  A
    concurrence below 1e-14 across the whole window is treated as
    degenerate and reported as tau=0; a maximum on the far edge of the
    window raises ``SearchError``.
    """
    xi = np.asarray(xi_values, dtype=float)
    a, b = np.array([_coarse_bracket(x) for x in xi.tolist()]).reshape(-1, 2).T
    t = 0.5 * (a + b)
    idx = np.flatnonzero(b - a > _GOLDEN_TOL)
    xi, a, b = xi[idx], a[idx], b[idx]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(_concurrence_arrays(np.concatenate([xi, xi]), np.concatenate([c, d])), 2)
    while len(idx):
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = (
            np.where(left, b - _INV_PHI * (b - a), d),
            np.where(left, c, a + _INV_PHI * (b - a)),
        )
        f = _concurrence_arrays(xi, np.where(left, c, d))
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
        done = ~(b - a > _GOLDEN_TOL)
        t[idx[done]] = 0.5 * (a[done] + b[done])
        keep = ~done
        idx, xi, a, b, c, d, fc, fd = (v[keep] for v in (idx, xi, a, b, c, d, fc, fd))
    return t


def t_opt_numeric(params: ModelParams) -> RescaledTime:
    """Grid scan plus golden-section refinement: ``t_opt_batch`` of one xi."""
    return RescaledTime(float(t_opt_batch([params.xi])[0]))


@dataclass(frozen=True)
class OptimumRecord:
    """Location and value of the concurrence maximum for one xi."""

    xi: float
    tau_opt: float
    c_max: float
    source: str
    degenerate: bool = False

    def __post_init__(self):
        if self.source not in ("formula", "numeric"):
            raise DomainError(f"unknown source {self.source!r}")
        if self.tau_opt < 0:
            raise DomainError("tau_opt must be >= 0")
        if not -1e-12 <= self.c_max <= 1.0 + 1e-12:
            raise DomainError(f"c_max {self.c_max} outside [0, 1]")


def _optimum(params: ModelParams, tn: float) -> OptimumRecord:
    cn = concurrence(params, tn)
    if cn < ZERO_MAX_FLOOR:
        return OptimumRecord(params.xi, 0.0, 0.0, source="numeric", degenerate=True)
    if regime(params) is Regime.UNDERDAMPED:
        tf = t_opt_formula(params)
        if abs(tf.tau - tn) < 1e-6:
            return OptimumRecord(params.xi, tf.tau, concurrence(params, tf), "formula")
    return OptimumRecord(params.xi, tn, cn, "numeric")


def c_max_batch(xi_values) -> tuple:
    """``c_max`` for every xi of an array, with one lock-step search."""
    xi = np.asarray(xi_values, dtype=float).tolist()
    tn = t_opt_batch(xi).tolist()
    return tuple(_optimum(ModelParams(xi=x), t) for x, t in zip(xi, tn))


def c_max(params: ModelParams) -> OptimumRecord:
    """Maximum extractable concurrence over the evolution.

    Uses the closed-form optimum when it exists and agrees with the numeric
    search to 1e-6 in tau, otherwise the numeric result; the winning source
    is annotated on the record.
    """
    return c_max_batch([params.xi])[0]


def c_max_derivative(xi: float, h: float | None = None) -> float:
    """Central finite difference of c_max with respect to xi."""
    if h is None:
        h = 1e-4 * max(1.0, xi)
    if h <= 0:
        raise DomainError(f"h must be positive, got {h}")
    if xi - h <= 0:
        raise DomainError(f"xi - h = {xi - h} must stay positive")
    hi = c_max(ModelParams(xi=xi + h)).c_max
    lo = c_max(ModelParams(xi=xi - h)).c_max
    return (hi - lo) / (2.0 * h)
