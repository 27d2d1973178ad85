"""Brute-force continuum oracle: discretized multimode Schrodinger dynamics.

The Lorentzian reservoir is sampled on a uniform frequency grid and the
single-excitation state is propagated exactly, through the spectrum of the
arrowhead Hamiltonian [[0, g^T], [g, diag(delta)]].  Nothing here knows about
the closed-form amplitudes or the lossy-mode picture; agreement with them is
what the oracle is for.

All quantities are rescaled: time by 4/kappa, detunings and couplings by
kappa/4, so the Lorentzian has half-width 2 and total coupling strength xi.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EigensolverError, IntegrationError
from .model import ModelParams, _as_tau

NORM_BUDGET = 1e-9          # state-type invariant
NORM_ABORT = 1e-6           # evolve gives up when the weights sum this far from 1
MAX_ITERATIONS = 30         # per secular root, as in LAPACK dlaed4
BLOCK = 8                   # roots per block: each temporary holds about 8*N numbers
_EPS = 2.0**-52             # double-precision machine epsilon
_SYMMETRY_TOL = 1e-9


def _lorentzian(delta: np.ndarray) -> np.ndarray:
    """Rescaled spectral density, unit mass, half-width 2."""
    return (2.0 / np.pi) / (delta * delta + 4.0)


@dataclass(frozen=True)
class DiscretizedBath:
    """A finite stand-in for the continuum: detunings and couplings per mode.

    ``window`` is the sampled half-width in units of kappa (so the rescaled
    detunings span [-4*window, 4*window]).  Hand-built baths with a single
    mode are allowed; ``sample_bath`` is the quadrature constructor.
    """

    detunings: np.ndarray
    couplings: np.ndarray
    window: float
    n_modes: int

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "couplings", g)
        if d.ndim != 1 or g.shape != d.shape:
            raise DomainError("detunings and couplings must be matching 1-d arrays")
        if self.n_modes != len(d) or self.n_modes < 1:
            raise DomainError(f"n_modes={self.n_modes} does not match {len(d)} modes")
        if not (np.isfinite(d).all() and np.isfinite(g).all()):
            raise DomainError("bath arrays must be finite")
        if (g < 0).any():
            raise DomainError("couplings must be non-negative")
        if self.window < 0 or not np.isfinite(self.window):
            raise DomainError(f"window must be non-negative, got {self.window}")
        # resonant qubit: the sampled interval is centred on the line
        if abs(np.sort(d)[::-1] + np.sort(d)).max() > _SYMMETRY_TOL:
            raise DomainError("detunings must be symmetric about zero")
        d.flags.writeable = False
        g.flags.writeable = False

    @property
    def coupling_mass(self) -> float:
        """Sum of g_k^2; tends to xi^2 as the grid refines and widens."""
        return float(np.dot(self.couplings, self.couplings))

    @property
    def recurrence_horizon(self) -> float:
        """Poincare recurrence estimate 2*pi / (smallest detuning spacing).

        The discrete bath mimics the continuum only well inside this time;
        accuracy claims past it are meaningless.  Equal detunings count once;
        a bath with a single detuning never dephases (infinite horizon).
        """
        spacing = np.diff(np.unique(self.detunings))
        return float(2.0 * np.pi / spacing.min()) if len(spacing) else float("inf")


def sample_bath(params: ModelParams, n_modes: int, window: float) -> DiscretizedBath:
    """Quadrature sampling of the truncated Lorentzian.

    Uniform, endpoint-inclusive grid of n_modes detunings over
    [-4*window, 4*window] with couplings g_k = xi * sqrt(J(delta_k) * h).
    The sampled mass sum(g^2) then approximates the truncated-line integral
    xi^2 * (2/pi) * arctan(2*window), which is checked here against the
    analytic tail bound.
    """
    if n_modes < 2:
        raise DomainError(f"sample_bath needs n_modes >= 2, got {n_modes}")
    if window <= 0 or not np.isfinite(window):
        raise DomainError(f"window must be positive, got {window}")
    xi = params.xi
    delta = np.linspace(-4.0 * window, 4.0 * window, n_modes)
    h = delta[1] - delta[0]
    g = xi * np.sqrt(_lorentzian(delta) * h)
    bath = DiscretizedBath(detunings=delta, couplings=g, window=float(window), n_modes=n_modes)
    mass = bath.coupling_mass
    lo = xi * xi * (1.0 - 1.0 / (np.pi * window))
    hi = xi * xi * (1.0 + 1e-9)
    if not lo <= mass <= hi:
        raise DomainError(
            f"sampled coupling mass {mass} outside [{lo}, {hi}]; grid too coarse"
        )
    return bath


@dataclass(frozen=True)
class MultimodeState:
    """Single-excitation amplitudes: qubit c_e plus one c_k per mode."""

    c_e: complex
    c_k: np.ndarray

    def __post_init__(self):
        ck = np.asarray(self.c_k, dtype=complex)
        object.__setattr__(self, "c_k", ck)
        if ck.ndim != 1 or len(ck) < 1:
            raise DomainError("c_k must be a 1-d array with at least one mode")
        if not (np.isfinite(ck).all() and np.isfinite(self.c_e)):
            raise DomainError("amplitudes must be finite")
        if abs(self.norm_sq - 1.0) > NORM_BUDGET:
            raise DomainError(f"norm {self.norm_sq} departs from 1 beyond {NORM_BUDGET}")
        ck.flags.writeable = False

    @property
    def norm_sq(self) -> float:
        return float(abs(self.c_e) ** 2 + np.vdot(self.c_k, self.c_k).real)


@dataclass(frozen=True)
class MultimodeTrajectory:
    """Sampled evolution: qubit amplitude and norm per sample time.

    Mode amplitudes are only retained for the final state (and per sample
    when ``evolve`` is asked to keep them), since N complex numbers per
    sample adds up fast at N in the thousands.
    """

    taus: np.ndarray
    c_e: np.ndarray
    norms: np.ndarray
    final: MultimodeState
    solver: dict  # deterministic counters of the secular-equation solve
    modes: list | None = field(default=None, repr=False)

    @property
    def p_e(self) -> np.ndarray:
        return np.abs(self.c_e) ** 2

    @property
    def concurrences(self) -> np.ndarray:
        a = np.abs(self.c_e)
        return 2.0 * a * np.sqrt(np.clip(1.0 - a * a, 0.0, None))


def _propagate(poles, g, taus, mode_rows):
    """Spectral propagation under [[0, g^T], [g, diag(poles)]] (distinct poles, g > 0).

    Root j of E = sum g^2/(E - pole) lies alone between poles j-1 and j (virtual
    poles past the norm close the outer intervals), held as an offset from the
    nearer real pole.  Steps solve the fixed-weight two-pole model of LAPACK
    dlaed4 (R.-C. Li, LAWN 89; Gu & Eisenstat, SIMAX 1994) in a bisection
    bracket.  Returns c_e at taus, the pole amplitudes at taus[mode_rows], the
    weight sum and the counters, each block of roots adding its share.
    """
    m = len(poles)
    bound = 2.0 * (np.abs(poles).max(initial=0.0) + np.sqrt(g @ g)) + 1.0
    ext, gext = np.r_[-bound, poles, bound], np.r_[0.0, g, 0.0]
    c_e, weight_sum = np.zeros(len(taus), dtype=complex), 0.0
    pole_amps = np.zeros((len(taus[mode_rows]), m), dtype=complex)
    stats = {"roots": m + 1, "iterations": 0, "max_iterations": 0, "bisections": 0}
    for j0 in range(0, m + 1, BLOCK):
        j = np.arange(j0, min(j0 + BLOCK, m + 1))
        o, tau = j, 0.5 * (ext[j + 1] - ext[j])  # the midpoint, from the left pole
        for k in range(MAX_ITERATIONS + 1):
            # at E = ext[o] + tau, pole - E = (pole - ext[o]) - tau is exact near the anchor
            t = g / ((poles - ext[o, None]) - tau[:, None])
            gt, energy = g * t, ext[o] + tau
            f, df = energy + gt.sum(1), 1.0 + np.einsum("rk,rk->r", t, t)
            if k == 0:  # anchor each root at the nearer real pole
                right = ((f <= 0) | (j == 0)) & (j != m)
                o, done = j + right, np.zeros(len(j), dtype=bool)
                tau, lo, hi = np.where(right, -tau, tau), ext[j] - ext[o], ext[j + 1] - ext[o]
                gap, g_o = ext[j + 1 - right] - ext[o], gext[o]
            lo, hi = np.where(f < 0, tau, lo), np.where(f > 0, tau, hi)
            err = 8.0 * np.abs(gt).sum(1) + np.abs(energy) + np.abs(tau) * df
            done |= (np.abs(f) <= _EPS * err) | (hi - lo <= 4.0 * _EPS * np.abs(tau))
            if done.all():
                break
            if k == MAX_ITERATIONS:
                bad = j[~done]
                raise EigensolverError(
                    f"secular roots {bad.tolist()} between poles {ext[bad].tolist()} "
                    f"and {ext[bad + 1].tolist()} unconverged"
                )
            stats["iterations"] += int((~done).sum())
            dd = tau * (tau - gap)  # (anchor - E) * (other pole - E)
            a, b = (gap - 2.0 * tau) * f - dd * df, dd * f
            c = f - (gap - tau) * df + gap * (g_o / tau) ** 2
            disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
            with np.errstate(divide="ignore", invalid="ignore"):
                eta = np.where(a <= 0, (a - disc) / (2.0 * c), 2.0 * b / (a + disc))
            step = tau + np.where(f * eta < 0, eta, -f / df)  # uphill: Newton instead
            bisect = ~done & ~((lo < step) & (step < hi))
            stats["bisections"] += int(bisect.sum())
            tau = np.where(done, tau, np.where(bisect, 0.5 * (lo + hi), step))
        stats["max_iterations"] = max(stats["max_iterations"], k)
        phase = np.exp(-1j * np.outer(taus, energy)) / df  # w_j = 1/f'(E_j)
        c_e += phase.sum(1)
        pole_amps -= phase[mode_rows] @ t
        weight_sum += float((1.0 / df).sum())
    stats["weight_defect"] = abs(weight_sum - 1.0)
    return c_e, pole_amps, weight_sum, stats


def evolve(
    bath: DiscretizedBath,
    t_end,
    sample_taus: np.ndarray | None = None,
    keep_modes: bool = False,
) -> MultimodeTrajectory:
    """Propagate |e, vac> under the discretized Hamiltonian, exactly.

    Uncoupled modes drop out and equal detunings merge; the spectrum is solved
    once (O(N^2) time, O(N) memory), then c_e(tau) = sum_j w_j exp(-i E_j tau)
    and c_k(tau) = sum_j w_j g_k/(E_j - delta_k) exp(-i E_j tau) at any tau,
    with w_j = 1/(1 + sum g^2/(E_j - delta)^2).  The weights sum to the norm;
    off by more than NORM_ABORT the run aborts.
    """
    t_end = float(_as_tau(t_end))
    if sample_taus is None:
        sample_taus = np.linspace(0.0, t_end, 401) if t_end > 0 else np.zeros(1)
    samples = np.asarray(sample_taus, dtype=float)
    if samples.ndim != 1 or len(samples) == 0 or np.any(np.diff(samples) <= 0):
        raise DomainError("sample times must be strictly increasing")
    if samples[0] < 0 or samples[-1] > t_end + 1e-12 * max(1.0, t_end):
        raise DomainError("sample times must lie inside [0, t_end]")
    if samples[-1] > bath.recurrence_horizon:
        raise DomainError(f"sample time {samples[-1]} exceeds the recurrence horizon "
                          f"{bath.recurrence_horizon:.3f} of the N={bath.n_modes} bath")
    coupled = bath.couplings > 8.0 * _EPS * np.sqrt(bath.coupling_mass)  # else lost to rounding
    poles, pole_of = np.unique(bath.detunings[coupled], return_inverse=True)
    merged = np.sqrt(np.bincount(pole_of, weights=bath.couplings[coupled] ** 2))
    mode_rows = slice(None) if keep_modes else slice(-1, None)  # the final state, or all
    c_e, pole_amps, weight_sum, stats = _propagate(poles, merged, samples, mode_rows)
    if stats["weight_defect"] > NORM_ABORT:
        raise IntegrationError(f"qubit weights sum to {weight_sum}, not 1")
    amps = np.zeros((len(pole_amps), bath.n_modes), dtype=complex)
    # a merged mode splits back in proportion to the couplings
    amps[:, coupled] = bath.couplings[coupled] / merged[pole_of] * pole_amps[:, pole_of]
    norms = np.where(samples == 0.0, 1.0, weight_sum)
    c_e[samples == 0.0], amps[samples[mode_rows] == 0.0] = 1.0, 0.0  # the initial state, exactly
    final = MultimodeState(c_e=complex(c_e[-1]), c_k=amps[-1].copy())
    return MultimodeTrajectory(samples, c_e, norms, final, stats, [*amps] if keep_modes else None)


def reservoir_concurrence(state: MultimodeState) -> float:
    """Qubit-reservoir concurrence of the pure global state, 2|c_e|*sqrt(1-|c_e|^2).

    In the closed multimode picture nothing is ever irreversibly lost, so this
    counts all of the entanglement and upper-bounds the extractable part; the
    latter is recovered through :func:`collective_amplitude`.
    """
    a = abs(state.c_e)
    return float(2.0 * a * np.sqrt(max(0.0, 1.0 - a * a)))


def collective_amplitude(bath: DiscretizedBath, state: MultimodeState) -> complex:
    """Projection of the reservoir state onto the coupling-weighted mode.

    The normalized superposition sum(g_k |1_k>) / sqrt(sum g_k^2) is the
    discrete stand-in for the lossy mode of the equivalent damped picture, so
    2*|c_e|*|collective_amplitude| reconstructs the extractable concurrence
    from a multimode run; the remaining reservoir weight plays the role of
    the already-emitted radiation.
    """
    if len(state.c_k) != bath.n_modes:
        raise DomainError(
            f"state has {len(state.c_k)} modes but the bath has {bath.n_modes}"
        )
    return complex(np.dot(bath.couplings, state.c_k) / np.sqrt(bath.coupling_mass))
