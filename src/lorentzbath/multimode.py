"""Brute-force continuum oracle: discretized multimode Schrodinger dynamics.

The Lorentzian reservoir is sampled on a uniform frequency grid and the
single-excitation state is propagated under the arrowhead Hamiltonian
[[0, g^T], [g, diag(delta)]] by a Chebyshev expansion of exp(-iH tau), exact
to rounding and free of eigenvectors.  Nothing here knows about
the closed-form amplitudes or the lossy-mode picture; agreement with them is
what the oracle is for.

All quantities are rescaled: time by 4/kappa, detunings and couplings by
kappa/4, so the Lorentzian has half-width 2 and total coupling strength xi.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sideband
from .errors import DomainError
from .model import ModelParams, _sample_times

NORM_BUDGET = 1e-9          # state-type invariant
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
    """Sampled evolution: qubit amplitude per sample time.

    Mode amplitudes are only retained for the final state (and per sample
    when ``evolve`` is asked to keep them), since N complex numbers per
    sample adds up fast at N in the thousands.
    """

    taus: np.ndarray
    c_e: np.ndarray
    final: MultimodeState
    solver: dict  # deterministic counters: terms, spectral_radius, norm_defect
    modes: list | None = field(default=None, repr=False)

    @property
    def p_e(self) -> np.ndarray:
        return np.abs(self.c_e) ** 2

    @property
    def concurrences(self) -> np.ndarray:
        a = np.abs(self.c_e)
        return 2.0 * a * np.sqrt(np.clip(1.0 - a * a, 0.0, None))


def evolve(
    bath: DiscretizedBath,
    t_end: float,
    sample_taus: np.ndarray | None = None,
    keep_modes: bool = False,
) -> MultimodeTrajectory:
    """Propagate |e, vac> under H = [[0, g^T], [g, diag(delta)]] by Chebyshev expansion.

    With rho = max|delta| + |g| >= |H| (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967, 1984), exp(-iH tau) = sum_n w_n i^(n mod 2) J_n(rho tau) T_n(H/rho),
    w_n = (-1)^ceil(n/2) (2 - [n=0]).  One three-term recurrence on real
    vectors, O(N) per term, yields the moments mu_n = <e|T_n(H/rho)|e> behind
    every c_e(tau) and the final mode amplitudes; about rho*tau + 40 terms
    reach machine precision.  No eigenvectors are formed.  The final state
    must keep its norm to NORM_BUDGET.
    """
    samples = _sample_times(sample_taus, t_end)
    if samples[-1] > bath.recurrence_horizon:
        raise DomainError(f"sample time {samples[-1]} exceeds the recurrence horizon "
                          f"{bath.recurrence_horizon:.3f} of the N={bath.n_modes} bath")
    rho = float(np.abs(bath.detunings).max() + np.sqrt(bath.coupling_mass)) or 1.0
    x = rho * samples
    j_end = sideband._miller(0, x[-1])  # J_n(rho T) for every term the expansion needs
    terms = len(j_end)
    w = np.resize([2.0, -2.0, -2.0, 2.0], terms)
    w[0] = 1.0
    # J_n(rho tau) at every sample, or at the last only; S x terms only if asked
    bessel = sideband._miller_sums(x, np.eye(terms)) if keep_modes else np.array([j_end])
    weights = w * bessel  # mode amplitudes: real parts from even n, imaginary from odd
    d2, g1 = 2.0 * bath.detunings / rho, bath.couplings / rho
    mu, parts = np.zeros(terms), np.zeros((2, len(bessel), bath.n_modes))
    mu[0] = 1.0
    pe, p, ve, v = 1.0, np.zeros(bath.n_modes), 0.0, g1.copy()  # T_0 e and T_1 e
    for n in range(1, terms):
        mu[n] = ve
        parts[n % 2] += weights[:, n, None] * v
        # T_(n+1) e = 2 (H/rho) T_n e - T_(n-1) e, with T_n e = (ve, v)
        np.subtract(d2 * v, p, out=p)
        p += (2.0 * ve) * g1
        pe, ve = ve, 2.0 * (g1 @ v) - pe
        p, v = v, p
    coef = np.zeros((terms, 2))  # even orders feed Re c_e, odd orders Im c_e
    coef[np.arange(terms), np.arange(terms) % 2] = w * mu
    c_e = sideband._miller_sums(x, coef) @ [1.0, 1j]
    amps = parts[0] + 1j * parts[1]
    final = MultimodeState(c_e=complex(c_e[-1]), c_k=amps[-1].copy())
    stats = {"terms": terms, "spectral_radius": rho, "norm_defect": abs(final.norm_sq - 1.0)}
    return MultimodeTrajectory(samples, c_e, final, stats, [*amps] if keep_modes else None)


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
