"""Brute-force continuum oracle: discretized multimode Schrodinger dynamics.

The Lorentzian reservoir is sampled on a uniform frequency grid and the
single-excitation state is propagated under the arrowhead Hamiltonian
[[0, g^T], [g, diag(delta)]] by a Chebyshev expansion of exp(-iH tau), exact
to rounding and free of eigenvectors.  Its Bessel weights come from the Miller
recurrence of ``sideband``, run here across every sample time at once
(:func:`_miller_sums`).  Nothing here knows about
the closed-form amplitudes or the lossy-mode picture; agreement with them is
what the oracle is for.

All quantities are rescaled: time by 4/kappa, detunings and couplings by
kappa/4, so the Lorentzian has half-width 2 and total coupling strength xi.
"""
from __future__ import annotations

import operator

import numpy as np

from . import sideband
from .errors import DomainError, IntegrationError, _finite, _Record, _sample_times
from .model import ModelParams

NORM_BUDGET = 1e-9          # final-state norm budget
_SYMMETRY_TOL = 1e-9


def _lorentzian(delta: np.ndarray) -> np.ndarray:
    """Rescaled spectral density, unit mass, half-width 2."""
    return (2.0 / np.pi) / (delta * delta + 4.0)


def _miller_sums(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] * J_k(x_s) for each x_s >= 0, one row per argument.

    The ratio recurrence of :func:`sideband._miller`, r_k = J_k/J_(k-1) =
    x/(2k - x*r_(k+1)), runs across all arguments at once and sums by Horner's
    rule.  Each argument starts from r = 0 at its own
    ``sideband._miller_start(0, x_s)``, so its row does not depend on the
    others.  ``coef`` needs a row per order up to the largest start.
    """
    starts = {}
    for s, start in enumerate(sideband._miller_start(0, v) for v in x.tolist()):
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


class DiscretizedBath(_Record):
    """A finite stand-in for the continuum: detunings and couplings per mode.

    The mode count is the length of the arrays.  Hand-built baths with a
    single mode are allowed; ``sample_bath`` is the quadrature constructor.
    """

    detunings: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "couplings", g)
        if d.ndim != 1 or g.shape != d.shape or len(d) < 1:
            raise DomainError("detunings and couplings must be matching 1-d arrays "
                              "with at least one mode")
        if not (np.isfinite(d).all() and np.isfinite(g).all()):
            raise DomainError("bath arrays must be finite")
        if (g < 0).any():
            raise DomainError("couplings must be non-negative")
        # resonant qubit: the sampled interval is centred on the line
        if abs(np.sort(d)[::-1] + np.sort(d)).max() > _SYMMETRY_TOL:
            raise DomainError("detunings must be symmetric about zero")
        d.flags.writeable = False
        g.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return len(self.detunings)

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
        # the positive gaps of a sort, not np.diff(np.unique(...)): np.unique imports numpy.ma
        gaps = np.diff(np.sort(self.detunings))
        gaps = gaps[gaps > 0.0]
        return float(2.0 * np.pi / gaps.min()) if len(gaps) else float("inf")


def sample_bath(params: ModelParams, n_modes: int, window: float) -> DiscretizedBath:
    """Quadrature sampling of the truncated Lorentzian.

    Uniform, endpoint-inclusive grid of n_modes detunings over
    [-4*window, 4*window] with couplings g_k = xi * sqrt(J(delta_k) * h).
    The sampled mass sum(g^2) then approximates the truncated-line integral
    xi^2 * (2/pi) * arctan(2*window), which is checked here against the
    analytic tail bound.

    The window W also bounds xi.  The error max |p_e0 - closed form| (301
    samples, tau <= 3, N = 50 W + 1) is about 0.0175 xi^2/W^3 up to xi ~ W
    and grows towards the band edge xi ~ 4 W:

        W =          1       2       3       5       10      20      40
        at xi = W    1.6e-2  8.6e-3  5.8e-3  3.5e-3  1.8e-3  8.7e-4  6.9e-4
        at xi = 2 W  -       -       -       1.6e-2  1.0e-2  6.5e-3  6.0e-3

    So xi <= W fails the 5e-3 continuum budget below W ~ 5; the limit min(W,
    0.4 W^1.5) keeps 0.0175 * 0.4^2 = 2.8e-3, and a larger xi raises ``DomainError``.
    """
    try:
        count = operator.index(n_modes)  # numpy integers pass, floats do not
    except TypeError:
        count = 0
    if count < 2:
        raise DomainError(f"sample_bath needs an integer n_modes >= 2, got {n_modes!r}")
    reach = 4.0 * _finite(window)  # the largest detuning, which _lorentzian squares
    if not (reach > 0.0 and reach * reach < np.inf):
        raise DomainError(f"window must be positive with (4*window)^2 finite, got {window}")
    xi, w = params.xi, reach / 4.0
    if xi > (limit := min(w, 0.4 * w**1.5)):
        raise DomainError(f"xi = {xi} exceeds {limit:.6g}, the largest the window W = {w} holds")
    delta = np.linspace(-reach, reach, count)
    h = delta[1] - delta[0]
    g = xi * np.sqrt(_lorentzian(delta) * h)
    bath = DiscretizedBath(detunings=delta, couplings=g)
    mass = bath.coupling_mass
    lo = xi * xi * (1.0 - 1.0 / (np.pi * window))
    hi = xi * xi * (1.0 + 1e-9)
    if not lo <= mass <= hi:
        raise DomainError(
            f"sampled coupling mass {mass} outside [{lo}, {hi}]; grid too coarse"
        )
    return bath


class MultimodeTrajectory(_Record):
    """Sampled evolution: qubit amplitude c_e per sample time.

    Only the last sample's modes are kept, as the read-only array c_k; N
    complex numbers per sample add up fast at N in the thousands.
    """

    taus: np.ndarray
    c_e: np.ndarray
    c_k: np.ndarray
    solver: dict  # deterministic counters: terms, spectral_radius, norm_defect

    @property
    def p_e(self) -> np.ndarray:
        return np.abs(self.c_e) ** 2

    @property
    def concurrences(self) -> np.ndarray:
        """2|c_e|sqrt(1-|c_e|^2): the qubit-reservoir concurrence of the pure global state,
        which the multimode ``concurrence`` column reports.  Nothing leaves the closed picture,
        so it counts all of the entanglement and bounds the extractable part from above."""
        a = np.abs(self.c_e)
        return 2.0 * a * np.sqrt(np.clip(1.0 - a * a, 0.0, None))


def evolve(bath: DiscretizedBath, taus) -> MultimodeTrajectory:
    """Propagate |e, vac> under H = [[0, g^T], [g, diag(delta)]] by Chebyshev expansion.

    With rho = max|delta| + |g| >= |H| (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967, 1984), exp(-iH tau) = sum_n w_n i^(n mod 2) J_n(rho tau) T_n(H/rho),
    w_n = (-1)^ceil(n/2) (2 - [n=0]).  One three-term recurrence on real
    vectors, O(N) per term, yields the moments mu_n = <e|T_n(H/rho)|e> behind
    every c_e(tau) and the final mode amplitudes; about rho*tau + 40 terms
    reach machine precision.  No eigenvectors are formed.  A final state that
    departs from norm 1 by more than NORM_BUDGET, or is not finite, raises
    ``IntegrationError`` naming the last tau.
    """
    samples = np.array(_sample_times(taus))
    if samples[-1] > bath.recurrence_horizon:
        raise DomainError(f"sample time {samples[-1]} exceeds the recurrence horizon "
                          f"{bath.recurrence_horizon:.3f} of the N={bath.n_modes} bath")
    rho = float(np.abs(bath.detunings).max() + np.sqrt(bath.coupling_mass)) or 1.0
    x = rho * samples
    j_end = sideband._miller(0, x[-1])  # J_n(rho T) for every term the expansion needs
    terms = len(j_end)
    w = np.resize([2.0, -2.0, -2.0, 2.0], terms)
    w[0] = 1.0
    weights = (w * j_end).tolist()  # final mode amplitudes: Re from even n, Im from odd
    d2, g1 = 2.0 * bath.detunings / rho, bath.couplings / rho
    mu, parts = np.zeros(terms), np.zeros((2, bath.n_modes))
    mu[0] = 1.0
    pe, p, ve, v = 1.0, np.zeros(bath.n_modes), 0.0, g1.copy()  # T_0 e and T_1 e
    for n in range(1, terms):
        mu[n] = ve
        parts[n % 2] += weights[n] * v
        # T_(n+1) e = 2 (H/rho) T_n e - T_(n-1) e, with T_n e = (ve, v)
        np.subtract(d2 * v, p, out=p)
        p += (2.0 * ve) * g1
        pe, ve = ve, 2.0 * (g1 @ v) - pe
        p, v = v, p
    coef = np.zeros((terms, 2))  # even orders feed Re c_e, odd orders Im c_e
    coef[np.arange(terms), np.arange(terms) % 2] = w * mu
    c_e = _miller_sums(x, coef) @ [1.0, 1j]
    c_k = parts[0] + 1j * parts[1]
    defect = abs(abs(c_e[-1]) ** 2 + np.vdot(c_k, c_k).real - 1.0)
    if not defect <= NORM_BUDGET:  # NaN fails too
        raise IntegrationError(f"norm departs from 1 by {defect}, beyond {NORM_BUDGET}, "
                               f"at tau={samples[-1]}")
    c_k.flags.writeable = False
    stats = {"terms": terms, "spectral_radius": rho, "norm_defect": float(defect)}
    return MultimodeTrajectory(samples, c_e, c_k, stats)


def collective_amplitude(bath: DiscretizedBath, c_k: np.ndarray) -> complex:
    """Projection of the mode amplitudes c_k onto the coupling-weighted mode.

    The normalized superposition sum(g_k |1_k>) / sqrt(sum g_k^2) is the
    discrete stand-in for the lossy mode of the equivalent damped picture, so
    2*|c_e|*|collective_amplitude| reconstructs the extractable concurrence
    from a multimode run; the remaining reservoir weight plays the role of
    the already-emitted radiation.
    """
    if len(c_k) != bath.n_modes:
        raise DomainError(f"c_k has {len(c_k)} modes but the bath has {bath.n_modes}")
    return complex(np.dot(bath.couplings, c_k) / np.sqrt(bath.coupling_mass))
