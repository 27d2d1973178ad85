import math
import warnings

import numpy as np
import pytest

from lorentzbath import sideband
from lorentzbath.analytic import _amplitude_arrays
from lorentzbath.errors import DomainError, IntegrationError
from lorentzbath.model import ModelParams
from lorentzbath.multimode import (
    DiscretizedBath,
    MultimodeTrajectory,
    _lorentzian,
    collective_amplitude,
    evolve,
    sample_bath,
)


def _jc_bath(xi: float) -> DiscretizedBath:
    """Single resonant mode: the bath degenerates to vacuum Rabi dynamics."""
    return DiscretizedBath(detunings=np.array([0.0]), couplings=np.array([xi]))


class TestSpectralDensity:
    def test_half_width(self):
        assert _lorentzian(np.array([0.0]))[0] == pytest.approx(0.5 / np.pi)
        # half-maximum at detuning 2, i.e. half-width kappa/2 before rescaling
        assert _lorentzian(np.array([2.0]))[0] == pytest.approx(0.25 / np.pi)

    def test_unit_mass(self):
        x = np.linspace(-4000.0, 4000.0, 2_000_001)
        mass = np.trapezoid(_lorentzian(x), x)
        assert mass == pytest.approx(1.0, abs=1e-3)


class TestDiscretizedBath:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            DiscretizedBath(np.zeros(3), np.zeros(2))

    def test_rejects_empty_bath(self):
        with pytest.raises(DomainError, match="at least one mode"):
            DiscretizedBath(np.zeros(0), np.zeros(0))

    def test_mode_count_is_the_array_length(self):
        bath = DiscretizedBath(np.array([-1.0, 0.0, 1.0]), np.full(3, 0.1))
        assert bath.n_modes == 3
        assert DiscretizedBath.__match_args__ == ("detunings", "couplings")

    def test_rejects_negative_coupling(self):
        with pytest.raises(DomainError):
            DiscretizedBath(np.array([-1.0, 1.0]), np.array([0.1, -0.1]))

    def test_rejects_asymmetric_detunings(self):
        with pytest.raises(DomainError):
            DiscretizedBath(np.array([-1.0, 2.0]), np.array([0.1, 0.1]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            DiscretizedBath(np.array([-np.inf, np.inf]), np.array([0.1, 0.1]))

    def test_arrays_are_frozen(self):
        bath = _jc_bath(1.0)
        with pytest.raises(ValueError):
            bath.couplings[0] = 2.0

    def test_single_mode_never_recurs(self):
        assert _jc_bath(1.0).recurrence_horizon == np.inf

    def test_recurrence_horizon_formula(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=2001, window=40.0)
        expect = np.pi * 2000 / 160.0
        assert bath.recurrence_horizon == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n_modes", [2, 201, 2001])
    def test_recurrence_horizon_equals_unique_spacing_formula(self, n_modes):
        # sample_bath's detuning grid; two modes fail its coupling-mass check,
        # so the bath is built directly
        d = np.linspace(-160.0, 160.0, n_modes)
        bath = DiscretizedBath(d, np.full(n_modes, 0.1))
        spacing = np.diff(np.unique(bath.detunings)).min()
        assert bath.recurrence_horizon == float(2.0 * np.pi / spacing)


class TestSampleBath:
    def test_rejects_degenerate_requests(self):
        with pytest.raises(DomainError):
            sample_bath(ModelParams(xi=1.0), n_modes=1, window=40.0)
        with pytest.raises(DomainError):
            sample_bath(ModelParams(xi=1.0), n_modes=100, window=0.0)

    def test_grid_layout(self):
        bath = sample_bath(ModelParams(xi=1.0), n_modes=101, window=10.0)
        assert bath.detunings[0] == -40.0 and bath.detunings[-1] == 40.0
        spacing = np.diff(bath.detunings)
        assert np.allclose(spacing, spacing[0])

    def test_mass_matches_truncated_lorentzian(self):
        xi, window = 2.0, 40.0
        bath = sample_bath(ModelParams(xi=xi), n_modes=2001, window=window)
        expect = xi * xi * (2.0 / np.pi) * math.atan(2.0 * window)
        assert bath.coupling_mass == pytest.approx(expect, rel=1e-4)

    @pytest.mark.parametrize("n_modes", [2.5, 201.0, "201", 1, True])
    def test_n_modes_must_be_an_integer_of_at_least_two(self, n_modes):
        with pytest.raises(DomainError, match="integer n_modes >= 2"):
            sample_bath(ModelParams(xi=2.0), n_modes, 40.0)

    def test_numpy_integer_mode_count(self):
        bath = sample_bath(ModelParams(xi=2.0), np.int64(201), 40.0)
        ref = sample_bath(ModelParams(xi=2.0), 201, 40.0)
        assert bath.n_modes == 201
        assert np.array_equal(bath.couplings, ref.couplings)
        assert np.array_equal(bath.detunings, ref.detunings)

    def test_too_coarse_grid_is_rejected(self):
        with pytest.raises(DomainError):
            sample_bath(ModelParams(xi=1.0), n_modes=2, window=100.0)

    @pytest.mark.parametrize("window, limit", [(2.0, 0.4 * 2.0**1.5), (10.0, 10.0), (40.0, 40.0)])
    def test_xi_at_the_window_limit_tracks_the_continuum(self, window, limit):
        taus = np.linspace(0.0, 3.0, 301)
        traj = evolve(sample_bath(ModelParams(xi=limit), int(50 * window) + 1, window), taus)
        ce, _ = _amplitude_arrays(limit, taus)
        assert np.abs(traj.p_e - np.square(ce)).max() <= 5e-3
        with pytest.raises(DomainError, match=f"exceeds {limit:.6g}, .* window W = {window} "):
            sample_bath(ModelParams(xi=math.nextafter(limit, math.inf)), 101, window)


class TestEvolve:
    def test_zero_horizon(self):
        traj = evolve(_jc_bath(1.0), [0.0])
        assert len(traj.taus) == 1
        assert traj.c_e[0] == 1.0 and traj.solver["norm_defect"] == 0.0

    def test_sample_validation(self):
        bath = _jc_bath(1.0)
        with pytest.raises(DomainError):
            evolve(bath, np.array([0.5, 0.5]))

    def test_resonant_single_mode_is_rabi(self):
        taus = np.linspace(0.0, 3.0, 61)
        for xi in (2.0, 0.0):  # xi = 0 leaves H = 0, with a zero spectral radius
            traj = evolve(_jc_bath(xi), taus)
            assert np.abs(traj.c_e - np.cos(xi * taus)).max() < 1e-9

    def test_tracks_continuum_inside_horizon(self):
        xi = 2.0
        bath = sample_bath(ModelParams(xi=xi), n_modes=501, window=40.0)
        assert bath.recurrence_horizon > 3.0
        taus = np.linspace(0.0, 3.0, 31)
        traj = evolve(bath, taus)
        ce, _ = _amplitude_arrays(xi, taus)
        assert np.abs(traj.p_e - np.abs(ce) ** 2).max() < 1e-3

    def test_norm_is_conserved(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=501, window=40.0)
        traj = evolve(bath, np.linspace(0.0, 3.0, 31))
        assert traj.solver["norm_defect"] < 1e-9
        norm_sq = abs(traj.c_e[-1]) ** 2 + np.vdot(traj.c_k, traj.c_k).real
        assert traj.solver["norm_defect"] == abs(norm_sq - 1.0)
        assert not traj.c_k.flags.writeable

    def test_rejects_samples_past_the_recurrence_horizon(self):
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        with pytest.raises(DomainError, match="recurrence horizon"):
            evolve(bath, np.linspace(0.0, 10.0, 401))
        assert evolve(bath, np.array([0.0, 7.5])).taus[-1] == 7.5

    def test_repeated_detunings_share_one_horizon(self):
        bath = _hand_built_bath(np.random.default_rng(3))
        spacing = np.diff(np.unique(bath.detunings)).min()
        assert bath.recurrence_horizon == float(2.0 * np.pi / spacing)

    def test_solver_counters_repeat(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=501, window=40.0)
        first, second = (evolve(bath, np.linspace(0.0, 3.0, 401)) for _ in range(2))
        assert first.solver == second.solver
        rho = 160.0 + math.sqrt(bath.coupling_mass)
        assert first.solver["spectral_radius"] == pytest.approx(rho, rel=1e-15)
        # one term per order of the Bessel recurrence at rho times the last sample
        assert first.solver["terms"] == sideband._miller_start(0, 3.0 * rho) + 1
        assert first.solver["norm_defect"] <= 1e-12

    def test_truncated_expansion_raises(self, monkeypatch):
        # a start order below rho*tau cuts the series where its terms are
        # still of order one; the final norm check must catch it
        monkeypatch.setattr(sideband, "_miller_start", lambda n, x: 2 * (int(x) // 4) + 2)
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        with pytest.raises(IntegrationError, match=r"^norm .* at tau=1\.0$"):
            evolve(bath, np.linspace(0.0, 1.0, 401))

    def test_non_finite_weights_raise(self, monkeypatch):
        # NaN mode amplitudes give a NaN defect, which no comparison passes
        miller = sideband._miller
        monkeypatch.setattr(sideband, "_miller", lambda n, x: [math.nan] * len(miller(n, x)))
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        with pytest.raises(IntegrationError, match=r"^norm .* at tau=1\.0$"):
            evolve(bath, np.linspace(0.0, 1.0, 401))

    @pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e-8])
    def test_tiny_times_stay_finite(self, tau):
        bath = _hand_built_bath(np.random.default_rng(11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(bath, np.array([tau]))
        rho_tau = traj.solver["spectral_radius"] * tau
        assert np.isfinite(traj.c_e).all()
        assert abs(traj.c_e[0] - 1.0) <= rho_tau**2
        assert traj.solver["norm_defect"] <= 1e-15

    def test_ce_does_not_depend_on_the_sample_grid(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=201, window=10.0)
        tau = 1.3
        alone = evolve(bath, np.array([tau]))
        among = evolve(bath, np.r_[np.linspace(0.0, 1.2, 7), tau, 1.9])
        assert alone.c_e[0] == among.c_e[7]


def _hand_built_bath(rng) -> DiscretizedBath:
    """41 irregular modes: one uncoupled, two weakly coupled, one detuning pair repeated.

    A weak mode pins a root within g^2 of its detuning, where E_j - delta_k
    is only accurate if the root is held relative to its nearer pole.
    """
    half = np.sort(rng.uniform(0.2, 12.0, size=19))
    detunings = np.r_[-half[::-1], 0.0, half, -half[4], half[4]]
    couplings = rng.uniform(0.05, 0.6, size=41)
    couplings[7] = 0.0
    couplings[[12, 30]] = 1e-5
    return DiscretizedBath(detunings, couplings)


def _dense_propagation(bath: DiscretizedBath, taus: np.ndarray) -> np.ndarray:
    """Independent reference: dense eigendecomposition of the star Hamiltonian.

    Returns one row per sample, qubit amplitude first, then the modes.
    """
    n = bath.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 1:] = h[1:, 0] = bath.couplings
    h[1:, 1:] = np.diag(bath.detunings)
    energies, vectors = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(taus, energies)) * vectors[0]) @ vectors.T


class TestDenseReference:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_dense_eigh(self, seed):
        bath = _hand_built_bath(np.random.default_rng(seed))
        taus = np.linspace(0.0, 6.0, 25)
        assert taus[-1] < bath.recurrence_horizon
        ref = _dense_propagation(bath, taus)
        # one run per horizon: the final state carries the modes at taus[i]
        runs = [evolve(bath, taus[: i + 1]) for i in range(len(taus))]
        for i, traj in enumerate(runs):
            assert np.abs(traj.c_e - ref[: i + 1, 0]).max() < 1e-12
            assert np.abs(traj.c_k - ref[i, 1:]).max() < 1e-12
            assert traj.c_k[7] == 0.0  # the uncoupled mode
        assert runs[0].c_e[0] == 1.0 and not runs[0].c_k.any()  # tau = 0, exactly

    def test_weak_mode_on_a_degenerate_detuning(self):
        # the weak middle mode sits on an eigenvalue of the outer pair, where
        # eigenvectors built from the given couplings instead of Lowner-
        # recomputed ones lose orthogonality (Gu & Eisenstat, SIMAX 15, 1994)
        bath = DiscretizedBath(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1e-9, 0.5]))
        taus = np.linspace(0.0, 3.0, 31)
        traj = evolve(bath, taus)
        ref = _dense_propagation(bath, taus)
        assert traj.solver["norm_defect"] <= 1e-9
        assert np.abs(traj.c_e - ref[:, 0]).max() < 1e-12
        assert np.abs(traj.c_k - ref[-1, 1:]).max() < 1e-12


class TestConcurrence:
    def test_extremes(self):
        # c_e = 1 is unentangled; c_e = 1/sqrt 2 shares the excitation evenly
        half = np.array([2.0**-0.5 + 0.0j])
        traj = MultimodeTrajectory(np.array([0.0, 1.0]), np.array([1.0, 2.0**-0.5]), half, {})
        assert traj.concurrences[0] == 0.0
        assert traj.concurrences[1] == pytest.approx(1.0, abs=1e-15)

    def test_collective_amplitude_rejects_mode_mismatch(self):
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        with pytest.raises(DomainError):
            collective_amplitude(bath, np.zeros(3, complex))

    def test_extractable_reconstruction_at_the_optimum(self):
        # the closed picture keeps all of the entanglement, so its own
        # concurrence overshoots; projecting the reservoir onto the
        # coupling-weighted mode recovers the extractable value
        xi, topt = 2.0, 0.38050733439596325
        bath = sample_bath(ModelParams(xi=xi), n_modes=4001, window=60.0)
        traj = evolve(bath, np.array([0.0, topt]))
        cpm = collective_amplitude(bath, traj.c_k)
        rec = 2.0 * abs(traj.c_e[-1]) * abs(cpm)
        assert rec == pytest.approx(0.75593276364720863, abs=2e-2)
        assert traj.concurrences[-1] > rec
