import math
import warnings

import numpy as np
import pytest

from lorentzbath import sideband
from lorentzbath.analytic import _amplitude_arrays
from lorentzbath.errors import DomainError
from lorentzbath.model import ModelParams
from lorentzbath.multimode import (
    DiscretizedBath,
    MultimodeState,
    _lorentzian,
    collective_amplitude,
    evolve,
    reservoir_concurrence,
    sample_bath,
)


def _jc_bath(xi: float) -> DiscretizedBath:
    """Single resonant mode: the bath degenerates to vacuum Rabi dynamics."""
    return DiscretizedBath(
        detunings=np.array([0.0]),
        couplings=np.array([xi]),
        window=0.0,
        n_modes=1,
    )


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
            DiscretizedBath(np.zeros(3), np.zeros(2), window=1.0, n_modes=3)

    def test_rejects_wrong_count(self):
        with pytest.raises(DomainError):
            DiscretizedBath(np.zeros(3), np.zeros(3), window=1.0, n_modes=4)

    def test_rejects_negative_coupling(self):
        with pytest.raises(DomainError):
            DiscretizedBath(
                np.array([-1.0, 1.0]), np.array([0.1, -0.1]), window=1.0, n_modes=2
            )

    def test_rejects_asymmetric_detunings(self):
        with pytest.raises(DomainError):
            DiscretizedBath(
                np.array([-1.0, 2.0]), np.array([0.1, 0.1]), window=1.0, n_modes=2
            )

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            DiscretizedBath(
                np.array([-np.inf, np.inf]), np.array([0.1, 0.1]), window=1.0, n_modes=2
            )

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

    def test_too_coarse_grid_is_rejected(self):
        with pytest.raises(DomainError):
            sample_bath(ModelParams(xi=1.0), n_modes=2, window=100.0)


class TestMultimodeState:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            MultimodeState(c_e=1.0, c_k=np.array([0.1 + 0.0j]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            MultimodeState(c_e=np.nan, c_k=np.array([0.0j]))

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            MultimodeState(c_e=1.0, c_k=np.zeros((2, 2), dtype=complex))

    def test_norm_property(self):
        s = MultimodeState(c_e=0.6, c_k=np.array([0.8j]))
        assert s.norm_sq == pytest.approx(1.0, abs=1e-15)


class TestEvolve:
    def test_zero_horizon(self):
        traj = evolve(_jc_bath(1.0), t_end=0.0)
        assert len(traj.taus) == 1
        assert traj.c_e[0] == 1.0 and traj.solver["norm_defect"] == 0.0

    def test_sample_validation(self):
        bath = _jc_bath(1.0)
        with pytest.raises(DomainError):
            evolve(bath, 1.0, sample_taus=np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            evolve(bath, 1.0, sample_taus=np.array([0.0, 2.0]))

    def test_end_slack_is_relative_to_the_horizon(self):
        bath = _jc_bath(1.0)
        traj = evolve(bath, 400.0, sample_taus=np.array([0.0, 400.0 * (1 + 5e-13)]))
        assert len(traj.c_e) == 2
        with pytest.raises(DomainError):
            evolve(bath, 400.0, sample_taus=np.array([0.0, 400.0 + 1e-9]))

    def test_resonant_single_mode_is_rabi(self):
        taus = np.linspace(0.0, 3.0, 61)
        for xi in (2.0, 0.0):  # xi = 0 leaves H = 0, with a zero spectral radius
            traj = evolve(_jc_bath(xi), t_end=3.0, sample_taus=taus)
            assert np.abs(traj.c_e - np.cos(xi * taus)).max() < 1e-9

    def test_tracks_continuum_inside_horizon(self):
        xi = 2.0
        bath = sample_bath(ModelParams(xi=xi), n_modes=501, window=40.0)
        assert bath.recurrence_horizon > 3.0
        taus = np.linspace(0.0, 3.0, 31)
        traj = evolve(bath, t_end=3.0, sample_taus=taus)
        ce, _ = _amplitude_arrays(xi, taus)
        assert np.abs(traj.p_e - np.abs(ce) ** 2).max() < 1e-3

    def test_norm_is_conserved(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=501, window=40.0)
        traj = evolve(bath, t_end=3.0, sample_taus=np.linspace(0.0, 3.0, 31))
        assert traj.solver["norm_defect"] < 1e-9
        assert traj.solver["norm_defect"] == abs(traj.final.norm_sq - 1.0)

    def test_keep_modes(self):
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        taus = np.linspace(0.0, 1.0, 5)
        traj = evolve(bath, t_end=1.0, sample_taus=taus, keep_modes=True)
        assert traj.modes is not None and len(traj.modes) == 5
        assert all(len(m) == 51 for m in traj.modes)
        assert np.allclose(traj.modes[-1], traj.final.c_k)

    def test_modes_dropped_by_default(self):
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        traj = evolve(bath, t_end=1.0, sample_taus=np.linspace(0.0, 1.0, 5))
        assert traj.modes is None

    def test_rejects_samples_past_the_recurrence_horizon(self):
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        with pytest.raises(DomainError, match="recurrence horizon"):
            evolve(bath, t_end=10.0)
        assert evolve(bath, t_end=10.0, sample_taus=np.array([0.0, 7.5])).taus[-1] == 7.5

    def test_repeated_detunings_share_one_horizon(self):
        bath = _hand_built_bath(np.random.default_rng(3))
        spacing = np.diff(np.unique(bath.detunings)).min()
        assert bath.recurrence_horizon == pytest.approx(2.0 * np.pi / spacing, rel=1e-15)

    def test_solver_counters_repeat(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=501, window=40.0)
        first, second = (evolve(bath, t_end=3.0) for _ in range(2))
        assert first.solver == second.solver
        rho = 160.0 + math.sqrt(bath.coupling_mass)
        assert first.solver["spectral_radius"] == pytest.approx(rho, rel=1e-15)
        # one term per order of the Bessel recurrence at rho * t_end
        assert first.solver["terms"] == sideband._miller_start(0, 3.0 * rho) + 1
        assert first.solver["norm_defect"] <= 1e-12

    def test_truncated_expansion_raises(self, monkeypatch):
        # a start order below rho*t_end cuts the series where its terms are
        # still of order one; the final norm check must catch it
        monkeypatch.setattr(sideband, "_miller_start", lambda n, x: 2 * (int(x) // 4) + 2)
        with pytest.raises(DomainError, match="norm"):
            evolve(sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0), t_end=1.0)

    @pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e-8])
    def test_tiny_times_stay_finite(self, tau):
        bath = _hand_built_bath(np.random.default_rng(11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(bath, t_end=tau, sample_taus=np.array([tau]))
        rho_tau = traj.solver["spectral_radius"] * tau
        assert np.isfinite(traj.c_e).all()
        assert abs(traj.c_e[0] - 1.0) <= rho_tau**2
        assert traj.solver["norm_defect"] <= 1e-15

    def test_ce_does_not_depend_on_the_sample_grid(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=201, window=10.0)
        tau = 1.3
        alone = evolve(bath, t_end=2.0, sample_taus=np.array([tau]))
        among = evolve(bath, t_end=2.0, sample_taus=np.r_[np.linspace(0.0, 1.2, 7), tau, 1.9])
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
    return DiscretizedBath(detunings, couplings, window=3.0, n_modes=41)


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
        traj = evolve(bath, t_end=6.0, sample_taus=taus, keep_modes=True)
        ref = _dense_propagation(bath, taus)
        assert np.abs(traj.c_e - ref[:, 0]).max() < 1e-12
        assert np.abs(np.array(traj.modes) - ref[:, 1:]).max() < 1e-12
        assert (np.array(traj.modes)[:, 7] == 0.0).all()  # the uncoupled mode
        assert traj.c_e[0] == 1.0 and not traj.modes[0].any()  # tau = 0, exactly
        assert np.abs(traj.final.c_k - ref[-1, 1:]).max() < 1e-12

    def test_weak_mode_on_a_degenerate_detuning(self):
        # the weak middle mode sits on an eigenvalue of the outer pair, where
        # eigenvectors built from the given couplings instead of Lowner-
        # recomputed ones lose orthogonality (Gu & Eisenstat, SIMAX 15, 1994)
        bath = DiscretizedBath(
            np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1e-9, 0.5]), window=1.0, n_modes=3
        )
        taus = np.linspace(0.0, 3.0, 31)
        traj = evolve(bath, t_end=3.0, sample_taus=taus)
        ref = _dense_propagation(bath, taus)
        assert traj.solver["norm_defect"] <= 1e-9
        assert np.abs(traj.c_e - ref[:, 0]).max() < 1e-12
        assert np.abs(traj.final.c_k - ref[-1, 1:]).max() < 1e-12


class TestConcurrence:
    def test_extremes(self):
        full = MultimodeState(c_e=1.0, c_k=np.array([0.0j]))
        assert reservoir_concurrence(full) == 0.0
        half = MultimodeState(c_e=2.0**-0.5, c_k=np.array([2.0**-0.5 + 0.0j]))
        assert reservoir_concurrence(half) == pytest.approx(1.0, abs=1e-15)

    def test_trajectory_concurrence_matches_state_formula(self):
        bath = sample_bath(ModelParams(xi=2.0), n_modes=101, window=5.0)
        taus = np.linspace(0.0, 1.0, 11)
        traj = evolve(bath, t_end=1.0, sample_taus=taus)
        final_c = reservoir_concurrence(traj.final)
        assert final_c == pytest.approx(traj.concurrences[-1], abs=1e-12)

    def test_collective_amplitude_rejects_mode_mismatch(self):
        bath = sample_bath(ModelParams(xi=1.0), n_modes=51, window=5.0)
        with pytest.raises(DomainError):
            collective_amplitude(bath, MultimodeState(c_e=1.0, c_k=np.zeros(3, complex)))

    def test_extractable_reconstruction_at_the_optimum(self):
        # the closed picture keeps all of the entanglement, so its own
        # concurrence overshoots; projecting the reservoir onto the
        # coupling-weighted mode recovers the extractable value
        xi, topt = 2.0, 0.38050733439596325
        bath = sample_bath(ModelParams(xi=xi), n_modes=4001, window=60.0)
        traj = evolve(bath, t_end=topt, sample_taus=np.array([0.0, topt]))
        cpm = collective_amplitude(bath, traj.final)
        rec = 2.0 * abs(traj.final.c_e) * abs(cpm)
        assert rec == pytest.approx(0.75593276364720863, abs=2e-2)
        assert reservoir_concurrence(traj.final) > rec
