import warnings

import numpy as np
import pytest

from lorentzbath.analytic import _amplitude_arrays
from lorentzbath.errors import DomainError, IntegrationError
from lorentzbath.lindblad import (
    KAPPA_RESCALED,
    LindbladConfig,
    _expm,
    _liouvillian,
    concurrence_from_state,
    integrate,
    rhs,
)
from lorentzbath.model import (
    ModelParams,
    PureAmplitudes,
    RescaledTime,
    pure_to_density,
)


class TestGenerator:
    def test_initial_state_only_builds_coherence(self):
        out = rhs(np.diag([1.0, 0.0, 0.0]).astype(complex), ModelParams(xi=3.0))
        assert np.allclose(np.diag(out), 0.0)
        assert out[0, 1] == pytest.approx(3.0j)
        assert out[1, 0] == pytest.approx(-3.0j)
        assert out[0, 2] == 0.0 and out[1, 2] == 0.0

    def test_mode_population_drains_at_rescaled_kappa(self):
        out = rhs(np.diag([0.0, 1.0, 0.0]).astype(complex), ModelParams(xi=3.0))
        assert out[1, 1].real == pytest.approx(-KAPPA_RESCALED)
        assert out[2, 2].real == pytest.approx(KAPPA_RESCALED)
        assert out[0, 0] == 0.0

    def test_trace_free(self, rng):
        params = ModelParams(xi=1.7)
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = a + a.conj().T
            assert abs(np.trace(rhs(m, params))) < 1e-13

    def test_accepts_density_matrix_type(self):
        rho = pure_to_density(PureAmplitudes(c_e0=1.0, c_g1=0.0))
        out = rhs(rho, ModelParams(xi=2.0))
        assert out[0, 1] == pytest.approx(2.0j)

    @pytest.mark.parametrize("xi", [0.05, 1.7, 30.0])
    def test_probed_liouvillian_reproduces_rhs(self, rng, xi):
        params = ModelParams(xi=xi)
        L = _liouvillian(rhs, params)
        for _ in range(20):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            want = rhs(m, params).reshape(9)
            got = L @ m.reshape(9)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestConfig:
    def test_rejects_negative_horizon(self):
        with pytest.raises(DomainError):
            LindbladConfig(ModelParams(xi=1.0), t_end=-1.0)

    def test_rejects_infinite_horizon(self):
        with pytest.raises(DomainError):
            LindbladConfig(ModelParams(xi=1.0), t_end=np.inf)

    def test_zero_horizon_is_allowed(self):
        traj = integrate(LindbladConfig(ModelParams(xi=1.0), t_end=0.0))
        assert len(traj.states) == 1
        assert np.allclose(traj.states[0].matrix, np.diag([1.0, 0.0, 0.0]))

    def test_horizon_accepts_rescaled_time(self):
        cfg = LindbladConfig(ModelParams(xi=1.0), t_end=RescaledTime(1.5))
        assert cfg.t_end == 1.5


class TestSampling:
    def test_rejects_unsorted_samples(self):
        cfg = LindbladConfig(ModelParams(xi=1.0), t_end=1.0)
        with pytest.raises(DomainError):
            integrate(cfg, sample_taus=np.array([0.0, 0.5, 0.5]))

    def test_rejects_samples_outside_horizon(self):
        cfg = LindbladConfig(ModelParams(xi=1.0), t_end=1.0)
        with pytest.raises(DomainError):
            integrate(cfg, sample_taus=np.array([0.0, 1.5]))
        with pytest.raises(DomainError):
            integrate(cfg, sample_taus=np.array([-0.1, 0.5]))

    def test_end_slack_is_relative_to_the_horizon(self):
        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=400.0)
        traj = integrate(cfg, sample_taus=np.array([0.0, 400.0 * (1 + 5e-13)]))
        assert len(traj.states) == 2
        with pytest.raises(DomainError):
            integrate(cfg, sample_taus=np.array([0.0, 400.0 + 1e-9]))

    def test_default_grid_has_401_points(self):
        traj = integrate(LindbladConfig(ModelParams(xi=2.0), t_end=1.0))
        assert len(traj.taus) == 401 and len(traj.states) == 401


class TestIntegration:
    def test_point_values_against_closed_form(self):
        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=0.5)
        traj = integrate(cfg, sample_taus=np.array([0.0, 0.25, 0.5]))
        final = traj.states[-1]
        assert final.p_e0 == pytest.approx(0.4352042923850347, abs=1e-12)
        assert final.p_g1 == pytest.approx(0.28462992723914709, abs=1e-12)
        assert final.p_g0 == pytest.approx(0.28016578037581821, abs=1e-12)
        assert abs(final.coherence) == pytest.approx(0.35195477845273947, abs=1e-12)
        assert concurrence_from_state(final) == pytest.approx(
            0.70390955690547894, abs=1e-12
        )

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    def test_tracks_no_jump_solution(self, xi):
        taus = np.linspace(0.0, 4.0, 101)
        traj = integrate(LindbladConfig(ModelParams(xi=xi), t_end=4.0), taus)
        ce, cg = _amplitude_arrays(xi, taus)
        assert np.abs(traj.p_e0 - np.abs(ce) ** 2).max() < 1e-12
        assert np.abs(traj.coherences - ce * np.conj(cg)).max() < 1e-12
        assert np.abs(traj.concurrences - 2 * np.abs(ce) * np.abs(cg)).max() < 1e-12

    def test_invariants_at_every_sample(self):
        taus = np.linspace(0.0, 6.0, 401)
        for xi in (0.5, 2.0, 10.0):
            traj = integrate(LindbladConfig(ModelParams(xi=xi), t_end=6.0), taus)
            for s in traj.states:
                assert abs(np.trace(s.matrix).real - 1.0) < 1e-9
                low = np.linalg.eigvalsh(s.matrix).min()
                # contract floor is -1e-9; the exact propagator keeps the
                # exactly-zero eigenvalue at rounding level
                assert low > -1e-13

    def test_solver_counters(self):
        taus = np.linspace(0.0, 6.0, 401)
        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=6.0)
        first, second = integrate(cfg, taus), integrate(cfg, taus)
        stats = first.solver
        assert stats == second.solver
        assert stats.generator_calls == 10  # nine probes and the linearity check
        # one propagator per distinct float interval of the grid
        assert stats.propagators == len(np.unique(np.diff(taus, prepend=0.0)))
        assert stats.squarings == 0  # every interval is well inside the Pade range
        assert stats.worst_trace_drift < 1e-12
        assert stats.min_eigenvalue == min(s.min_eigenvalue for s in first.states)
        assert stats.min_eigenvalue > -1e-13

    def test_long_interval_is_squared(self):
        traj = integrate(
            LindbladConfig(ModelParams(xi=2.0), t_end=6.0), np.array([0.0, 6.0])
        )
        ce, cg = _amplitude_arrays(2.0, np.array([6.0]))
        assert traj.solver.propagators == 2 and traj.solver.squarings > 0
        assert abs(traj.coherences[-1] - ce[0] * np.conj(cg[0])) < 1e-14

    def test_trajectory_properties_are_consistent(self):
        taus = np.linspace(0.0, 2.0, 21)
        traj = integrate(LindbladConfig(ModelParams(xi=1.5), t_end=2.0), taus)
        assert np.allclose(traj.concurrences, 2.0 * np.abs(traj.coherences))
        closure = traj.p_e0 + traj.p_g1 + traj.p_g0
        assert np.abs(closure - 1.0).max() < 1e-9


class TestExpm:
    @pytest.mark.parametrize("a, h", [(-2.0, 0.75), (1.0, 3.0), (0.5, 20.0), (2j, 5.0)])
    def test_defective_jordan_block(self, a, h):
        got, _ = _expm(h * np.array([[a, 1.0], [0.0, a]]))
        want = np.exp(a * h) * np.array([[1.0, h], [0.0, 1.0]])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_is_exactly_the_identity(self):
        got, squarings = _expm(np.zeros((9, 9), dtype=complex))
        assert squarings == 0 and (got == np.eye(9)).all()

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("h", [0.01, 0.5, 3.0])
    def test_doubling_is_squaring(self, xi, h):
        L = _liouvillian(rhs, ModelParams(xi=xi))
        double, _ = _expm(2.0 * h * L)
        single, _ = _expm(h * L)
        assert np.abs(double - single @ single).max() < 1e-14


class TestFailureModes:
    def test_injected_zero_generator_freezes_the_state(self):
        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=1.0)
        traj = integrate(
            cfg,
            sample_taus=np.array([0.0, 1.0]),
            rhs_fn=lambda m, params: np.zeros((3, 3), dtype=complex),
        )
        assert np.allclose(traj.states[-1].matrix, np.diag([1.0, 0.0, 0.0]))

    def test_trace_violation_is_caught(self):
        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=1.0)
        with pytest.raises(IntegrationError):
            integrate(
                cfg,
                sample_taus=np.array([0.0, 0.5]),
                rhs_fn=lambda m, params: np.asarray(m, dtype=complex),
            )

    @pytest.mark.parametrize("rate, early", [(1.0, 1e-10)])
    def test_negative_eigenvalue_beyond_budget_is_caught(self, rate, early):
        # trace-preserving, but moves population out of the empty |g,1>; at
        # the early sample the dip is still inside the -1e-9 floor, so the
        # error names the last sample
        def leak(m, params):
            out = np.zeros((3, 3), dtype=complex)
            out[0, 0], out[1, 1] = rate * m[0, 0], -rate * m[0, 0]
            return out

        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=1.0)
        with pytest.raises(
            IntegrationError, match=r"matrix has an eigenvalue below -1e-9 at tau=1.0$"
        ):
            integrate(cfg, sample_taus=np.array([0.0, early, 1.0]), rhs_fn=leak)

    def test_stiff_generator_fails_validation(self):
        # the propagator underflows to zero, so the state loses its trace
        def stiff(m, params):
            return -1e20 * np.asarray(m, dtype=complex)

        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = integrate(cfg, sample_taus=np.array([0.0]), rhs_fn=stiff)
            with pytest.raises(IntegrationError, match="trace .* at tau=0.5"):
                integrate(cfg, sample_taus=np.array([0.0, 0.5]), rhs_fn=stiff)
        assert (at_zero.states[0].matrix == np.diag([1.0, 0.0, 0.0])).all()

    def test_growing_generator_is_not_finite(self):
        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=1.0)
        with warnings.catch_warnings(), pytest.raises(IntegrationError, match="not finite"):
            warnings.simplefilter("error")
            integrate(
                cfg,
                sample_taus=np.array([0.0, 0.5]),
                rhs_fn=lambda m, params: 1e20 * np.asarray(m, dtype=complex),
            )

    @pytest.mark.parametrize(
        "generator",
        [
            lambda m, params: rhs(m, params) + 1e-3 * np.eye(3),
            lambda m, params: rhs(m, params) + 1e-3 * np.asarray(m) * np.asarray(m),
        ],
        ids=["affine", "quadratic"],
    )
    def test_nonlinear_generator_rejected(self, generator):
        cfg = LindbladConfig(ModelParams(xi=2.0), t_end=1.0)
        with pytest.raises(DomainError, match="not linear"):
            integrate(cfg, sample_taus=np.array([0.0, 0.5]), rhs_fn=generator)
