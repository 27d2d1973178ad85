import warnings

import numpy as np
import pytest

from lorentzbath.analytic import _amplitude_arrays
from lorentzbath.errors import DomainError, IntegrationError
from lorentzbath.lindblad import (
    KAPPA_RESCALED,
    _expm,
    _liouvillian,
    _propagators,
    integrate,
    rhs,
)
from lorentzbath import lindblad, model
from lorentzbath.entanglement import wootters_concurrence
from lorentzbath.model import (
    DensityMatrix3,
    ModelParams,
    PureAmplitudes,
    pure_to_density,
    tau_from_time,
    xstate_concurrence,
)


def _diag(*values):
    """A 3x3 nested list with ``values`` on the diagonal."""
    return [[complex(v) if i == j else 0j for j in range(3)] for i, v in enumerate(values)]


class TestGenerator:
    def test_initial_state_only_builds_coherence(self):
        out = np.array(rhs(_diag(1.0, 0.0, 0.0), ModelParams(xi=3.0)))
        assert np.allclose(np.diag(out), 0.0)
        assert out[0, 1] == pytest.approx(3.0j)
        assert out[1, 0] == pytest.approx(-3.0j)
        assert out[0, 2] == 0.0 and out[1, 2] == 0.0

    def test_mode_population_drains_at_rescaled_kappa(self):
        out = np.array(rhs(_diag(0.0, 1.0, 0.0), ModelParams(xi=3.0)))
        assert out[1, 1].real == pytest.approx(-KAPPA_RESCALED)
        assert out[2, 2].real == pytest.approx(KAPPA_RESCALED)
        assert out[0, 0] == 0.0

    def test_trace_free(self, rng):
        params = ModelParams(xi=1.7)
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = a + a.conj().T
            assert abs(np.trace(rhs(m.tolist(), params))) < 1e-13

    def test_accepts_density_matrix_type(self):
        rho = pure_to_density(PureAmplitudes(c_e0=1.0, c_g1=0.0))
        out = rhs(rho, ModelParams(xi=2.0))
        assert out[0][1] == pytest.approx(2.0j)

    def test_nested_sequences_in_and_out(self):
        out = rhs(((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), ModelParams(xi=3.0))
        assert type(out) is list and [len(row) for row in out] == [3, 3, 3]

    @pytest.mark.parametrize("xi", [0.05, 1.7, 30.0])
    def test_probed_liouvillian_reproduces_rhs(self, rng, xi):
        params = ModelParams(xi=xi)
        L = np.array(_liouvillian(rhs, params))
        for _ in range(20):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            want = np.array(rhs(m.tolist(), params)).reshape(9)
            got = L @ m.reshape(9)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestConfig:
    def test_rejects_negative_horizon(self):
        with pytest.raises(DomainError):
            integrate(ModelParams(xi=1.0), [-1.0])

    def test_rejects_infinite_horizon(self):
        with pytest.raises(DomainError):
            integrate(ModelParams(xi=1.0), [0.0, np.inf])

    def test_zero_horizon_is_allowed(self):
        traj = integrate(ModelParams(xi=1.0), [0.0])
        assert len(traj.rho) == 1
        assert np.allclose(DensityMatrix3(traj.rho[0]).matrix, np.diag([1.0, 0.0, 0.0]))

    def test_horizon_accepts_rescaled_time(self):
        traj = integrate(ModelParams(xi=1.0), [0.0, tau_from_time(1.2, 5.0)])
        assert traj.taus[-1] == 1.5


class TestSampling:
    def test_rejects_unsorted_samples(self):
        params = ModelParams(xi=1.0)
        with pytest.raises(DomainError):
            integrate(params, np.array([0.0, 0.5, 0.5]))


class TestIntegration:
    def test_point_values_against_closed_form(self):
        params = ModelParams(xi=2.0)
        traj = integrate(params, np.array([0.0, 0.25, 0.5]))
        final = DensityMatrix3(traj.rho[-1])
        assert final.p_e0 == pytest.approx(0.4352042923850347, abs=1e-12)
        assert final.p_g1 == pytest.approx(0.28462992723914709, abs=1e-12)
        assert final.p_g0 == pytest.approx(0.28016578037581821, abs=1e-12)
        assert abs(final.coherence) == pytest.approx(0.35195477845273947, abs=1e-12)
        assert xstate_concurrence(final) == pytest.approx(
            0.70390955690547894, abs=1e-12
        )

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    def test_tracks_no_jump_solution(self, xi):
        taus = np.linspace(0.0, 4.0, 101)
        traj = integrate(ModelParams(xi=xi), taus)
        ce, cg = np.array(_amplitude_arrays(xi, taus)) * [[1.0], [1j]]
        assert np.abs(traj.p_e0 - np.abs(ce) ** 2).max() < 1e-12
        assert np.abs(traj.coherences - ce * np.conj(cg)).max() < 1e-12
        assert np.abs(traj.concurrences - 2 * np.abs(ce) * np.abs(cg)).max() < 1e-12

    def test_invariants_at_every_sample(self):
        taus = np.linspace(0.0, 6.0, 401)
        for xi in (0.5, 2.0, 10.0):
            traj = integrate(ModelParams(xi=xi), taus)
            for s in map(DensityMatrix3, traj.rho):
                assert abs(np.trace(s.matrix).real - 1.0) < 1e-9
                low = np.linalg.eigvalsh(s.matrix).min()
                # contract floor is -1e-9; the exact propagator keeps the
                # exactly-zero eigenvalue at rounding level
                assert low > -1e-13

    def test_solver_counters(self):
        taus = np.linspace(0.0, 6.0, 401)
        params = ModelParams(xi=2.0)
        first, second = integrate(params, taus), integrate(params, taus)
        stats = first.solver
        assert stats == second.solver
        assert stats["generator_calls"] == 10  # nine probes and the linearity check
        # one propagator per distinct float interval of the grid
        assert stats["propagators"] == len(np.unique(np.diff(taus, prepend=0.0)))
        assert stats["squarings"] == 0  # every interval is well inside the Pade range
        assert stats["worst_trace_drift"] < 1e-12
        assert stats["min_eigenvalue"] == min(DensityMatrix3(m).min_eigenvalue for m in first.rho)
        assert stats["min_eigenvalue"] > -1e-13
        # the built-in generator keeps the propagated state Hermitian to
        # rounding and never reaches a |g,0> coherence
        assert 0.0 < stats["worst_hermiticity_defect"] < 1e-14
        assert stats["worst_g0_coherence"] == 0.0

    def test_long_interval_is_squared(self):
        traj = integrate(ModelParams(xi=2.0), np.array([0.0, 6.0]))
        (ce,), (cg,) = _amplitude_arrays(2.0, [6.0])
        cg *= 1j
        assert traj.solver["propagators"] == 2 and traj.solver["squarings"] > 0
        assert abs(traj.coherences[-1] - ce * np.conj(cg)) < 1e-14

    def test_trajectory_properties_are_consistent(self):
        taus = np.linspace(0.0, 2.0, 21)
        traj = integrate(ModelParams(xi=1.5), taus)
        assert np.allclose(traj.concurrences, 2.0 * np.abs(traj.coherences))
        closure = np.add(traj.p_e0, traj.p_g1) + traj.p_g0
        assert np.abs(closure - 1.0).max() < 1e-9

    def test_a_generator_that_reaches_every_entry(self):
        # a second coupling |g,1> <-> |g,0> connects rho(0) to all nine
        # entries, so the whole of L is exponentiated: compare every sample
        # with exp(tau L) applied to rho(0) at once
        def coupled(m, params):
            k = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
            km = [[sum(k[i][l] * m[l][j] for l in range(3)) for j in range(3)] for i in range(3)]
            mk = [[sum(m[i][l] * k[l][j] for l in range(3)) for j in range(3)] for i in range(3)]
            return [[o - 0.7j * (a - b) for o, a, b in zip(ro, ra, rb)]
                    for ro, ra, rb in zip(rhs(m, params), km, mk)]

        params = ModelParams(xi=2.0)
        taus = np.linspace(0.0, 2.0, 11)
        traj = integrate(params, taus, rhs_fn=coupled)
        L = _liouvillian(coupled, params)
        for tau, m in zip(taus, traj.rho):
            y = np.array(_expm(_scaled(tau, L))[0])[:, 0].reshape(3, 3)
            assert np.abs(np.array(m) - 0.5 * (y + y.conj().T)).max() < 1e-13
        assert traj.solver["worst_g0_coherence"] == np.abs(np.array(traj.rho)[:, :2, 2]).max()
        assert traj.solver["worst_g0_coherence"] > 1e-3
        # those |g,1><g,0| coherences leave 2|rho_{e0,g1}| the exact concurrence
        for c, m in zip(traj.concurrences, traj.rho):
            assert abs(c - wootters_concurrence(DensityMatrix3(m))) <= 1e-14

    def test_a_generator_that_breaks_hermiticity_is_caught(self):
        # an imaginary |g,0><g,0| gain that no entry depends on: the Hermitian
        # part evolves exactly as under rhs, the propagated state does not
        def skew(m, params):
            out = rhs(m, params)
            out[2][2] += 0.5j * m[0][0]
            return out

        taus = np.linspace(0.1, 3.0, 30)
        with pytest.raises(
            IntegrationError, match=r"^matrix is not Hermitian within 1e-10 at tau=0.1$"
        ):
            integrate(ModelParams(xi=2.0), taus, rhs_fn=skew)

    def test_trajectory_holds_tuples_of_python_numbers(self):
        traj = integrate(ModelParams(xi=1.5), np.linspace(0.0, 2.0, 21))
        assert type(traj.taus) is tuple and type(traj.rho) is tuple and len(traj.rho) == 21
        assert all(type(row) is tuple and len(row) == 3 for m in traj.rho for row in m)
        assert {type(x) for m in traj.rho for row in m for x in row} == {complex}
        for name in ("p_e0", "p_g1", "p_g0", "concurrences"):
            assert {type(x) for x in getattr(traj, name)} == {float}, name
        assert traj.concurrences == tuple(map(xstate_concurrence, traj.rho))


def _steps(taus):
    """The distinct sample intervals of ``taus``, as ``integrate`` takes them."""
    samples = tuple(map(float, taus))
    return sorted({b - a for a, b in zip((0.0, *samples), samples)})


def _scaled(h, L):
    return [[h * x for x in row] for row in L]


class TestExpm:
    @pytest.mark.parametrize("a, h", [(-2.0, 0.75), (1.0, 3.0), (0.5, 20.0), (2j, 5.0)])
    def test_defective_jordan_block(self, a, h):
        got, _ = _expm([[a * h, h], [0.0, a * h]])
        want = np.exp(a * h) * np.array([[1.0, h], [0.0, 1.0]])
        assert np.abs(np.array(got) - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_is_exactly_the_identity(self):
        got, squarings = _expm([[0j] * 9 for _ in range(9)])
        assert squarings == 0 and got == np.eye(9).tolist()

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("h", [0.01, 0.5, 3.0])
    def test_doubling_is_squaring(self, xi, h):
        L = _liouvillian(rhs, ModelParams(xi=xi))
        double, _ = _expm(_scaled(2.0 * h, L))
        single = np.array(_expm(_scaled(h, L))[0])
        assert np.abs(np.array(double) - single @ single).max() < 1e-14

    @pytest.mark.parametrize("n, tau_max, distinct", [(301, 3.0, 11), (401, 6.0, 9), (61, 3.0, 8)])
    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 10.0])
    def test_ulp_apart_intervals_reuse_one_exponential(self, monkeypatch, xi, n, tau_max,
                                                       distinct):
        # linspace intervals differ by a few ulps; all but the first full one
        # take E + d (L E), which must agree with their own full exponential
        L = _liouvillian(rhs, ModelParams(xi=xi))
        steps = _steps(np.linspace(0.0, tau_max, n))
        assert len(steps) == distinct and steps[0] == 0.0
        calls = []
        monkeypatch.setattr(lindblad, "_expm", lambda a: calls.append(a) or _expm(a))
        reused, squarings = _propagators(L, steps)
        assert len(reused) == distinct and len(calls) == 1 and squarings == 0
        assert reused[0] == np.eye(9).tolist()
        for h, e in zip(steps[1:], reused[1:]):
            full = np.array(_expm(_scaled(h, L))[0])
            assert np.abs(np.array(e) - full).max() <= 1e-15 * np.abs(full).max(), h

    def test_intervals_far_apart_get_their_own_exponential(self, monkeypatch):
        L = _liouvillian(rhs, ModelParams(xi=2.0))
        calls = []
        monkeypatch.setattr(lindblad, "_expm", lambda a: calls.append(a) or _expm(a))
        _propagators(L, [0.0, 0.1, 0.1 + 1e-6, 0.2])
        assert len(calls) == 3


class TestFailureModes:
    def test_injected_zero_generator_freezes_the_state(self):
        params = ModelParams(xi=2.0)
        traj = integrate(
            params, np.array([0.0, 1.0]),
            rhs_fn=lambda m, params: [[0.0] * 3 for _ in range(3)],
        )
        assert np.allclose(DensityMatrix3(traj.rho[-1]).matrix, np.diag([1.0, 0.0, 0.0]))

    def test_trace_violation_is_caught(self):
        params = ModelParams(xi=2.0)
        with pytest.raises(IntegrationError):
            integrate(params, np.array([0.0, 0.5]), rhs_fn=lambda m, params: m)

    @pytest.mark.parametrize("rate, early", [(1.0, 1e-10)])
    def test_negative_eigenvalue_beyond_budget_is_caught(self, rate, early):
        # trace-preserving, but moves population out of the empty |g,1>; at
        # the early sample the dip is still inside the -1e-9 floor, so the
        # error names the last sample
        def leak(m, params):
            out = [[0j] * 3 for _ in range(3)]
            out[0][0], out[1][1] = rate * m[0][0], -rate * m[0][0]
            return out

        params = ModelParams(xi=2.0)
        with pytest.raises(
            IntegrationError, match=r"matrix has an eigenvalue below -1e-9 at tau=1.0$"
        ):
            integrate(params, np.array([0.0, early, 1.0]), rhs_fn=leak)

    def test_stiff_generator_fails_validation(self):
        # the propagator underflows to zero, so the state loses its trace
        def stiff(m, params):
            return [[-1e20 * x for x in row] for row in m]

        params = ModelParams(xi=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = integrate(params, np.array([0.0]), rhs_fn=stiff)
            with pytest.raises(IntegrationError, match="trace .* at tau=0.5"):
                integrate(params, np.array([0.0, 0.5]), rhs_fn=stiff)
        assert (DensityMatrix3(at_zero.rho[0]).matrix == np.diag([1.0, 0.0, 0.0])).all()

    def test_growing_generator_is_not_finite(self):
        params = ModelParams(xi=2.0)
        with warnings.catch_warnings(), pytest.raises(IntegrationError, match="not finite"):
            warnings.simplefilter("error")
            integrate(
                params, np.array([0.0, 0.5]),
                rhs_fn=lambda m, params: [[1e20 * x for x in row] for row in m],
            )

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    def test_arithmetic_errors_of_the_exponential_read_as_not_finite(self, monkeypatch, error):
        def fails(a):
            raise error("raised by scalar arithmetic")

        monkeypatch.setattr(lindblad, "_expm", fails)
        with pytest.raises(IntegrationError, match=r"^propagator over a tau step of 0.5 is not finite$"):
            integrate(ModelParams(xi=2.0), [0.0, 0.5])

    @pytest.mark.parametrize(
        "generator",
        [
            lambda m, params: [[x + (1e-3 if i == j else 0.0) for j, x in enumerate(row)]
                               for i, row in enumerate(rhs(m, params))],
            lambda m, params: [[x + 1e-3 * y * y for x, y in zip(r, s)]
                               for r, s in zip(rhs(m, params), m)],
        ],
        ids=["affine", "quadratic"],
    )
    def test_nonlinear_generator_rejected(self, generator):
        params = ModelParams(xi=2.0)
        with pytest.raises(DomainError, match="not linear"):
            integrate(params, np.array([0.0, 0.5]), rhs_fn=generator)

    def test_generator_must_return_a_3x3_matrix(self):
        with pytest.raises(DomainError, match="3x3"):
            integrate(ModelParams(xi=2.0), [0.0, 0.5], rhs_fn=lambda m, params: m[:2])


class TestStackedValidation:
    def test_one_validator_call_and_no_state_objects(self, monkeypatch):
        counts = {"states": 0, "validations": 0, "matrices": 0}
        post_init, validate = DensityMatrix3.__post_init__, model.validate_density

        def counting_post_init(self):
            counts["states"] += 1
            post_init(self)

        def counting_validate(matrices):
            assert iter(matrices) is matrices  # streamed, not kept beside rho
            counts["validations"] += 1

            def counted():
                for m in matrices:
                    counts["matrices"] += 1
                    yield m
            return validate(counted())

        monkeypatch.setattr(DensityMatrix3, "__post_init__", counting_post_init)
        monkeypatch.setattr(lindblad, "validate_density", counting_validate)
        traj = integrate(ModelParams(xi=2.0), np.linspace(0.0, 6.0, 401))
        assert len(traj.rho) == 401
        assert counts == {"states": 0, "validations": 1, "matrices": 401}

    @pytest.mark.parametrize("xi", [0.5, 2.0, 10.0])
    def test_stack_matches_per_sample_validation(self, xi):
        taus = np.linspace(0.0, 6.0, 401)
        traj = integrate(ModelParams(xi=xi), taus)
        rho = np.array(traj.rho)
        assert rho.shape == (401, 3, 3)
        # each state is exactly Hermitian: the symmetrised part of the propagated one
        assert (rho == rho.conj().swapaxes(1, 2)).all()
        states = list(map(DensityMatrix3, traj.rho))
        # reference: each sample checked on its own, as a loop of single matrices
        low = [float(np.linalg.eigvalsh(m).min()) for m in rho]
        drift = [float(abs(m.trace().real - 1.0)) for m in rho]
        assert traj.solver["min_eigenvalue"] == min(s.min_eigenvalue for s in states)
        assert abs(traj.solver["min_eigenvalue"] - min(low)) <= 1e-14
        assert traj.solver["worst_trace_drift"] == max(drift)
        for i, s in enumerate(states):
            assert (s.matrix == rho[i]).all()
        assert traj.p_e0 == tuple(s.p_e0 for s in states)
        assert traj.p_g1 == tuple(s.p_g1 for s in states)
        assert traj.p_g0 == tuple(s.p_g0 for s in states)
        assert traj.coherences == tuple(s.coherence for s in states)

    def test_earliest_failing_sample_is_reported(self):
        # population leaks out of the empty |g,1>, breaking the eigenvalue
        # floor at once; a slow trace gain passes 1e-9 only after tau ~ 0.2,
        # so the later samples fail the trace check, which runs first
        def leak(m, params):
            out = [[0j] * 3 for _ in range(3)]
            out[0][0], out[1][1] = m[0][0], -m[0][0]
            out[2][2] = 5e-9 * m[0][0]
            return out

        params = ModelParams(xi=2.0)
        with pytest.raises(IntegrationError, match=r"trace .* at tau=1.0$"):
            integrate(params, np.array([1.0]), rhs_fn=leak)
        with pytest.raises(
            IntegrationError, match=r"^matrix has an eigenvalue below -1e-9 at tau=0.1$"
        ):
            integrate(params, np.array([0.0, 0.1, 0.5, 1.0]), rhs_fn=leak)
