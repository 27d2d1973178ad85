import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzbath.analytic import _amplitude_arrays, amplitudes, concurrence
from lorentzbath.entanglement import (
    TwoQubitDensity,
    embed,
    wootters_concurrence,
    xstate_concurrence,
)
from lorentzbath.errors import FormError, InvariantError
from lorentzbath.model import (
    DensityMatrix3,
    ModelParams,
    PureAmplitudes,
    _pure_density,
    pure_to_density,
)


def _random_model_state(rng):
    """A density matrix the dynamics can actually reach: mixture of a no-jump
    pure state with the |g,0> jump weight, random amplitudes and phases."""
    r = rng.uniform(0.0, 1.0)
    split = rng.uniform(0.0, 1.0)
    pha, phb = rng.uniform(0.0, 2 * np.pi, size=2)
    psi = PureAmplitudes(
        c_e0=np.sqrt(r * split) * np.exp(1j * pha),
        c_g1=np.sqrt(r * (1.0 - split)) * np.exp(1j * phb),
    )
    return pure_to_density(psi)


def _concurrence_by_eigvals(m):
    """Textbook route: eigenvalues of the non-Hermitian product rho rho~."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    r = m @ yy @ m.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


class TestTwoQubitDensity:
    def test_rejects_wrong_shape(self):
        with pytest.raises(InvariantError):
            TwoQubitDensity(np.eye(3, dtype=complex) / 3.0)

    def test_rejects_non_hermitian(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(InvariantError):
            TwoQubitDensity(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantError):
            TwoQubitDensity(np.diag([0.5, 0.5, 0.5, 0.5]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantError):
            TwoQubitDensity(np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex))

    @pytest.mark.parametrize("where", ["everywhere", "one coherence"])
    def test_rejects_nan(self, where):
        m = np.full((4, 4), np.nan, dtype=complex)
        if where == "one coherence":
            m = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
            m[1, 2] = np.nan
        with pytest.raises(InvariantError, match="non-finite"):
            TwoQubitDensity(m)

    def test_embed_layout(self):
        rho3 = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        rho4 = embed(rho3)
        assert rho4.matrix[0, :].max() == 0.0
        assert np.allclose(rho4.matrix[1:, 1:], rho3.matrix)
        assert rho4.matrix[1, 2] == rho3.coherence

    def test_embed_validates_once_and_a_hand_built_state_always(self, monkeypatch):
        from lorentzbath import entanglement

        rho3 = _pure_density(np.array([0.6, 0.3]), 1j * np.array([0.8, 0.5]))
        checked = []
        monkeypatch.setattr(entanglement, "_freeze_density", lambda state, d: checked.append(d))
        rho4 = embed(rho3)  # rho3 was checked when it was built
        assert checked == [] and not rho4.matrix.flags.writeable
        assert rho4.matrix.shape == (2, 4, 4)
        monkeypatch.undo()
        TwoQubitDensity(rho4.matrix)
        bad = rho4.matrix[0].copy()
        bad[0, 0] = -0.5  # trace 0.5 and a negative eigenvalue
        with pytest.raises(InvariantError):
            TwoQubitDensity(bad)


class TestWootters:
    def test_product_state_has_no_entanglement(self):
        rho = embed(pure_to_density(PureAmplitudes(c_e0=1.0, c_g1=0.0)))
        assert wootters_concurrence(rho) == 0.0

    def test_bell_like_state_is_maximal(self):
        s = 2.0**-0.5
        rho = embed(pure_to_density(PureAmplitudes(c_e0=s, c_g1=s)))
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_on_model_states(self, rng):
        worst = 0.0
        for _ in range(300):
            rho3 = _random_model_state(rng)
            full = wootters_concurrence(embed(rho3))
            short = xstate_concurrence(rho3)
            worst = max(worst, abs(full - short))
        assert worst < 1e-10

    def test_phase_invariance(self):
        base = PureAmplitudes(c_e0=0.5, c_g1=0.5j)
        ref = wootters_concurrence(embed(pure_to_density(base)))
        for phase in (0.3, 1.1, 2.9):
            rot = PureAmplitudes(
                c_e0=base.c_e0 * np.exp(1j * phase), c_g1=base.c_g1
            )
            c = wootters_concurrence(embed(pure_to_density(rot)))
            assert c == pytest.approx(ref, abs=1e-14)

    def test_agrees_with_eigenvalue_route_on_full_rank_states(self, rng):
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = a @ a.conj().T
            m = m / m.trace().real
            c_svd = wootters_concurrence(TwoQubitDensity(m))
            c_eig = _concurrence_by_eigvals(m)
            assert c_svd == pytest.approx(c_eig, abs=1e-12)

    def test_matches_analytic_concurrence_along_trajectory(self):
        params = ModelParams(xi=2.0)
        for tau in (0.1, 0.38, 0.9, 2.5):
            rho = embed(pure_to_density(amplitudes(params, tau)))
            assert wootters_concurrence(rho) == pytest.approx(
                concurrence(params, tau), abs=1e-12
            )

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_value_is_twice_the_coherence(self, r, split):
        psi = PureAmplitudes(
            c_e0=np.sqrt(r * split), c_g1=np.sqrt(r * (1.0 - split)) * 1j
        )
        rho3 = pure_to_density(psi)
        expect = 2.0 * abs(rho3.coherence)
        assert wootters_concurrence(embed(rho3)) == pytest.approx(expect, abs=1e-10)


class TestXState:
    def test_leak_detection(self):
        m = np.diag([0.4, 0.3, 0.3]).astype(complex)
        m[0, 2] = 2e-8
        m[2, 0] = 2e-8
        with pytest.raises(FormError):
            xstate_concurrence(DensityMatrix3(m))

    def test_leak_below_tolerance_passes(self):
        m = np.diag([0.4, 0.3, 0.3]).astype(complex)
        m[0, 2] = 5e-9
        m[2, 0] = 5e-9
        assert xstate_concurrence(DensityMatrix3(m)) == 0.0

    def test_reads_coherence(self):
        rho = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8))
        assert xstate_concurrence(rho) == pytest.approx(2 * 0.48, abs=1e-15)


def _battery_states() -> DensityMatrix3:
    """The 200 states of verify's Wootters check, as one stack."""
    rng = np.random.default_rng(20240817)
    pairs = rng.uniform((0.05, 0.05), (4.0, 8.0), size=(200, 2)).tolist()
    ce, cg = np.array([_amplitude_arrays(xi, [tau]) for tau, xi in pairs])[:, :, 0].T
    return _pure_density(ce, 1j * cg)


class TestStacks:
    def test_battery_stack_is_the_per_state_battery(self):
        # one (tau, xi) draw per state, as the battery once drew them
        rng = np.random.default_rng(20240817)
        pairs = [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 8.0)) for _ in range(200)]
        rho = _battery_states()
        for i, (tau, xi) in enumerate(pairs):
            one = pure_to_density(amplitudes(ModelParams(xi=xi), tau))
            assert np.array_equal(rho.matrix[i], one.matrix)

    def test_stack_equals_per_state_loop_bit_for_bit(self):
        rho = _battery_states()
        singles = [DensityMatrix3(m) for m in rho.matrix]
        assert np.array_equal(rho.min_eigenvalue, [s.min_eigenvalue for s in singles])
        full = wootters_concurrence(embed(rho))
        short = xstate_concurrence(rho)
        assert full.shape == short.shape == (200,)
        assert full.tolist() == [wootters_concurrence(embed(s)) for s in singles]
        assert short.tolist() == [xstate_concurrence(s) for s in singles]

    def test_single_state_calls_return_float(self):
        rho = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        assert type(rho.min_eigenvalue) is float
        assert all(type(p) is np.float64 for p in (rho.p_e0, rho.p_g1, rho.p_g0, rho.survival))
        assert type(rho.coherence) is np.complex128
        assert type(wootters_concurrence(embed(rho))) is float
        assert type(xstate_concurrence(rho)) is float

    @pytest.mark.parametrize("cls, dim", [(DensityMatrix3, 3), (TwoQubitDensity, 4)])
    def test_bad_matrix_in_a_stack_is_named_by_index(self, cls, dim):
        stack = np.array([np.eye(dim, dtype=complex) / dim] * 6).reshape(2, 3, dim, dim)
        stack[1, 1, 0, 0] += 0.1
        with pytest.raises(InvariantError, match="trace") as err:
            cls(stack)
        assert err.value.index == 4

    def test_leaking_coherence_in_a_stack_is_named_by_index(self):
        stack = np.array([np.diag([0.4, 0.3, 0.3]).astype(complex)] * 5)
        stack[3, 1, 2] = stack[3, 2, 1] = 2e-8
        with pytest.raises(FormError, match="index 3") as err:
            xstate_concurrence(DensityMatrix3(stack))
        assert err.value.index == 3
