import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzbath import battery, entanglement, model
from lorentzbath.analytic import amplitudes, concurrence
from lorentzbath.entanglement import _wootters, wootters_concurrence
from lorentzbath.errors import FormError, InvariantError
from lorentzbath.model import (
    DensityMatrix3,
    ModelParams,
    PureAmplitudes,
    pure_to_density,
    validate_density,
    xstate_concurrence,
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
    """A two-qubit state is a 4x4 matrix only inside ``wootters_concurrence``;
    the one validator checks any 4x4 matrix, and ``DensityMatrix3`` takes none."""

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvariantError, match="3x3"):
            DensityMatrix3(np.eye(4, dtype=complex) / 4.0)

    def test_rejects_non_hermitian(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(InvariantError):
            validate_density([m.tolist()])

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantError):
            validate_density([np.diag([0.5, 0.5, 0.5, 0.5]).astype(complex).tolist()])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantError):
            validate_density([np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex).tolist()])

    @pytest.mark.parametrize("where", ["everywhere", "one coherence"])
    def test_rejects_nan(self, where):
        m = np.full((4, 4), np.nan, dtype=complex)
        if where == "one coherence":
            m = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
            m[1, 2] = np.nan
        with pytest.raises(InvariantError, match="non-finite"):
            validate_density([m.tolist()])

    def test_embed_layout(self, monkeypatch):
        # the padding of the empty |e,1> level: row and column 0 are zero
        padded = []
        monkeypatch.setattr(entanglement, "_wootters", padded.append)
        rho3 = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        wootters_concurrence(rho3)
        (rho4,) = padded
        assert rho4.shape == (4, 4)
        assert not rho4[0, :].any() and not rho4[:, 0].any()
        assert (rho4[1:, 1:] == np.array(rho3.matrix)).all()
        assert rho4[1, 2] == rho3.coherence

    def test_embed_validates_once_and_a_hand_built_state_always(self, monkeypatch):
        validate, checked = model.validate_density, []

        def counting(matrices):
            checked.append(len(matrices))
            return validate(matrices)

        rho3 = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        monkeypatch.setattr(model, "validate_density", counting)
        wootters_concurrence(rho3)  # rho3 was checked when it was built
        assert checked == []
        assert DensityMatrix3(rho3.matrix) == rho3 and checked == [1]
        bad = [list(row) for row in rho3.matrix]
        bad[0][0] = -0.5  # trace 0.5 and a negative eigenvalue
        with pytest.raises(InvariantError):
            DensityMatrix3(bad)


class TestWootters:
    def test_product_state_has_no_entanglement(self):
        rho = pure_to_density(PureAmplitudes(c_e0=1.0, c_g1=0.0))
        assert wootters_concurrence(rho) == 0.0

    def test_bell_like_state_is_maximal(self):
        s = 2.0**-0.5
        rho = pure_to_density(PureAmplitudes(c_e0=s, c_g1=s))
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_on_model_states(self, rng):
        worst = 0.0
        for _ in range(300):
            rho3 = _random_model_state(rng)
            full = wootters_concurrence(rho3)
            short = xstate_concurrence(rho3)
            worst = max(worst, abs(full - short))
        assert worst < 1e-10

    def test_phase_invariance(self):
        base = PureAmplitudes(c_e0=0.5, c_g1=0.5j)
        ref = wootters_concurrence(pure_to_density(base))
        for phase in (0.3, 1.1, 2.9):
            rot = PureAmplitudes(
                c_e0=base.c_e0 * np.exp(1j * phase), c_g1=base.c_g1
            )
            c = wootters_concurrence(pure_to_density(rot))
            assert c == pytest.approx(ref, abs=1e-14)

    def test_agrees_with_eigenvalue_route_on_full_rank_states(self, rng):
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = a @ a.conj().T
            m = m / m.trace().real
            c_svd = _wootters(m)
            c_eig = _concurrence_by_eigvals(m)
            assert c_svd == pytest.approx(c_eig, abs=1e-12)

    def test_matches_analytic_concurrence_along_trajectory(self):
        params = ModelParams(xi=2.0)
        for tau in (0.1, 0.38, 0.9, 2.5):
            rho = pure_to_density(amplitudes(params, tau))
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
        assert wootters_concurrence(rho3) == pytest.approx(expect, abs=1e-10)


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

    def test_takes_a_record_or_its_tuple(self):
        rho = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        assert xstate_concurrence(rho.matrix) == xstate_concurrence(rho) == 2.0 * abs(0.48j)

    def test_reads_coherence(self):
        rho = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8))
        assert xstate_concurrence(rho) == pytest.approx(2 * 0.48, abs=1e-15)


class TestStacks:
    def test_battery_stack_is_the_per_state_battery(self, monkeypatch):
        # verify's Wootters row builds one state per (tau, xi) draw, the state
        # pure_to_density(amplitudes(...)) gives, and reports the worst gap
        rng = random.Random(20240817)
        pairs = [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 8.0)) for _ in range(200)]
        states = []
        monkeypatch.setattr(entanglement, "wootters_concurrence",
                            lambda rho: states.append(rho) or wootters_concurrence(rho))
        (row,) = battery._check_entanglement(False, {})
        assert len(states) == len(pairs)
        worst = 0.0
        for rho, (tau, xi) in zip(states, pairs):
            psi = amplitudes(ModelParams(xi=xi), tau)
            assert rho == pure_to_density(psi)
            c = 2.0 * abs(psi.c_e0) * abs(psi.c_g1)
            worst = max(worst, abs(wootters_concurrence(rho) - c), abs(xstate_concurrence(rho) - c))
        assert row.measured == worst

    def test_single_state_calls_return_float(self):
        rho = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        assert type(rho.min_eigenvalue) is float
        assert all(type(p) is float for p in (rho.p_e0, rho.p_g1, rho.p_g0, rho.survival))
        assert type(rho.coherence) is complex
        assert type(wootters_concurrence(rho)) is float
        assert type(xstate_concurrence(rho)) is float
