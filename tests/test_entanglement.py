import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzbath import battery, entanglement, model
from lorentzbath.analytic import amplitudes, concurrence
from lorentzbath.entanglement import _wootters, wootters_concurrence
from lorentzbath.errors import InvariantError
from lorentzbath.model import (
    DensityMatrix3,
    ModelParams,
    PureAmplitudes,
    pure_to_density,
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
    """A two-qubit state is a 4x4 matrix only inside ``wootters_concurrence``:
    ``DensityMatrix3`` takes none, and the validator checks only 3x3 matrices."""

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvariantError, match="3x3"):
            DensityMatrix3(np.eye(4, dtype=complex) / 4.0)

    def test_embed_layout(self, monkeypatch):
        # the padding of the empty |e,1> level: row and column 0 are zero, for
        # one state and for each state of the battery's one stacked call
        stacks, states = [], []
        monkeypatch.setattr(entanglement, "_wootters", lambda m: stacks.append(m) or _wootters(m))
        monkeypatch.setattr(battery, "xstate_concurrence",
                            lambda rho: states.append(rho) or xstate_concurrence(rho))
        rho3 = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        wootters_concurrence(rho3)
        battery._check_entanglement(True, {})
        one, stack = stacks
        assert one.shape == (4, 4) and stack.shape == (60, 4, 4)
        for rho4, rho in zip((one, *stack), (rho3, *states), strict=True):
            assert not rho4[0, :].any() and not rho4[:, 0].any()
            assert (rho4[1:, 1:] == np.array(rho.matrix)).all()
            assert rho4[1, 2] == rho.coherence

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
        # a large |e,0><g,0| coherence leaves 2|rho_{e0,g1}| the exact value
        m = np.array([[0.4, 0.2, 0.2], [0.2, 0.3, 0.0], [0.2, 0.0, 0.3]], dtype=complex)
        rho = DensityMatrix3(m)
        assert xstate_concurrence(rho) == 0.4
        assert abs(wootters_concurrence(rho) - 0.4) <= 1e-14

    def test_twice_the_coherence_is_the_wootters_value_for_every_state(self):
        # states of rank 1-3 with generic |g,0> coherences; the spin flip swaps
        # |g,0> with the empty |e,1>, so only the {e0, g1} block counts
        rng = np.random.default_rng(20240817)
        worst, mutant = 0.0, {1: [], 2: [], 3: []}
        for k in range(3000):
            rank = k % 3 + 1
            a = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
            m = a @ a.conj().T
            rho = DensityMatrix3((m / m.trace().real).tolist())
            full = wootters_concurrence(rho)
            worst = max(worst, abs(full - xstate_concurrence(rho)))
            mutant[rank].append(abs(full - 2.0 * np.sqrt(rho.p_e0 * rho.p_g1)))
        assert worst <= 1e-14
        # a formula that drops the block's |c| agrees on pure states alone
        assert max(mutant[1]) <= 1e-14
        assert min(mutant[2] + mutant[3]) > 1e-4 and np.median(mutant[2] + mutant[3]) > 0.1

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
    @staticmethod
    def _battery_states(monkeypatch, quick):
        """The row, its states and its one padded stack, spied on their way."""
        stacks, states = [], []
        monkeypatch.setattr(entanglement, "_wootters", lambda m: stacks.append(m) or _wootters(m))
        monkeypatch.setattr(battery, "xstate_concurrence",
                            lambda rho: states.append(rho) or xstate_concurrence(rho))
        (row,) = battery._check_entanglement(quick, {})
        monkeypatch.undo()
        (stack,) = stacks
        return row, states, stack

    def test_battery_stack_is_the_per_state_battery(self, monkeypatch):
        # verify's Wootters row builds one state per (tau, xi) draw, the state
        # pure_to_density(amplitudes(...)) gives, every other one with the
        # |g,0> coherence b (|psi><g,0| + h.c.), b^2 = p_g0/4, and every fourth
        # one with rho_{e0,g1} and its concurrence halved; it hands them to
        # _wootters as one padded stack and reports the worst gap
        rng = random.Random(20240817)
        pairs = [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 8.0)) for _ in range(200)]
        row, states, stack = self._battery_states(monkeypatch, False)
        assert len(states) == len(pairs) and stack.shape == (len(pairs), 4, 4)
        worst = 0.0
        for k, (rho, padded, (tau, xi)) in enumerate(zip(states, stack, pairs)):
            psi = amplitudes(ModelParams(xi=xi), tau)
            want = np.array(pure_to_density(psi).matrix)
            coherence = 0.5 * np.sqrt(want[2, 2].real) * (k % 2) * np.array([psi.c_e0, psi.c_g1])
            want[:2, 2], want[2, :2] = coherence, coherence.conj()
            half = 0.5 if k % 4 == 2 else 1.0
            want[0, 1] *= half
            want[1, 0] *= half
            assert (np.array(rho.matrix) == want).all() and (padded[1:, 1:] == want).all()
            c = half * (2.0 * abs(psi.c_e0) * abs(psi.c_g1))
            worst = max(worst, abs(wootters_concurrence(rho) - c), abs(xstate_concurrence(rho) - c))
        assert row.measured == worst

    def test_stacked_wootters_is_the_per_state_value_bit_for_bit(self, monkeypatch):
        # LAPACK takes the stack one matrix at a time: every concurrence of the
        # one batched call has the bits of its own single-state call
        _, states, stack = self._battery_states(monkeypatch, False)
        per_state = np.array([wootters_concurrence(rho) for rho in states])
        assert _wootters(stack).tobytes() == per_state.tobytes()

    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
    def test_battery_row_catches_a_wrong_concurrence_formula(self, monkeypatch, quick):
        # 2 sqrt(p_e0 p_g1) is 2|rho_{e0,g1}| on a rank-1 {e0, g1} block only;
        # the row's mixed blocks must tell them apart at both depths
        monkeypatch.setattr(battery, "xstate_concurrence",
                            lambda rho: 2.0 * (rho.p_e0 * rho.p_g1) ** 0.5)
        (row,) = battery._check_entanglement(quick, {})
        assert row.name == "wootters_matches_closed_form"
        assert not row.passed and row.measured > 0.1

    def test_single_state_calls_return_float(self):
        rho = pure_to_density(PureAmplitudes(c_e0=0.6, c_g1=0.8j))
        assert type(rho.min_eigenvalue) is float
        assert all(type(p) is float for p in (rho.p_e0, rho.p_g1, rho.p_g0, rho.survival))
        assert type(rho.coherence) is complex
        assert type(wootters_concurrence(rho)) is float
        assert type(xstate_concurrence(rho)) is float
