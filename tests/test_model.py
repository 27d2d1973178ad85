import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzbath import analytic, lindblad, multimode, sweep
from lorentzbath.errors import DomainError, InvariantError
from lorentzbath.sideband import SidebandConfig
from lorentzbath.model import (
    MAX_XI,
    DensityMatrix3,
    ModelParams,
    PureAmplitudes,
    _sample_times,
    _xi_values,
    params_from_physical,
    pure_to_density,
    tau_from_time,
    validate_density,
)


class TestModelParams:
    def test_xi_only(self):
        p = ModelParams(xi=2.0)
        assert p.xi == 2.0 and ModelParams.__match_args__ == ("xi",)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), "2", b"2"])
    def test_bad_xi(self, bad):
        with pytest.raises(DomainError):
            ModelParams(xi=bad)

    def test_xi_is_stored_as_the_float_its_guard_returns(self):
        assert type(ModelParams(xi=2).xi) is float
        assert type(ModelParams(xi=np.float64(0.5)).xi) is float

    def test_from_physical_experimental_values(self):
        assert params_from_physical(5.0, 1.25) == ModelParams(xi=1.0)
        assert params_from_physical(5.0, 2.5) == ModelParams(xi=2.0)

    def test_from_physical_rejects_zero_kappa(self):
        with pytest.raises(DomainError):
            params_from_physical(0.0, 1.0)


class TestRescaledTime:
    def test_zero_time(self):
        assert tau_from_time(0.0, 5.0) == 0.0

    def test_definition_point(self):
        tau = tau_from_time(4.0 / 5.0, 5.0)
        assert type(tau) is float and tau == pytest.approx(1.0, rel=1e-15)

    def test_microsecond_example(self):
        assert tau_from_time(0.8, 5.0) == pytest.approx(1.0, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            tau_from_time(-1.0, 5.0)


class TestTimeGuard:
    @pytest.mark.parametrize(
        "samples",
        [[], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf], [0.0, 0.5, 0.5], [0.5, 0.0], [-0.1, 0.5]],
        ids=["empty", "2-d", "nan", "inf", "repeated", "decreasing", "negative"],
    )
    def test_bad_samples(self, samples):
        with pytest.raises(DomainError, match="sample time"):
            _sample_times(samples)

    def test_valid_samples_pass_through(self):
        assert _sample_times([0.0]) == (0.0,)
        assert _sample_times(np.array([0.0, 1.0])) == (0.0, 1.0)


class TestCouplingGuard:
    @pytest.mark.parametrize(
        "xi",
        [[], [[1.0, 2.0]], [1.0, np.nan], [0.0, 1.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2 * MAX_XI]],
        ids=["empty", "2-d", "nan", "zero", "decreasing", "repeated", "above MAX_XI"],
    )
    def test_bad_values(self, xi):
        with pytest.raises(DomainError, match="xi values"):
            _xi_values(xi)

    @pytest.mark.parametrize("text", ["0123", b"0123", ["1", "2"], [1.0, b"2"]])
    def test_text_is_not_a_grid(self, text):
        # float() would parse each character, or each byte as an int
        with pytest.raises(DomainError, match="xi values"):
            _xi_values(text)
        with pytest.raises(DomainError, match="sample times"):
            sweep.evaluate("analytic", 2.0, text)

    def test_bound_is_accepted(self):
        assert _xi_values([1e-300, 1.0, MAX_XI]) == (1e-300, 1.0, MAX_XI)
        assert ModelParams(xi=MAX_XI).xi == MAX_XI


def _one_mode_bath():
    return multimode.DiscretizedBath(detunings=np.zeros(1), couplings=np.array([2.0]))


class TestGuardedEntryPoints:
    """Bad input reaches each public entry point's guard, not the numerics."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sweep.evaluate("analytic", 2.0, [-1.0, 0.0]),
            lambda: multimode.evolve(_one_mode_bath(), [-1.0]),
            lambda: multimode.evolve(_one_mode_bath(), [0.0, np.nan]),
            lambda: lindblad.integrate(ModelParams(xi=2.0), [0.0, np.nan]),
            lambda: analytic.amplitudes(ModelParams(xi=2.0), np.nan),
            lambda: ModelParams(xi=1e160),
            lambda: sweep.cmax_curve([1.0, 1e200]),
            lambda: multimode.sample_bath(ModelParams(xi=2.0), 3, 1e300),
            lambda: sweep.evaluate("bogus", 2.0, np.linspace(0.0, 1.0, 3), 51, 5.0),
        ],
        ids=["evaluate-negative-tau", "evolve-negative-horizon", "evolve-nan-horizon",
             "integrate-nan-sample", "amplitudes-nan", "params-overflow", "cmax-overflow",
             "sample-bath-huge-window", "evaluate-unknown-method"],
    )
    def test_domain_error_without_warnings(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lindblad.integrate(ModelParams(xi=2.0), 6.0),
            lambda: multimode.evolve(_one_mode_bath(), 3.0),
        ],
        ids=["integrate-horizon", "evolve-horizon"],
    )
    def test_a_horizon_alone_is_not_a_time_grid(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sample times"):
                call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: params_from_physical("2", 1.0),
            lambda: tau_from_time(1.0, "2"),
            lambda: SidebandConfig(g=2.0, epsilon="1", nu=1.0, n=1),
            lambda: params_from_physical(2, True),
            lambda: ModelParams(xi=True),
            lambda: params_from_physical(10**400, 1.0),
            lambda: ModelParams(xi=10**400),
            lambda: tau_from_time("1", 2.0),
            lambda: tau_from_time(True, 2.0),
            lambda: multimode.sample_bath(ModelParams(xi=2.0), 201, "40"),
            lambda: multimode.sample_bath(ModelParams(xi=2.0), 201, True),
        ],
        ids=["text-rate", "text-kappa", "text-epsilon", "bool-rate", "bool-xi",
             "huge-int-rate", "huge-int-xi", "text-time", "bool-time", "text-window",
             "bool-window"],
    )
    def test_text_bool_and_huge_ints_are_not_numbers(self, call):
        with pytest.raises(DomainError):
            call()

    def test_samples_cannot_land_in_the_generator(self):
        # rhs_fn is keyword-only, so a horizon given ahead of the samples
        # fails before any generator is probed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="positional"):
                lindblad.integrate(ModelParams(xi=2.0), 6.0, np.linspace(0.0, 6.0, 7))

    def test_c_max_at_the_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = analytic.c_max(ModelParams(xi=MAX_XI))
        assert np.isfinite(rec.tau_opt) and 0.0 <= rec.c_max <= 1.0


class TestPureAmplitudes:
    def test_norm_cap(self):
        with pytest.raises((DomainError, InvariantError)):
            PureAmplitudes(c_e0=1.0, c_g1=0.5)

    def test_norm_property(self):
        psi = PureAmplitudes(c_e0=0.6, c_g1=0.8j)
        assert psi.norm_sq == pytest.approx(1.0, abs=1e-15)


class TestPureToDensity:
    def test_initial_state(self):
        rho = pure_to_density(PureAmplitudes(c_e0=1.0, c_g1=0.0))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_fully_decayed(self):
        rho = pure_to_density(PureAmplitudes(c_e0=0.0, c_g1=0.0))
        assert np.allclose(rho.matrix, np.diag([0.0, 0.0, 1.0]))

    def test_normalized_superposition_is_rank_one(self):
        s = 2.0**-0.5
        rho = pure_to_density(PureAmplitudes(c_e0=s, c_g1=-1j * s))
        evals = np.linalg.eigvalsh(rho.matrix)
        assert abs(rho.matrix[2][2]) < 1e-15
        assert np.sort(evals)[-1] == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.0, 1.0),
    )
    def test_spectrum_and_block(self, r, pha, phb, split):
        a = np.sqrt(r * split)
        b = np.sqrt(r * (1.0 - split))
        psi = PureAmplitudes(
            c_e0=a * np.exp(1j * pha), c_g1=b * np.exp(1j * phb)
        )
        rho = pure_to_density(psi)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        # spectrum {<psi|psi>, 0, 1 - <psi|psi>}
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))
        expect = np.sort([psi.norm_sq, 0.0, 1.0 - psi.norm_sq])
        assert np.abs(evals - expect).max() < 1e-10
        # survival block is the bare outer product
        vec = np.array([psi.c_e0, psi.c_g1])
        assert np.abs(np.array(rho.matrix)[:2, :2] - np.outer(vec, vec.conj())).max() < 1e-12
        # jump branch carries no coherence
        assert abs(rho.matrix[0][2]) == 0.0 and abs(rho.matrix[1][2]) == 0.0


class TestDensityMatrix3:
    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.3, 0.2]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises((DomainError, InvariantError)):
            DensityMatrix3(m)

    def test_rejects_bad_trace(self):
        with pytest.raises((DomainError, InvariantError)):
            DensityMatrix3(np.diag([0.5, 0.3, 0.1]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.1, -0.1, 0.0]).astype(complex)
        with pytest.raises((DomainError, InvariantError)):
            DensityMatrix3(m)

    def test_properties(self):
        m = np.diag([0.4, 0.35, 0.25]).astype(complex)
        m[0, 1] = 0.2j
        m[1, 0] = -0.2j
        rho = DensityMatrix3(m)
        assert rho.p_e0 == pytest.approx(0.4)
        assert rho.p_g1 == pytest.approx(0.35)
        assert rho.p_g0 == pytest.approx(0.25)
        assert rho.coherence == pytest.approx(0.2j)
        assert rho.survival == pytest.approx(0.75)

    def test_matrix_is_frozen(self):
        rho = pure_to_density(PureAmplitudes(c_e0=1.0, c_g1=0.0))
        assert type(rho.matrix) is tuple and all(type(row) is tuple for row in rho.matrix)
        assert {type(x) for row in rho.matrix for x in row} == {complex}
        with pytest.raises(TypeError):
            rho.matrix[0][0] = 0.0

    @pytest.mark.parametrize("bad", [
        [[1.0]], [[0.5, 0, 0], [0, 0.5, 0]], [[1, 0, 0], [0, 0, 0], [0, 0]], 1.0, [1.0, 0.0, 0.0],
        ["100", "000", "000"], [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    ], ids=["1x1", "two rows", "short row", "number", "flat", "text rows", "text entries"])
    def test_rejects_what_is_not_three_rows_of_three_numbers(self, bad):
        with pytest.raises(InvariantError, match="expected a 3x3 matrix"):
            DensityMatrix3(bad)

    def test_any_three_rows_of_three_numbers(self):
        rows = ((0.5, 0.25j, 0), (-0.25j, 0.5, 0), (0, 0, 0))
        rho = DensityMatrix3([list(row) for row in rows])
        assert rho == DensityMatrix3(np.array(rows)) == DensityMatrix3(rows)
        assert rho.matrix == tuple(tuple(map(complex, row)) for row in rows)

    @pytest.mark.parametrize("where", ["everywhere", "one coherence"])
    def test_rejects_nan(self, where):
        m = np.full((3, 3), np.nan, dtype=complex)
        if where == "one coherence":
            m = np.diag([0.5, 0.5, 0.0]).astype(complex)
            m[0, 1] = np.nan
        with pytest.raises(InvariantError, match="non-finite"):
            DensityMatrix3(m)


def _hermitian(rng, d, rank=None):
    """A random d x d density matrix, of full rank or of the given rank."""
    a = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    m = a @ a.conj().T
    return m / np.trace(m).real


class TestValidateDensity:
    def test_returns_each_smallest_eigenvalue(self, rng):
        a = rng.normal(size=(2, 3, 3, 3)) + 1j * rng.normal(size=(2, 3, 3, 3))
        m = a @ a.conj().swapaxes(-1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1)[..., None, None]
        m = 0.5 * (m + m.conj().swapaxes(-1, -2))
        low = validate_density(m.reshape(-1, 3, 3).tolist())
        assert type(low) is list and len(low) == 6
        for got, one in zip(low, m.reshape(-1, 3, 3)):
            assert abs(got - np.linalg.eigvalsh(one).min()) <= 1e-14

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("rank", [None, 1])
    def test_jacobi_matches_eigvalsh(self, rng, d, rank):
        for _ in range(50):
            m = _hermitian(rng, d, rank)
            m = 0.5 * (m + m.conj().T)
            (low,) = validate_density([m.tolist()])
            norm = np.abs(np.linalg.eigvalsh(m)).max()
            assert abs(low - np.linalg.eigvalsh(m).min()) <= 1e-14 * norm

    @pytest.mark.parametrize("d", [3, 4])
    def test_jacobi_on_random_hermitian_matrices(self, rng, d):
        # indefinite and not of unit trace: the eigenvalue routine alone
        from lorentzbath.model import _smallest_eigenvalue

        for _ in range(50):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = a + a.conj().T
            want = np.linalg.eigvalsh(m)
            got = _smallest_eigenvalue(m.reshape(-1).tolist(), d)
            assert abs(got - want.min()) <= 1e-14 * np.abs(want).max()

    def test_double_zero_eigenvalue(self):
        # |e0><e0| has the eigenvalue 0 twice; Jacobi has nothing to rotate
        for d in (3, 4):
            m = np.zeros((d, d), dtype=complex)
            m[0, 0] = 1.0
            assert validate_density([m.tolist()]) == [0.0] == [np.linalg.eigvalsh(m).min()]

    def test_plain_nested_sequences_of_any_number_type(self):
        assert validate_density([((1, 0, 0), (0, 0, 0), (0, 0, 0))]) == [0.0]
        assert validate_density([[[0.5, 0.25j], [-0.25j, 0.5]]]) == [0.25]
        assert validate_density([]) == []

    @pytest.mark.parametrize("matrices", [
        [[[1.0, 0.0], [0.0]]],
        [[[1, 0, 0], [0, 0], [0, 0, 0, 0]]],
        [[[1.0]] * 2],
        [[[1.0]], [[0.5, 0.0], [0.0, 0.5]]],
    ], ids=["short row", "ragged, nine entries", "2x1", "two sizes"])
    def test_rejects_matrices_that_are_not_square_of_one_size(self, matrices):
        with pytest.raises(InvariantError, match="square"):
            validate_density(matrices)

    def test_earliest_matrix_wins_over_check_order(self):
        good = np.diag([0.5, 0.5, 0.0]).astype(complex)
        negative = np.diag([1.1, -0.1, 0.0]).astype(complex)
        bad_trace = np.diag([0.5, 0.3, 0.1]).astype(complex)
        nan = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(InvariantError, match="eigenvalue below") as err:
            validate_density(np.array([good, negative, bad_trace, nan]).tolist())
        assert err.value.index == 1
        with pytest.raises(InvariantError, match="non-finite") as err:
            validate_density(np.array([good, nan, negative]).tolist())
        assert err.value.index == 1

    def test_checks_run_in_order_within_a_matrix(self):
        # fails the trace and the eigenvalue floor: the trace is reported,
        # with its value, as a matrix-by-matrix loop would
        m = np.diag([1.5, -0.2, 0.0]).astype(complex)
        with pytest.raises(InvariantError, match=r"^trace 1.3 deviates from 1 beyond 1e-9$"):
            validate_density([m.tolist()])
        m[0, 1] = 0.1
        with pytest.raises(InvariantError, match="not Hermitian"):
            validate_density([m.tolist()])

    def test_no_numpy_in_the_validator(self):
        import subprocess
        import sys

        probe = ("import sys\n"
                 "from lorentzbath.model import validate_density\n"
                 "validate_density([[[0.5, 0.25j], [-0.25j, 0.5]]])\n"
                 "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
