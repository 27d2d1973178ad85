import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzbath.errors import DomainError, TargetNotReachable
from lorentzbath.sideband import (
    MAX_ARGUMENT,
    MAX_ORDER,
    SidebandConfig,
    _first_peak,
    bessel_jn,
    effective_coupling,
    preferred_sideband_order,
    solve_amplitude,
)

from _oracles import series_jn

# first maximum of J_1, frozen from 30-digit arithmetic
J1_PEAK_MU = 1.8411837813406593
J1_PEAK_VALUE = 0.58186522428159638


class TestBessel:
    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_against_series_oracle(self, n, x):
        assert abs(bessel_jn(n, x) - series_jn(n, x)) < 1e-12

    def test_known_points(self):
        assert bessel_jn(0, 0.0) == 1.0
        assert bessel_jn(3, 0.0) == 0.0
        assert bessel_jn(2, 1.0) == pytest.approx(0.11490348493190048, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    @pytest.mark.parametrize("x", [0.7, 3.3, 8.0, 15.5, 60.0, 500.0])
    def test_three_term_recurrence(self, n, x):
        lhs = bessel_jn(n, x) + bessel_jn(n + 2, x)
        rhs = (2.0 * (n + 1) / x) * bessel_jn(n + 1, x)
        assert abs(lhs - rhs) < 1e-10

    # arguments kept well below the order cap of 64 so the truncated even
    # sum carries all of the mass of the normalization identity
    @pytest.mark.parametrize("x", [3.7, 15.5, 35.0])
    def test_even_order_sum_rule(self, x):
        total = bessel_jn(0, x) + 2.0 * sum(
            bessel_jn(k, x) for k in range(2, MAX_ORDER + 1, 2)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_branches_agree_at_the_split(self, n):
        below = bessel_jn(n, 9.0)
        above = bessel_jn(n, 9.0 + 1e-9)
        assert abs(below - above) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_negative_argument_parity(self, n):
        for x in (0.8, 12.5):
            assert bessel_jn(n, -x) == pytest.approx(
                (-1.0) ** n * bessel_jn(n, x), abs=1e-15
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_jn(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_jn(MAX_ORDER + 1, 1.0)
        with pytest.raises(DomainError):
            bessel_jn(True, 1.0)
        with pytest.raises(DomainError):
            bessel_jn(2.0, 1.0)
        with pytest.raises(DomainError):
            bessel_jn(0, MAX_ARGUMENT)
        with pytest.raises(DomainError):
            bessel_jn(0, math.inf)

    @given(st.integers(0, 10), st.floats(0.0, 600.0))
    def test_bounded_by_one(self, n, x):
        assert abs(bessel_jn(n, x)) <= 1.0 + 1e-15

    def test_first_peak_of_j1(self):
        mu, val = _first_peak(1)
        assert mu == pytest.approx(J1_PEAK_MU, abs=1e-6)
        assert val == pytest.approx(J1_PEAK_VALUE, abs=1e-12)

    def test_first_peak_is_a_zero_of_the_derivative(self):
        for n in range(1, 11):
            mu, val = _first_peak(n)
            assert abs(bessel_jn(n - 1, mu) - bessel_jn(n + 1, mu)) <= 1e-12
            assert val == bessel_jn(n, mu)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 33, MAX_ORDER])
    def test_first_peak_against_mpmath(self, n):
        # the bracket end n + 2 n^(1/3) must lie between the first two zeros of J_n'
        mu, _ = _first_peak(n)
        assert mu == pytest.approx(float(mpmath.besseljzero(n, 1, derivative=1)), abs=1e-11)


class TestSidebandConfig:
    def test_basic_construction(self):
        cfg = SidebandConfig(g=1.0, epsilon=2.0, nu=1.0, n=2)
        assert cfg.n == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            SidebandConfig(g=0.0, epsilon=1.0, nu=1.0, n=1)
        with pytest.raises(DomainError):
            SidebandConfig(g=1.0, epsilon=-1.0, nu=1.0, n=1)
        with pytest.raises(DomainError):
            SidebandConfig(g=1.0, epsilon=1.0, nu=0.0, n=1)
        with pytest.raises(DomainError):
            SidebandConfig(g=1.0, epsilon=1.0, nu=1.0, n=-1)
        with pytest.raises(DomainError):
            SidebandConfig(g=1.0, epsilon=1.0, nu=1.0, n=True)

    def test_frequencies_must_come_together(self):
        with pytest.raises(DomainError):
            SidebandConfig(g=1.0, epsilon=1.0, nu=1.0, n=1, omega_q=5.0)

    def test_resonance_condition(self):
        SidebandConfig(g=1.0, epsilon=1.0, nu=1.0, n=2, omega_q=5.0, omega_r=7.0)
        with pytest.raises(DomainError):
            SidebandConfig(g=1.0, epsilon=1.0, nu=1.01, n=2, omega_q=5.0, omega_r=7.0)

    def test_carrier_needs_no_resonance(self):
        SidebandConfig(g=1.0, epsilon=0.0, nu=3.3, n=0, omega_q=5.0, omega_r=7.0)

    def test_effective_coupling(self):
        cfg = SidebandConfig(g=2.0, epsilon=1.0, nu=1.0, n=2)
        assert effective_coupling(cfg) == pytest.approx(
            2.0 * 0.11490348493190048, abs=1e-14
        )

    def test_coupling_keeps_the_sign(self):
        # J_1 is negative past its first zero near 3.83
        cfg = SidebandConfig(g=1.0, epsilon=5.0, nu=1.0, n=1)
        assert effective_coupling(cfg) < 0


class TestPreferredOrder:
    def test_convention(self):
        assert preferred_sideband_order(0.5) == 1
        assert preferred_sideband_order(1.0) == 2
        assert preferred_sideband_order(50.0) == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            preferred_sideband_order(0.0)


class TestSolveAmplitude:
    def test_zero_target(self):
        assert solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=0.0) == 0.0

    def test_half_peak_inversion(self):
        # 4*g*J_1/kappa = 1 with g=1, kappa=2 means J_1(mu) = 1/2
        eps = solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=1.0)
        assert eps == pytest.approx(1.2067184630059079, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9])
    def test_round_trip(self, n, target):
        g, nu, kappa = 0.8, 2.5, 3.0
        ceiling = 4.0 * g * _first_peak(n)[1] / kappa
        xi = target * ceiling
        eps = solve_amplitude(g=g, nu=nu, n=n, kappa=kappa, target_xi=xi)
        back = 4.0 * g * bessel_jn(n, eps / nu) / kappa
        assert back == pytest.approx(xi, rel=1e-9)

    def test_scales_with_modulation_frequency(self):
        a = solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=0.7)
        b = solve_amplitude(g=1.0, nu=2.0, n=1, kappa=2.0, target_xi=0.7)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_stays_on_first_branch(self):
        eps = solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=1.16)
        assert eps <= J1_PEAK_MU + 1e-9

    def test_unreachable_target_reports_ceiling(self):
        with pytest.raises(TargetNotReachable) as info:
            solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=1.2)
        assert info.value.max_xi == pytest.approx(1.1637304485631927, abs=1e-9)

    def test_target_at_the_ceiling_returns_the_peak(self):
        ceiling = 4.0 * 1.0 * _first_peak(1)[1] / 2.0
        eps = solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=ceiling)
        assert eps == pytest.approx(J1_PEAK_MU, abs=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_amplitude(g=1.0, nu=1.0, n=0, kappa=2.0, target_xi=0.5)
        with pytest.raises(DomainError):
            solve_amplitude(g=-1.0, nu=1.0, n=1, kappa=2.0, target_xi=0.5)
        with pytest.raises(DomainError):
            solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=-0.5)
