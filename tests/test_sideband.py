import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzbath import sideband
from lorentzbath.errors import DomainError, TargetNotReachable
from lorentzbath.multimode import _miller_sums
from lorentzbath.sideband import (
    MAX_ARGUMENT,
    MAX_ORDER,
    SidebandConfig,
    _bisect,
    _climb,
    _miller,
    _miller_start,
    bessel_jn,
    effective_coupling,
    solve_amplitude,
)

from _bessel_peaks import FIRST_PEAKS
from _oracles import series_jn
from _sideband_references import JN_AT, ROUND_TRIPS
from freeze_bessel_peaks import first_peak
from freeze_sideband_references import DRIVES, besselj, drives, reference_orders, round_trip

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

    # relative accuracy down to J_63(1e-3) ~ 5e-296; the pair 9, 9 + 1e-9
    # also checks continuity across x = 9
    @pytest.mark.parametrize("x", [*np.geomspace(1e-3, 9.0, 20), 9.0 + 1e-9])
    def test_relative_accuracy_against_mpmath(self, x):
        for n in range(0, MAX_ORDER + 1, 3):
            ref = mpmath.besselj(n, mpmath.mpf(float(x)))
            assert abs(bessel_jn(n, x) - ref) <= 1e-14 * abs(ref)

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
        mu = _climb(1, 1.0, math.inf)
        assert mu == pytest.approx(J1_PEAK_MU, abs=1e-6)
        assert bessel_jn(1, mu) == pytest.approx(J1_PEAK_VALUE, abs=1e-12)

    def test_first_peak_is_a_zero_of_the_derivative(self):
        for n in range(1, 11):
            mu = _climb(n, 1.0, math.inf)
            assert abs(bessel_jn(n - 1, mu) - bessel_jn(n + 1, mu)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 7, MAX_ORDER])
    def test_first_peak_runs_one_recurrence_per_bisection_step(self, n, monkeypatch):
        # one search finds the peak and the target: J_(n-1) and J_n of one
        # step come from one recurrence, and the last call is the reached lambda
        ceiling = 4.0 * bessel_jn(n, _climb(n, 1.0, math.inf))
        counts = {"steps": 0, "miller": 0}
        bisect, miller = sideband._bisect, sideband._miller

        def counted_bisect(below, lo, hi):
            def step(mu):
                counts["steps"] += 1
                return below(mu)
            return bisect(step, lo, hi)

        def counted_miller(*args):
            counts["miller"] += 1
            return miller(*args)

        monkeypatch.setattr(sideband, "_bisect", counted_bisect)
        monkeypatch.setattr(sideband, "_miller", counted_miller)
        for fraction in (0.2, 0.5, 0.9):
            counts.update(steps=0, miller=0)
            solve_amplitude(g=1.0, nu=1.0, n=n, kappa=1.0, target_xi=fraction * ceiling)
            assert counts["steps"] > 30
            assert counts["miller"] == counts["steps"] + 1
            assert counts["miller"] <= 60

    @pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
    def test_first_peak_against_mpmath(self, n):
        # the bracket end n + 2 n^(1/3) must lie between the first two zeros of J_n';
        # the references are mpmath's, frozen by freeze_bessel_peaks.py
        ref = FIRST_PEAKS[n]
        assert abs(_climb(n, 1.0, math.inf) - ref) <= 2.0 * math.ulp(ref)

    def test_frozen_peaks_cover_every_order_and_match_live_mpmath(self):
        assert list(FIRST_PEAKS) == list(range(1, MAX_ORDER + 1))
        for n in (1, MAX_ORDER):
            assert FIRST_PEAKS[n] == first_peak(n)


class TestBisect:
    @pytest.mark.parametrize("x", [5e-324, 1e-300, 0.3, 1.0, 2.0 / 3.0, 9.999999999999998])
    def test_ends_are_adjacent_doubles(self, x):
        # true below x, false from x on: the last true point is x's lower neighbour
        true_at = []

        def below(mid):
            if mid < x:
                true_at.append(mid)
            return mid < x

        assert _bisect(below, 0.0, 10.0) == x
        assert max(true_at, default=0.0) == math.nextafter(x, 0.0)

    @pytest.mark.parametrize("answer, end", [(True, 1.7976931348623157e308), (False, 5e-324)])
    def test_widest_bracket_ends(self, answer, end):
        calls = []

        def below(mid):
            calls.append(mid)
            return answer

        assert _bisect(below, 0.0, 1.7976931348623157e308) == end
        assert len(calls) <= 2100
        assert all(math.isfinite(mid) for mid in calls)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_bracket_returns_at_once(self, lo, hi):
        def below(mid):
            raise AssertionError("the predicate was called on a NaN bracket")

        _bisect(below, lo, hi)


# the continuum oracle's Chebyshev propagator evaluates J_n(rho*tau) from
# rho*tau -> 0 up to thousands; mpmath is the reference for both passes
RECURRENCE_ARGS = (1e-300, 1e-8, 0.5, 9.0, 450.0, 2200.0)


@functools.cache
def _mp_besselj(k: int, x: float) -> float:
    # frozen where mpmath is slow, by freeze_sideband_references.py
    return JN_AT[x][k] if x in JN_AT else besselj(k, x)


class TestMillerRecurrence:
    @pytest.mark.parametrize("x", RECURRENCE_ARGS)
    def test_every_order_against_mpmath(self, x):
        orders = _miller(0, x)
        assert len(orders) == _miller_start(0, x) + 1
        for k in reference_orders(x):
            assert abs(orders[k] - _mp_besselj(k, x)) <= 1e-13

    def test_frozen_orders_cover_the_reference_orders_and_match_live_mpmath(self):
        for x, table in JN_AT.items():
            orders = reference_orders(x)
            assert list(table) == orders
            for k in (0, orders[-1]):
                assert table[k] == besselj(k, x)

    @pytest.mark.parametrize("x", [1e-300, 1e-60])
    def test_tiny_arguments_keep_relative_accuracy(self, x):
        # below the recurrence floor the orders still scale as x^k
        orders = _miller(0, x)
        assert orders[0] == 1.0
        assert abs(orders[1] - 0.5 * x) <= 1e-15 * (0.5 * x)

    def test_sums_against_mpmath(self):
        # one call over every argument at once, tau = 0 included; the
        # coefficients touch only the reference orders of the largest one
        x = np.array((0.0,) + RECURRENCE_ARGS)
        top = _miller_start(0, x[-1])
        coef = np.zeros((top + 1, 2))
        rng = np.random.default_rng(5)
        for k in reference_orders(x[-1]):
            coef[k] = rng.uniform(-2.0, 2.0, size=2)
        sums = _miller_sums(x, coef)
        assert sums.shape == (len(x), 2)
        for row, xs in zip(sums, x):
            ref = sum(
                coef[k] * _mp_besselj(k, float(xs))
                for k in reference_orders(x[-1])
                if k <= _miller_start(0, xs)
            )
            assert np.abs(row - ref).max() <= 1e-13

    def test_sums_at_zero_are_exact(self):
        coef = np.arange(82.0).reshape(41, 2)
        assert (_miller_sums(np.zeros(1), coef) == coef[0]).all()


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
        with pytest.raises(DomainError, match=f"got {MAX_ORDER + 1}"):
            SidebandConfig(g=1.0, epsilon=1.0, nu=1.0, n=MAX_ORDER + 1)

    def test_effective_coupling(self):
        cfg = SidebandConfig(g=2.0, epsilon=1.0, nu=1.0, n=2)
        assert effective_coupling(cfg) == pytest.approx(
            2.0 * 0.11490348493190048, abs=1e-14
        )

    def test_coupling_keeps_the_sign(self):
        # J_1 is negative past its first zero near 3.83
        cfg = SidebandConfig(g=1.0, epsilon=5.0, nu=1.0, n=1)
        assert effective_coupling(cfg) < 0


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
        ceiling = 4.0 * g * bessel_jn(n, _climb(n, 1.0, math.inf)) / kappa
        xi = target * ceiling
        eps = solve_amplitude(g=g, nu=nu, n=n, kappa=kappa, target_xi=xi)
        back = 4.0 * g * bessel_jn(n, eps / nu) / kappa
        assert back == pytest.approx(xi, rel=1e-14)

    def test_random_drives_round_trip_against_mpmath(self):
        # 4 g J_n(mu* + shift) / kappa - xi = 4 g J_n'(mu*) shift / kappa, up to
        # J_n'' shift^2 / 2, below 1e-17 of xi once the shift is within 1e-12 of mu*
        worst = 0.0
        with mpmath.workdps(30):
            for n, g, nu, kappa, xi, root, slope in ROUND_TRIPS:
                eps = solve_amplitude(g=g, nu=nu, n=n, kappa=kappa, target_xi=xi)
                shift = mpmath.mpf(eps / nu) - mpmath.mpf(root)
                assert abs(shift) <= 1e-12 * mpmath.mpf(root)
                worst = max(worst, float(abs(4 * g * mpmath.mpf(slope) * shift / kappa)) / xi)
        assert worst <= 1e-14

    def test_frozen_round_trips_cover_every_drive_and_match_live_mpmath(self):
        assert len(ROUND_TRIPS) == DRIVES
        assert ROUND_TRIPS[0] == round_trip(*next(drives()))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("target", [1e-3, 1e-6, 1e-9, 1e-12, 1e-20, 1e-100, 1e-300])
    def test_weak_target_round_trip_is_relative(self, n, target):
        # the bisection runs to adjacent doubles, so a weak target keeps its
        # digits; an absolute stop at 1e-12 missed xi = 1e-9 by 5e-4
        eps = solve_amplitude(g=1.0, nu=1.0, n=n, kappa=1.0, target_xi=target)
        back = 4.0 * abs(bessel_jn(n, eps))
        assert abs(back - target) <= 1e-14 * target

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
        ceiling = 4.0 * 1.0 * bessel_jn(1, _climb(1, 1.0, math.inf)) / 2.0
        eps = solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=ceiling)
        assert eps == pytest.approx(J1_PEAK_MU, abs=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_amplitude(g=1.0, nu=1.0, n=0, kappa=2.0, target_xi=0.5)
        with pytest.raises(DomainError):
            solve_amplitude(g=-1.0, nu=1.0, n=1, kappa=2.0, target_xi=0.5)
        with pytest.raises(DomainError):
            solve_amplitude(g=1.0, nu=1.0, n=1, kappa=2.0, target_xi=-0.5)

    @pytest.mark.parametrize("drive, named", [
        ({"g": 2.0, "nu": 1.0, "n": MAX_ORDER + 6}, "got 70"),
        ({"g": math.inf, "nu": 1.0, "n": 1}, "g must be positive, got inf"),
        ({"g": 2.0, "nu": math.inf, "n": 1}, "nu must be positive, got inf"),
    ])
    def test_drive_is_checked_before_any_bessel_call(self, drive, named, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("J_n evaluated before the drive was checked")

        monkeypatch.setattr("lorentzbath.sideband._miller", no_bessel)
        with pytest.raises(DomainError, match=named):
            solve_amplitude(kappa=5.0, target_xi=0.5, **drive)
