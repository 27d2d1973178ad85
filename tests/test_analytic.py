import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzbath.analytic import (
    OptimumRecord,
    _amplitude_arrays,
    amplitudes,
    c_max,
    concurrence,
    t_opt_formula,
)
from lorentzbath import analytic
from lorentzbath.errors import DomainError
from lorentzbath.model import ModelParams
from lorentzbath.sweep import cmax_curve

from _oracles import amplitudes_by_ode, golden_section_max

# Independently recomputed reference points (40-digit arithmetic, see the
# closed forms in the module docstring; the optimum location solves
# cos(2*w*tau) = 1/xi^2 on the oscillatory branch).
GOLDEN_CRITICAL = {
    "tau": 0.7071067811865476,
    "abs_c_e0": 0.84172090667159094,
    "abs_c_g1": 0.34865221527635115,
    "survival": 0.83005245194515221,
    "concurrence": 0.58693571751093799,
}
GOLDEN_OPTIMA = {
    1.2: (0.60539619052054615, 0.63615932001315868),
    2.0: (0.38050733439596325, 0.75593276364720863),
    5.0: (0.15623515641890244, 0.89245409351516288),
    10.0: (0.078432958141635267, 0.9445639964410775),
    50.0: (0.015707105003047853, 0.98864936698324047),
    100.0: (0.007853874337508359, 0.99430834386446174),
}


def _conc(xi):
    return lambda t: analytic._concurrence(xi, t)


class TestAmplitudes:
    def test_initial_condition(self):
        psi = amplitudes(ModelParams(xi=3.0), 0.0)
        assert psi.c_e0 == 1.0 and psi.c_g1 == 0.0

    def test_critical_point_values(self):
        psi = amplitudes(ModelParams(xi=1.0), GOLDEN_CRITICAL["tau"])
        assert abs(psi.c_e0) == pytest.approx(GOLDEN_CRITICAL["abs_c_e0"], rel=1e-14)
        assert abs(psi.c_g1) == pytest.approx(GOLDEN_CRITICAL["abs_c_g1"], rel=1e-14)
        assert psi.norm_sq == pytest.approx(GOLDEN_CRITICAL["survival"], rel=1e-14)

    def test_underdamped_point(self):
        psi = amplitudes(ModelParams(xi=2.0), 0.5)
        assert psi.c_e0.real == pytest.approx(0.65970015339170166, rel=1e-14)
        assert psi.c_e0.imag == 0.0
        # c_g1 = -i * (positive) on the first lobe
        assert psi.c_g1.real == 0.0
        assert psi.c_g1.imag == pytest.approx(-0.53350719511469298, rel=1e-14)

    def test_overdamped_point(self):
        psi = amplitudes(ModelParams(xi=0.5), 2.0)
        assert psi.c_e0.real == pytest.approx(0.82226342390180952, rel=1e-14)
        assert abs(psi.c_g1) == pytest.approx(0.21390913026027935, rel=1e-14)

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            amplitudes(ModelParams(xi=1.0), -0.5)
        with pytest.raises(DomainError):
            concurrence(ModelParams(xi=1.0), -0.5)

    @pytest.mark.parametrize("xi", [0.3, 1.0, 2.0, 7.0])
    def test_matches_ode_oracle(self, xi):
        ce_ref, cg_ref = amplitudes_by_ode(xi, 1.3)
        psi = amplitudes(ModelParams(xi=xi), 1.3)
        assert abs(psi.c_e0 - ce_ref) < 1e-12
        assert abs(psi.c_g1 - cg_ref) < 1e-12

    def test_branch_continuity_across_critical_window(self):
        taus = np.linspace(0.0, 10.0, 400)
        mid = np.array(_amplitude_arrays(1.0, taus))
        for xi in (1.0 - 2e-6, 1.0 + 2e-6):
            side = np.array(_amplitude_arrays(xi, taus))
            assert np.abs(side - mid).max() < 1e-5

    def test_complex_on_every_branch(self):
        # the rows are the floats c_e0 and Im c_g1; the amplitudes are c_e0 and i*Im c_g1
        for xi in (0.5, 1.0, 2.0):
            ce, cg = _amplitude_arrays(xi, [0.0, 1.5, 3.0])
            assert all(type(v) is float for v in ce + cg)
            psi = amplitudes(ModelParams(xi=xi), 1.5)
            assert (psi.c_e0, psi.c_g1) == (complex(ce[1]), complex(0.0, cg[1]))

    def test_row_points_bit_identical_to_single_points(self, rng):
        xi = np.concatenate([rng.uniform(0.01, 20.0, 40), 1.0 + rng.uniform(-2e-6, 2e-6, 20), [1.0]])
        tau = rng.uniform(0.0, 12.0, len(xi))
        for x in xi.tolist():
            row = _amplitude_arrays(x, tau.tolist())
            for i, t in enumerate(tau.tolist()):
                (ce1,), (cg1,) = _amplitude_arrays(x, [t])
                assert (row[0][i], row[1][i]) == (ce1, cg1)

    def test_overdamped_no_overflow_at_long_times(self):
        # a difference of decaying exponentials, whatever the coupling
        for xi in (0.5, 1.0, 100.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                ce, cg = _amplitude_arrays(xi, [0.0, 50.0, 400.0, 5000.0])
            assert np.isfinite(ce).all() and np.isfinite(cg).all()
            assert (np.abs(ce) <= 1.0).all()

    def test_weak_coupling_long_time_decay_rate(self):
        # for xi << 1 the survival decays like exp(-xi^2*tau) at late times
        xi = 0.05
        t0, t1 = 200.0, 300.0
        p0 = amplitudes(ModelParams(xi=xi), t0).norm_sq
        p1 = amplitudes(ModelParams(xi=xi), t1).norm_sq
        rate = -math.log(p1 / p0) / (t1 - t0)
        assert rate == pytest.approx(xi**2, rel=0.01)


class TestConcurrence:
    def test_zero_time(self):
        assert concurrence(ModelParams(xi=2.0), 0.0) == 0.0

    @pytest.mark.parametrize("xi", [0.4, 1.0, 3.0])
    def test_equals_amplitude_product(self, xi):
        for tau in (0.1, 0.5, 1.7, 4.0):
            psi = amplitudes(ModelParams(xi=xi), tau)
            c = concurrence(ModelParams(xi=xi), tau)
            assert c == pytest.approx(2.0 * abs(psi.c_e0) * abs(psi.c_g1), abs=1e-12)

    def test_golden_critical_value(self):
        c = concurrence(ModelParams(xi=1.0), GOLDEN_CRITICAL["tau"])
        assert c == pytest.approx(GOLDEN_CRITICAL["concurrence"], rel=1e-13)

    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.0, 20.0),
    )
    def test_bounds(self, log_xi, tau):
        params = ModelParams(xi=10.0**log_xi)
        c = concurrence(params, tau)
        p = amplitudes(params, tau).norm_sq
        assert -1e-15 <= c <= 1.0
        assert c <= p + 1e-12
        assert p <= 1.0 + 1e-12

    def test_survival_monotone_decreasing(self):
        taus = np.linspace(0.0, 8.0, 500)
        for xi in (0.3, 1.0, 4.0):
            ce, cg = _amplitude_arrays(xi, taus)
            p = np.abs(ce) ** 2 + np.abs(cg) ** 2
            assert (np.diff(p) <= 1e-12).all()


class TestOptimum:
    @pytest.mark.parametrize("xi", sorted(set(GOLDEN_OPTIMA) - {100.0}))
    def test_formula_against_reference(self, xi):
        t = t_opt_formula(ModelParams(xi=xi))
        assert t == pytest.approx(GOLDEN_OPTIMA[xi][0], rel=1e-13)

    @pytest.mark.parametrize("xi", [1.2, 2.0, 5.0, 10.0, 50.0])
    def test_formula_is_stationary(self, xi):
        params = ModelParams(xi=xi)
        t = t_opt_formula(params)
        h = 1e-5
        slope = (concurrence(params, t + h) - concurrence(params, t - h)) / (2 * h)
        assert abs(slope) < 1e-6

    @pytest.mark.parametrize("xi", [0.01, 0.3, 0.7, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.2, 2.0, 5.0, 10.0, 50.0])
    def test_formula_matches_numeric(self, xi):
        # C is unimodal on its first lobe, tau <= pi/w above the critical
        # line; below it the maximum lies well inside tau <= 30
        lobe = math.pi / math.sqrt((xi - 1.0) * (xi + 1.0)) if xi > 1.0 else 30.0
        tf = t_opt_formula(ModelParams(xi=xi))
        assert abs(tf - golden_section_max(_conc(xi), 0.0, lobe, 1e-10)) < 1e-6

    def test_numeric_at_critical_point(self):
        # the exact optimum solves 1 - 2*tau^2 = 0
        t_opt = t_opt_formula(ModelParams(xi=1.0))
        assert type(t_opt) is float and t_opt == pytest.approx(2.0**-0.5, abs=1e-15)
        t = golden_section_max(_conc(1.0), 0.0, 10.0, 1e-10)
        assert t == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-7)

    @pytest.mark.parametrize(
        "xi",
        [1e-20, 1e-6, 1e-5, 5e-5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 2.0, 100.0],
    )
    def test_stationarity_residual(self, xi):
        # dC/dtau = 2 xi (a^2 - b^2) - 4ab with a = c_e0 and b = i c_g1, both real
        (a,), (g,) = _amplitude_arrays(xi, [t_opt_formula(ModelParams(xi=xi))])
        b = -g
        assert abs(xi * (a * a - b * b) - 2.0 * a * b) <= 1e-12 * a * b

    def test_c_max_records(self):
        for xi, (t_ref, c_ref) in GOLDEN_OPTIMA.items():
            rec = c_max(ModelParams(xi=xi))
            assert rec.tau_opt == pytest.approx(t_ref, rel=1e-12)
            assert rec.c_max == pytest.approx(c_ref, rel=1e-12)

    def test_c_max_below_critical(self):
        rec = c_max(ModelParams(xi=0.5))
        assert 0.0 < rec.c_max < GOLDEN_CRITICAL["concurrence"]

    def test_c_max_critical(self):
        rec = c_max(ModelParams(xi=1.0))
        assert rec.c_max == pytest.approx(GOLDEN_CRITICAL["concurrence"], abs=1e-10)
        assert rec.tau_opt == pytest.approx(GOLDEN_CRITICAL["tau"], abs=1e-15)

    def test_degenerate_coupling(self):
        # the optimum is finite and positive however weak the coupling
        rec = c_max(ModelParams(xi=1e-20))
        assert rec.c_max == pytest.approx(1e-20, rel=1e-12)
        assert rec.tau_opt == pytest.approx(math.log(2.0 / 1e-40) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("half_width", [1e-6, 3e-6])
    def test_no_violation_across_critical_line(self, half_width):
        curve = cmax_curve(np.linspace(1.0 - half_width, 1.0 + half_width, 61))
        assert curve.violations == ()
        assert (np.diff(curve.c_max) > 0).all()

    def test_one_path_to_the_optimum(self):
        # c_max reads a one-point curve, and agrees bit for bit with a row of a longer one
        near_one = 1.0 + np.array([-1e-6, -3e-7, -5e-8, 0.0, 2e-8, 5e-7, 1e-6])
        xis = np.unique(np.r_[np.geomspace(1e-6, 1e8, 60), near_one, 3.0])
        curve = cmax_curve(xis)
        for i, xi in enumerate(xis.tolist()):
            rec = c_max(ModelParams(xi=xi))
            one = cmax_curve([xi])
            assert (rec.tau_opt, rec.c_max) == (one.tau_opt[0], one.c_max[0])
            row = (curve.xi[i], curve.tau_opt[i], curve.c_max[i])
            assert (rec.xi, rec.tau_opt, rec.c_max) == row
        rec = c_max(ModelParams(xi=3))
        assert all(type(v) is float for v in (rec.xi, rec.tau_opt, rec.c_max))
        row = int(np.flatnonzero(xis == 3.0)[0])
        assert (rec.tau_opt, rec.c_max) == (curve.tau_opt[row], curve.c_max[row])

    def test_c_max_never_above_one_over_the_domain(self):
        # 1 - (pi/2 - 1)/xi, the leading order, rounds to 1 above xi ~ 1.03e16
        xis = np.geomspace(1e-300, 1e150, 2000).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [c_max(ModelParams(xi=xi)).c_max for xi in xis]
        assert 0.0 < min(values) and max(values) <= 1.0
        strong = [v for xi, v in zip(xis, values) if xi > 1.03e16]
        assert len(strong) > 500 and min(strong) >= 1.0 - 4.5e-16

    @pytest.mark.parametrize("xi", [1e-310, 2.2e-308, 5e-324])
    def test_subnormal_xi(self, xi):
        # w(R+w)/xi^2 and R/xi overflow here; the optimum is near ln(2/xi^2)/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = c_max(ModelParams(xi=xi))
            d = analytic._dcmax_dxi(rec.xi, rec.tau_opt, rec.c_max)
        assert rec.tau_opt == pytest.approx(0.5 * (math.log(2.0) - 2.0 * math.log(xi)), rel=1e-12)
        assert 0.0 <= rec.c_max <= 1.0 and math.isfinite(d)
        if xi > 1e-320:  # the smallest subnormals keep too few bits for c_max ~ xi
            assert rec.c_max == pytest.approx(xi, rel=1e-12) and d == pytest.approx(1.0, rel=1e-12)

    def test_record_validation(self):
        with pytest.raises(DomainError):
            OptimumRecord(1.0, -0.5, 0.5)
        with pytest.raises(DomainError):
            OptimumRecord(1.0, 0.5, 1.5)

    def test_derivative_positive_and_flattening(self):
        d_low, d_high = cmax_curve(np.array([0.5, 50.0])).derivative
        assert d_low > 0 and d_high > 0
        assert d_high < d_low


def _explicit_c_max(x):
    """C_max = (1+R)/xi * exp(-2 tau*) in mpmath arithmetic, on every branch."""
    r = mpmath.sqrt(1 + x * x)
    w = mpmath.sqrt(abs(x * x - 1))
    if x == 1:
        tau = 1 / mpmath.sqrt(2)
    else:
        tau = (mpmath.atan(w / r) if x > 1 else mpmath.atanh(w / r)) / w
    return (1 + r) / x * mpmath.exp(-2 * tau)


class TestExactDerivative:
    NEAR_ONE = 1.0 + np.array([-1e-6 / 2, -3e-7, -1e-8, 0.0, 1e-8, 1e-7, 3e-7])
    XI = np.unique(np.concatenate([np.geomspace(1e-6, 1e8, 60), NEAR_ONE, [0.8, 0.95, 1.05, 1.2]]))

    def test_matches_mpmath_derivative_of_the_explicit_form(self):
        assert len(self.XI) >= 50 and (np.abs(self.XI - 1.0) <= 1e-6).sum() >= 5
        tau = [analytic._t_opt(x) for x in self.XI.tolist()]
        d = [analytic._dcmax_dxi(x, t, analytic._concurrence(x, t))
             for x, t in zip(self.XI.tolist(), tau)]
        with mpmath.workdps(40):
            ref = [mpmath.diff(_explicit_c_max, mpmath.mpf(float(x))) for x in self.XI]
        for x, got, want in zip(self.XI, d, ref):
            assert abs(got - float(want)) <= 1e-13 * abs(float(want)), x


class TestWeakCoupling:
    @pytest.mark.parametrize("xi", [5e-324, 1e-320])
    def test_subnormal_xi_gives_the_weak_coupling_limit(self, xi):
        # C_max = xi - O(xi^3 log xi) and dC_max/dxi -> 1; at 5e-324 the
        # amplitude Im c_g1 = -xi/2 underflows to 0
        rec = c_max(ModelParams(xi=xi))
        assert rec.c_max == pytest.approx(xi, rel=1e-3)
        deriv = analytic._dcmax_dxi(xi, rec.tau_opt, rec.c_max)
        assert deriv == pytest.approx(1.0, rel=1e-3)

    def test_concurrence_agrees_with_c_max_where_im_c_g1_underflows(self):
        p = ModelParams(xi=5e-324)
        rec = c_max(p)
        assert _amplitude_arrays(p.xi, [rec.tau_opt])[1] == [0.0]
        assert concurrence(p, rec.tau_opt) == rec.c_max == 5e-324
        # xi (1 - exp(-2 tau)) rounds to 0 below tau = ln(2)/2
        assert concurrence(p, 0.3) == 0.0 and concurrence(p, 0.4) == 5e-324

    def test_a_real_underflow_stays_zero(self):
        # both amplitudes underflow: c_e0 is 0 too, so no limit applies
        assert _amplitude_arrays(2.0, [800.0]) == ([0.0], [0.0])
        assert concurrence(ModelParams(xi=2.0), 800.0) == 0.0

    @pytest.mark.parametrize("xi", [5e-5, 1e-5, 1e-6])
    def test_optimum_matches_dense_grid(self, xi):
        # the optimum approaches ln(2/xi^2)/2, past the old tau <= 10 window
        rec = c_max(ModelParams(xi=xi))
        window = math.log(2.0 / xi**2)
        grid = np.linspace(0.0, window, 400_001)
        ce, cg = _amplitude_arrays(xi, grid.tolist())
        values = 2.0 * np.abs(ce) * np.abs(cg)
        i = int(values.argmax())
        assert 0.0 < i < len(grid) - 1
        assert rec.c_max >= values[i] * (1.0 - 1e-13)
        # the top is flat to rounding over ~1e-2 in tau at xi=1e-6
        assert abs(rec.tau_opt - grid[i]) < 2e-2
