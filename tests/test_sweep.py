import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from lorentzbath import analytic, battery, sweep
from lorentzbath.analytic import _amplitude_arrays
from lorentzbath.battery import CheckResult, VerificationReport, _check_mutation
from lorentzbath._version import METHODS
from lorentzbath.errors import DomainError, TargetNotReachable
from lorentzbath.model import ModelParams
from lorentzbath.multimode import sample_bath
from lorentzbath.sweep import (
    SweepGrid,
    SweepResult,
    WORKERS_ENV,
    _mutated_rhs,
    _rows_for_xi,
    cmax_curve,
    heatmap,
    resolve_workers,
    verify,
)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(DomainError):
            resolve_workers()

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            resolve_workers(0)


class TestSweepGrid:
    def test_valid(self):
        g = SweepGrid(
            xi_values=np.array([0.5, 1.0]),
            tau_values=np.array([0.0, 1.0]),
            method="analytic",
        )
        assert g.method == "analytic"

    def test_unknown_method(self):
        # the grid and the per-xi evaluator share one guard: an unknown
        # method never falls through to an oracle
        for call in (lambda: SweepGrid(np.array([1.0]), np.array([0.0, 1.0]), method="magic"),
                     lambda: sweep.evaluate("magic", 2.0, np.linspace(0.0, 1.0, 3), 51, 5.0)):
            with pytest.raises(DomainError, match=re.escape(f"one of {METHODS}")):
                call()

    def test_xi_must_increase(self):
        with pytest.raises(DomainError):
            SweepGrid(np.array([1.0, 1.0]), np.array([0.0, 1.0]), method="analytic")

    def test_xi_must_be_positive(self):
        with pytest.raises(DomainError):
            SweepGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), method="analytic")

    def test_tau_may_start_at_zero_but_not_below(self):
        SweepGrid(np.array([1.0]), np.array([0.0, 0.5]), method="analytic")
        with pytest.raises(DomainError):
            SweepGrid(np.array([1.0]), np.array([-0.5, 0.5]), method="analytic")

    def test_arrays_are_frozen(self):
        xi, tau = np.geomspace(0.5, 2.0, 3), np.linspace(0.0, 1.0, 5)
        g = SweepGrid(xi, tau, method="analytic")
        assert type(g.xi_values) is type(g.tau_values) is tuple
        with pytest.raises(TypeError):
            g.xi_values[0] = 2.0
        with pytest.raises(TypeError):
            g.tau_values[0] = 0.5
        # the caller's own arrays stay writable and detached from the grid
        xi[0], tau[0] = 0.7, 0.1
        assert g.xi_values[0] == 0.5 and g.tau_values[0] == 0.0


class TestAxis:
    def test_linear_axis_is_linspace_bit_for_bit(self, rng):
        # the last range is denormal wide: its step underflows to 0
        ranges = [(*sorted(rng.uniform(-1e3, 1e3, 2)), int(rng.integers(2, 400)))
                  for _ in range(300)]
        ranges += [(0.0, 3.0, 301), (0.0, 2.0, 11), (0.0, 1e-323, 10)]
        for lo, hi, steps in ranges:
            axis = sweep._axis(lo, hi, steps, "linear", "x")
            assert np.array(axis).tobytes() == np.linspace(lo, hi, steps).tobytes()
        assert (hi - lo) / (steps - 1) == 0.0 and axis[1:-1] != (0.0,) * 8

    def test_log_axis_keeps_its_endpoints_and_geomspace_within_an_ulp(self, rng):
        for _ in range(300):
            lo, hi = sorted(10.0 ** rng.uniform(-300, 150, 2))
            steps = int(rng.integers(2, 400))
            axis = np.array(sweep._axis(lo, hi, steps, "log", "x"))
            assert (axis[0], axis[-1]) == (lo, hi)
            assert (np.abs(axis - np.geomspace(lo, hi, steps)) <= np.spacing(axis)).all()


class TestEvaluate:
    @pytest.mark.parametrize("method", METHODS)
    def test_populations_close(self, method):
        cols, _ = sweep.evaluate(method, 2.0, np.linspace(0.0, 1.0, 11), 201, 10.0)
        closure = np.add(cols["p_e0"], cols["p_g1"]) + cols["p_g0"] - 1.0
        assert np.abs(closure).max() <= 1e-8

    @pytest.mark.parametrize("xi", [5e-324, 1e-323, 1e-320, 0.5, 1.0, 2.0, 1e8])
    def test_analytic_concurrence_is_the_pointwise_one(self, xi):
        # one closed-form concurrence: the subnormal leading order included
        taus = np.linspace(0.0, 3.0, 31)
        cols, _ = sweep.evaluate("analytic", xi, taus)
        want = [analytic.concurrence(ModelParams(xi=xi), tau) for tau in taus]
        assert cols["concurrence"] == want

    def test_multimode_loses_nothing(self):
        cols, _ = sweep.evaluate("multimode", 1.0, np.linspace(0.0, 1.0, 5), 201, 10.0)
        # closed picture: nothing leaves, survival stays one
        assert set(cols["survival"]) == {1.0}
        assert set(cols["p_g0"]) == {0.0}


class TestHeatmap:
    @pytest.mark.parametrize("method", ["analytic", "lindblad"])
    def test_rows_do_not_recheck_the_grid_times(self, method, monkeypatch):
        # the grid checked its tau tuple once; evaluate's guard stays public
        grid = SweepGrid((0.5, 2.0), (0.0, 0.5, 1.0), method)
        checked = []
        monkeypatch.setattr(sweep, "_sample_times", lambda taus: checked.append(taus) or taus)
        assert len(heatmap(grid, workers=1).concurrence) == 6
        assert checked == []
        sweep.evaluate(method, 2.0, grid.tau_values)
        assert checked == [grid.tau_values]

    def test_analytic_grid_values_and_ordering(self):
        xi = np.array([0.5, 2.0])
        taus = np.linspace(0.0, 2.0, 9)
        grid = SweepGrid(xi, taus, method="analytic", tau_spacing="linear")
        res = heatmap(grid)
        assert type(res) is SweepResult and type(res.concurrence) is tuple
        assert len(res.concurrence) == 18
        # xi-major: first block belongs to xi=0.5
        for block, x in zip((res.concurrence[:9], res.concurrence[9:]), xi):
            ce, cg = _amplitude_arrays(x, taus)
            assert np.allclose(block, 2 * np.abs(ce) * np.abs(cg), atol=1e-14)

    def test_lindblad_matches_analytic(self):
        taus = np.linspace(0.0, 3.0, 31)
        xi = np.array([2.0])
        a = heatmap(SweepGrid(xi, taus, method="analytic"))
        l = heatmap(SweepGrid(xi, taus, method="lindblad"))
        gap = np.subtract(a.concurrence, l.concurrence)
        assert np.abs(gap).max() < 1e-6
        assert l.metadata["method"] == "lindblad" and "lindblad_tol" not in l.metadata

    def test_multimode_horizon_guard(self):
        taus = np.linspace(0.0, 10.0, 11)
        grid = SweepGrid(np.array([1.0]), taus, method="multimode")
        with pytest.raises(DomainError):
            heatmap(grid, n_modes=51, window=5.0)

    def test_multimode_metadata(self):
        taus = np.linspace(0.0, 1.0, 5)
        grid = SweepGrid(np.array([1.0]), taus, method="multimode")
        res = heatmap(grid, n_modes=201, window=10.0)
        assert res.metadata["bath"]["n_modes"] == 201
        assert res.metadata["bath"]["recurrence_horizon"] > 1.0
        horizon = sample_bath(ModelParams(xi=1.0), 201, 10.0).recurrence_horizon
        assert res.metadata["bath"]["recurrence_horizon"] == horizon
        assert list(res.metadata["bath"]) == ["n_modes", "window", "recurrence_horizon", "note"]

    def test_metadata_schema(self):
        grid = SweepGrid(np.array([1.0]), np.array([0.0, 1.0]), method="analytic")
        res = heatmap(grid)
        for key in ("artifact_version", "method", "xi", "tau", "rows", "workers", "wall_time_s"):
            assert key in res.metadata
        assert res.metadata["rows"] == 2
        assert res.metadata["xi"]["count"] == 1

    def test_deterministic_across_runs_and_workers(self):
        grid = SweepGrid(
            np.geomspace(0.5, 4.0, 3),
            np.linspace(0.0, 2.0, 21),
            method="lindblad",
        )
        a = heatmap(grid, workers=1)
        b = heatmap(grid, workers=1)
        c = heatmap(grid, workers=2)
        assert repr(a.concurrence) == repr(b.concurrence) == repr(c.concurrence)

    def test_pool_never_outnumbers_the_rows(self, monkeypatch):
        # the pool forks every process at its first submit, whatever the task count
        import concurrent.futures

        sizes, chunks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                chunks.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        grid = SweepGrid(np.array([0.5, 2.0]), np.linspace(0.0, 1.0, 5), method="analytic")
        res = heatmap(grid, workers=64)
        assert sizes == [2] and chunks == [1]
        assert res.metadata["workers"] == 64
        assert repr(res.concurrence) == repr(heatmap(grid, workers=1).concurrence)
        # one chunk of rows per process: 5 rows over 2 processes go 3 and 2
        heatmap(SweepGrid(np.geomspace(0.5, 2.0, 5), [0.0, 1.0], method="analytic"), workers=2)
        assert sizes[-1] == 2 and chunks[-1] == 3

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_workers_started_fresh_give_the_serial_bytes(self, start_method):
        # a fresh worker unpickles _rows_for_xi out of a lazily registered
        # lorentzbath.sweep, which runs on that first attribute access
        probe = (
            "import multiprocessing, sys\n"
            "import numpy as np\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "from lorentzbath import sweep\n"
            "grid = sweep.SweepGrid(np.geomspace(0.5, 4.0, 3), np.linspace(0.0, 2.0, 11),\n"
            "                       method='lindblad')\n"
            "serial, pooled = (sweep.heatmap(grid, workers=w).concurrence for w in (1, 2))\n"
            "print(repr(serial) == repr(pooled))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, start_method],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

    def test_failures_name_the_grid_row(self):
        task = ("multimode", 1.5, np.array([0.0, 1.0]), 2, 100.0)
        with pytest.raises(DomainError, match=r"grid row xi=1.5"):
            _rows_for_xi(task)

    def test_grid_row_note_keeps_the_exception(self, monkeypatch):
        def unreachable(*args):
            raise TargetNotReachable("drive too weak", max_xi=0.5)

        monkeypatch.setattr(sweep, "_evaluate", unreachable)
        with pytest.raises(TargetNotReachable) as err:
            _rows_for_xi(("analytic", 1.5, np.array([0.0, 1.0]), 2, 100.0))
        assert str(err.value) == "drive too weak" and err.value.max_xi == 0.5
        assert err.value.__notes__ == ["[grid row xi=1.5]"]

    def test_noted_exception_survives_pickling(self):
        # a process-pool worker sends its exception back to the parent pickled
        exc = TargetNotReachable("drive too weak", max_xi=0.5)
        exc.add_note("[grid row xi=1.5]")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is TargetNotReachable and str(back) == "drive too weak"
        assert back.max_xi == 0.5 and back.__notes__ == ["[grid row xi=1.5]"]


class TestCmaxCurve:
    def test_golden_rows(self):
        curve = cmax_curve(np.array([1.0, 2.0]))
        assert curve.c_max[0] == pytest.approx(0.58693571751093799, abs=1e-10)
        assert curve.c_max[1] == pytest.approx(0.75593276364720863, abs=1e-12)
        assert curve.tau_opt[1] == pytest.approx(0.38050733439596325, abs=1e-12)

    def test_monotone_over_log_grid(self):
        curve = cmax_curve(np.geomspace(0.01, 100.0, 40), spacing="log")
        assert curve.violations == ()
        assert curve.metadata["monotone_nondecreasing"] is True
        assert min(curve.derivative) > 0

    def test_single_point_derivative_is_that_of_a_longer_grid(self):
        one = cmax_curve([2.0])
        assert np.isfinite(one.derivative).all()
        assert one.derivative[0] == pytest.approx(cmax_curve([1.0, 2.0, 3.0]).derivative[1], rel=1e-15)

    def test_derivative_finite_and_positive_over_the_whole_domain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = cmax_curve(np.geomspace(1e-300, 1e150, 2000))
        d = np.array(curve.derivative)
        assert np.isfinite(d).all() and (d > 0).all()
        # the range checks OptimumRecord runs on c_max, over every curve row;
        # from xi ~ 1e16 on, C_max is 1 to within rounding
        assert min(curve.tau_opt) >= 0.0
        assert 0.0 < min(curve.c_max) and max(curve.c_max) <= 1.0

    def test_arrays_are_frozen(self):
        xi = np.geomspace(0.5, 2.0, 3)
        curve = cmax_curve(xi)
        for a in (curve.xi, curve.tau_opt, curve.c_max, curve.derivative):
            assert type(a) is tuple and len(a) == 3
            with pytest.raises(TypeError):
                a[0] = 1.0
        # the caller's own array stays writable and detached from the curve
        xi[0] = 0.7
        assert curve.xi[0] == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            cmax_curve(np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            cmax_curve(np.array([-1.0, 1.0]))


class TestMutation:
    def test_mutated_generator_is_distinguishable(self):
        m = np.diag([1.0, 0.0, 0.0]).astype(complex).tolist()
        from lorentzbath.lindblad import rhs
        from lorentzbath.model import ModelParams

        good = rhs(m, ModelParams(xi=2.0))
        bad = _mutated_rhs(m, ModelParams(xi=2.0))
        assert type(bad) is list and [len(row) for row in bad] == [3, 3, 3]
        assert np.abs(np.array(good) - np.array(bad)).max() > 1.0

    def test_differs_from_rhs_by_the_flipped_coupling_only(self, rng):
        from lorentzbath.lindblad import rhs
        from lorentzbath.model import ModelParams

        xi = 1.3
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m_list = m.tolist()
        diff = np.array(_mutated_rhs(m_list, ModelParams(xi=xi))) - rhs(m_list, ModelParams(xi=xi))
        e01 = np.zeros((3, 3))
        e01[0, 1] = 1.0
        # h[0, 1] = xi becomes -xi: -i[dh, m] with dh = -2 xi |e,0><g,1|
        term = 2j * xi * (e01 @ m - m @ e01)
        assert np.abs(diff - term).max() < 1e-14
        off = np.ones((3, 3), dtype=bool)
        off[0, :] = off[:, 1] = False
        assert (diff[off] == 0).all()

    def test_harness_detects_mutated_generator(self):
        (result,) = _check_mutation(True, {})
        assert result.name == "harness_detects_mutated_generator"
        assert result.passed


class TestVerify:
    def test_quick_battery_passes(self):
        report = verify(quick=True)
        assert report.passed
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        assert all(c.passed for c in report.checks)
        assert "recurrence_horizon" in report.metadata
        assert report.metadata["quick"] is True
        wall = report.metadata["check_wall_s"]
        assert set(wall) == set(names)
        assert all(seconds >= 0.0 for seconds in wall.values())

    @pytest.mark.parametrize("scale, passed", [(1.0, True), (1.0 + 1e-8, False)])
    def test_optimum_row_catches_a_wrong_t_opt(self, monkeypatch, scale, passed):
        t_opt = analytic._t_opt
        monkeypatch.setattr(analytic, "_t_opt", lambda xi: t_opt(xi) * scale)
        rows = {c.name: c for c in battery._check_analytic(True, {})}
        assert rows["t_opt_formula_vs_numeric"].passed is passed

    @pytest.mark.parametrize("quick, n_modes", [(True, 501), (False, 2001)])
    def test_horizon_is_that_of_the_multimode_checks_bath(self, quick, n_modes):
        metadata = {}
        battery._check_multimode(quick, metadata)
        horizon = metadata["recurrence_horizon"]
        assert (horizon["n_modes"], horizon["window"]) == (n_modes, 40.0)
        assert horizon["horizon"] == sample_bath(ModelParams(xi=2.0), n_modes, 40.0).recurrence_horizon

    def test_kernel_row_is_the_phase_matrix_product_summed_per_tau(self):
        # the row sums the kernel one tau at a time; the (101, N) phase
        # matrix product it replaced is the reference, relative to xi^2 as the row
        bath = sample_bath(ModelParams(xi=2.0), 2001, 40.0)
        taus, g2 = np.linspace(0.0, 5.0, 101), bath.couplings**2
        per_tau = np.array([np.exp(-1j * t * bath.detunings) @ g2 for t in taus])
        matrix = np.exp(-1j * np.outer(taus, bath.detunings)) @ g2
        assert np.abs(per_tau - matrix).max() <= 1e-14 * 4.0
        rows = {c.name: c for c in battery._check_multimode(False, {})}
        err = float(np.abs(per_tau - 4.0 * np.exp(-2.0 * taus)).max() / 4.0)
        assert rows["multimode_correlation_kernel"].measured == err

    def test_multimode_checks_build_no_kernel_phase_matrix(self):
        # a (101, 2001) complex phase matrix alone takes 3.2 MB
        battery._check_multimode(True, {})  # first-call allocations are numpy's, not the check's
        tracemalloc.start()
        try:
            battery._check_multimode(False, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 101 * 2001 * 16

    def test_weak_coupling_rate_is_the_polyfit_slope(self, monkeypatch):
        # the row fits its line in scalar Python; np.polyfit over the row's
        # own trajectory is the reference
        runs = []
        integrate = battery._lb.integrate
        monkeypatch.setattr(battery._lb, "integrate",
                            lambda *a, **k: runs.append((a[1], integrate(*a, **k))) or runs[-1][1])
        (row,) = battery._check_weak_coupling(True, {})
        ((taus, traj),) = runs
        fit = -np.polyfit(taus[50:], np.log(traj.p_e0[50:]), 1)[0]
        rate = 0.05**2 * (1.0 + row.measured)  # the fitted rate lies above xi^2
        assert abs(rate - fit) <= 1e-12 * fit

    def test_weak_coupling_row_needs_no_numpy(self):
        probe = (
            "import sys\n"
            "from lorentzbath import battery\n"
            "(row,) = battery._check_weak_coupling(False, {})\n"
            "print(row.passed, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    def test_metadata_keys_in_order(self):
        report = verify(quick=True)
        assert list(report.metadata) == [
            "artifact_version", "quick", "recurrence_horizon", "check_wall_s", "wall_time_s",
        ]
        assert report.metadata["recurrence_horizon"]["n_modes"] == 501

    def test_numpy_loads_in_the_helper_and_never_in_verifys_process(self):
        # the scalar checks run beside numpy's import, not after it; the helper
        # has numpy loaded before its first producer runs, leaves the cold numpy
        # modules unloaded to its end, and is reaped
        probe = (
            "import os, sys\n"
            "from lorentzbath import battery, sweep\n"
            "def first(quick, metadata):\n"
            "    metadata['numpy_at_first_check'] = 'numpy' in sys.modules\n"
            "    return battery._check_multimode(quick, metadata)\n"
            "def last(quick, metadata):\n"
            "    rows = battery._check_entanglement(quick, metadata)\n"
            "    metadata['cold'] = [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules]\n"
            "    return rows\n"
            "swap = {battery._check_multimode: first, battery._check_entanglement: last}\n"
            "battery._CHECKS = tuple(swap.get(p, p) for p in battery._CHECKS)\n"
            "battery._ARRAY_CHECKS = (first, last)\n"
            "report = sweep.verify(quick=True)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    children = 'left'\n"
            "except ChildProcessError:\n"
            "    children = 'none'\n"
            "print(report.passed, report.metadata['numpy_at_first_check'], 'numpy' in sys.modules,\n"
            "      children, *report.metadata['cold'])\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True", "False", "none"]

    def test_report_failure_aggregation(self):
        nan, inf = float("nan"), float("inf")
        rep = VerificationReport(
            checks=(
                CheckResult("a", 1.0, 0.5),
                CheckResult("b", 1.0, 2.0),
                CheckResult("at_budget", 1.0, 1.0),
                CheckResult("floor", 1e-3, inf, floor=True),
                CheckResult("under_floor", 1e-3, 0.0, floor=True),
                CheckResult("crashed", nan, inf),
                CheckResult("nan_floor", 1e-3, nan, floor=True),
            ),
            metadata={},
        )
        assert not rep.passed
        assert [c.passed for c in rep.checks] == [True, False, True, True, False, False, False]
        assert VerificationReport(checks=rep.checks[:1] + rep.checks[2:4], metadata={}).passed

    def test_each_row_passes_by_the_one_rule(self):
        report = verify(quick=True)
        for check in report.checks:
            holds = check.budget <= check.measured if check.floor else check.measured <= check.budget
            assert check.passed is holds, check.name
        floors = [c.name for c in report.checks if c.floor]
        assert floors == ["cmax_saturates_at_xi_100", "harness_detects_mutated_generator"]


def _scalar(quick, metadata):
    return [CheckResult("scalar", 1.0, 0.5)]


def _array(quick, metadata):
    metadata["from_helper"] = os.getpid()
    return [CheckResult("array", 1.0, 0.25)]


def _last(quick, metadata):
    return [CheckResult("last", 1.0, 0.75)]


class TestVerifyHelper:
    """``verify`` forks one helper for ``battery._ARRAY_CHECKS``; every way it
    can end gives a report, and the helper never outlives the call."""

    @pytest.fixture
    def forks(self, monkeypatch):
        pids, fork = [], os.fork

        def spy():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return pids

    @staticmethod
    def _battery(monkeypatch, helper):
        monkeypatch.setattr(battery, "_CHECKS", (_scalar, helper, _array, _last))
        monkeypatch.setattr(battery, "_ARRAY_CHECKS", (helper, _array))

    @staticmethod
    def _reaped(pid):
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_the_helper_runs_the_array_checks_and_rows_keep_their_order(self, monkeypatch, forks):
        def multimode(quick, metadata):
            return [CheckResult("helper_first", 1.0, 0.0), CheckResult("helper_second", 1.0, 0.0)]

        self._battery(monkeypatch, multimode)
        report = verify(quick=True)
        (pid,) = forks
        self._reaped(pid)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "scalar", "helper_first", "helper_second", "array", "last",
        ]
        assert report.metadata["from_helper"] == pid
        assert list(report.metadata) == [
            "artifact_version", "quick", "from_helper", "check_wall_s", "wall_time_s",
        ]

    def test_a_raising_helper_producer_is_one_crashed_row_in_its_slot(self, monkeypatch, forks):
        def entanglement(quick, metadata):
            raise RuntimeError("boom")

        self._battery(monkeypatch, entanglement)
        report = verify(quick=True)
        self._reaped(*forks)
        assert [c.name for c in report.checks] == ["scalar", "entanglement", "array", "last"]
        crashed = report.checks[1]
        assert math.isnan(crashed.budget) and crashed.measured == math.inf
        assert crashed.detail == "check crashed: RuntimeError: boom"
        assert [c.passed for c in report.checks] == [True, False, True, True]

    @pytest.mark.parametrize("ending, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
        (lambda: os._exit(0), "exited with status 0"),
    ], ids=["exit-3", "killed", "exit-0"])
    def test_a_helper_that_dies_crashes_each_of_its_rows(self, monkeypatch, forks, ending, how):
        def multimode(quick, metadata):
            ending()

        self._battery(monkeypatch, multimode)
        report = verify(quick=True)
        self._reaped(*forks)
        assert [(c.name, c.passed) for c in report.checks] == [
            ("scalar", True), ("multimode", False), ("_array", False), ("last", True),
        ]
        assert {c.detail for c in report.checks[1:3]} == {f"check crashed: verify helper {how}"}
        assert list(report.metadata) == ["artifact_version", "quick", "check_wall_s", "wall_time_s"]

    def test_an_interrupted_verify_kills_and_reaps_its_helper(self, monkeypatch, forks):
        def multimode(quick, metadata):
            time.sleep(60.0)

        def interrupted(quick, metadata):
            raise KeyboardInterrupt

        monkeypatch.setattr(battery, "_CHECKS", (interrupted, multimode))
        monkeypatch.setattr(battery, "_ARRAY_CHECKS", (multimode,))
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify(quick=True)
        assert time.perf_counter() - start < 30.0
        self._reaped(*forks)

    def test_without_fork_every_producer_runs_here(self, monkeypatch, forks):
        self._battery(monkeypatch, _scalar)
        monkeypatch.delattr(os, "fork")
        report = verify(quick=True)
        assert report.passed and forks == []
        assert report.metadata["from_helper"] == os.getpid()

    def test_no_helper_without_an_array_check(self, monkeypatch, forks):
        monkeypatch.setattr(battery, "_CHECKS", (_scalar, _last))
        assert verify(quick=True).passed and forks == []

    def test_the_cli_writes_its_report_once_with_a_crashed_helper_row(self):
        # were the helper to return into the caller, the table would come twice
        probe = (
            "import sys\n"
            "from lorentzbath import battery\n"
            "from lorentzbath.cli import main\n"
            "def entanglement(quick, metadata):\n"
            "    raise RuntimeError('boom')\n"
            "battery._CHECKS = tuple(entanglement if p is battery._check_entanglement else p\n"
            "                        for p in battery._CHECKS)\n"
            "battery._ARRAY_CHECKS = (battery._check_multimode, entanglement)\n"
            "sys.exit(main(['verify', '--quick']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "FAIL entanglement: check crashed: RuntimeError: boom\n"
        assert proc.stdout.count("name,budget,measured,status") == 1
        assert proc.stdout.count("# overall: ") == 1
        rows = [line.split(",")[0] for line in proc.stdout.splitlines()[-25:]]
        assert rows[rows.index("weak_coupling_golden_rule") + 1] == "entanglement"
        assert "multimode_jc_limit" in rows
