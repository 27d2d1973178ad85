import pickle

import numpy as np
import pytest

from lorentzbath import sweep
from lorentzbath.analytic import _amplitude_arrays
from lorentzbath.errors import DomainError, TargetNotReachable
from lorentzbath.sweep import (
    CheckResult,
    COLUMNS,
    SweepGrid,
    SweepResult,
    VerificationReport,
    WORKERS_ENV,
    _check_mutation,
    _mutated_rhs,
    _rows_for_xi,
    CMAX_COLUMNS,
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
        with pytest.raises(DomainError):
            SweepGrid(np.array([1.0]), np.array([0.0, 1.0]), method="magic")

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
        with pytest.raises(ValueError):
            g.xi_values[0] = 2.0
        with pytest.raises(ValueError):
            g.tau_values[0] = 0.5
        # the caller's own arrays stay writable and detached from the grid
        xi[0], tau[0] = 0.7, 0.1
        assert g.xi_values[0] == 0.5 and g.tau_values[0] == 0.0


class TestSweepResult:
    def test_rejects_wrong_width(self):
        with pytest.raises(DomainError):
            SweepResult(records=np.zeros((2, 3)), metadata={})

    def test_rejects_population_leak(self):
        row = np.array([[1.0, 0.0, 0.0, 0.5, 0.2, 0.2, 0.7]])
        with pytest.raises(DomainError):
            SweepResult(records=row, metadata={})

    def test_column_accessor(self):
        row = np.array([[1.0, 0.5, 0.3, 0.5, 0.3, 0.2, 0.8]])
        res = SweepResult(records=row, metadata={})
        assert res.column("tau")[0] == 0.5
        assert res.column("survival")[0] == 0.8


class TestHeatmap:
    def test_analytic_grid_values_and_ordering(self):
        xi = np.array([0.5, 2.0])
        taus = np.linspace(0.0, 2.0, 9)
        grid = SweepGrid(xi, taus, method="analytic", tau_spacing="linear")
        res = heatmap(grid)
        assert res.records.shape == (18, len(COLUMNS))
        # xi-major: first block belongs to xi=0.5
        assert (res.records[:9, 0] == 0.5).all()
        assert (res.records[9:, 0] == 2.0).all()
        ce, cg = _amplitude_arrays(2.0, taus)
        assert np.allclose(res.records[9:, 2], 2 * np.abs(ce) * np.abs(cg), atol=1e-14)
        assert np.allclose(res.records[9:, 3], np.abs(ce) ** 2, atol=1e-14)

    def test_lindblad_matches_analytic(self):
        taus = np.linspace(0.0, 3.0, 31)
        xi = np.array([2.0])
        a = heatmap(SweepGrid(xi, taus, method="analytic"))
        l = heatmap(SweepGrid(xi, taus, method="lindblad"))
        assert np.abs(a.records[:, 2] - l.records[:, 2]).max() < 1e-6
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
        # closed picture: nothing leaves, survival stays one
        assert (res.records[:, 6] == 1.0).all()
        assert (res.records[:, 5] == 0.0).all()

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
        assert a.records.tobytes() == b.records.tobytes()
        assert a.records.tobytes() == c.records.tobytes()

    def test_failures_name_the_grid_row(self):
        task = ("multimode", 1.5, np.array([0.0, 1.0]), 2, 100.0)
        with pytest.raises(DomainError, match=r"grid row xi=1.5"):
            _rows_for_xi(task)

    def test_grid_row_note_keeps_the_exception(self, monkeypatch):
        def unreachable(*args):
            raise TargetNotReachable("drive too weak", max_xi=0.5)

        monkeypatch.setattr(sweep, "evaluate", unreachable)
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
        assert (curve.derivative > 0).all()

    def test_validation(self):
        with pytest.raises(DomainError):
            cmax_curve(np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            cmax_curve(np.array([-1.0, 1.0]))

    def test_columns_follow_cmax_columns(self):
        curve = cmax_curve(np.array([1.0, 2.0]))
        columns = curve.columns
        assert len(columns) == len(CMAX_COLUMNS) == 5
        assert all(len(c) == 2 for c in columns)
        assert list(columns[4]) == ["formula", "formula"]
        assert list(columns[2]) == list(curve.c_max)


class TestMutation:
    def test_mutated_generator_is_distinguishable(self):
        m = np.diag([1.0, 0.0, 0.0]).astype(complex)
        from lorentzbath.lindblad import rhs
        from lorentzbath.model import ModelParams

        good = rhs(m, ModelParams(xi=2.0))
        bad = _mutated_rhs(m, ModelParams(xi=2.0))
        assert np.abs(good - bad).max() > 1.0

    def test_differs_from_rhs_by_the_flipped_coupling_only(self, rng):
        from lorentzbath.lindblad import rhs
        from lorentzbath.model import ModelParams

        xi = 1.3
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        diff = _mutated_rhs(m, ModelParams(xi=xi)) - rhs(m, ModelParams(xi=xi))
        e01 = np.zeros((3, 3))
        e01[0, 1] = 1.0
        # h[0, 1] = xi becomes -xi: -i[dh, m] with dh = -2 xi |e,0><g,1|
        term = 2j * xi * (e01 @ m - m @ e01)
        assert np.abs(diff - term).max() < 1e-14
        off = np.ones((3, 3), dtype=bool)
        off[0, :] = off[:, 1] = False
        assert (diff[off] == 0).all()

    def test_harness_detects_mutated_generator(self):
        (result,) = _check_mutation(quick=True)
        assert result.name == "harness_detects_mutated_generator"
        assert result.passed


class TestVerify:
    def test_quick_battery_passes(self):
        report = verify(quick=True)
        assert report.passed
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        assert all(status == "pass" for _, _, _, status in report.rows())
        assert "recurrence_horizon" in report.metadata
        assert report.metadata["quick"] is True
        wall = report.metadata["check_wall_s"]
        assert set(wall) == set(names)
        assert all(seconds >= 0.0 for seconds in wall.values())

    def test_report_failure_aggregation(self):
        rep = VerificationReport(
            checks=(
                CheckResult("a", 1.0, 0.5, True),
                CheckResult("b", 1.0, 2.0, False),
            ),
            metadata={},
        )
        assert not rep.passed
        assert rep.rows()[1][3] == "FAIL"
