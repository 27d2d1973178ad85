"""Sweep engine: concurrence grids, the C_max curve, and the verify battery.

:func:`evaluate` computes one xi by any method; ``evolve`` and the heatmap
rows both take their columns from it.

Grid points are independent, so the heatmap fans rows out over processes
when asked to (``LORENTZBATH_WORKERS`` or an explicit ``workers=``); the
aggregation order is fixed by the grid, never by completion order, so the
emitted data is byte-identical serial or parallel.
"""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import analytic
from . import lindblad as _lb
from . import multimode as _mm
from ._version import __version__
from .entanglement import embed, wootters_concurrence, xstate_concurrence
from .errors import DomainError
from .model import ModelParams, _sample_times, _xi_values, pure_to_density
from .sideband import SidebandConfig, bessel_jn, effective_coupling, solve_amplitude

WORKERS_ENV = "LORENTZBATH_WORKERS"
METHODS = ("analytic", "lindblad", "multimode")
COLUMNS = ("xi", "tau", "concurrence", "p_e0", "p_g1", "p_g0", "survival")
POPULATION_CLOSURE_TOL = 1e-8

DEFAULT_N_MODES = 2001
DEFAULT_WINDOW = 40.0


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins, then the environment variable, then 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise DomainError(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if workers < 1:
        raise DomainError(f"worker count must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class SweepGrid:
    """A xi by tau evaluation grid with the method that fills it."""

    xi_values: np.ndarray
    tau_values: np.ndarray
    method: str
    xi_spacing: str = "custom"
    tau_spacing: str = "custom"

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"method must be one of {METHODS}, got {self.method!r}")
        xi = _xi_values(self.xi_values).copy()  # freeze the grid's own arrays, not the caller's
        tau = _sample_times(self.tau_values).copy()
        object.__setattr__(self, "xi_values", xi)
        object.__setattr__(self, "tau_values", tau)
        xi.flags.writeable = False
        tau.flags.writeable = False


@dataclass(frozen=True)
class SweepResult:
    """Row-per-grid-point table (xi-major) plus run metadata."""

    records: np.ndarray
    metadata: dict

    def __post_init__(self):
        rec = np.asarray(self.records, dtype=float)
        object.__setattr__(self, "records", rec)
        if rec.ndim != 2 or rec.shape[1] != len(COLUMNS):
            raise DomainError(f"records must have {len(COLUMNS)} columns")
        closure = np.abs(rec[:, 3] + rec[:, 4] + rec[:, 5] - 1.0)
        if len(rec) and closure.max() > POPULATION_CLOSURE_TOL:
            raise DomainError(
                f"population closure violated by {closure.max()} at row {closure.argmax()}"
            )
        rec.flags.writeable = False

    def column(self, name: str) -> np.ndarray:
        return self.records[:, COLUMNS.index(name)]


def evaluate(
    method: str,
    xi: float,
    taus: np.ndarray,
    n_modes: int = DEFAULT_N_MODES,
    window: float = DEFAULT_WINDOW,
) -> tuple[dict, dict]:
    """One xi by any method: named columns over ``taus`` and the run's metadata.

    The columns are those of ``COLUMNS``; the closed form adds its complex
    amplitudes as ``c_re_e0``, ``c_im_e0``, ``c_re_g1`` and ``c_im_g1``.  The
    metadata holds an oracle's solver counters and, for the multimode one,
    its bath.
    """
    params = ModelParams(xi=xi)
    taus = _sample_times(taus)
    cols, metadata = {}, {}
    if method == "analytic":
        ce, cg = analytic._amplitude_arrays(xi, taus)
        p_e0 = np.abs(ce) ** 2
        p_g1 = np.abs(cg) ** 2
        surv = p_e0 + p_g1
        conc = 2.0 * np.abs(ce) * np.abs(cg)
        p_g0 = 1.0 - surv
        cols = {"c_re_e0": ce.real, "c_im_e0": ce.imag, "c_re_g1": cg.real, "c_im_g1": cg.imag}
    elif method == "lindblad":
        traj = _lb.integrate(params, taus[-1], sample_taus=taus)
        p_e0, p_g1, p_g0 = traj.p_e0, traj.p_g1, traj.p_g0
        surv = p_e0 + p_g1
        conc = traj.concurrences
        metadata["solver"] = asdict(traj.solver)
    else:
        bath = _mm.sample_bath(params, n_modes, window)
        traj = _mm.evolve(bath, taus[-1], sample_taus=taus)
        p_e0 = traj.p_e
        # closed unitary dynamics: every non-qubit amplitude is the
        # one-photon share, nothing has been irreversibly lost
        p_g1 = 1.0 - p_e0
        p_g0 = np.zeros_like(p_e0)
        surv = np.ones_like(p_e0)
        conc = traj.concurrences
        metadata["bath"] = {
            "n_modes": n_modes,
            "window": window,
            "recurrence_horizon": bath.recurrence_horizon,
        }
        metadata["solver"] = traj.solver
    cols.update(
        xi=np.full(len(taus), xi), tau=taus, concurrence=conc,
        p_e0=p_e0, p_g1=p_g1, p_g0=p_g0, survival=surv,
    )
    return cols, metadata


def _rows_for_xi(task) -> np.ndarray:
    """One xi-row of the sweep; top level so process pools can ship it."""
    method, xi, taus, n_modes, window = task
    try:
        cols, _ = evaluate(method, xi, taus, n_modes, window)
        return np.column_stack([cols[name] for name in COLUMNS])
    except Exception as exc:  # annotate with the failing grid point
        exc.add_note(f"[grid row xi={xi!r}]")
        raise


def heatmap(
    grid: SweepGrid,
    workers: int | None = None,
    n_modes: int = DEFAULT_N_MODES,
    window: float = DEFAULT_WINDOW,
) -> SweepResult:
    """Evaluate the grid method at every point, xi-major ordering."""
    workers = resolve_workers(workers)
    t0 = time.perf_counter()
    tasks = [
        (grid.method, float(xi), grid.tau_values, n_modes, window)
        for xi in grid.xi_values
    ]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_rows_for_xi, tasks))
    else:
        blocks = [_rows_for_xi(t) for t in tasks]
    records = np.vstack(blocks)
    metadata = {
        "artifact_version": __version__,
        "method": grid.method,
        "xi": _axis_spec(grid.xi_values, grid.xi_spacing),
        "tau": _axis_spec(grid.tau_values, grid.tau_spacing),
        "rows": int(len(records)),
        "workers": workers,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    if grid.method == "multimode":
        bath = _mm.sample_bath(ModelParams(xi=float(grid.xi_values[0])), n_modes, window)
        metadata["bath"] = {
            "n_modes": n_modes,
            "window": window,
            "recurrence_horizon": bath.recurrence_horizon,
            "note": "discrete bath is only faithful for tau well inside the horizon",
        }
    return SweepResult(records=records, metadata=metadata)


def _axis_spec(values: np.ndarray, spacing: str) -> dict:
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "count": int(len(values)),
        "spacing": spacing,
    }


CMAX_COLUMNS = ("xi", "tau_opt", "c_max", "dcmax_dxi", "source")


@dataclass(frozen=True)
class CmaxCurve:
    """C_max(xi) with the on-grid central-difference derivative.

    Monotonicity violations are carried in ``violations`` and echoed in the
    metadata; they are never repaired in the data itself.
    """

    records: tuple
    derivative: np.ndarray
    violations: tuple
    metadata: dict

    @property
    def xi(self) -> np.ndarray:
        return np.array([r.xi for r in self.records])

    @property
    def c_max(self) -> np.ndarray:
        return np.array([r.c_max for r in self.records])

    @property
    def tau_opt(self) -> np.ndarray:
        return np.array([r.tau_opt for r in self.records])

    @property
    def columns(self) -> tuple:
        """One sequence per name of ``CMAX_COLUMNS``, in that order."""
        # every row comes from the closed-form optimum
        source = np.full(len(self.records), "formula")
        return (self.xi, self.tau_opt, self.c_max, self.derivative, source)


def cmax_curve(xi_values, spacing: str = "custom") -> CmaxCurve:
    xi = _xi_values(xi_values)
    t0 = time.perf_counter()
    recs = analytic.c_max_batch(xi)
    c = np.array([r.c_max for r in recs])
    deriv = np.gradient(c, xi) if len(xi) > 1 else np.full(1, np.nan)
    viol = tuple(
        (float(xi[i]), float(xi[i + 1]), float(c[i] - c[i + 1]))
        for i in range(len(xi) - 1)
        if c[i + 1] - c[i] < -1e-13
    )
    metadata = {
        "artifact_version": __version__,
        "xi": _axis_spec(xi, spacing),
        "monotone_nondecreasing": not viol,
        "violations": [list(v) for v in viol],
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    return CmaxCurve(records=recs, derivative=deriv, violations=viol, metadata=metadata)


# --------------------------------------------------------------------------
# verification battery


@dataclass(frozen=True)
class CheckResult:
    name: str
    budget: float
    measured: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    metadata: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self):
        return [
            (c.name, c.budget, c.measured, "pass" if c.passed else "FAIL")
            for c in self.checks
        ]


def _mutated_rhs(m, params: ModelParams):
    """Deliberately defective generator: the coupling enters one off-diagonal
    element with a flipped sign (h[0, 1] = -xi), the way a missed conjugate
    would.  Used to prove the oracle-equivalence check has teeth."""
    m = np.asarray(m, dtype=complex)
    flip = np.zeros((3, 3), dtype=complex)
    flip[0, 1] = -2.0 * params.xi
    return _lb.rhs(m, params) - 1j * (flip @ m - m @ flip)


def _check_lindblad_equivalence(quick: bool):
    xis = (0.5, 2.0, 10.0) if quick else (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    taus = np.linspace(0.0, 6.0, 401)
    worst_c = worst_p = 0.0
    for xi in xis:
        traj = _lb.integrate(ModelParams(xi=xi), 6.0, sample_taus=taus)
        ce, cg = analytic._amplitude_arrays(xi, taus)
        worst_c = max(worst_c, float(np.abs(traj.concurrences - 2 * np.abs(ce) * np.abs(cg)).max()))
        worst_p = max(
            worst_p,
            float(np.abs(traj.p_e0 - np.abs(ce) ** 2).max()),
            float(np.abs(traj.p_g1 - np.abs(cg) ** 2).max()),
        )
    measured = max(worst_c, worst_p)
    return [
        CheckResult(
            "lindblad_oracle_equivalence",
            1e-6,
            measured,
            measured < 1e-6,
            f"concurrence dev {worst_c:.3e}, population dev {worst_p:.3e} over xi={xis}",
        )
    ]


def _check_lindblad_refinement(quick: bool):
    p = ModelParams(xi=2.0)
    coarse, fine = (
        _lb.integrate(p, 6.0, np.linspace(0.0, 6.0, n))
        for n in (401, 801)
    )
    # the fine grid splits every interval in two; compare at the shared samples
    measured = float(np.abs(coarse.rho - fine.rho[::2]).max())
    return [
        CheckResult(
            "lindblad_interval_refinement",
            1e-9,
            measured,
            measured < 1e-9,
            "state shift between 401- and 801-sample grids on [0, 6] at xi=2",
        )
    ]


def _check_multimode(quick: bool):
    n_modes = 501 if quick else 2001
    taus = np.linspace(0.0, 3.0, 301)
    params = ModelParams(xi=2.0)
    bath = _mm.sample_bath(params, n_modes, DEFAULT_WINDOW)
    traj = _mm.evolve(bath, 3.0, sample_taus=taus)
    ce, _ = analytic._amplitude_arrays(2.0, taus)
    track = float(np.abs(traj.p_e - np.abs(ce) ** 2).max())
    drift = traj.solver["norm_defect"]

    kern_taus = np.linspace(0.0, 5.0, 101)
    phases = np.exp(-1j * np.outer(kern_taus, bath.detunings))
    kern = phases @ (bath.couplings**2)
    kern_err = float(np.abs(kern - 4.0 * np.exp(-2.0 * kern_taus)).max() / 4.0)

    jc = _mm.DiscretizedBath(
        detunings=np.zeros(1), couplings=np.array([2.0]), window=0.0, n_modes=1
    )
    jt = np.linspace(0.0, 2.0, 81)
    jtraj = _mm.evolve(jc, 2.0, sample_taus=jt)
    jc_err = float(np.abs(jtraj.p_e - np.cos(2.0 * jt) ** 2).max())

    return [
        CheckResult(
            "multimode_continuum_tracking",
            5e-3,
            track,
            track < 5e-3,
            f"|c_e|^2 vs analytic, xi=2, N={n_modes}, W={DEFAULT_WINDOW}, tau<=3 "
            f"(horizon {bath.recurrence_horizon:.2f})",
        ),
        CheckResult(
            "multimode_norm_conservation", 1e-9, drift, drift < 1e-9,
            "|norm-1| of the final state",
        ),
        CheckResult(
            "multimode_correlation_kernel",
            1e-2,
            kern_err,
            kern_err < 1e-2,
            "discrete bath kernel vs xi^2 exp(-2 tau), error relative to xi^2",
        ),
        CheckResult(
            "multimode_jc_limit", 1e-9, jc_err, jc_err < 1e-9,
            "single-mode bath vs cos^2(xi tau)",
        ),
    ]


def _golden_section_max(f, a: float, b: float) -> float:
    """Plain golden-section search for the maximum of a unimodal f on [a, b],
    to a bracket of 1e-10."""
    r = (5.0**0.5 - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _check_analytic(quick: bool):
    xis = (1.05, 1.2, 2.0, 5.0, 20.0)
    worst = 0.0
    for xi in xis:
        tf = analytic.t_opt_formula(ModelParams(xi=xi))
        # C is unimodal on its first lobe [0, pi/w]
        lobe = np.pi / ((xi - 1.0) * (xi + 1.0)) ** 0.5
        conc = lambda t: float(analytic._concurrence_arrays(xi, t))
        worst = max(worst, abs(tf - _golden_section_max(conc, 0.0, lobe)))
    at1 = analytic.c_max(ModelParams(xi=1.0))
    at2 = analytic.c_max(ModelParams(xi=2.0))
    golden = max(
        abs(at1.c_max - 0.58693571751093799),
        abs(at1.tau_opt - 2.0**-0.5),
        abs(at2.c_max - 0.75593276364720863),
        abs(at2.tau_opt - 0.38050733439596325),
    )
    return [
        CheckResult(
            "t_opt_formula_vs_numeric", 1e-6, worst, worst < 1e-6,
            f"stationary-point formula against golden-section search on the "
            f"first lobe, xi={xis}",
        ),
        CheckResult(
            "analytic_golden_points", 1e-9, golden, golden < 1e-9,
            "frozen c_max / tau_opt values at xi=1 and 2",
        ),
    ]


def _check_cmax_shape(quick: bool):
    n = 60 if quick else 200
    curve = cmax_curve(np.geomspace(0.01, 100.0, n), spacing="log")
    c = curve.c_max
    sat = float(c[-1])
    d_end = float(curve.derivative[-1])
    weak = float(c[0])
    ok = (not curve.violations) and sat >= 0.97 and d_end < 1e-3 and weak < 0.02
    return [
        CheckResult(
            "cmax_monotone_and_saturation",
            0.0,
            float(len(curve.violations)),
            ok,
            f"violations={len(curve.violations)}, c_max(100)={sat:.4f} (>=0.97), "
            f"dcmax/dxi(100)={d_end:.2e} (<1e-3), c_max(0.01)={weak:.2e} (<0.02)",
        )
    ]


def _check_weak_coupling(quick: bool):
    taus = np.linspace(0.0, 400.0, 401)
    traj = _lb.integrate(ModelParams(xi=0.05), 400.0, sample_taus=taus)
    rate = float(-np.polyfit(taus[50:], np.log(traj.p_e0[50:]), 1)[0])
    measured = abs(rate - 0.05**2) / 0.05**2
    return [
        CheckResult(
            "weak_coupling_golden_rule", 0.05, measured, measured < 0.05,
            f"fitted decay rate {rate:.6f} vs xi^2 = 0.0025",
        )
    ]


def _check_entanglement(quick: bool):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(60 if quick else 200):
        tau = rng.uniform(0.05, 4.0)
        xi = rng.uniform(0.05, 8.0)
        amp = analytic.amplitudes(ModelParams(xi=xi), tau)
        rho = pure_to_density(amp)
        w = wootters_concurrence(embed(rho))
        x = xstate_concurrence(rho)
        c = 2.0 * abs(amp.c_e0) * abs(amp.c_g1)
        worst = max(worst, abs(w - c), abs(x - c))
    return [
        CheckResult(
            "wootters_matches_closed_form", 1e-8, worst, worst < 1e-8,
            "full Wootters and X-state shortcut vs 2|c_e0 c_g1| on random states",
        )
    ]


def _check_bessel(quick: bool):
    from .sideband import _miller, _series

    split = 0.0
    for n in range(0, 11):
        for x in (8.9, 9.1, 12.0):
            split = max(split, abs(_series(n, x) - _miller(n, x)[n]))
    recur = max(
        abs(bessel_jn(n - 1, x) + bessel_jn(n + 1, x) - (2.0 * n / x) * bessel_jn(n, x))
        for n in range(1, 11)
        for x in (0.5, 1.0, 2.0, 5.0, 10.0)
    )
    sumrule = max(
        abs(bessel_jn(0, x) ** 2 + 2.0 * sum(bessel_jn(k, x) ** 2 for k in range(1, 21)) - 1.0)
        for x in (0.5, 2.0, 5.0)
    )
    eps = solve_amplitude(g=2.5, nu=1.3, n=1, kappa=5.0, target_xi=1.0)
    lam = effective_coupling(SidebandConfig(g=2.5, epsilon=eps, nu=1.3, n=1))
    round_trip = abs(lam - 1.25) / 1.25
    measured = max(split, recur, sumrule, round_trip)
    return [
        CheckResult(
            "bessel_and_sideband_consistency",
            1e-9,
            measured,
            split < 1e-12 and recur < 1e-10 and sumrule < 1e-10 and round_trip < 1e-9,
            f"series/recurrence split {split:.1e}, recurrence {recur:.1e}, "
            f"sum rule {sumrule:.1e}, inversion round trip {round_trip:.1e}",
        )
    ]


def _check_mutation(quick: bool):
    taus = np.linspace(0.0, 3.0, 121)
    ce, _ = analytic._amplitude_arrays(2.0, taus)
    try:
        traj = _lb.integrate(ModelParams(xi=2.0), 3.0, sample_taus=taus, rhs_fn=_mutated_rhs)
        dev = float(np.abs(traj.p_e0 - np.abs(ce) ** 2).max())
        detail = f"population deviation {dev:.3e} under sign-flipped coupling element"
    except Exception as exc:
        dev = float("inf")
        detail = f"mutated generator tripped the oracle invariants: {type(exc).__name__}"
    return [
        CheckResult(
            "harness_detects_mutated_generator", 1e-3, dev, dev > 1e-3, detail
        )
    ]


def _check_determinism(quick: bool):
    grid = SweepGrid(
        xi_values=np.geomspace(0.5, 8.0, 4),
        tau_values=np.linspace(0.0, 3.0, 61),
        method="lindblad",
        xi_spacing="log",
        tau_spacing="linear",
    )
    serial_a = heatmap(grid, workers=1)
    serial_b = heatmap(grid, workers=1)
    parallel = heatmap(grid, workers=2)
    same = (
        serial_a.records.tobytes() == serial_b.records.tobytes()
        and serial_a.records.tobytes() == parallel.records.tobytes()
    )
    return [
        CheckResult(
            "sweep_determinism_serial_parallel",
            0.0,
            0.0 if same else 1.0,
            same,
            "byte-compare of data sections across reruns and worker counts",
        )
    ]


_CHECKS = (
    _check_lindblad_equivalence,
    _check_lindblad_refinement,
    _check_multimode,
    _check_analytic,
    _check_cmax_shape,
    _check_weak_coupling,
    _check_entanglement,
    _check_bessel,
    _check_mutation,
    _check_determinism,
)


def verify(quick: bool = False) -> VerificationReport:
    """Run every cross-check; a crash inside a check is that check failing."""
    t0 = time.perf_counter()
    results, wall = [], {}
    for producer in _CHECKS:
        start, done = time.perf_counter(), len(results)
        try:
            results.extend(producer(quick))
        except Exception as exc:
            results.append(
                CheckResult(
                    producer.__name__.removeprefix("_check_"),
                    float("nan"),
                    float("inf"),
                    False,
                    f"check crashed: {type(exc).__name__}: {exc}",
                )
            )
        # the rows of one producer share its time; the rows themselves stay
        # free of timings, so a data section's bytes repeat run to run
        seconds = round(time.perf_counter() - start, 6)
        wall.update((r.name, seconds) for r in results[done:])
    bath = _mm.sample_bath(ModelParams(xi=1.0), DEFAULT_N_MODES, DEFAULT_WINDOW)
    metadata = {
        "artifact_version": __version__,
        "quick": quick,
        "recurrence_horizon": {
            "n_modes": DEFAULT_N_MODES,
            "window": DEFAULT_WINDOW,
            "horizon": bath.recurrence_horizon,
            "note": (
                "discrete-bath accuracy claims hold only for tau well inside "
                "the Poincare recurrence horizon 2*pi/spacing"
            ),
        },
        "check_wall_s": wall,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    return VerificationReport(checks=tuple(results), metadata=metadata)
