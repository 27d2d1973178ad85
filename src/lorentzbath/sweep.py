"""Sweep engine: concurrence grids, the C_max curve, and the verify battery.

:func:`evaluate` computes one xi by any method; ``evolve`` takes its columns
from it, and each heatmap row its concurrence, past the guards its grid ran.

Grid points are independent, so the heatmap fans rows out over processes
when asked to (``LORENTZBATH_WORKERS`` or an explicit ``workers=``); the
aggregation order is fixed by the grid, never by completion order, so the
emitted data is byte-identical serial or parallel.

Grids, rows and curves are tuples of floats: numpy loads only where the
multimode oracle or a verify check builds an array.
"""
from __future__ import annotations

import math
import os
import random
import time
from itertools import chain
from operator import add, sub

from . import analytic, entanglement, sideband
from . import lindblad as _lb
from . import multimode as _mm
from ._version import DEFAULT_N_MODES, DEFAULT_WINDOW, METHODS, WORKERS_ENV, __version__
from .errors import DomainError, _Record, _sample_times, _xi_values
from .model import ModelParams, PureAmplitudes, pure_to_density, xstate_concurrence


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


def _check_method(method: str) -> None:
    """The method guard: one of ``METHODS``."""
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")


class SweepGrid(_Record):
    """A xi by tau evaluation grid, two tuples of floats, with the method that fills it."""

    xi_values: tuple
    tau_values: tuple
    method: str
    xi_spacing: str = "custom"
    tau_spacing: str = "custom"

    def __post_init__(self):
        _check_method(self.method)
        object.__setattr__(self, "xi_values", _xi_values(self.xi_values))
        object.__setattr__(self, "tau_values", _sample_times(self.tau_values))


class SweepResult(_Record):
    """The concurrence at every grid point, a tuple of floats in xi-major
    order, plus run metadata; :func:`evaluate` gives a row's populations."""

    concurrence: tuple
    metadata: dict


def evaluate(
    method: str,
    xi: float,
    taus,
    n_modes: int = DEFAULT_N_MODES,
    window: float = DEFAULT_WINDOW,
) -> tuple[dict, dict]:
    """One xi by any method: named columns over ``taus`` and the run's metadata.

    The columns are lists of floats: ``xi``, ``tau``, ``concurrence``,
    ``p_e0``, ``p_g1``, ``p_g0`` and ``survival``; the closed form adds its
    complex amplitudes as ``c_re_e0``, ``c_im_e0``, ``c_re_g1`` and ``c_im_g1``.
    The metadata holds an oracle's solver counters and, for the multimode
    one, its bath.
    """
    _check_method(method)
    return _evaluate(method, xi, _sample_times(taus), n_modes, window)


def _evaluate(method: str, xi: float, taus: tuple, n_modes: int, window: float):
    """:func:`evaluate` past its method and time-grid guards, for a checked tuple ``taus``."""
    params = ModelParams(xi=xi)
    zeros = [0.0] * len(taus)
    cols, metadata = {}, {}
    if method == "analytic":
        ce, cg = analytic._amplitude_arrays(xi, taus)
        p_e0 = [a * a for a in ce]
        p_g1 = [b * b for b in cg]
        surv = list(map(add, p_e0, p_g1))
        conc = [2.0 * abs(a) * abs(b) for a, b in zip(ce, cg)]
        p_g0 = [1.0 - p for p in surv]
        cols = {"c_re_e0": ce, "c_im_e0": zeros, "c_re_g1": zeros, "c_im_g1": cg}
    elif method == "lindblad":
        traj = _lb.integrate(params, taus)
        p_e0, p_g1, p_g0 = traj.p_e0, traj.p_g1, traj.p_g0
        surv = list(map(add, p_e0, p_g1))
        conc = traj.concurrences
        metadata["solver"] = traj.solver
    else:
        bath = _mm.sample_bath(params, n_modes, window)
        traj = _mm.evolve(bath, taus)
        p_e0 = traj.p_e.tolist()
        # closed unitary dynamics: every non-qubit amplitude is the
        # one-photon share, nothing has been irreversibly lost
        p_g1 = [1.0 - p for p in p_e0]
        p_g0, surv = zeros, [1.0] * len(taus)
        conc = traj.concurrences.tolist()
        metadata["bath"] = {
            "n_modes": n_modes,
            "window": window,
            "recurrence_horizon": bath.recurrence_horizon,
        }
        metadata["solver"] = traj.solver
    cols.update(
        xi=[float(xi)] * len(taus), tau=list(taus), concurrence=conc,
        p_e0=p_e0, p_g1=p_g1, p_g0=p_g0, survival=surv,
    )
    return cols, metadata


def _rows_for_xi(task) -> tuple:
    """One xi-row's concurrences and metadata; top level so process pools can ship it."""
    method, xi, taus, n_modes, window = task
    try:
        cols, metadata = _evaluate(method, xi, taus, n_modes, window)  # the grid checked both
        return cols["concurrence"], metadata
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
    tasks = [(grid.method, xi, grid.tau_values, n_modes, window) for xi in grid.xi_values]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all of its processes at the first submit, so never more
        # than rows; each gets one chunk of rows, handed out in grid order
        size = min(workers, len(tasks))
        with ProcessPoolExecutor(max_workers=size) as pool:
            rows = list(pool.map(_rows_for_xi, tasks, chunksize=math.ceil(len(tasks) / size)))
    else:
        rows = [_rows_for_xi(t) for t in tasks]
    conc = tuple(chain.from_iterable(block for block, _ in rows))
    metadata = {
        "artifact_version": __version__,
        "method": grid.method,
        "xi": _axis_spec(grid.xi_values, grid.xi_spacing),
        "tau": _axis_spec(grid.tau_values, grid.tau_spacing),
        "rows": len(conc),
        "workers": workers,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    if grid.method == "multimode":
        # every row samples the same detunings, so row 0's horizon is the grid's
        metadata["bath"] = {
            **rows[0][1]["bath"],
            "note": "discrete bath is only faithful for tau well inside the horizon",
        }
    return SweepResult(concurrence=conc, metadata=metadata)


def _axis(lo: float, hi: float, steps: int, scale: str, name: str) -> tuple:
    """The grid guard: ``steps`` >= 2 points from ``lo`` to ``hi``, linear or log-spaced.

    A linear axis is ``np.linspace``'s, bit for bit: ``i*step + lo``, or
    ``i/(steps-1)*(hi-lo) + lo`` where the step underflows to 0, and ``hi``
    last.  A log axis raises 10 to the points of the linear axis between the
    two logarithms, as ``np.geomspace`` does, and keeps ``lo`` and ``hi`` exact.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"{name} range [{lo}, {hi}] is empty or not finite")
    if steps < 2:
        raise DomainError(f"{name} needs at least 2 steps, got {steps}")
    if scale == "log" and lo <= 0:
        raise DomainError(f"log-scaled {name} needs a positive minimum, got {lo}")
    a, b = (math.log10(lo), math.log10(hi)) if scale == "log" else (lo, hi)
    div = steps - 1
    step = (b - a) / div
    points = [(i * step if step else i / div * (b - a)) + a for i in range(div)]
    return (lo, *(10.0**x for x in points[1:]), hi) if scale == "log" else (*points, b)


def _axis_spec(values, spacing: str) -> dict:
    return {"min": min(values), "max": max(values), "count": len(values), "spacing": spacing}


CMAX_COLUMNS = ("xi", "tau_opt", "c_max", "dcmax_dxi", "source")


class CmaxCurve(_Record):
    """C_max(xi) as tuples of floats: the closed-form optimum ``tau_opt``,
    ``c_max`` there and its exact derivative ``analytic._dcmax_dxi``.

    Monotonicity violations are carried in ``violations`` and echoed in the
    metadata; they are never repaired in the data itself.
    """

    xi: tuple
    tau_opt: tuple
    c_max: tuple
    derivative: tuple
    violations: tuple
    metadata: dict

    @property
    def columns(self) -> tuple:
        """One sequence per name of ``CMAX_COLUMNS``, in that order."""
        # every row comes from the closed-form optimum
        return (self.xi, self.tau_opt, self.c_max, self.derivative, ("formula",) * len(self.xi))


def cmax_curve(xi_values, spacing: str = "custom") -> CmaxCurve:
    xi = _xi_values(xi_values)
    t0 = time.perf_counter()
    tau, c = zip(*map(analytic._optimum, xi))
    deriv = tuple(map(analytic._dcmax_dxi, xi, tau, c))
    viol = tuple(
        (xi[i], xi[i + 1], c[i] - c[i + 1]) for i in range(len(xi) - 1) if c[i + 1] - c[i] < -1e-13
    )
    metadata = {
        "artifact_version": __version__,
        "xi": _axis_spec(xi, spacing),
        "monotone_nondecreasing": not viol,
        "violations": [list(v) for v in viol],
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    return CmaxCurve(xi, tau, c, deriv, viol, metadata)


# --------------------------------------------------------------------------
# verification battery


class CheckResult(_Record):
    """One verify row.  It passes when ``measured <= budget``, or, for a
    ``floor`` row, when ``measured >= budget``; NaN passes neither."""

    name: str
    budget: float
    measured: float
    detail: str = ""
    floor: bool = False

    @property
    def passed(self) -> bool:
        return self.budget <= self.measured if self.floor else self.measured <= self.budget


class VerificationReport(_Record):
    checks: tuple
    metadata: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self):
        return [(c.name, c.budget, c.measured, "pass" if c.passed else "FAIL") for c in self.checks]


def _mutated_rhs(m, params: ModelParams):
    """Deliberately defective generator: the coupling enters one off-diagonal
    element with a flipped sign (h[0, 1] = -xi), the way a missed conjugate
    would.  Used to prove the oracle-equivalence check has teeth."""
    out = _lb.rhs(m, params)
    # minus i [dh, m] with dh = -2 xi |e,0><g,1|: dh m has row 0, m dh column 1
    k = 2j * params.xi
    for j in range(3):
        out[0][j] += k * m[1][j]
    for i in range(3):
        out[i][1] -= k * m[i][0]
    return out


def _check_lindblad_equivalence(quick: bool, metadata: dict):
    xis = (0.5, 2.0, 10.0) if quick else (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    taus = _axis(0.0, 6.0, 401, "linear", "tau")
    worst_c = worst_p = 0.0
    for xi in xis:  # the columns evolve prints, by both methods
        (got, _), (ref, _) = (evaluate(method, xi, taus) for method in ("lindblad", "analytic"))
        dev = lambda name: max(map(abs, map(sub, got[name], ref[name])))
        worst_c, worst_p = max(worst_c, dev("concurrence")), max(worst_p, dev("p_e0"), dev("p_g1"))
    measured = max(worst_c, worst_p)
    return [CheckResult(
        "lindblad_oracle_equivalence", 1e-6, measured,
        f"concurrence dev {worst_c:.3e}, population dev {worst_p:.3e} over xi={xis}",
    )]


def _check_lindblad_refinement(quick: bool, metadata: dict):
    p = ModelParams(xi=2.0)
    coarse, fine = (_lb.integrate(p, _axis(0.0, 6.0, n, "linear", "tau")) for n in (401, 801))
    # the fine grid splits every interval in two; compare at the shared samples
    measured = max(abs(x - y) for a, b in zip(coarse.rho, fine.rho[::2])
                   for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    return [CheckResult(
        "lindblad_interval_refinement", 1e-9, measured,
        "state shift between 401- and 801-sample grids on [0, 6] at xi=2",
    )]


def _check_multimode(quick: bool, metadata: dict):
    import numpy as np
    n_modes = 501 if quick else 2001
    taus = np.linspace(0.0, 3.0, 301)
    params = ModelParams(xi=2.0)
    bath = _mm.sample_bath(params, n_modes, DEFAULT_WINDOW)
    traj = _mm.evolve(bath, taus)
    ce, _ = analytic._amplitude_arrays(2.0, taus)
    track = float(np.abs(traj.p_e - np.abs(ce) ** 2).max())
    drift = traj.solver["norm_defect"]

    kern_taus, g2 = np.linspace(0.0, 5.0, 101), bath.couplings**2
    # one tau at a time, so no (len(kern_taus), N) phase matrix is ever built
    kern = np.array([np.exp(-1j * t * bath.detunings) @ g2 for t in kern_taus])
    kern_err = float(np.abs(kern - 4.0 * np.exp(-2.0 * kern_taus)).max() / 4.0)

    jc = _mm.DiscretizedBath(detunings=np.zeros(1), couplings=np.array([2.0]))
    jt = np.linspace(0.0, 2.0, 81)
    jtraj = _mm.evolve(jc, jt)
    jc_err = float(np.abs(jtraj.p_e - np.cos(2.0 * jt) ** 2).max())

    metadata["recurrence_horizon"] = {
        "n_modes": n_modes,
        "window": DEFAULT_WINDOW,
        "horizon": bath.recurrence_horizon,
        "note": (
            "discrete-bath accuracy claims hold only for tau well inside "
            "the Poincare recurrence horizon 2*pi/spacing"
        ),
    }
    return [
        CheckResult(
            "multimode_continuum_tracking", 5e-3, track,
            f"|c_e|^2 vs analytic, xi=2, N={n_modes}, W={DEFAULT_WINDOW}, tau<=3 "
            f"(horizon {bath.recurrence_horizon:.2f})",
        ),
        CheckResult(
            "multimode_norm_conservation", _mm.NORM_BUDGET, drift, "|norm-1| of the final state"
        ),
        CheckResult(
            "multimode_correlation_kernel", 1e-2, kern_err,
            "discrete bath kernel vs xi^2 exp(-2 tau), error relative to xi^2",
        ),
        CheckResult("multimode_jc_limit", 1e-9, jc_err, "single-mode bath vs cos^2(xi tau)"),
    ]


def _check_analytic(quick: bool, metadata: dict):
    xis = (1.05, 1.2, 2.0, 5.0, 20.0)
    worst = 0.0
    for xi in xis:
        # d(c_e0, c_g1)/dtau = (-i xi c_g1, -i xi c_e0 - 2 c_g1) gives, with
        # b = Im c_g1, dC/dtau = 2[xi (c_e0^2 - b^2) + 2 c_e0 b] wherever
        # c_e0 > 0 > b, as on [0, pi/(2w)]; its one sign change there is tau*
        def rising(t, xi=xi):
            (a,), (b,) = analytic._amplitude_arrays(xi, (t,))
            return xi * (a * a - b * b) + 2.0 * a * b > 0.0
        half_lobe = 0.5 * math.pi / math.sqrt((xi - 1.0) * (xi + 1.0))
        worst = max(worst, abs(analytic._t_opt(xi) - sideband._bisect(rising, 0.0, half_lobe)))
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
            "t_opt_formula_vs_numeric", 1e-14, worst,
            f"stationary-point formula against bisection to adjacent doubles on the sign of "
            f"the exact dC/dtau over [0, pi/(2w)], within 1e-14, xi={xis}",
        ),
        CheckResult("analytic_golden_points", 1e-9, golden, "frozen c_max / tau_opt at xi=1 and 2"),
    ]


def _check_cmax_shape(quick: bool, metadata: dict):
    n = 60 if quick else 200
    curve = cmax_curve(_axis(0.01, 100.0, n, "log", "xi"), spacing="log")
    xi, c, d = curve.xi, curve.c_max, curve.derivative
    explicit = max(abs((1.0 + math.sqrt(1.0 + x * x)) / x * math.exp(-2.0 * t) / v - 1.0)
                   for x, t, v in zip(xi, curve.tau_opt, c))
    cm = lambda x: analytic._optimum(x)[1]
    diff = lambda x, h: (cm(x + h) - cm(x - h)) / (2.0 * h)
    richardson = max(abs((4.0 * diff(x, 1.5e-3 * x) - diff(x, 3e-3 * x)) / 3.0 / v - 1.0)
                     for x, v in zip(xi, d))
    strong = 1e6 * (1.0 - cm(1e6)) / (math.pi / 2.0 - 1.0)
    weak = (1e-4 - cm(1e-4)) / 1e-4**3 / ((math.log(2.0 / 1e-4**2) - 0.5) / 2.0)
    return [
        CheckResult(
            "cmax_monotone_violations", 0.0, float(len(curve.violations)),
            f"steps of c_max down by more than 1e-13 over {n} log-spaced xi in [0.01, 100]",
        ),
        CheckResult("cmax_saturates_at_xi_100", 0.97, c[-1], "c_max(100), a floor", True),
        CheckResult("cmax_flattens_at_xi_100", 1e-3, d[-1], "exact dC_max/dxi at 100"),
        CheckResult("cmax_small_at_xi_0.01", 0.02, c[0], "c_max(0.01)"),
        CheckResult(
            "cmax_explicit_form_identity", 1e-13, explicit,
            "relative gap of (1+R)/xi exp(-2 tau*) to the amplitude route",
        ),
        CheckResult(
            "cmax_derivative_positive", 0.0, float(sum(v <= 0.0 for v in d)),
            f"grid points with dC_max/dxi <= 0; the smallest value is {min(d):.2e}",
        ),
        CheckResult(
            "cmax_derivative_vs_richardson", 1e-9, richardson,
            "relative gap to (4 D(h/2) - D(h))/3 of central differences, h = 3e-3 xi",
        ),
        CheckResult(
            "cmax_strong_coupling_asymptote", 1e-6, abs(strong - 1.0),
            "xi (1 - c_max) at xi = 1e6 against pi/2 - 1, relative",
        ),
        CheckResult(
            "cmax_weak_coupling_asymptote", 1e-6, abs(weak - 1.0),
            "(xi - c_max)/xi^3 at xi = 1e-4 against (ln(2/xi^2) - 1/2)/2, relative",
        ),
    ]


def _check_weak_coupling(quick: bool, metadata: dict):
    taus = _axis(0.0, 400.0, 401, "linear", "tau")
    traj = _lb.integrate(ModelParams(xi=0.05), taus)
    # the least-squares line through log p_e0 past tau = 50; its slope is -rate
    x, y = taus[50:], [math.log(p) for p in traj.p_e0[50:]]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    rate = -sum((a - xm) * (b - ym) for a, b in zip(x, y)) / sum((a - xm) ** 2 for a in x)
    measured = abs(rate - 0.05**2) / 0.05**2
    return [CheckResult(
        "weak_coupling_golden_rule", 0.05, measured,
        f"fitted decay rate {rate:.6f} vs xi^2 = 0.0025",
    )]


def _check_entanglement(quick: bool, metadata: dict):
    rng = random.Random(20240817)
    # one (tau, xi) pair per state: tau first, then xi
    pairs = [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 8.0)) for _ in range(60 if quick else 200)]
    worst = 0.0
    for tau, xi in pairs:
        (ce,), (cg,) = analytic._amplitude_arrays(xi, (tau,))
        rho = pure_to_density(PureAmplitudes(ce, 1j * cg))
        c = 2.0 * abs(ce) * abs(cg)
        worst = max(worst, abs(entanglement.wootters_concurrence(rho) - c),
                    abs(xstate_concurrence(rho) - c))
    return [CheckResult(
        "wootters_matches_closed_form", 1e-8, worst,
        "full Wootters and X-state shortcut vs 2|c_e0 c_g1| on random states",
    )]


def _check_bessel(quick: bool, metadata: dict):
    jn = sideband.bessel_jn
    frozen = max(  # J_n(x) from 30-digit arithmetic
        abs(jn(n, x) - ref)
        for n, x, ref in (
            (3, 2.0, 0.12894324947440206),
            (0, 8.9, -0.0652532468512444),
            (1, 8.9, 0.2559023714439759),
            (10, 9.1, 0.1324280490911943),
            (2, 12.0, -0.08493049487860481),
            (7, 12.0, -0.17025380412720806),
        )
    )
    recur = max(
        abs(jn(n - 1, x) + jn(n + 1, x) - (2.0 * n / x) * jn(n, x))
        for n in range(1, 11)
        for x in (0.5, 1.0, 2.0, 5.0, 10.0)
    )
    sumrule = max(
        abs(jn(0, x) ** 2 + 2.0 * sum(jn(k, x) ** 2 for k in range(1, 21)) - 1.0)
        for x in (0.5, 2.0, 5.0)
    )
    eps = sideband.solve_amplitude(g=2.5, nu=1.3, n=1, kappa=5.0, target_xi=1.0)
    lam = sideband.effective_coupling(sideband.SidebandConfig(g=2.5, epsilon=eps, nu=1.3, n=1))
    round_trip = abs(lam - 1.25) / 1.25
    return [
        CheckResult("bessel_frozen_values", 1e-12, frozen, "J_n against 30-digit values"),
        CheckResult(
            "bessel_three_term_recurrence", 1e-10, recur,
            "|J_(n-1) + J_(n+1) - (2n/x) J_n| for n = 1..10",
        ),
        CheckResult("bessel_sum_rule", 1e-10, sumrule, "|J_0^2 + 2 sum_(k<=20) J_k^2 - 1|"),
        CheckResult(
            "sideband_inversion_round_trip", 1e-14, round_trip,
            "relative lambda error of the drive solved for xi = 1, within 1e-14",
        ),
    ]


def _check_mutation(quick: bool, metadata: dict):
    taus = _axis(0.0, 3.0, 121, "linear", "tau")
    ref, _ = evaluate("analytic", 2.0, taus)
    try:
        traj = _lb.integrate(ModelParams(xi=2.0), taus, rhs_fn=_mutated_rhs)
        dev = max(map(abs, map(sub, traj.p_e0, ref["p_e0"])))
        detail = f"population deviation {dev:.3e} under sign-flipped coupling element"
    except Exception as exc:
        dev = float("inf")
        detail = f"mutated generator tripped the oracle invariants: {type(exc).__name__}"
    return [CheckResult("harness_detects_mutated_generator", 1e-3, dev, detail, floor=True)]


def _check_determinism(quick: bool, metadata: dict):
    xi, tau = _axis(0.5, 8.0, 4, "log", "xi"), _axis(0.0, 3.0, 61, "linear", "tau")
    grid = SweepGrid(xi, tau, "lindblad")
    # repr tells every two floats of different bits apart, but for NaN payloads
    runs = {repr(heatmap(grid, workers=w).concurrence) for w in (1, 1, 2)}
    return [CheckResult(
        "sweep_determinism_serial_parallel", 0.0, float(len(runs) - 1),
        "exact compare of the concurrence map across reruns and worker counts",
    )]


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
    """Run every cross-check; a crash inside a check is that check failing.

    Each check gets the report's metadata, to which the multimode one adds
    the recurrence horizon of the bath it samples.
    """
    import numpy  # noqa: F401  -- loaded before the clocks start, so no check is charged for it
    t0 = time.perf_counter()
    results, wall = [], {}
    metadata = {"artifact_version": __version__, "quick": quick}
    for producer in _CHECKS:
        start, done = time.perf_counter(), len(results)
        try:
            results.extend(producer(quick, metadata))
        except Exception as exc:
            results.append(CheckResult(
                producer.__name__.removeprefix("_check_"), float("nan"), float("inf"),
                f"check crashed: {type(exc).__name__}: {exc}",
            ))
        # the rows of one producer share its time; the rows themselves stay
        # free of timings, so a data section's bytes repeat run to run
        seconds = round(time.perf_counter() - start, 6)
        wall.update((r.name, seconds) for r in results[done:])
    metadata["check_wall_s"] = wall
    metadata["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return VerificationReport(checks=tuple(results), metadata=metadata)
