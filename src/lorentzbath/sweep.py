"""Sweep engine: concurrence grids, the C_max curve, and the verify driver.

:func:`evaluate` computes one xi by any method; ``evolve`` takes its columns
from it, and each heatmap row its concurrence, past the guards its grid ran.

Grid points are independent, so the heatmap fans rows out over processes
when asked to (``LORENTZBATH_WORKERS`` or an explicit ``workers=``); the
aggregation order is fixed by the grid, never by completion order, so the
emitted data is byte-identical serial or parallel.

Grids, rows and curves are tuples of floats: numpy loads only where the
multimode oracle or a verify check builds an array.  The checks live in
``battery``, which only :func:`verify` runs.
"""
from __future__ import annotations

import math
import os
import time
from itertools import chain
from operator import add

from . import analytic, battery
from . import lindblad as _lb
from . import multimode as _mm
from ._version import DEFAULT_N_MODES, DEFAULT_WINDOW, METHODS, WORKERS_ENV, __version__
from .errors import DomainError, _Record, _sample_times, _xi_values
from .model import ModelParams


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


# ----------------------------------- the verify driver over ``battery._CHECKS``


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


def verify(quick: bool = False) -> battery.VerificationReport:
    """Run every cross-check; a crash inside a check is that check failing.

    Each check gets the report's metadata, to which the multimode one adds
    the recurrence horizon of the bath it samples.
    """
    import numpy  # noqa: F401  -- loaded before the clocks start, so no check is charged for it
    t0 = time.perf_counter()
    results, wall = [], {}
    metadata = {"artifact_version": __version__, "quick": quick}
    for producer in battery._CHECKS:
        start, done = time.perf_counter(), len(results)
        try:
            results.extend(producer(quick, metadata))
        except Exception as exc:
            results.append(battery.CheckResult(
                producer.__name__.removeprefix("_check_"), float("nan"), float("inf"),
                f"check crashed: {type(exc).__name__}: {exc}",
            ))
        # the rows of one producer share its time; the rows themselves stay
        # free of timings, so a data section's bytes repeat run to run
        seconds = round(time.perf_counter() - start, 6)
        wall.update((r.name, seconds) for r in results[done:])
    metadata["check_wall_s"] = wall
    metadata["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return battery.VerificationReport(checks=tuple(results), metadata=metadata)
