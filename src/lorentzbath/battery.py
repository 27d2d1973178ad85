"""The verify battery: the producers of ``_CHECKS``, the records of their rows,
and :func:`run`, which runs them for ``sweep.verify``, those of
``_ARRAY_CHECKS`` in a forked helper.  No other command runs this module.
"""
from __future__ import annotations

import math
import os
import pickle
import random
import time
from operator import sub

from . import analytic, entanglement, sideband
from . import lindblad as _lb
from . import multimode as _mm
from ._version import DEFAULT_WINDOW, __version__
from .errors import _Record
from .model import DensityMatrix3, ModelParams, PureAmplitudes, pure_to_density, xstate_concurrence
from .sweep import SweepGrid, _axis, _mutated_rhs, cmax_curve, evaluate, heatmap


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
    states, wants = [], []
    for k, (tau, xi) in enumerate(pairs):
        (ce,), (cg,) = analytic._amplitude_arrays(xi, (tau,))
        rho = pure_to_density(PureAmplitudes(ce, 1j * cg))
        (p, c, _), (_, q, _), (_, _, j) = rho.matrix
        want = 2.0 * abs(ce) * abs(cg)
        if k % 2:  # add b (|psi><g,0| + h.c.), which b^2 <= p_g0 keeps positive
            b = 0.5 * math.sqrt(j.real)
            rho = DensityMatrix3(((p, c, b * ce), (c.conjugate(), q, 1j * b * cg),
                                  (b * ce, -1j * b * cg, j)))
        elif k % 4 == 2:  # a mixed {e0, g1} block: halving c keeps |c/2|^2 <= pq
            rho = DensityMatrix3(((p, 0.5 * c, 0j), (0.5 * c.conjugate(), q, 0j), (0j, 0j, j)))
            want *= 0.5
        states.append(rho)
        wants.append(want)
    # one LAPACK batch over the padded stack, each state as its own call would give
    full = entanglement._wootters(entanglement._padded(states)).tolist()
    worst = max(max(abs(f - want), abs(xstate_concurrence(rho) - want))
                for f, rho, want in zip(full, states, wants))
    return [CheckResult(
        "wootters_matches_closed_form", 1e-8, worst,
        "full Wootters and 2|rho_e0,g1| vs the closed form; 1/2 with |g,0> coherences, 1/4 mixed",
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
# the producers that build arrays: verify runs them in a forked helper, so
# numpy loads there, beside the scalar checks, and never in verify's process
_ARRAY_CHECKS = (_check_multimode, _check_entanglement)


# ------------------------------------------------------ running the battery


def run(quick: bool) -> VerificationReport:
    """The report of every producer of ``_CHECKS``, for ``sweep.verify``.

    The producers of ``_ARRAY_CHECKS`` run in one helper process, forked
    before any check starts; it imports numpy before its clocks start and
    sends its rows back through a pipe.  Meanwhile this process runs the
    other producers, numpy-free, and then merges all rows in ``_CHECKS``
    order.  A helper that dies before it has sent them all turns each of its
    producers into a ``check crashed`` row that says how it ended.  The helper is reaped on
    every path, and killed first if this process is interrupted.  Where
    ``os.fork`` does not exist, every producer runs here, in order.

    Each check gets a dict of its own, to which the multimode one adds the
    recurrence horizon of the bath it samples; the keys join the report's
    metadata in ``_CHECKS`` order.  ``check_wall_s`` holds the time of each
    producer, and ``wall_time_s`` the elapsed time of the whole battery,
    which, beside the helper, is less than their sum.
    """
    t0, payload = time.perf_counter(), None
    forked = [p for p in _CHECKS if p in _ARRAY_CHECKS and hasattr(os, "fork")]
    pid, pipe = _fork_helper(forked, quick) if forked else (None, None)
    try:
        runs = {p: _run_check(p, quick) for p in _CHECKS if p not in forked}
        if pid:
            payload = pipe.read()
    finally:
        if pid:
            pipe.close()
            if payload is None:  # interrupted: the helper's rows are no longer wanted
                import signal

                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if pid:
        runs.update(zip(forked, _helper_runs(forked, payload, status, time.perf_counter() - t0)))
    results, wall = [], {}
    metadata = {"artifact_version": __version__, "quick": quick}
    for producer in _CHECKS:
        rows, seconds, added = runs[producer]
        results.extend(rows)
        # the rows of one producer share its time; the rows themselves stay
        # free of timings, so a data section's bytes repeat run to run
        wall.update((r.name, seconds) for r in rows)
        metadata.update(added)
    metadata["check_wall_s"] = wall
    metadata["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return VerificationReport(checks=tuple(results), metadata=metadata)


def _run_check(producer, quick: bool) -> tuple:
    """One producer's rows, its seconds and the metadata it adds; a crash is one failing row."""
    added, start = {}, time.perf_counter()
    try:
        rows = list(producer(quick, added))
    except Exception as exc:
        rows = [_crashed(producer, f"{type(exc).__name__}: {exc}")]
    return rows, round(time.perf_counter() - start, 6), added


def _crashed(producer, why: str) -> CheckResult:
    name = producer.__name__.removeprefix("_check_")
    return CheckResult(name, float("nan"), float("inf"), f"check crashed: {why}")


def _fork_helper(producers: list, quick: bool):
    """Fork the helper that runs ``producers``: its pid and the read end of its pipe.

    The helper leaves by ``os._exit`` on every path, so it never returns into
    the caller's code nor flushes the caller's stdout: status 0 once it has
    written the pickled runs of ``producers``, 1 if anything raised first,
    after writing that traceback to stderr.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        os.close(read)
        import numpy  # noqa: F401  -- loaded before the clocks start, so no check is charged for it

        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps([_run_check(p, quick) for p in producers]))
        status = 0
    except Exception:  # an interrupt ends it silently, by the finally
        import sys
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _helper_runs(producers: list, payload: bytes, status: int, seconds: float) -> list:
    """The helper's runs, or, if it ended before it sent them, one crashed
    row per producer that says how it ended."""
    if status == 0 and payload:  # it exits 0 after writing them all, unless a check exited
        return pickle.loads(payload)
    how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
    return [([_crashed(p, f"verify helper {how}")], round(seconds, 6), {}) for p in producers]
