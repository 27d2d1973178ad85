"""Headline acceptance checks for the whole laboratory.

Eleven numbered criteria, one test (and one printed measured-vs-budget line)
each, covering: oracle equivalence of the closed form against both dynamical
oracles, the golden optimum points, monotonicity and saturation of the
C_max curve, both coupling limits, the stationarity of the optimum formula,
concurrence equivalence, structural invariants, the Bessel layer, and
byte-level determinism of the sweep outputs.

Run with ``pytest -v tests/test_acceptance.py``; add ``-s`` to see the
measured figures on passing runs too.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lorentzbath import analytic, sweep
from lorentzbath import lindblad as lb
from lorentzbath import multimode as mm
from lorentzbath.entanglement import wootters_concurrence
from lorentzbath.model import ModelParams, PureAmplitudes, pure_to_density
from lorentzbath.sideband import SidebandConfig, bessel_jn, effective_coupling, solve_amplitude

from _oracles import golden_section_max

from _oracles import series_jn

XI_SET = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
STUDY_WINDOW = 60.0
# refinement study: the window grows with the mode count, N = 16 W + 1
W_STUDY = (10.0, 20.0, 40.0, 80.0, 160.0)
N_STUDY = tuple(int(16 * w) + 1 for w in W_STUDY)


def _line(criterion: str, measured, budget, extra: str = ""):
    tail = f"  ({extra})" if extra else ""
    print(f"[{criterion}] measured {measured} vs budget {budget}{tail}")


@pytest.fixture(scope="module")
def lindblad_runs():
    taus = np.linspace(0.0, 6.0, 401)
    runs = {}
    for xi in XI_SET:
        runs[xi] = lb.integrate(ModelParams(xi=xi), taus)
    return taus, runs


@pytest.fixture(scope="module")
def multimode_runs():
    taus = np.linspace(0.0, 3.0, 301)
    runs = {}
    for n, w in [(4001, STUDY_WINDOW), *zip(N_STUDY, W_STUDY)]:
        bath = mm.sample_bath(ModelParams(xi=2.0), n_modes=n, window=w)
        runs[n] = mm.evolve(bath, taus)
    return taus, runs


@pytest.fixture(scope="module")
def cmax_curve_200():
    return sweep.cmax_curve(np.geomspace(0.01, 100.0, 200), spacing="log")


def test_01_lindblad_oracle_equivalence(lindblad_runs):
    taus, runs = lindblad_runs
    worst = 0.0
    for xi, traj in runs.items():
        ce, cg = analytic._amplitude_arrays(xi, taus)
        dev = np.abs(traj.concurrences - 2.0 * np.abs(ce) * np.abs(cg)).max()
        worst = max(worst, float(dev))
    _line("criterion 01: closed form vs damped-mode oracle", f"{worst:.3e}", "1e-6")
    assert worst < 1e-6


def test_02_continuum_equivalence_headline(multimode_runs):
    taus, runs = multimode_runs
    ce, _ = analytic._amplitude_arrays(2.0, taus)
    dev = float(np.abs(runs[4001].p_e - np.abs(ce) ** 2).max())
    _line(
        "criterion 02: closed form vs continuum oracle",
        f"{dev:.3e}", "5e-3", f"N=4001, W={STUDY_WINDOW}",
    )
    assert dev < 5e-3


def test_02_continuum_error_decreases_with_n(multimode_runs):
    # at a fixed window the error stops on a floor the window sets (~2e-7 at
    # W = 60), so the window is refined with the mode count
    taus, runs = multimode_runs
    ce, _ = analytic._amplitude_arrays(2.0, taus)
    errs = [float(np.abs(runs[n].p_e - np.abs(ce) ** 2).max()) for n in N_STUDY]
    _line(
        "criterion 02: refinement study",
        "[" + ", ".join(f"{e:.3e}" for e in errs) + "]",
        f"falling at least 4x per step over N in {N_STUDY}, W in {W_STUDY}",
    )
    assert all(4.0 * errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_03_golden_optimum_points():
    critical = analytic.c_max(ModelParams(xi=1.0))
    osc = analytic.c_max(ModelParams(xi=2.0))
    _line(
        "criterion 03: golden optimum points",
        f"C(1)={critical.c_max:.5f}@{critical.tau_opt:.5f}, "
        f"C(2)={osc.c_max:.5f}@{osc.tau_opt:.5f}",
        "0.58694/0.70711 and 0.75597/0.38051",
    )
    assert critical.c_max == pytest.approx(0.58694, abs=1e-4)
    assert critical.tau_opt == pytest.approx(0.70711, abs=1e-4)
    assert osc.c_max == pytest.approx(0.75597, abs=1e-3)
    assert osc.tau_opt == pytest.approx(0.38051, abs=1e-4)


def test_04_monotonicity_and_saturation(cmax_curve_200):
    curve = cmax_curve_200
    saturation = float(curve.c_max[-1])
    d_low, d_high = sweep.cmax_curve([0.5, 50.0]).derivative
    _line(
        "criterion 04: monotone growth and saturation",
        f"violations={len(curve.violations)}, C(100)={saturation:.4f}, "
        f"dC/dxi {d_low:.3e}->{d_high:.3e}",
        "0 violations, >=0.97, positive and flattening",
    )
    assert curve.violations == ()
    assert saturation >= 0.97
    assert min(curve.derivative) > 0.0
    assert d_low > 0.0 and d_high > 0.0
    assert d_high < d_low


def test_05_strong_coupling_limit():
    xi = 50.0
    rec = analytic.c_max(ModelParams(xi=xi))
    w = math.sqrt(xi * xi - 1.0)
    dev_w = abs(rec.tau_opt - math.pi / (4.0 * w)) / (math.pi / (4.0 * w))
    dev_xi = abs(rec.tau_opt - math.pi / (4.0 * xi)) / (math.pi / (4.0 * xi))
    _line(
        "criterion 05: strong-coupling first maximum",
        f"tau_opt={rec.tau_opt:.8f} off undamped pi/4-crossing by "
        f"{dev_w:.2%}/{dev_xi:.2%}, C={rec.c_max:.5f}",
        "within 2%, C >= 0.94",
    )
    assert dev_w < 0.02
    assert dev_xi < 0.02
    assert rec.c_max >= 0.94


def test_06_weak_coupling_markov_limit():
    xi = 0.05
    horizon = 2.0 / xi**2
    taus = np.linspace(0.0, horizon, 401)
    traj = lb.integrate(ModelParams(xi=xi), taus)
    rate_lb = float(-np.polyfit(taus, np.log(traj.p_e0), 1)[0])

    bath = mm.sample_bath(ModelParams(xi=xi), n_modes=6001, window=5.0)
    assert bath.recurrence_horizon > horizon
    m_taus = np.linspace(0.0, horizon, 201)
    m_traj = mm.evolve(bath, m_taus)
    rate_mm = float(-np.polyfit(m_taus, np.log(m_traj.p_e), 1)[0])

    dev_lb = abs(rate_lb - xi * xi) / (xi * xi)
    dev_mm = abs(rate_mm - xi * xi) / (xi * xi)
    _line(
        "criterion 06: golden-rule decay rate",
        f"damped-mode {rate_lb:.6f} ({dev_lb:.2%}), continuum {rate_mm:.6f} ({dev_mm:.2%})",
        "xi^2 = 0.0025 within 5%",
    )
    assert dev_lb < 0.05
    assert dev_mm < 0.05


def test_07_optimum_formula_stationarity():
    worst_slope = worst_gap = 0.0
    h = 1e-5
    for xi in (1.2, 2.0, 5.0, 10.0, 50.0):
        params = ModelParams(xi=xi)
        tf = analytic.t_opt_formula(params)
        slope = (
            analytic.concurrence(params, tf + h) - analytic.concurrence(params, tf - h)
        ) / (2.0 * h)
        lobe = math.pi / math.sqrt((xi - 1.0) * (xi + 1.0))
        conc = lambda t: analytic.concurrence(params, t)
        gap = abs(tf - golden_section_max(conc, 0.0, lobe, 1e-10))
        worst_slope = max(worst_slope, abs(slope))
        worst_gap = max(worst_gap, gap)
    _line(
        "criterion 07: optimum-time formula",
        f"|dC/dtau| {worst_slope:.3e}, |formula-numeric| {worst_gap:.3e}",
        "both < 1e-6",
    )
    assert worst_slope < 1e-6
    assert worst_gap < 1e-6


def test_08_concurrence_equivalence():
    rng = np.random.default_rng(757575)
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.0, 1.0)
        split = rng.uniform(0.0, 1.0)
        pha, phb = rng.uniform(0.0, 2.0 * np.pi, size=2)
        psi = PureAmplitudes(
            c_e0=np.sqrt(r * split) * np.exp(1j * pha),
            c_g1=np.sqrt(r * (1.0 - split)) * np.exp(1j * phb),
        )
        rho = pure_to_density(psi)
        full = wootters_concurrence(rho)
        worst = max(worst, abs(full - 2.0 * abs(rho.coherence)))
    _line("criterion 08: Wootters vs coherence shortcut", f"{worst:.3e}", "1e-10")
    assert worst < 1e-10


def test_09_structural_invariants(lindblad_runs, multimode_runs):
    _, runs = lindblad_runs
    worst_trace = worst_eig = 0.0
    for traj in runs.values():
        for state in traj.states:
            worst_trace = max(worst_trace, abs(np.trace(state.matrix).real - 1.0))
            worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(state.matrix).min()))
    _, m_runs = multimode_runs
    worst_norm = max(traj.solver["norm_defect"] for traj in m_runs.values())
    _line(
        "criterion 09: structural invariants",
        f"trace {worst_trace:.3e}, -eigmin {worst_eig:.3e}, norm {worst_norm:.3e}",
        "all within 1e-9",
    )
    assert worst_trace < 1e-9
    assert worst_eig < 1e-9
    assert worst_norm < 1e-9


def test_10_bessel_layer():
    series_dev = max(
        abs(bessel_jn(n, x) - series_jn(n, x))
        for n in range(11)
        for x in (0.1, 0.5, 1.0, 2.0, 5.0)
    )
    recur_dev = max(
        abs(bessel_jn(n - 1, x) + bessel_jn(n + 1, x) - (2.0 * n / x) * bessel_jn(n, x))
        for n in range(1, 11)
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 12.0)
    )
    g, nu, kappa = 2.5, 1.3, 5.0
    eps = solve_amplitude(g=g, nu=nu, n=1, kappa=kappa, target_xi=1.0)
    lam = effective_coupling(SidebandConfig(g=g, epsilon=eps, nu=nu, n=1))
    round_trip = abs(lam - 1.0 * kappa / 4.0) / (kappa / 4.0)
    _line(
        "criterion 10: Bessel layer",
        f"series {series_dev:.3e}, recurrence {recur_dev:.3e}, round trip {round_trip:.3e}",
        "1e-12 / 1e-10 / 1e-9",
    )
    assert series_dev < 1e-12
    assert recur_dev < 1e-10
    assert round_trip < 1e-9


def test_11_sweep_determinism():
    grid = sweep.SweepGrid(
        xi_values=np.geomspace(0.5, 8.0, 4),
        tau_values=np.linspace(0.0, 3.0, 41),
        method="lindblad",
        xi_spacing="log",
        tau_spacing="linear",
    )
    blobs = [repr(sweep.heatmap(grid, workers=w).concurrence) for w in (1, 1, 2)]
    library_stable = blobs[0] == blobs[1] == blobs[2]

    argv = [
        sys.executable, "-m", "lorentzbath", "heatmap",
        "--xi-min", "0.5", "--xi-max", "4.0", "--xi-steps", "3",
        "--tau-max", "2.0", "--tau-steps", "21", "--method", "lindblad",
    ]
    sections = []
    for workers in ("1", "3"):
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            env={**os.environ, sweep.WORKERS_ENV: workers},
        )
        assert proc.returncode == 0
        sections.append(
            [l for l in proc.stdout.splitlines() if not l.startswith("# ")]
        )
    cli_stable = sections[0] == sections[1]
    _line(
        "criterion 11: byte-identical sweep output",
        f"library={'stable' if library_stable else 'DRIFT'}, "
        f"cli={'stable' if cli_stable else 'DRIFT'}",
        "identical across reruns and worker counts",
    )
    assert library_stable
    assert cli_stable
