"""Output parsing, independent references and the per-op correctness checks.

Nothing here imports lorentzbath: every reference is computed from its own
derivation, so a defect in the package cannot hide by agreeing with itself.

* Closed form: the no-jump amplitudes solve d/dtau (c_e, c_g) = M (c_e, c_g)
  with M = [[0, -i xi], [-i xi, -2]], so (c_e, c_g) is the first column of
  exp(M tau).  For a 2x2 matrix, Cayley-Hamilton gives
  exp(A) = exp(tr/2) [cosh(s) I + sinh(s)/s (A - tr/2 I)] with
  s^2 = tr^2/4 - det, evaluated here in complex arithmetic, which covers the
  under-, over- and critically damped cases on one path.
* Bessel J_n: the trapezoid rule on the periodic integral
  J_n(x) = (1/2 pi) int_0^{2 pi} cos(n t - x sin t) dt, which converges
  geometrically in the number of nodes.

Only data rows are compared.  Metadata carries wall_time_s, workers and the
--out path, which differ between runs of the same input.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Budgets taken from the repository's own tests and verify battery; none is
# loosened here.
CLOSED_FORM_TOL = 1e-12   # tests/test_analytic.py, closed form vs ODE oracle
LINDBLAD_TOL = 1e-6       # lindblad_oracle_equivalence
CONTINUUM_TOL = 5e-3      # multimode_continuum_tracking
GOLDEN_TOL = 1e-9         # analytic_golden_points
CRITICAL_TAU_TOL = 1e-6   # analytic_golden_points, flat-top position at xi=1
MONOTONE_SLACK = 1e-13    # sweep.cmax_curve violation threshold
BESSEL_TOL = 1e-10        # bessel_and_sideband_consistency, recurrence budget
ROUND_TRIP_TOL = 1e-9     # bessel_and_sideband_consistency, inversion round trip

GOLDEN_CMAX_1 = 0.58693571751093799
GOLDEN_CMAX_2 = 0.75593276364720863
GOLDEN_TAU_2 = 0.38050733439596325


# ------------------------------------------------------------- references


def ref_amplitudes(xi, tau):
    """(c_e0, c_g1) from the 2x2 matrix exponential; broadcasts xi and tau."""
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    s = tau * np.sqrt(((1.0 - xi) * (1.0 + xi)).astype(complex))
    small = np.abs(s) < 1e-4
    s_safe = np.where(small, 1.0, s)
    sinhc = np.where(small, 1.0 + s * s / 6.0 + s**4 / 120.0, np.sinh(s_safe) / s_safe)
    env = np.exp(-tau)
    return env * (np.cosh(s) + tau * sinhc), -1j * xi * tau * env * sinhc


def ref_concurrence(xi, tau):
    ce, cg = ref_amplitudes(xi, tau)
    return 2.0 * np.abs(ce) * np.abs(cg)


_BESSEL_NODES = np.arange(256) * (2.0 * math.pi / 256)


def ref_bessel(n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    phase = n * _BESSEL_NODES - np.multiply.outer(x, np.sin(_BESSEL_NODES))
    return np.cos(phase).mean(axis=-1)


def bessel_peak(n: int) -> float:
    """Value of the first maximum of J_n on x > 0, from a fine grid (a lower bound)."""
    grid = np.linspace(1e-3, n + 8.0, 2001)
    return float(ref_bessel(n, grid).max())


# ---------------------------------------------------------------- parsing


@dataclass(frozen=True)
class Table:
    metadata: dict
    columns: list
    rows: list
    data_text: str  # the bytes of the data section, for byte comparisons

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([float(r[i]) for r in self.rows])


def _cell(raw: str):
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_output(text: str, fmt: str) -> Table:
    if fmt == "json":
        payload = json.loads(text)
        meta = payload["metadata"]
        return Table(meta, list(meta["columns"]), payload["data"],
                     text[text.index('"data":'):])
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = json.loads(val)
        else:
            body.append(line)
    rows = [[_cell(c) for c in line.split(",")] for line in body[1:]]
    return Table(meta, body[0].split(","), rows, "\n".join(body))


def corrupt(text: str, fmt: str, column: str) -> str:
    """Damage one data cell of the middle row, the way a wrong kernel would."""
    if fmt == "json":
        payload = json.loads(text)
        rows, cols = payload["data"], payload["metadata"]["columns"]
    else:
        lines = text.splitlines()
        first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        cols = lines[first].split(",")
        rows = [ln.split(",") for ln in lines[first + 1:]]
    row, j = rows[len(rows) // 2], cols.index(column)
    if row[j] == "pass":
        row[j] = "FAIL"
    else:
        v = float(row[j])
        row[j] = v + 1e-2 * (1.0 + abs(v))
        if fmt != "json":
            row[j] = "%.17g" % row[j]
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join(lines[:first + 1] + [",".join(r) for r in rows]) + "\n"


# ------------------------------------------------------------------ checks


def _flag(argv, name: str, default=None):
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else default


def _within(problems: list, what: str, got, want, tol: float):
    dev = np.abs(np.asarray(got) - np.asarray(want))
    worst = float(np.max(dev)) if dev.size else 0.0
    if not np.all(dev <= tol):  # also catches NaN
        problems.append(f"{what} off by {worst:.3e} (budget {tol:.0e})")


def _rows(problems: list, table: Table, expected: int):
    if len(table.rows) != expected:
        problems.append(f"{len(table.rows)} data rows, expected {expected}")
        return False
    return True


def _evolve_taus(argv) -> np.ndarray:
    return np.linspace(0.0, float(_flag(argv, "--tau-max", 3.0)),
                       int(_flag(argv, "--steps", 301)))


def check_heatmap(argv, t: Table, tol: float) -> list:
    p = []
    expect = int(_flag(argv, "--xi-steps", 81)) * int(_flag(argv, "--tau-steps", 301))
    if _rows(p, t, expect):
        conc = t.column("concurrence")
        _within(p, "concurrence", conc, ref_concurrence(t.column("xi"), t.column("tau")), tol)
    return p


def check_heatmap_analytic(argv, t):
    return check_heatmap(argv, t, CLOSED_FORM_TOL)


def check_heatmap_lindblad(argv, t):
    return check_heatmap(argv, t, LINDBLAD_TOL)


def check_cmax(argv, t: Table) -> list:
    p = []
    if not _rows(p, t, int(_flag(argv, "--steps", 200))):
        return p
    xi, tau, c = t.column("xi"), t.column("tau_opt"), t.column("c_max")
    if np.any(np.diff(c) < -MONOTONE_SLACK):
        p.append("c_max decreases between neighbouring xi")
    _within(p, "c_max vs reference at tau_opt", c, ref_concurrence(xi, tau), CLOSED_FORM_TOL)
    # no tau in [0, 12] may beat the reported maximum (the optimum lies
    # below tau=5 for every xi >= 0.01)
    scan = ref_concurrence(xi[:, None], np.linspace(0.0, 12.0, 4001)[None, :]).max(axis=1)
    if not np.all(c >= scan - CLOSED_FORM_TOL):
        p.append(f"c_max below a scanned value by {float((scan - c).max()):.3e}")
    if not {r[t.columns.index("source")] for r in t.rows} <= {"formula", "numeric"}:
        p.append("unknown source label")
    return p


def check_cmax_golden(argv, t: Table) -> list:
    p = check_cmax(argv, t)
    if p:
        return p
    (x1, t1, c1), (x2, t2, c2) = zip(t.column("xi"), t.column("tau_opt"), t.column("c_max"))
    if (x1, x2) != (1.0, 2.0):
        return [f"grid is ({x1!r}, {x2!r}), expected (1.0, 2.0)"]
    _within(p, "c_max(1)", c1, GOLDEN_CMAX_1, GOLDEN_TOL)
    _within(p, "c_max(2)", c2, GOLDEN_CMAX_2, GOLDEN_TOL)
    _within(p, "tau_opt(2)", t2, GOLDEN_TAU_2, GOLDEN_TOL)
    _within(p, "tau_opt(1)", t1, 2.0**-0.5, CRITICAL_TAU_TOL)
    return p


def check_evolve_analytic(argv, t: Table) -> list:
    p = []
    taus = _evolve_taus(argv)
    if not _rows(p, t, len(taus)):
        return p
    ce, cg = ref_amplitudes(float(_flag(argv, "--xi")), taus)
    _within(p, "tau grid", t.column("tau"), taus, 0.0)
    _within(p, "c_e0", t.column("c_re_e0") + 1j * t.column("c_im_e0"), ce, CLOSED_FORM_TOL)
    _within(p, "c_g1", t.column("c_re_g1") + 1j * t.column("c_im_g1"), cg, CLOSED_FORM_TOL)
    _within(p, "p_e0", t.column("p_e0"), np.abs(ce) ** 2, CLOSED_FORM_TOL)
    _within(p, "p_g1", t.column("p_g1"), np.abs(cg) ** 2, CLOSED_FORM_TOL)
    _within(p, "p_g0", t.column("p_g0"), 1.0 - np.abs(ce) ** 2 - np.abs(cg) ** 2, CLOSED_FORM_TOL)
    _within(p, "concurrence", t.column("concurrence"), 2 * np.abs(ce) * np.abs(cg), CLOSED_FORM_TOL)
    return p


def check_evolve_lindblad(argv, t: Table) -> list:
    p = []
    taus = _evolve_taus(argv)
    if not _rows(p, t, len(taus)):
        return p
    ce, cg = ref_amplitudes(float(_flag(argv, "--xi")), taus)
    pe, pg, pg0 = t.column("p_e0"), t.column("p_g1"), t.column("p_g0")
    _within(p, "p_e0", pe, np.abs(ce) ** 2, LINDBLAD_TOL)
    _within(p, "p_g1", pg, np.abs(cg) ** 2, LINDBLAD_TOL)
    _within(p, "trace", pe + pg + pg0, 1.0, LINDBLAD_TOL)
    _within(p, "survival", t.column("survival"), pe + pg, CLOSED_FORM_TOL)
    _within(p, "concurrence", t.column("concurrence"), 2 * np.abs(ce) * np.abs(cg), LINDBLAD_TOL)
    return p


def check_evolve_multimode(argv, t: Table) -> list:
    p = []
    taus = _evolve_taus(argv)
    if not _rows(p, t, len(taus)):
        return p
    ce, _ = ref_amplitudes(float(_flag(argv, "--xi")), taus)
    pe = t.column("p_e0")
    _within(p, "p_e0 vs |c_e0|^2", pe, np.abs(ce) ** 2, CONTINUUM_TOL)
    _within(p, "p_g1", t.column("p_g1"), 1.0 - pe, CLOSED_FORM_TOL)
    _within(p, "concurrence", t.column("concurrence"),
            2.0 * np.sqrt(pe * np.clip(1.0 - pe, 0.0, None)), CLOSED_FORM_TOL)
    return p


def check_sideband(argv, t: Table) -> list:
    p = []
    if not _rows(p, t, 1):
        return p
    g, kappa, nu = (float(_flag(argv, f)) for f in ("--g", "--kappa", "--nu"))
    n = int(_flag(argv, "--n"))
    row = dict(zip(t.columns, t.rows[0]))
    mu = row["epsilon"] / nu
    lam = g * float(ref_bessel(n, mu))
    _within(p, "mu", row["mu"], mu, 1e-15 * max(1.0, mu))
    _within(p, "lambda", row["lambda"], lam, BESSEL_TOL * g)
    target = _flag(argv, "--target-xi")
    if target is None:
        _within(p, "xi", row["xi"], 4.0 * abs(row["lambda"]) / kappa, 1e-14 * max(1.0, row["xi"]))
    else:
        target = float(target)
        _within(p, "round trip xi", 4.0 * lam / kappa, target, ROUND_TRIP_TOL * target)
        # smallest drive: J_n must still be rising at the solution
        if not float(ref_bessel(n - 1, mu) - ref_bessel(n + 1, mu)) > 0.0:
            p.append(f"mu={mu} lies past the first maximum of J_{n}")
    return p


def check_verify(argv, t: Table) -> list:
    p = []
    if t.metadata.get("overall") != "pass":
        p.append(f"overall is {t.metadata.get('overall')!r}")
    status = t.columns.index("status")
    failed = [r[0] for r in t.rows if r[status] != "pass"]
    if failed or not t.rows:
        p.append(f"checks not passing: {failed or 'none reported'}")
    return p


CHECKS = {f.__name__.removeprefix("check_"): f for f in (
    check_heatmap_analytic, check_heatmap_lindblad, check_cmax, check_cmax_golden,
    check_evolve_analytic, check_evolve_lindblad, check_evolve_multimode,
    check_sideband, check_verify,
)}


def same_data(a: Table, b: Table, same_format: bool) -> list:
    """Serial vs parallel must match byte for byte; CSV vs JSON value for value."""
    if same_format:
        return [] if a.data_text == b.data_text else ["data section differs byte-wise"]
    return [] if a.rows == b.rows else ["data rows differ between formats"]
