"""The four workloads: seeded argv for the real CLI, why each exists, what it loads.

A workload is a fixed list of ops.  An op is one ``python -m lorentzbath``
invocation; one pass runs the ops in order, each starting after the previous
one has exited (a closed loop with one client).  Sizes are fixed; the seed
only draws values inside the bands below.  Ranges are the CLI's documented
defaults, neither narrowed nor shifted, so the two closed-form defects in
ROADMAP item 2 (the critical-window jump and the tau<=10 search window) stay
reachable wherever the defaults reach them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from checks import bessel_peak


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple          # arguments after ``python -m lorentzbath``, without --out
    check: str           # key into checks.CHECKS
    corrupt: str         # column the corrupted-output self-test damages
    env: tuple = ()      # extra (name, value) pairs for the child environment
    same_data_as: str | None = None  # earlier op whose data must match this one

    @property
    def fmt(self) -> str:
        return "json" if "json" in self.argv else "csv"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str             # one line, also in BENCHMARK.json
    loads: str           # which layers it exercises, and which stay idle
    build: object        # random.Random -> list[Op]


def _num(x: float) -> str:
    return repr(round(x, 6))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _analytic_sweep(rng: random.Random) -> list:
    xi = _log_uniform(rng, 0.1, 10.0)
    g, kappa, nu = rng.uniform(1.0, 3.0), rng.uniform(2.0, 8.0), rng.uniform(0.8, 1.5)
    n = rng.choice((1, 2))
    epsilon = rng.uniform(0.5, 3.0) * nu
    # a reachable target: well below the first-peak ceiling 4 g max(J_n) / kappa
    target = rng.uniform(0.2, 0.9) * 4.0 * g * bessel_peak(n) / kappa
    drive = ("sideband", "--g", _num(g), "--kappa", _num(kappa), "--n", str(n), "--nu", _num(nu))
    return [
        Op("heatmap-csv", ("heatmap",), "heatmap_analytic", "concurrence"),
        Op("heatmap-json", ("heatmap", "--format", "json"), "heatmap_analytic",
           "concurrence", same_data_as="heatmap-csv"),
        Op("cmax", ("cmax",), "cmax", "c_max"),
        Op("cmax-golden", ("cmax", "--xi-min", "1", "--xi-max", "2", "--steps", "2",
                           "--scale", "linear"), "cmax_golden", "c_max"),
        Op("evolve", ("evolve", "--xi", _num(xi)), "evolve_analytic", "concurrence"),
        Op("sideband-forward", drive + ("--epsilon", _num(epsilon)), "sideband", "lambda"),
        Op("sideband-inverse", drive + ("--target-xi", _num(target)), "sideband", "lambda"),
    ]


# (band, low, high): Lindblad cost grows with xi, so each band is narrow
# enough that the seed moves a pass by a few percent at most.
LINDBLAD_BANDS = (
    ("overdamped", 0.3, 0.6),
    ("near-critical", 0.95, 1.05),
    ("underdamped", 2.0, 4.0),
    ("strong", 18.0, 22.0),
)
LINDBLAD_GRID = ("heatmap", "--method", "lindblad", "--xi-steps", "16", "--tau-steps", "61")


def _lindblad_oracle(rng: random.Random) -> list:
    ops = [
        Op(f"evolve-{band}", ("evolve", "--method", "lindblad", "--xi", _num(rng.uniform(lo, hi))),
           "evolve_lindblad", "concurrence")
        for band, lo, hi in LINDBLAD_BANDS
    ]
    ops.append(Op("heatmap-serial", LINDBLAD_GRID, "heatmap_lindblad", "concurrence"))
    ops.append(Op("heatmap-2workers", LINDBLAD_GRID, "heatmap_lindblad", "concurrence",
                  env=(("LORENTZBATH_WORKERS", "2"),), same_data_as="heatmap-serial"))
    return ops


def _continuum_oracle(rng: random.Random) -> list:
    # Both shapes stay well inside the recurrence horizon 2 pi / spacing:
    # 39 for W=40, N=2001 and 157 for W=5, N=1001.
    wide = ("evolve", "--method", "multimode", "--xi", _num(rng.uniform(1.5, 3.0)),
            "--n-modes", "2001", "--window", "40", "--tau-max", _num(rng.uniform(2.7, 3.0)))
    narrow = ("evolve", "--method", "multimode", "--xi", _num(rng.uniform(0.2, 0.4)),
              "--n-modes", "1001", "--window", "5", "--tau-max", _num(rng.uniform(95.0, 100.0)))
    return [
        Op("evolve-wide-short", wide, "evolve_multimode", "p_e0"),
        Op("evolve-narrow-long", narrow, "evolve_multimode", "p_e0"),
    ]


def _verify_battery(rng: random.Random) -> list:
    # the battery's inputs are fixed by the program; the seed does not apply
    return [Op("verify", ("verify", "--full", "--format", "json"), "verify", "status")]


WORKLOADS = {w.name: w for w in (
    Workload(
        "analytic-sweep",
        "everyday closed-form path: import, CSV/JSON formatting and the c_max golden search; both oracles idle",
        "cli formatting (cli._cell), analytic._amplitude_arrays and analytic.c_max, "
        "sideband.bessel_jn; lindblad, multimode and entanglement stay idle, so "
        "changes to them must not move it.  JSON beside CSV shows a formatting "
        "change that helps one format and costs the other.",
        _analytic_sweep,
    ),
    Workload(
        "lindblad-oracle",
        "DP5 Lindblad oracle per xi band plus a 16x61 Lindblad heatmap, serial and with 2 workers",
        "lindblad.integrate and its generator rhs, per-sample validation in "
        "model.DensityMatrix3, the sweep process pool; little formatting.",
        _lindblad_oracle,
    ),
    Workload(
        "continuum-oracle",
        "RK4 multimode oracle on a wide-short bath (W=40, N=2001) and a narrow-long one (W=5, N=1001, tau~100)",
        "multimode.evolve and multimode.sample_bath.  RK4 costs N*W*tau, a "
        "secular solver N^2, so each shape favours one method.",
        _continuum_oracle,
    ),
    Workload(
        "verify-battery",
        "verify --full: the only user of entanglement, and many short Lindblad runs with an injected rhs_fn",
        "every layer once; the only caller of entanglement.wootters_concurrence; "
        "lindblad through many short runs, so per-run setup cost shows here and "
        "not in lindblad-oracle.",
        _verify_battery,
    ),
)}


# What each planned ROADMAP change should do to wall_s, written down before
# any of them is made.  "moves" lists the workloads whose wall_s should drop;
# "stays" those that must not change beyond their bound.
PREDICTIONS = {
    "item 2: closed form without the critical branch": {
        "moves": [],
        "stays": ["analytic-sweep", "lindblad-oracle", "continuum-oracle", "verify-battery"],
        "note": "a correctness change; analytic.points and analytic.amplitude_arrays.calls "
                "may shift on analytic-sweep, wall_s should not",
    },
    "item 3: secular-equation continuum oracle": {
        "moves": ["continuum-oracle", "verify-battery"],
        "stays": ["analytic-sweep", "lindblad-oracle"],
        "note": "multimode.evolve.s falls most on evolve-narrow-long (RK4 N*W*tau vs N^2)",
    },
    "item 4: Liouvillian matvec Lindblad solver": {
        "moves": ["lindblad-oracle", "verify-battery"],
        "stays": ["analytic-sweep", "continuum-oracle"],
        "note": "lindblad.rhs.us_per_call and lindblad.rhs_per_sample fall; "
                "model.validate.calls halves when samples are validated once",
    },
    "item 5: vectorised CSV cells and one path per concept": {
        "moves": ["analytic-sweep"],
        "stays": ["lindblad-oracle", "continuum-oracle", "verify-battery"],
        "note": "cli.ns_per_cell falls on heatmap-csv; heatmap-json must not slow; "
                "src.lines falls",
    },
}
