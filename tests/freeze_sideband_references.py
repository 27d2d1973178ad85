"""Write ``_sideband_references.py``: the mpmath references of the two
costliest sideband checks, from 30-digit mpmath.

- ``JN_AT``: J_k(x) at each reference order of the Miller recurrence, for
  the arguments in ``FROZEN_ARGS``, where mpmath takes ~30 ms an order.
- ``ROUND_TRIPS``: seeded random drives ``(n, g, nu, kappa, xi)``, each with
  the root mu* of 4 g J_n(mu) / kappa = xi below the first peak of J_n and
  the slope J_n'(mu*), both as 25-digit strings.

Run ``PYTHONPATH=src python tests/freeze_sideband_references.py`` after
changing ``sideband._miller_start``; a rerun reproduces the committed table
byte for byte.
"""
import pathlib

import mpmath
import numpy as np

from lorentzbath.sideband import MAX_ORDER, _miller_start

TABLE = pathlib.Path(__file__).with_name("_sideband_references.py")
FROZEN_ARGS = (2200.0,)
DRIVES = 300


def reference_orders(x: float) -> list:
    """Orders 0..8, then every 61st, and the recurrence's start."""
    top = _miller_start(0, x)
    return sorted({*range(9), *range(0, top + 1, 61), top})


def besselj(k: int, x: float) -> float:
    """J_k(x), rounded once to a double."""
    with mpmath.workdps(30):
        return float(mpmath.besselj(k, x))


def drives():
    """``DRIVES`` seeded draws of (n, g, nu, kappa, fraction of the first-peak ceiling)."""
    rng = np.random.default_rng(30)
    for _ in range(DRIVES):
        n = int(rng.integers(1, MAX_ORDER + 1))
        g, nu, kappa = (float(v) for v in rng.uniform(0.1, 10.0, size=3))
        yield n, g, nu, kappa, float(rng.uniform(0.01, 1.0))


def round_trip(n: int, g: float, nu: float, kappa: float, fraction: float) -> tuple:
    """One drive, its target xi, the rising-branch root mu* and J_n'(mu*)."""
    with mpmath.workdps(30):
        peak = mpmath.besseljzero(n, 1, derivative=1)
        xi = float(mpmath.mpf(fraction) * 4 * g * mpmath.besselj(n, peak) / kappa)
        target = mpmath.mpf(xi) * kappa / (4 * g)
        root = mpmath.findroot(lambda mu: mpmath.besselj(n, mu) - target, (0, peak),
                               solver="pegasus")
        slope = mpmath.besselj(n, root, derivative=1)
        return n, g, nu, kappa, xi, mpmath.nstr(root, 25), mpmath.nstr(slope, 25)


def render() -> str:
    orders = "".join(
        f"    {x!r}: {{\n"
        + "".join(f"        {k}: {besselj(k, x)!r},\n" for k in reference_orders(x))
        + "    },\n"
        for x in FROZEN_ARGS
    )
    trips = "".join(f"    {round_trip(*drive)!r},\n" for drive in drives())
    return (
        '"""mpmath references of the sideband tests, from 30-digit arithmetic.\n'
        'Written by freeze_sideband_references.py; do not edit."""\n'
        f"JN_AT = {{\n{orders}}}\n"
        f"ROUND_TRIPS = (\n{trips})\n"
    )


if __name__ == "__main__":
    TABLE.write_text(render())
