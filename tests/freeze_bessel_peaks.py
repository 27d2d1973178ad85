"""Write ``_bessel_peaks.py``: the first maximum of J_n for every order the
package supports, the first zero of J_n', from 30-digit mpmath.

Run ``python tests/freeze_bessel_peaks.py`` after changing ``MAX_ORDER``;
a rerun reproduces the committed table byte for byte.
"""
import pathlib

import mpmath

TABLE = pathlib.Path(__file__).with_name("_bessel_peaks.py")
ORDERS = range(1, 65)  # 1..sideband.MAX_ORDER


def first_peak(n: int) -> float:
    """The first positive zero of J_n', rounded once to a double."""
    with mpmath.workdps(30):
        return float(mpmath.besseljzero(n, 1, derivative=1))


def render() -> str:
    rows = "".join(f"    {n}: {first_peak(n)!r},\n" for n in ORDERS)
    return (
        '"""First maximum of J_n for n = 1..64, the first zero of J_n\', from\n'
        '30-digit mpmath.  Written by freeze_bessel_peaks.py; do not edit."""\n'
        f"FIRST_PEAKS = {{\n{rows}}}\n"
    )


if __name__ == "__main__":
    TABLE.write_text(render())
