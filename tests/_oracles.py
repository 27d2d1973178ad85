"""Small independent reference implementations used only by the tests.

These deliberately avoid the package's own code paths: the Bessel oracle is
a plain compensated-sum power series, the amplitude oracle integrates the
two no-jump ODEs with tiny fixed RK4 steps, and the optimum oracle is a
one-point-at-a-time golden-section search.  Simple on purpose.
"""
import math

import numpy as np


def series_jn(n: int, x: float) -> float:
    """Ascending series for J_n, compensated summation, small |x| only."""
    terms = []
    half = 0.5 * x
    coeff = half**n / math.factorial(n)
    for m in range(0, 60):
        terms.append(coeff)
        coeff *= -(half * half) / ((m + 1) * (n + m + 1))
    return math.fsum(terms)


def golden_section_max(f, a: float, b: float, tol: float) -> float:
    """Textbook golden-section search for the maximum of f on [a, b]."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - r * (b - a)
    d = a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def amplitudes_by_ode(xi: float, tau: float, steps_per_unit: int = 200_000):
    """No-jump amplitudes by n tiny fixed RK4 steps on the 2x2 effective system.

    The system is linear, so one RK4 step is the matrix ``P = I + D``; the
    increment ``D`` is the step applied to the identity.  ``P**n`` is formed
    by binary powering of the increment, ``(I+A)(I+B) = I + (A+B+AB)``,
    which keeps the small increments instead of rounding them against I.
    """
    n = max(64, int(steps_per_unit * tau))
    h = tau / n
    a = np.array([[0.0, -1j * xi], [-1j * xi, -2.0]])
    eye = np.eye(2, dtype=complex)
    k1 = a @ eye
    k2 = a @ (eye + 0.5 * h * k1)
    k3 = a @ (eye + 0.5 * h * k2)
    k4 = a @ (eye + h * k3)
    step = (h / 6.0) * (k1 + 2 * (k2 + k3) + k4)
    total = np.zeros((2, 2), dtype=complex)
    while n:
        if n & 1:
            total = total + step + total @ step
        step = step + step + step @ step
        n >>= 1
    return 1.0 + total[0, 0], total[1, 0]
