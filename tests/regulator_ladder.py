"""Regulator-removal ladders: an independent evaluation of the thermal k
integrals for the tests.

The package takes int_0^inf k^p coth(beta k/2) trig(k |separation|) dk as a
closed-form vacuum part plus one quadrature of the Bose part.  Here the
whole integrand is damped by a regulator of width eps, integrated at the
widths EPS_LADDER in units of min(|separation|, beta), and the values are
extrapolated to eps = 0 by Neville's polynomial scheme: in eps for the
exponential regulator e^{-eps k}, in eps^2 for the Gaussian
e^{-(eps k)^2 / 2}, whose regulated value is even in eps.  The exponential
ladder also checks that its last two extrapolants agree to 1e-3.
"""

from __future__ import annotations

import math

from sonicbh.specfun import fourier_integral

EPS_LADDER = (0.08, 0.04, 0.02, 0.01, 0.005)


def neville_to_zero(xs, ys) -> float:
    """Polynomial extrapolation of samples (x_i, y_i) to x = 0."""
    xs = [float(x) for x in xs]
    P = [float(y) for y in ys]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two samples to extrapolate")
    for j in range(1, n):
        for i in range(n - j):
            P[i] = (xs[i] * P[i + 1] - xs[i + j] * P[i]) / (xs[i] - xs[i + j])
    return P[0]


def _settled(xs, values) -> float:
    """The extrapolant, refused unless the last two agree to 1e-3."""
    est = neville_to_zero(xs, values)
    est_prev = neville_to_zero(xs[:-1], values[:-1])
    assert math.isfinite(est) and abs(est - est_prev) <= 1e-3 * max(abs(est), 1e-300), (
        f"regulator removal did not settle: last two extrapolants {est_prev!r}, {est!r}")
    return est


def _ladder(separation, beta):
    return [e * min(abs(separation), beta) for e in EPS_LADDER]


def exponential_ladder(f, separation: float, beta: float, trig: str) -> float:
    """int_0^inf f(k) trig(k |separation|) dk with the regulator e^{-eps k}."""
    ladder = _ladder(separation, beta)
    values = [fourier_integral(lambda k: f(k) * math.exp(-e * k), 0.0, abs(separation),
                               kind=trig).value for e in ladder]
    return _settled(ladder, values)


def gauss_ladder(f, separation: float, beta: float, trig: str) -> float:
    """int_0^inf f(k) trig(k |separation|) dk with the regulator e^{-(eps k)^2/2}."""
    ladder = _ladder(separation, beta)
    values = [fourier_integral(lambda k: f(k) * math.exp(-0.5 * (e * k) ** 2), 0.0,
                               abs(separation), kind=trig).value for e in ladder]
    return neville_to_zero([e * e for e in ladder], values)
