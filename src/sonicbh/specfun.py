"""Special functions and quadrature primitives.

Scalar, pure, reentrant.  The trigonometric/hyperbolic integrals are the
building blocks of the exact diffusion coefficient; the quadrature helpers
back every brute-force oracle in the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, special

from .errors import QuadratureError

EULER_GAMMA = np.euler_gamma


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt.  Odd; tends to pi/2."""
    return float(special.sici(x)[0])


def shi(x: float) -> float:
    """Hyperbolic sine integral Shi(x) = int_0^x sinh(t)/t dt.  Odd."""
    return float(special.shichi(x)[0])


def chi(x: float) -> float:
    """Hyperbolic cosine integral Chi(x) = gamma + ln x + int_0^x (cosh t - 1)/t dt.

    Defined for x > 0 only (logarithmic singularity at the origin).
    """
    if not x > 0:
        raise ValueError(f"chi requires x > 0, got {x!r}")
    return float(special.shichi(x)[1])


_ASYMPTOTIC_SWITCH = 50.0


def _e1_scaled(x: float) -> float:
    """e^x E_1(x) for x > 0, stable for arbitrarily large x."""
    if x < _ASYMPTOTIC_SWITCH:
        return float(np.exp(x) * special.exp1(x))
    # Divergent asymptotic series, truncated at its smallest term.
    total, term = 0.0, 1.0 / x
    for n in range(1, 40):
        total += term
        nxt = -term * n / x
        if abs(nxt) >= abs(term):
            break
        term = nxt
    return total


def _ei_scaled(x: float) -> float:
    """e^{-x} Ei(x) for x > 0, stable for arbitrarily large x."""
    if x < _ASYMPTOTIC_SWITCH:
        return float(np.exp(-x) * special.expi(x))
    total, term = 0.0, 1.0 / x
    for n in range(1, 40):
        total += term
        nxt = term * n / x
        if abs(nxt) >= abs(term):
            break
        term = nxt
    return total


def stable_shi_chi_combo(a: float, b: float, x: float) -> float:
    """Cancellation-safe a*(Shi cosh - Chi sinh)(x) + b*(Shi sinh - Chi cosh)(x).

    The naive products grow like e^{2x} while the combinations stay O(1/x);
    both are rewritten through scaled exponential integrals,

        Shi cosh - Chi sinh = (e^x E1(x) + e^{-x} Ei(x)) / 2
        Shi sinh - Chi cosh = (e^x E1(x) - e^{-x} Ei(x)) / 2,

    which stay finite and accurate far beyond the overflow point of
    cosh/sinh.  At x = 0 the b-combination alone diverges logarithmically;
    the value 0 returned there is the limit along the physical usage, where
    b carries a factor sin(omega*t) vanishing together with x.
    """
    if x < 0:
        raise ValueError(f"stable_shi_chi_combo requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    e1s, eis = _e1_scaled(x), _ei_scaled(x)
    return a * 0.5 * (e1s + eis) + b * 0.5 * (e1s - eis)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _finite_integrand(f: Callable[[float], float]) -> Callable[[float], float]:
    """f, refusing a non-finite value before QUADPACK (whose Fourier routine
    can crash the process on a NaN) sees it."""
    def checked(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand is not finite at x = {x!r}: {y!r}")
        return y
    return checked


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10, rel_tol: float = 0.0,
                       limit: int = 200, points=None) -> QuadratureResult:
    """Adaptive quadrature of f on [a, b] (endpoints may be infinite).

    Raises QuadratureError when the integrator reports non-convergence
    (carrying the partial result) or f returns a non-finite value.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    kwargs = dict(epsabs=tol, epsrel=rel_tol, limit=limit, full_output=1)
    if points is not None and np.isfinite(a) and np.isfinite(b):
        kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(_finite_integrand(f), a, b, **kwargs)
    value, abserr, info = out[0], out[1], out[2]
    neval = int(info.get("neval", 0)) if isinstance(info, dict) else 0
    result = QuadratureResult(value=value, error_estimate=abserr, evaluations=max(neval, 1))
    if len(out) > 3:  # message present => ier != 0
        # QUADPACK's roundoff flag often rides on an acceptable error bound;
        # fail only when the bound itself misses the requested tolerance.
        if not np.isfinite(value) or abserr > 10.0 * max(tol, rel_tol * abs(value)):
            raise QuadratureError(f"quadrature did not converge: {out[3]}",
                                  partial=result)
    return result


def fourier_integral(f: Callable[[float], float], a: float, omega: float,
                     kind: str = "cos", tol: float = 1e-11) -> QuadratureResult:
    """int_a^inf f(k) cos(omega k) dk (or sin), for decaying f.

    Wraps the QUADPACK Fourier transform routine, which accelerates the
    series of per-cycle contributions.  f must tend to zero; a non-finite
    value of f raises QuadratureError.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if omega <= 0:
        raise ValueError("fourier_integral needs omega > 0; fold signs into f")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(_finite_integrand(f), a, np.inf, weight=kind, wvar=omega,
                             epsabs=tol, limlst=300, limit=500, full_output=1)
    value, abserr = out[0], out[1]
    info = out[2] if len(out) > 2 and isinstance(out[2], dict) else {}
    neval = int(info.get("neval", 0))
    result = QuadratureResult(value=value, error_estimate=abserr, evaluations=max(neval, 1))
    # QUADPACK flags slow cycle convergence through a message; the returned
    # error bound stays honest, so only a genuinely useless bound is fatal.
    if len(out) > 3 and not np.isfinite(value):
        raise QuadratureError(f"Fourier quadrature failed: {out[3]}", partial=result)
    return result


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


def log_cosh(u: float) -> float:
    """ln cosh(u), overflow-safe for any magnitude."""
    au = abs(u)
    return au - math.log(2.0) + math.log1p(math.exp(-2.0 * au))
