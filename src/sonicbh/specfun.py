"""Special functions and quadrature primitives.

Scalar, pure, reentrant.  The trigonometric/hyperbolic integrals are the
building blocks of the exact diffusion coefficient; the thermal weight is
shared by the correlations, the open-system correction and the Monte-Carlo
sampler; the quadrature helpers back every brute-force oracle in the package
and are its only entry to QUADPACK.  scipy is imported inside the functions
that call it, so a command that never integrates does not pay for loading it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt.  Odd; tends to pi/2."""
    from scipy import special
    return float(special.sici(x)[0])


_ASYMPTOTIC_SWITCH = 50.0


def _asymptotic_scaled(x: float, sign: float) -> float:
    """sum_{n=0}^{38} sign^n n!/x^{n+1}: the first 39 terms of the divergent
    asymptotic series of e^x E_1(x) (sign -1) and e^{-x} Ei(x) (sign +1).  Its
    callers pass x >= _ASYMPTOTIC_SWITCH, where every term is smaller than the
    one before (n/x < 1)."""
    total, term = 0.0, 1.0 / x
    for n in range(1, 40):
        total += term
        term = sign * term * n / x
    return total


def _e1_scaled(x: float) -> float:
    """e^x E_1(x) for x > 0, stable for arbitrarily large x."""
    if x < _ASYMPTOTIC_SWITCH:
        from scipy import special
        return float(np.exp(x) * special.exp1(x))
    return _asymptotic_scaled(x, -1.0)


def _ei_scaled(x: float) -> float:
    """e^{-x} Ei(x) for x > 0, stable for arbitrarily large x."""
    if x < _ASYMPTOTIC_SWITCH:
        from scipy import special
        return float(np.exp(-x) * special.expi(x))
    return _asymptotic_scaled(x, 1.0)


def stable_shi_chi_combo(a: float, b: float, x: float) -> float:
    """Cancellation-safe a*(Shi cosh - Chi sinh)(x) + b*(Shi sinh - Chi cosh)(x)
    for x > 0 (else ValueError).

    The naive products grow like e^{2x} while the combinations stay O(1/x);
    both are rewritten through scaled exponential integrals,

        Shi cosh - Chi sinh = (e^x E1(x) + e^{-x} Ei(x)) / 2
        Shi sinh - Chi cosh = (e^x E1(x) - e^{-x} Ei(x)) / 2,

    which stay finite and accurate far beyond the overflow point of
    cosh/sinh.  At x = 0 the b-combination diverges logarithmically, so the
    origin is the caller's limit to take, not a value of this function.
    """
    if not x > 0:
        raise ValueError(f"stable_shi_chi_combo requires x > 0, got {x!r}")
    e1s, eis = _e1_scaled(x), _ei_scaled(x)
    return a * 0.5 * (e1s + eis) + b * 0.5 * (e1s - eis)


def thermal_weight(k: float, beta: float) -> float:
    """k coth(beta k / 2) for k >= 0: k plus its Bose part ``thermal_excess``,
    so k at beta = inf and the finite limit 2/beta at k = 0 (QUADPACK's
    Fourier routine samples the origin)."""
    return k + thermal_excess(k, beta)


def thermal_excess(k: float, beta: float) -> float:
    """k coth(beta k / 2) - k = 2k / (e^{beta k} - 1) for k >= 0: exactly 0 at
    beta = inf.  Where beta k is 0, subnormal or nan (k = 0 at beta = inf) it
    carries too few bits to divide by, and the value is the limit 2/beta - k."""
    x = beta * k
    if not x >= sys.float_info.min:
        return 2.0 / beta - k
    return 2.0 * k * math.exp(-x) / -math.expm1(-x)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
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
                       tol: float = 1e-10, limit: int = 200) -> QuadratureResult:
    """Adaptive quadrature of f on [a, b] (endpoints may be infinite) to the
    absolute tolerance tol.  It takes no breakpoints: a caller whose integrand
    has a feature inside [a, b] splits the interval there itself.

    Raises QuadratureError when the integrator reports non-convergence
    (carrying the partial result) or f returns a non-finite value.
    """
    from scipy import integrate
    if not tol > 0:
        raise ValueError("tol must be positive")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(_finite_integrand(f), a, b, epsabs=tol, epsrel=0.0,
                             limit=limit, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    neval = int(info.get("neval", 0)) if isinstance(info, dict) else 0
    result = QuadratureResult(value=value, evaluations=max(neval, 1))
    if len(out) > 3:  # message present => ier != 0
        # QUADPACK's roundoff flag often rides on an acceptable error bound;
        # fail only when the bound itself misses the requested tolerance.
        if not np.isfinite(value) or abserr > 10.0 * tol:
            raise QuadratureError(f"quadrature did not converge: {out[3]}",
                                  partial=result)
    return result


def fourier_integral(f: Callable[[float], float], a: float, omega: float,
                     kind: str = "cos", tol: float = 1e-11,
                     b: float = np.inf) -> QuadratureResult:
    """int_a^b f(k) cos(omega k) dk (or sin); b = inf needs a decaying f.

    Wraps the QUADPACK Fourier transform routine (b = inf), which
    accelerates the series of per-cycle contributions, or its
    oscillatory-weight routine on a finite [a, b], which stays accurate over
    many oscillations.  A non-finite value of f, or a failed result, raises
    QuadratureError.
    """
    from scipy import integrate
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if omega <= 0:
        raise ValueError("fourier_integral needs omega > 0; fold signs into f")
    if math.isinf(b):
        settings = dict(limlst=300, limit=500)
    else:
        settings = dict(epsrel=0.0, limit=800, maxp1=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(_finite_integrand(f), a, b, weight=kind, wvar=omega,
                             epsabs=tol, full_output=1, **settings)
    value, abserr = out[0], out[1]
    info = out[2] if len(out) > 2 and isinstance(out[2], dict) else {}
    neval = int(info.get("neval", 0))
    result = QuadratureResult(value=value, evaluations=max(neval, 1))
    # QUADPACK flags slow cycle convergence through a message; the error bound
    # stays honest, so only a non-finite value or QAWF's overflow constant
    # (returned when roundoff stops a cycle) is fatal.
    if len(out) > 3 and not abs(value) < np.finfo(float).max:
        raise QuadratureError(f"Fourier quadrature failed: {out[3]}", partial=result)
    return result


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 <= x <= 1.

    The continued fraction of I_x, evaluated by the modified Lentz method,
    converges fast for x < (a + 1)/(a + b + 2); beyond that the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) applies.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc_regularized(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 10_000):
        # the terms d_{2m} and d_{2m+1} of the fraction
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    log_front = (a * math.log(x) + b * math.log1p(-x)
                 + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    return math.exp(log_front) * frac / a


def log_cosh(u: float) -> float:
    """ln cosh(u), overflow-safe for any magnitude."""
    au = abs(u)
    return au - math.log(2.0) + math.log1p(math.exp(-2.0 * au))
