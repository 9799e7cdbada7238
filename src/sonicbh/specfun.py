"""Special functions and quadrature primitives.

Scalar, pure, reentrant.  The trigonometric/hyperbolic integrals are the
building blocks of the exact diffusion coefficient; the thermal weight is
shared by the correlations, the open-system correction and the Monte-Carlo
sampler; the thermal image sum is the Bose part of the uniform-region
correlation; ``bose_integral`` is the home of the Bose-part quadrature, the
one the Monte-Carlo expectation takes beside its closed vacuum part, exactly
0 at beta = inf without quadrature; the quadrature helpers back it and every
brute-force oracle in the package and are its only entry to QUADPACK.  Si,
E1, Ei and the image sum are the package's own series, continued fractions
and Euler-Maclaurin sums, so this module needs only the standard library.
The quadrature helpers call QUADPACK's routines in scipy's compiled
extension directly, the ones ``scipy.integrate.quad`` dispatches to with the
same arguments.  The extension and the import machinery that finds it load
on the first quadrature, without the ``scipy.integrate`` package (~0.5 s),
so a command that never integrates loads no scipy at all.  With numpy loaded the
extension takes 0.2 ms and its first call ~5 ms (the scipy top level and
its callback helper); numpy itself is the cost.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, NamedTuple

from .errors import QuadratureError

_EULER_GAMMA = 0.5772156649015329
_EPS = sys.float_info.epsilon
_TINY = 1e-300       # the modified Lentz method's stand-in for a zero denominator


def _power_sum(y: float) -> float:
    """sum_{k>=1} y^k / (k k!), to the last term that still changes it
    (|y| < 40 here): E1(x) = -gamma - ln x - S(-x), Ei(x) = gamma + ln x + S(x)."""
    total, term = 0.0, 1.0
    for k in range(1, 200):
        term *= y / k
        if total + term / k == total:
            break
        total += term / k
    return total


def _e1_fraction(z: float | complex) -> float | complex:
    """e^z E_1(z) by the modified-Lentz continued fraction
    1/(z+1 - 1/(z+3 - 4/(z+5 - ...))), real or complex z; it converges fast
    for Re z > 1 (E1) and for |Im z| > 4 (Si)."""
    b = z + 1.0
    c, d = 1.0 / _TINY, 1.0 / b
    h = d
    for i in range(1, 1000):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h *= c * d
        if abs(c * d - 1.0) < _EPS:
            break
    return h


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt.  Odd; tends to pi/2.

    Its power series up to |x| = 4, beyond that pi/2 + Im E1(i|x|) through
    the continued fraction; the sign of x is applied last, so Si is exactly odd.
    """
    ax = abs(x)
    if ax <= 4.0:
        total = term = ax
        for k in range(1, 40):
            term *= -ax * ax / ((2 * k) * (2 * k + 1))
            if total + term / (2 * k + 1) == total:
                break
            total += term / (2 * k + 1)
    elif ax == math.inf:
        total = 0.5 * math.pi
    else:
        e1 = complex(math.cos(ax), -math.sin(ax)) * _e1_fraction(complex(0.0, ax))
        total = 0.5 * math.pi + e1.imag
    return math.copysign(total, x)


_ASYMPTOTIC_SWITCH = 40.0


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
    """e^x E_1(x) for x > 0, stable for arbitrarily large x (0 at x = inf):
    its power series up to x = 1, then the continued fraction, then the
    asymptotic sum."""
    if x <= 1.0:
        return math.exp(x) * (-_EULER_GAMMA - math.log(x) - _power_sum(-x))
    if x < _ASYMPTOTIC_SWITCH:
        return _e1_fraction(x)
    return _asymptotic_scaled(x, -1.0)


def _ei_scaled(x: float) -> float:
    """e^{-x} Ei(x) for x > 0, stable for arbitrarily large x: its
    all-positive power series, then the asymptotic sum."""
    if x < _ASYMPTOTIC_SWITCH:
        return math.exp(-x) * (_EULER_GAMMA + math.log(x) + _power_sum(x))
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


# The thermal image sum: its first _IMAGE_TERMS terms directly, the rest by
# Euler-Maclaurin with the Bernoulli weights B_2j / (2j)!, j = 1..7, each
# times the rising factorial (5/2)(7/2)...(5/2 + 2j - 2).
_IMAGE_TERMS = 24
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000, 1 / 74724249600)
_EM_COEFFICIENTS = tuple(weight * math.prod(2.5 + m for m in range(2 * j + 1))
                         for j, weight in enumerate(_EM_WEIGHTS))


def image_sum(beta: float, y: float) -> complex:
    """sum_{n>=1} (n beta + i y)^(-5/2) for beta > 0 and real y, exactly 0 at
    beta = inf: beta^(-5/2) zeta(5/2, 1 + i y/beta) with the Hurwitz zeta
    function, summed over the unscaled terms, so that no power of beta leaves
    the float range before the sum itself does.

    The first 24 terms directly, the rest by Euler-Maclaurin from
    w = 25 beta + i y with 7 Bernoulli terms in u = beta/w, |u| <= 1/25:

        w^(-3/2) / (3 beta / 2) + w^(-5/2) [1/2 + sum_j B_2j/(2j)! (5/2)_(2j-1) u^(2j-1)]

    (the standard construction; F. Johansson, Numer. Algorithms 69, 2015).
    The direct terms are summed smallest first and before the tail, whose
    rounding would otherwise swamp them.  A term beyond the float range comes
    out inf, or raises OverflowError.
    """
    if beta == math.inf:
        return 0j
    w = complex((_IMAGE_TERMS + 1) * beta, y)
    u = beta / w
    series = 0j
    for c in reversed(_EM_COEFFICIENTS):
        series = series * u * u + c
    direct = 0j
    for n in range(_IMAGE_TERMS, 0, -1):
        direct += complex(n * beta, y) ** -2.5
    return direct + (w ** -1.5 / (1.5 * beta) + w ** -2.5 * (0.5 + u * series))


class QuadratureResult(NamedTuple):
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


@functools.cache
def _quadpack():
    """scipy's compiled QUADPACK extension, imported without the
    scipy.integrate package (which also loads scipy's ODE, optimize, sparse
    and special modules).  It is registered under its own name, so a
    scipy.integrate imported before it is reused here and one imported after
    it reuses it: there is one copy of the routines in a process."""
    import importlib.machinery
    import importlib.util
    import os
    name = "scipy.integrate._quadpack"
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy_dir, "integrate")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _result(a: float, b: float, out) -> tuple[QuadratureResult, float, int]:
    """(result, error bound, QUADPACK's ier) of a routine's full output on
    [min(a, b), max(a, b)], negated when b < a, as scipy.integrate.quad
    orients an interval."""
    value, abserr, info, ier = out
    value = -value if b < a else value
    return QuadratureResult(value=value, evaluations=max(info["neval"], 1)), abserr, ier


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10) -> QuadratureResult:
    """Adaptive quadrature of f on the finite range [a, b] to the absolute
    tolerance tol: QUADPACK's QAGS with up to 400 subintervals.  It takes no
    breakpoints: a caller whose integrand has a feature inside [a, b] splits
    the interval there itself.

    Raises ValueError on an infinite limit, and QuadratureError when the
    integrator reports non-convergence (carrying the partial result) or f
    returns a non-finite value.
    """
    if not tol > 0:       # QUADPACK would return 0 with ier = 6
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integrate_adaptive needs a finite range, got [{a!r}, {b!r}]")
    out = _quadpack()._qagse(_finite_integrand(f), min(a, b), max(a, b), (), 1, tol, 0.0, 400)
    result, abserr, ier = _result(a, b, out)
    # QUADPACK's roundoff flag (ier != 0) often rides on an acceptable error
    # bound; fail only when the bound itself misses the requested tolerance.
    if ier != 0 and (not math.isfinite(result.value) or abserr > 10.0 * tol):
        raise QuadratureError(f"quadrature did not converge (QUADPACK ier = {ier}, "
                              f"error bound {abserr:.3g})", partial=result)
    return result


def fourier_integral(f: Callable[[float], float], a: float, omega: float,
                     kind: str = "cos", tol: float = 1e-11,
                     b: float = math.inf) -> QuadratureResult:
    """int_a^b f(k) cos(omega k) dk (or sin) for a finite a; b = inf needs a
    decaying f.

    QUADPACK's Fourier transform routine QAWF (b = inf), which accelerates
    the series of per-cycle contributions, or its oscillatory-weight routine
    QAWO on a finite [a, b], which stays accurate over many oscillations.  A
    non-finite value of f, or a failed result, raises QuadratureError.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if omega <= 0:
        raise ValueError("fourier_integral needs omega > 0; fold signs into f")
    if not tol > 0:       # QUADPACK would return 0 with ier = 6
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not math.isfinite(a):
        raise ValueError(f"fourier_integral needs a finite a, got {a!r}")
    g, weight, qp = _finite_integrand(f), 1 if kind == "cos" else 2, _quadpack()
    if b == math.inf:     # limlst 300 cycles, limit 500, maxp1 50 (quad's default)
        out = qp._qawfe(g, a, omega, weight, (), 1, tol, 300, 500, 50)
    else:                 # epsrel 0, limit 800, maxp1 200, moments computed afresh
        out = qp._qawoe(g, min(a, b), max(a, b), omega, weight, (), 1, tol, 0.0, 800, 200, 1)
    result, _, ier = _result(a, b, out)
    # QUADPACK flags slow cycle convergence (ier != 0); the error bound stays
    # honest, so only a non-finite value or QAWF's overflow constant (returned
    # when roundoff stops a cycle) is fatal.
    if ier != 0 and not abs(result.value) < sys.float_info.max:
        raise QuadratureError(f"Fourier quadrature failed (QUADPACK ier = {ier})",
                              partial=result)
    return result


# The Bose bump of a thermal k-integrand, k^p / (e^{beta k} - 1) with p = 1 or
# 3/2 (times a Gaussian envelope in the Monte-Carlo expectation), lies on
# [0, _BOSE_STRETCH / beta]: past it e^{-beta k} is below 5e-18, and where the
# stretch is shorter than QAWF's first cycle, what lies past it is below 1e-17
# of bose_integral's scale.
_BOSE_STRETCH = 40.0


def bose_integral(f: Callable[[float], float], separation: float, beta: float,
                  scale: float) -> float:
    """int_0^inf f(k) cos(k separation) dk for f a Bose bump, to the absolute
    tolerance 1e-11 * scale (``scale``: the result's size).  Exactly 0 at
    beta = inf, where the bump vanishes, with no quadrature; elsewhere a zero
    separation is refused (ValueError).

    In u = 2 k |separation| QUADPACK's Fourier routine QAWF integrates cycle
    by cycle, the first on [0, 2 pi], and it misses a bump far narrower than
    that cycle: below |separation| = 7e-4 beta, all of the cosine part.  So
    where the bump's stretch [0, u_b], u_b = 2 _BOSE_STRETCH |separation| /
    beta, is shorter than the first cycle, the one quadrature is QAWO on
    [0, u_b] instead.
    """
    if beta == math.inf:
        return 0.0
    if separation == 0.0:
        raise ValueError("bose_integral needs a nonzero separation")
    h = 0.5 / abs(separation)          # k = h u
    tol = max(1e-11 * scale / h, sys.float_info.min)
    u_b = 2.0 * _BOSE_STRETCH * abs(separation) / beta
    end = u_b if 0.0 < u_b < 2.0 * math.pi else math.inf
    return h * fourier_integral(lambda u: f(h * u), 0.0, 0.5, kind="cos", tol=tol, b=end).value
