import ast
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import shichi

from sonicbh.errors import QuadratureError
from sonicbh.profiles import log_cosh
from sonicbh.specfun import (_e1_scaled, _ei_scaled, bose_integral, fourier_integral,
                             image_sum, integrate_adaptive, si, stable_shi_chi_combo,
                             thermal_excess, thermal_weight)

mp.mp.dps = 40


def test_si_at_zero():
    assert si(0.0) == 0.0


def test_si_asymptote():
    # Si -> pi/2 with envelope 2/x
    assert abs(si(1e6) - math.pi / 2) < 2.0 / 1e6


def test_si_of_one_against_quadrature_oracle():
    oracle = mp.quad(lambda t: mp.sin(t) / t, [0, 1])
    assert si(1.0) == pytest.approx(float(oracle), abs=1e-12)


@given(st.floats(min_value=1.0, max_value=1e5))
def test_si_envelope(x):
    assert abs(si(x) - math.pi / 2) <= 2.0 / x


@given(st.floats(min_value=1e-3, max_value=300.0))
def test_si_shi_odd(x):
    assert si(-x) == -si(x)


# 400 log-spaced points in [1e-8, 1e3] and both float neighbours of every
# switch: E1 series | continued fraction at 1, Si series | fraction at 4, E1
# and Ei series or fraction | asymptotic sum at 40.
_SWITCHES = (1.0, 4.0, 40.0)
_SPECIAL_GRID = sorted(np.geomspace(1e-8, 1e3, 400).tolist()
                       + [float(np.nextafter(s, d)) for s in _SWITCHES for d in (0.0, 1e3)]
                       + list(_SWITCHES))


@pytest.mark.parametrize("name", ["e1", "ei", "si"])
def test_special_functions_against_mpmath(name):
    """e^x E1, e^-x Ei and Si within 1e-14 relative of 40-digit mpmath.  Ei's
    root x0 = 0.3725 (no grid point within 0.008 of it), where no float
    evaluation has a relative bound, is held to its absolute error instead."""
    f, exact = {"e1": (_e1_scaled, lambda x: mp.e ** x * mp.e1(x)),
                "ei": (_ei_scaled, lambda x: mp.e ** -x * mp.ei(x)),
                "si": (si, mp.si)}[name]
    worst = max(float(abs(f(x) / exact(mp.mpf(x)) - 1)) for x in _SPECIAL_GRID)
    assert worst <= 1e-14
    if name == "ei":
        x0 = float(mp.findroot(mp.ei, 0.37))
        for x in (float(np.nextafter(x0, 0.0)), x0, float(np.nextafter(x0, 1.0))):
            assert abs(f(x) - float(exact(mp.mpf(x)))) <= 2e-16


def test_special_functions_at_their_limits():
    # e^x E1(x) ~ 1/x: 0 at x = inf, as the asymptotic sum gives it; Si(inf)
    # is pi/2 exactly, and nan stays nan
    assert _e1_scaled(math.inf) == 0.0 and _ei_scaled(math.inf) == 0.0
    assert _e1_scaled(1e300) == 1e-300
    assert si(1e300) == pytest.approx(math.pi / 2, abs=1e-15)
    assert si(math.inf) == math.pi / 2 and si(-math.inf) == -math.pi / 2
    assert math.isnan(si(math.nan)) and math.isnan(_e1_scaled(math.nan))


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_combo_refuses_non_positive_argument(x):
    # the b-combination diverges at x = 0; D(0) = 0 is diffusion_exact's own guard
    with pytest.raises(ValueError, match="x > 0"):
        stable_shi_chi_combo(3.7, -1.2, x)


def test_combo_matches_naive_at_moderate_argument():
    s, c = shichi(1.0)
    naive = s * math.cosh(1.0) - c * math.sinh(1.0)
    assert stable_shi_chi_combo(1.0, 0.0, 1.0) == pytest.approx(naive, rel=1e-12)


@pytest.mark.parametrize("x", np.geomspace(1e-3, 30.0, 12).tolist())
def test_combo_against_exact_naive_form(x):
    # The float64 naive products cancel catastrophically beyond x ~ 8, so the
    # reference "naive" value is the same formula in 40-digit arithmetic.
    a, b = 0.8, -1.7
    with mp.workdps(40):
        xm = mp.mpf(x)
        naive = (a * (mp.shi(xm) * mp.cosh(xm) - mp.chi(xm) * mp.sinh(xm))
                 + b * (mp.shi(xm) * mp.sinh(xm) - mp.chi(xm) * mp.cosh(xm)))
    assert stable_shi_chi_combo(a, b, x) == pytest.approx(float(naive), rel=1e-9)


def test_combo_large_argument_against_extended_precision():
    # 200-digit evaluation through the exponential-integral decomposition
    with mp.workdps(200):
        x = mp.mpf(500)
        exact = (mp.e ** x * mp.e1(x) + mp.e ** (-x) * mp.ei(x)) / 2
        val = stable_shi_chi_combo(1.0, 0.0, 500.0)
        assert val == pytest.approx(float(exact), rel=1e-12)
        exact_b = (mp.e ** x * mp.e1(x) - mp.e ** (-x) * mp.ei(x)) / 2
        assert stable_shi_chi_combo(0.0, 1.0, 500.0) == pytest.approx(float(exact_b), rel=1e-12)
    assert math.isfinite(stable_shi_chi_combo(2.0, 3.0, 700.0))


KNOWN_INTEGRALS = [
    (lambda x: x, 0.0, 1.0, 0.5),
    (lambda x: x * x, 0.0, 2.0, 8.0 / 3.0),
    (lambda x: math.sin(x), 0.0, math.pi, 2.0),
    (lambda x: math.exp(-x), 0.0, np.inf, 1.0),
    (lambda x: x * math.exp(-x), 0.0, np.inf, 1.0),  # bath-average integrand shape
    (lambda x: math.exp(-x * x), -np.inf, np.inf, math.sqrt(math.pi)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, np.inf, math.pi / 2),
    (lambda x: math.log(x), 0.0, 1.0, -1.0),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: math.cos(x) ** 2, 0.0, 2 * math.pi, math.pi),
    (lambda x: x ** 3 - 2 * x, -1.0, 1.0, 0.0),
    (lambda x: 0.5 * (math.exp(-x) - math.exp(-3 * x)), 0.0, np.inf, 1.0 / 3.0),
    (lambda x: math.exp(-2 * x) * math.sin(x), 0.0, np.inf, 1.0 / 5.0),
    (lambda x: 1.0 / (x * x), 1.0, np.inf, 1.0),
    (lambda x: math.sqrt(1 - x * x), -1.0, 1.0, math.pi / 2),
    (lambda x: math.atan(x), 0.0, 1.0, math.pi / 4 - math.log(2) / 2),
    (lambda x: x * math.log(x), 0.0, 1.0, -0.25),
    (lambda x: math.exp(-x) * x ** 4, 0.0, np.inf, 24.0),
    (lambda x: math.exp(-x) / (1 + math.exp(-x)), 0.0, np.inf, math.log(2)),
    (lambda x: 2 * math.exp(-abs(x)) / (1 + math.exp(-2 * abs(x))), -np.inf, np.inf, math.pi),
]


def _refused_before_quadpack(calls, f, a, b):
    """True when integrate_adaptive refuses [a, b] with ValueError and no
    QUADPACK call: it takes finite ranges only (QAGS), so an infinite limit
    is refused, and the known integrals on one check that refusal."""
    if math.isfinite(a) and math.isfinite(b):
        return False
    with pytest.raises(ValueError, match="finite range"):
        integrate_adaptive(f, a, b, tol=1e-10)
    assert calls == []
    return True


@pytest.mark.parametrize("f,a,b,expected", KNOWN_INTEGRALS)
def test_adaptive_quadrature_on_known_integrals(quadpack_calls, f, a, b, expected):
    if _refused_before_quadpack(quadpack_calls, f, a, b):
        return
    res = integrate_adaptive(f, a, b, tol=1e-10)
    assert res.value == pytest.approx(expected, abs=2e-9, rel=1e-9)
    assert res.evaluations > 0


def test_adaptive_quadrature_reproduces_si():
    res = integrate_adaptive(lambda t: math.sin(t) / t if t else 1.0, 0.0, 20 * math.pi)
    assert res.value == pytest.approx(si(20 * math.pi), abs=1e-9)


def test_quadrature_failure_carries_partial_result():
    # nonintegrable endpoint singularity
    with pytest.raises(QuadratureError) as err:
        integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10)
    assert err.value.partial is not None


def test_fourier_tail_against_closed_form():
    # int_0^inf e^{-k} cos(w k) dk = 1/(1+w^2)
    w = 3.0
    res = fourier_integral(lambda k: math.exp(-k), 0.0, w, kind="cos")
    assert res.value == pytest.approx(1.0 / (1.0 + w * w), rel=1e-10)
    res = fourier_integral(lambda k: math.exp(-k), 0.0, w, kind="sin")
    assert res.value == pytest.approx(w / (1.0 + w * w), rel=1e-10)


def test_fourier_finite_range_against_closed_form():
    # int_1^30 e^{-k} sin(w k) dk over ~43 oscillations, by antiderivative
    w, a, b = 9.0, 1.0, 30.0
    prim = lambda k: -math.exp(-k) * (math.sin(w * k) + w * math.cos(w * k)) / (1 + w * w)
    res = fourier_integral(lambda k: math.exp(-k), a, w, kind="sin", tol=1e-13, b=b)
    assert res.value == pytest.approx(prim(b) - prim(a), abs=1e-13)
    with pytest.raises(QuadratureError):
        fourier_integral(lambda k: math.nan, a, w, kind="cos", b=b)


def test_fourier_overflow_constant_refused():
    # tol 1e-11 on a ~330 integral over a first cycle of length pi/0.002:
    # roundoff stops QAWF, which then returns its overflow constant 1.8e308
    with pytest.raises(QuadratureError, match="Fourier quadrature failed"):
        fourier_integral(lambda k: thermal_excess(k, 0.1), 0.0, 0.002, kind="cos")


@pytest.mark.parametrize("separation, beta", [(0.3, 2.0), (1e-4, 2.0), (40.0, 0.5)],
                         ids=["qawf", "qawo-stretch", "far"])
def test_bose_integral_against_closed_form(separation, beta):
    """int_0^inf 2k/(e^{beta k} - 1) cos(k s) dk = 1/s^2 - (pi/beta)^2
    csch^2(pi s/beta), to 1e-11 of 1/s^2: QAWF past the first cycle, QAWO on
    the bump's stretch below it (s = 5e-5 beta)."""
    f = lambda k: thermal_excess(k, beta)
    z = math.pi * separation / beta
    exact = separation ** -2 - (math.pi / beta) ** 2 / math.sinh(z) ** 2
    got = bose_integral(f, separation, beta, separation ** -2)
    assert got == pytest.approx(exact, abs=1e-11 * separation ** -2)


def test_bose_integral_zero_at_zero_temperature(quadpack_calls):
    """The Bose bump vanishes at beta = inf, and so does its integral,
    exactly and without quadrature; elsewhere a zero separation is refused."""
    assert bose_integral(lambda k: 1.0, 0.7, math.inf, 1.0) == 0.0
    assert quadpack_calls == []
    with pytest.raises(ValueError, match="nonzero separation"):
        bose_integral(lambda k: thermal_excess(k, 2.0), 0.0, 2.0, 1.0)


# The integrands the direct QUADPACK route is pinned on beyond KNOWN_INTEGRALS:
# a (-inf, b] range (refused) and a reversed range.
_MORE_INTEGRALS = [
    (lambda x: math.exp(x), -np.inf, 0.0, 1.0),
    (lambda x: x * x, 2.0, 0.0, -8.0 / 3.0),
]


def _both_routes(calls, direct, *quad_args, **quad_kwargs):
    """(value, evaluations, QUADPACK calls) of a specfun quadrature (its
    partial result where it refuses one) and of scipy.integrate.quad on the
    same integral."""
    from scipy import integrate
    try:
        result = direct()
    except QuadratureError as err:
        result = err.partial
    ours = (result.value, result.evaluations, calls[:])
    calls.clear()
    out = integrate.quad(*quad_args, full_output=1, **quad_kwargs)
    return ours, (out[0], max(out[2]["neval"], 1), calls[:])


@pytest.mark.parametrize("f,a,b,expected", KNOWN_INTEGRALS + _MORE_INTEGRALS)
def test_adaptive_route_matches_quad_bit_for_bit(quadpack_calls, f, a, b, expected):
    """integrate_adaptive calls the QUADPACK routine quad dispatches to on a
    finite range, with quad's arguments: the value, error bound and evaluation
    count are quad's, bit for bit.  A scipy release that changes its
    extension fails here."""
    if _refused_before_quadpack(quadpack_calls, f, a, b):
        return
    ours, theirs = _both_routes(quadpack_calls, lambda: integrate_adaptive(f, a, b, tol=1e-10),
                                f, a, b, epsabs=1e-10, epsrel=0.0, limit=400)
    assert ours == theirs and len(ours[2]) == 1
    assert ours[0] == pytest.approx(expected, abs=2e-9, rel=1e-9)


_FOURIER_CASES = [   # (f, a, omega, kind, tol, b)
    (lambda k: math.exp(-k), 0.0, 3.0, "cos", 1e-11, np.inf),
    (lambda k: math.exp(-k), 0.0, 3.0, "sin", 1e-11, np.inf),
    (lambda k: math.exp(-k), 1.0, 9.0, "sin", 1e-13, 30.0),
    (lambda k: math.exp(-k), 30.0, 9.0, "cos", 1e-13, 1.0),
    # QAWF's overflow constant: fourier_integral refuses it with this partial
    (lambda k: thermal_excess(k, 0.1), 0.0, 0.002, "cos", 1e-11, np.inf),
]


@pytest.mark.parametrize("f,a,omega,kind,tol,b", _FOURIER_CASES)
def test_fourier_route_matches_quad_bit_for_bit(quadpack_calls, f, a, omega, kind, tol, b):
    """fourier_integral likewise: QAWF on [a, inf), QAWO on a finite range."""
    settings = (dict(limlst=300, limit=500) if b == np.inf
                else dict(epsrel=0.0, limit=800, maxp1=200))
    ours, theirs = _both_routes(
        quadpack_calls, lambda: fourier_integral(f, a, omega, kind=kind, tol=tol, b=b),
        f, a, b, weight=kind, wvar=omega, epsabs=tol, **settings)
    assert ours == theirs and len(ours[2]) == 1


def test_empty_range_answers_zero():
    # QUADPACK itself answers 0 on an empty range, on both routes
    assert integrate_adaptive(lambda x: x * x, 1.5, 1.5).value == 0.0
    assert fourier_integral(lambda k: math.exp(-k), 2.0, 3.0, b=2.0).value == 0.0


def test_direct_route_failures_match_quad(quadpack_calls):
    # a nonintegrable singularity: quad's message case, refused with its partial
    ours, theirs = _both_routes(
        quadpack_calls, lambda: integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10),
        lambda x: 1.0 / x, 0.0, 1.0, epsabs=1e-10, epsrel=0.0, limit=400)
    assert ours == theirs and ours[2][0][-1] != 0
    # a NaN integrand never reaches QUADPACK, on either route
    for call in (lambda: integrate_adaptive(lambda x: math.nan, 0.0, 1.0),
                 lambda: fourier_integral(lambda k: math.nan, 0.0, 1.0),
                 lambda: fourier_integral(lambda k: math.nan, 0.0, 1.0, b=2.0)):
        with pytest.raises(QuadratureError, match="not finite"):
            call()
    # quad refused a zero tolerance; QUADPACK alone would return 0 (ier = 6)
    with pytest.raises(ValueError, match="tol"):
        fourier_integral(lambda k: math.exp(-k), 0.0, 3.0, tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        integrate_adaptive(lambda x: x, 0.0, 1.0, tol=0.0)


def test_quadpack_called_only_from_specfun():
    """specfun is the one QUADPACK boundary: its wrappers refuse non-finite
    integrands and report evaluation counts.  No program file imports scipy
    or calls a QUADPACK routine but specfun, and nothing calls quad."""
    root = Path(__file__).resolve().parents[1]
    routines = {"quad", "_qagse", "_qagie", "_qawoe", "_qawfe"}
    found = []
    for path in sorted([*(root / "src" / "sonicbh").glob("*.py"),
                        *(root / "scripts").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "quad" or (name in routines and path.name != "specfun.py"):
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno} imports {m}" for m in modules
                      if m.split(".")[0] == "scipy"]
    assert found == []


def test_thermal_weight_origin_limits():
    assert thermal_weight(0.0, 2.5) == 2.0 / 2.5
    assert thermal_weight(0.0, math.inf) == 0.0


def test_thermal_weight_zero_temperature():
    for k in (1e-12, 0.3, 7.0, 1e4):
        assert thermal_weight(k, math.inf) == k


@pytest.mark.parametrize("k, beta", [(1e-9, 1.0), (4e-9, 5.0), (2e-12, 3.0), (1e-30, 1.0)])
def test_thermal_weight_small_argument_series(k, beta):
    # x = beta k / 2 <= 1e-8: k plus the Bose part, against extended precision
    exact = mp.mpf(k) / mp.tanh(mp.mpf(beta) * k / 2)
    assert thermal_weight(k, beta) == pytest.approx(float(exact), rel=1e-15)


@pytest.mark.parametrize("k, beta", [(1e-3, 2.0), (0.3, 2.5), (1.0, 1.0), (4.0, 7.0),
                                     (50.0, 0.1), (200.0, 3.0)])
def test_thermal_weight_against_mpmath(k, beta):
    exact = mp.mpf(k) * mp.coth(mp.mpf(beta) * k / 2)
    assert thermal_weight(k, beta) == pytest.approx(float(exact), rel=4e-16)


def test_thermal_excess_limits():
    assert thermal_excess(0.0, 2.5) == 2.0 / 2.5
    assert thermal_excess(1e-320, 1e-10) == 2.0 / 1e-10     # beta k underflows to 0
    for k in (0.0, 1e-12, 0.3, 7.0, 1e4):
        assert thermal_excess(k, math.inf) == 0.0
    # beta k = 1e4: e^{-beta k} underflows, nothing overflows
    assert thermal_excess(1e4, 1.0) == 0.0
    assert thermal_excess(1.0, 1e4) == 0.0


# (2.9e-24, 1e-300): beta k is subnormal, too few bits to divide by
@pytest.mark.parametrize("k, beta", [(1e-30, 1.0), (1e-9, 1.0), (1e-3, 2.0), (0.3, 2.5),
                                     (1.0, 1.0), (4.0, 7.0), (50.0, 0.1), (200.0, 3.0),
                                     (2.9081439777683373e-24, 1e-300)])
def test_thermal_excess_against_mpmath(k, beta):
    exact = 2 * mp.mpf(k) / mp.expm1(mp.mpf(beta) * k)
    assert thermal_excess(k, beta) == pytest.approx(float(exact), rel=1e-15)


# beta from 1e-300, where beta^{-5/2} alone overflows, to 1e100, where the
# sum nears underflow; y from 1e-3 to 1e4, below, near and far above beta
IMAGE_BETAS = [1e-300, 1e-100, 1e-8, 1e-3, 0.05, 1.0, 5.0, 62.8, 1e3, 1e8, 1e100]
IMAGE_YS = [1e-3, 0.1, 1.0, 16.0, 500.0, 1e4]


@pytest.mark.parametrize("beta", IMAGE_BETAS)
def test_image_sum_against_mpmath(beta):
    for y in IMAGE_YS:
        b, d = mp.mpf(beta), mp.mpf(y)
        exact = b ** mp.mpf("-2.5") * mp.zeta(mp.mpf("2.5"), 1 + 1j * d / b)
        assert abs(mp.mpc(image_sum(beta, y)) - exact) <= 2e-15 * abs(exact), y


def test_image_sum_zero_temperature():
    assert image_sum(math.inf, 3.0) == 0j


def test_log_cosh_overflow_safe():
    assert log_cosh(100.0) == pytest.approx(100.0 - math.log(2.0), abs=1e-13)
    assert log_cosh(0.0) == pytest.approx(0.0, abs=1e-15)
    assert log_cosh(-5.0) == log_cosh(5.0)
