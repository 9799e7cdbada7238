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
from sonicbh.specfun import (betainc_regularized, fourier_integral, integrate_adaptive,
                             log_cosh, si, stable_shi_chi_combo, thermal_excess,
                             thermal_weight)

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


@pytest.mark.parametrize("f,a,b,expected", KNOWN_INTEGRALS)
def test_adaptive_quadrature_on_known_integrals(f, a, b, expected):
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


def test_quadpack_called_only_from_specfun():
    """specfun is the one QUADPACK boundary: its wrappers refuse non-finite
    integrands and report evaluation counts."""
    src = Path(__file__).resolve().parents[1] / "src" / "sonicbh"
    callers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "quad":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


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


def test_log_cosh_overflow_safe():
    assert log_cosh(100.0) == pytest.approx(100.0 - math.log(2.0), abs=1e-13)
    assert log_cosh(0.0) == pytest.approx(0.0, abs=1e-15)
    assert log_cosh(-5.0) == log_cosh(5.0)


@pytest.mark.parametrize("a, b", [(0.05, 0.05), (0.05, 3.0), (0.025, 1.025), (1.05, 0.05),
                                  (0.5, 0.5), (2.5, 1.5), (1.0, 1.0), (12.0, 40.0)])
def test_betainc_against_mpmath(a, b):
    # both sides of the continued fraction's switch (a + 1)/(a + b + 2)
    for x in (0.0, 1e-300, 1e-12, 1e-3, 0.119, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-9, 1.0):
        exact = mp.betainc(a, b, 0, x, regularized=True)
        assert betainc_regularized(a, b, x) == pytest.approx(float(exact), rel=1e-13, abs=1e-300)
