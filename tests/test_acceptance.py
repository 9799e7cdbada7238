"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import contextlib
import math
import time
import warnings

import numpy as np
import pytest

from sonicbh import default_config, derive
from sonicbh.characteristics import (entanglement_boundary,
                                     forward_characteristic,
                                     trace_characteristic)
from sonicbh.correlations import (build_correlation_grid, corr_closed_form,
                                  corr_mode_sum_oracle, detect_peak,
                                  open_correction_er)
from sonicbh.decoherence import (allowed_frequencies, decoherence_time,
                                 diffusion_exact, diffusion_quadrature_oracle,
                                 sweep_decoherence, v_coefficients)
from sonicbh.environment import EnvironmentSpec
from sonicbh.errors import RegimeWarning
from sonicbh.langevin import estimate_correlation, expected_correlation_curve
from sonicbh.profiles import LineProfile, RingProfile, hawking_temperature_ring

from conftest import mode_function_pde_residual

LINE = LineProfile(a=1.0, kappa=0.1, tau=1.0)
LINE_T_H = 0.2 / (4.0 * math.pi)
T_LONG = 100.0


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {label}")
        raise
    print(f"[criterion {number:02d}] PASS  {label}")


def test_c01_exact_vs_oracle_diffusion():
    with criterion(1, "closed-form D(t) vs nested quadrature, rel < 1e-6, < 60 s"):
        start = time.time()
        worst = 0.0
        for lam in (2.0, 20.0):
            for om in (0.4, 3.0):
                env = EnvironmentSpec(coupling_eff=0.02, cutoff=lam,
                                      cutoff_shape="lorentzian")
                for t in np.geomspace(1e-2 / lam, 1e3 / om, 5):
                    exact = diffusion_exact(float(t), om, env)
                    oracle = diffusion_quadrature_oracle(float(t), om, env)
                    worst = max(worst, abs(exact - oracle) / abs(oracle))
        elapsed = time.time() - start
        assert worst < 1e-6, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


def test_c02_asymptotic_plateau():
    with criterion(2, "|D/(g^2 w pi/4) - 1| < 2% for wt > 200, w < cutoff/100"):
        for ratio in (1.0 / 200.0, 1.0 / 150.0):
            om = 0.5
            env = EnvironmentSpec(coupling_eff=0.02, cutoff=om / ratio,
                                  cutoff_shape="lorentzian")
            plateau = env.coupling_eff ** 2 * om * math.pi / 4.0
            for om_t in (201.0, 350.0, 700.0, 1500.0):
                d = diffusion_exact(om_t / om, om, env)
                assert abs(d / plateau - 1.0) < 0.02


def test_c03_thermal_coefficient_fit():
    with criterion(3, "quadratic fit of t_D(T0) - t_D(0) recovers -8 k_B^2/(w^3 pi hbar^2) within 1%"):
        config = default_config()
        derived = derive(config)
        ring = RingProfile.from_config(config)
        t_h = hawking_temperature_ring(ring)
        om = float(allowed_frequencies(ring, "u")[10])
        vc = v_coefficients(ring, om)
        gamma = 3e-8
        base = decoherence_time(config, derived, gamma, om, 0.0, vc).t_d
        temps = np.linspace(0.5 * t_h, 20.0 * t_h, 12)
        deltas = np.array([
            decoherence_time(config, derived, gamma, om, float(t0), vc).t_d - base
            for t0 in temps])
        coeff = np.polyfit(temps, deltas, 2)[0]
        expected = -8.0 * config.k_boltzmann ** 2 / (om ** 3 * math.pi * config.hbar ** 2)
        assert coeff == pytest.approx(expected, rel=0.01)


def test_c04_scaling_law_and_bounds():
    with criterion(4, "t_D ~ gamma^-2 exactly; t_D >= 100 T at 3e-8; t_D ~ tau at 5e-6"):
        config = default_config()
        gammas = np.geomspace(1e-8, 1e-5, 7)
        rows, errors = sweep_decoherence("gamma", gammas, config, 1.0)
        assert not errors
        lo = np.array([r.t_d_min for r in rows])
        hi = np.array([r.t_d_max for r in rows])
        g2 = gammas ** 2
        assert np.allclose(lo * g2, lo[0] * g2[0], rtol=1e-12)
        assert np.allclose(hi * g2, hi[0] * g2[0], rtol=1e-12)
        tau = derive(config).tau
        worst_at = lambda g: lo[0] * g2[0] / g ** 2
        assert worst_at(3e-8) >= 100.0 * config.period
        assert tau / 3.0 <= worst_at(5e-6) <= 3.0 * tau


def test_c05_v_coefficient_regime():
    """The anomalous weight 2 log(1/(omega tau)) V2 is negligible because V2
    vanishes at allowed frequencies: with gamma1 = gamma2 the ring is mirror
    symmetric, theta -> 2 pi - theta sends x_b to X_b - x_b, and 2 omega X_b
    is a multiple of 4 pi, so the sine integral cancels (|V2| <= 1e-12 in
    test_decoherence.py::test_v2_vanishes_by_mirror_symmetry)."""
    with criterion(5, "anomalous weight negligible; u and v mode weights agree within 20%"):
        config = default_config()
        ring = RingProfile.from_config(config)
        tau = derive(config).tau
        literal_ratios = []
        for branch in ("u", "v"):
            omegas = allowed_frequencies(ring, branch)[::5]
            for om in omegas:
                vc = v_coefficients(ring, float(om))
                v1 = vc.v1_u if branch == "u" else vc.v1_v
                v2 = vc.v2_u if branch == "u" else vc.v2_v
                assert abs(2.0 * math.log(1.0 / (om * tau)) * v2) < 0.1 * v1
        omegas = allowed_frequencies(ring, "u")[::5]
        for om in omegas:
            vc = v_coefficients(ring, float(om))
            assert abs(vc.v1_u / vc.v1_v - 1.0) < 0.2
            if vc.v2_v != 0.0:
                literal_ratios.append(vc.v1_u / vc.v2_v)
        # the literal cross-branch pairing V1_u / V2_v is singular (V2 ~ 0 at
        # allowed frequencies); report the measured magnitude for the record
        if literal_ratios:
            print(f"    [note] literal V1_u/V2_v spans 1e{math.log10(min(abs(r) for r in literal_ratios)):.0f}"
                  f"..1e{math.log10(max(abs(r) for r in literal_ratios)):.0f} (unattainable reading)")


def test_c06_closed_vs_mode_sum_correlation():
    with criterion(6, "closed form vs mode-sum oracle within 1e-4 at 10 points, < 5 min"):
        start = time.time()
        pairs = ([(-4.0, x2) for x2 in (2.5, 4.0, 4.61, 6.0, 8.0)]
                 + [(-6.0, x2) for x2 in (2.0, 3.0, 5.0, 7.0, 9.5)])
        worst = 0.0
        for x1, x2 in pairs:
            c = corr_closed_form(x1, x2, T_LONG, math.inf, LINE)
            o = corr_mode_sum_oracle(x1, x2, T_LONG, math.inf, LINE)
            worst = max(worst, abs(c - o) / abs(c))
        elapsed = time.time() - start
        assert worst < 1e-4, f"worst relative deviation {worst:.2e}"
        assert elapsed < 300.0


def test_c07_entanglement_boundary_flip():
    with criterion(7, "peak presence flips across x_plus ~ 10.93 within one grid spacing"):
        xp = entanglement_boundary(T_LONG, LINE)[1]
        assert xp == pytest.approx(10.93, abs=5e-3)
        x1s = np.arange(-11.4, -10.4, 0.05)
        x2 = np.linspace(1.5, 14.0, 64)
        present = []
        for x1 in x1s:
            grid = build_correlation_grid(float(x1), x2, T_LONG, math.inf, LINE)
            present.append(detect_peak(grid).present)
        flips = [i for i in range(len(present) - 1) if present[i] != present[i + 1]]
        assert len(flips) == 1, f"expected a single flip, got {flips}"
        lo, hi = x1s[flips[0]], x1s[flips[0] + 1]
        assert lo < -xp <= hi + 0.05  # one x1-grid spacing


def test_c08_thermal_peak_dilution():
    with criterion(8, "peak contrast strictly decreasing over T0 in {0, 20, 60} T_H"):
        x2 = np.linspace(1.5, 30.0, 96)
        contrasts = []
        for mult in (0.0, 20.0, 60.0):
            beta = math.inf if mult == 0.0 else 1.0 / (mult * LINE_T_H)
            grid = build_correlation_grid(-4.0, x2, T_LONG, beta, LINE)
            contrasts.append(detect_peak(grid).contrast)
        assert contrasts[0] > contrasts[1] > contrasts[2], contrasts


def test_c09_characteristics_round_trip_and_residual():
    with criterion(9, "round trip closes to 1e-8 (100 points/region); residual O(h^2)"):
        rng = np.random.default_rng(11)
        windows = {"x<-a": (-8.0, -1.05), "|x|<=a": (-0.95, 0.95), "x>a": (1.05, 8.0)}
        for lo, hi in windows.values():
            xs = rng.uniform(lo, hi, 100)
            ts = rng.uniform(0.1, 25.0, 100)
            for x, t in zip(xs, ts):
                tr = trace_characteristic(float(x), float(t), LINE)
                back = forward_characteristic(tr.x0, [float(t)], LINE)[-1]
                err = abs(back - x) / max(abs(x), 1.0)
                assert err < 1e-8, f"({x:.3f},{t:.3f}): {err:.2e}"
        residuals = [mode_function_pde_residual(1.7, 0.3, 2.0, LINE, h)
                     for h in (0.02, 0.01, 0.005)]
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)
        assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.3)


def test_c10_langevin_cross_validation():
    with criterion(10, "Monte-Carlo peak location vs closed form within combined error, < 15 min"):
        start = time.time()
        t, x1 = 30.0, -1.2
        x2 = np.linspace(1.1, 6.0, 64)
        h = float(x2[1] - x2[0])
        eps = 0.12
        xp = entanglement_boundary(t, LINE)[1]
        search = x2 <= xp          # the pair peak lives inside the wedge

        def qfit_loc(values, stderr=None):
            """Vertex of a weighted quadratic around the argmax of the lower
            confidence envelope; returns (location, fit sigma)."""
            envelope = values if stderr is None else values - 2.0 * stderr
            j = int(np.argmax(np.where(search, envelope, -np.inf)))
            s = slice(max(j - 3, 0), min(j + 4, len(values)))
            w = None if stderr is None else 1.0 / np.maximum(stderr[s], 1e-300)
            if w is None:
                c = np.polyfit(x2[s], values[s], 2)
                return float(-c[1] / (2 * c[0])), 0.0
            c, cov = np.polyfit(x2[s], values[s], 2, w=w, cov="unscaled")
            loc = float(-c[1] / (2 * c[0]))
            dv_da, dv_db = c[1] / (2 * c[0] ** 2), -1.0 / (2 * c[0])
            var = (dv_da ** 2 * cov[0, 0] + dv_db ** 2 * cov[1, 1]
                   + 2 * dv_da * dv_db * cov[0, 1])
            return loc, math.sqrt(max(var, 0.0))

        grid_cf = build_correlation_grid(x1, x2, t, math.inf, LINE)
        loc_closed, _ = qfit_loc(grid_cf.values)
        # scheme systematic: deterministic expectation of the estimator
        scheme = expected_correlation_curve(x1, x2, t, 0.0, LINE, eps)
        loc_scheme, _ = qfit_loc(scheme)
        systematic = abs(loc_scheme - loc_closed)
        # single desk-scale run at the realization cap
        mc = estimate_correlation(10_000, x1, x2, t, 0.0, LINE, seed=7000,
                                  uv_epsilon=eps, n_sites=512)
        loc_mc, sigma = qfit_loc(mc.values, mc.stderr)
        combined = 3.0 * sigma + systematic + h
        elapsed = time.time() - start
        print(f"    [note] MC {loc_mc:.3f} +- {sigma:.3f}, closed {loc_closed:.3f}, "
              f"scheme systematic {systematic:.3f}, bound {combined:.3f}")
        assert abs(loc_mc - loc_closed) <= combined
        # the sampler must also match its own deterministic scheme sharply
        assert abs(loc_mc - loc_scheme) <= 3.0 * sigma + h
        assert elapsed < 900.0, f"runtime {elapsed:.0f}s"


def test_c11_open_correction_behavior():
    with criterion(11, "e_r: zero at lam=0; growth after transient; non-increasing in k"):
        t_hot = 100.0 * LINE_T_H
        assert open_correction_er(0.05, 60.0, 0.0, t_hot, LINE).e_r == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            ts = np.linspace(35.0, 100.0, 27)
            ers = np.array([open_correction_er(0.05, float(u), 1e-7, t_hot, LINE,
                                               x1=-4.0).e_r for u in ts])
            rel_drops = np.diff(ers) / ers[:-1]
            assert rel_drops.min() > -1e-3       # flat spots at 2kt = 2 pi n only
            assert ers[-1] > 2.0 * ers[0]        # net growth across the window
            ks = (0.02, 0.05, 0.1, 0.2)
            ervals = [open_correction_er(k, 80.0, 1e-7, t_hot, LINE, x1=-4.0).e_r
                      for k in ks]
            assert all(a >= b for a, b in zip(ervals, ervals[1:]))
