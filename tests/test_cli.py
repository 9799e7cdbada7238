import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sonicbh
from sonicbh.characteristics import entanglement_boundary, matched_x0, pair_partner
from sonicbh.cli import build_parser, linspace, main
from sonicbh.correlations import corr_closed_form
from sonicbh.decoherence import (SweepRow, allowed_frequencies, decoherence_time,
                                 v_coefficients)
from sonicbh.params import DEFAULT_CONFIG_TEXT, MAX_N_IONS, derive, load_config, parse_kv_text
from sonicbh.profiles import LineProfile, RingProfile, hawking_temperature_line

import golden_outputs
from conftest import er_mpmath


def _run(tmp_path, *args, name="out.csv"):
    """main on args (a subcommand and its options), the output option after them."""
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    return code, out


def _rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_hawking_command(tmp_path):
    code, out = _run(tmp_path, "hawking")
    assert code == 0
    manifest, header, rows = _rows(out)
    assert header == ["geometry", "t_hawking"]
    values = {r[0]: float(r[1]) for r in rows}
    assert values["line"] == pytest.approx(0.2 / (4 * math.pi), rel=1e-10)
    assert values["ring"] == pytest.approx(0.5, rel=1e-6)
    assert "version=" in manifest and "config_sha256=" in manifest


def test_boundary_command_geometry(tmp_path):
    code, out = _run(tmp_path, "boundary", "--t-max", "200", "--points", "50")
    assert code == 0
    _, header, rows = _rows(out)
    assert header == ["t", "x_minus", "x_plus"]
    t, xm, xp = map(float, rows[-1])
    assert t == 200.0
    assert xp == pytest.approx(1.0 + 0.1 * (200 - math.log(2)), rel=1e-9)
    assert xm == -xp


def test_correlation_command_reproduces_long_time_curve(tmp_path):
    code, out = _run(tmp_path, "correlation", "--t", "100", "--x1", "-4",
                     "--beta", "inf", "--points", "64")
    assert code == 0
    manifest, header, rows = _rows(out)
    assert header == ["x2", "abs_corr", "region"]
    assert "peak_present=true" in manifest
    vals = np.array([float(r[1]) for r in rows])
    assert vals.max() == pytest.approx(0.25, rel=0.05)


@pytest.mark.parametrize("t, beta, points, n_matched", [("60", "0.5", "24", 19),
                                                        ("100", "inf", "64", 54)])
def test_mode_sum_oracle_scan_matches_closed_form(tmp_path, t, beta, points, n_matched):
    # at t = 60 the matched separations X1 + X2 reach 3.8 beta, where the
    # thermal k integral cancels its vacuum part to ~1e-9 of it; at t = 100
    # they shrink to ~0.004
    code, out = _run(tmp_path, "correlation", "--t", t, "--x1", "-4", "--beta", beta,
                     "--method", "mode_sum_oracle", "--points", points)
    assert code == 0
    _, _, rows = _rows(out)
    line = LineProfile(a=1.0, kappa=0.1, tau=1.0)      # the default config's line
    matched = [(float(x2), float(v)) for x2, v, region in rows if region == "matched"]
    assert len(matched) == n_matched
    for x2, v in matched:
        closed = corr_closed_form(-4.0, x2, float(t), float(beta), line)
        assert v == pytest.approx(abs(closed), rel=1e-4)


def test_tiny_beta_is_answered(tmp_path):
    """At beta = 1e-300, beta^{-5/2} alone overflows; the image series sums
    unscaled terms, and the uniform row at x2 = 11.8527919296 reads the
    40-digit mpmath value 1.98564359528e+298 (5.8e-8 off by quadrature)."""
    code, out = _run(tmp_path, "correlation", "--t", "100", "--x1", "-4", "--beta", "1e-300",
                     "--points", "16")
    assert code == 0
    rows = {row[0]: row[1:] for row in _rows(out)[2]}
    assert rows["11.8527919296"] == ["1.98564359528e+298", "uniform"]
    assert all(math.isfinite(float(value)) for value, _region in rows.values())


def test_tiny_beta_is_refused_by_the_oracle_method(tmp_path, capsys):
    """Below beta = 1e-292 the uniform rows' quadrature drifts off the image
    series (8e-8 at 1e-300, 130% at 1e-307): the oracle method refuses such a
    beta by name, exit 4, where the closed-form method answers."""
    argv = ["correlation", "--t", "60", "--x1", "-12", "--points", "16", "--beta"]
    for beta in ("1e-300", "1e-308"):
        assert _run(tmp_path, *argv, beta)[0] == 0
        code, _ = _run(tmp_path, *argv, beta, "--method", "mode_sum_oracle")
        assert code == 4
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "RegimeError" and f"beta = {beta}:" in record["message"]
    assert _run(tmp_path, *argv, "1e-292", "--method", "mode_sum_oracle")[0] == 0


@given(start=st.floats(-1e150, 1e150), stop=st.floats(-1e150, 1e150),
       num=st.integers(1, 300))
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    bits = lambda values: [float(v).hex() for v in values]
    assert bits(linspace(start, stop, num)) == bits(np.linspace(start, stop, num))
    assert bits(linspace(start, stop, 1)) == bits(np.linspace(start, stop, 1))


def _x2_column(path):
    return [float(r[0]) for r in _rows(path)[2]]


@pytest.mark.parametrize("points", ["32", "64"])
@pytest.mark.parametrize("t, beta", [(t, "inf") for t in ("40", "100", "300", "800", "2000")]
                         + [(t, "5") for t in ("40", "100", "300", "800", "2000")])
def test_default_window_finds_the_partner_at_every_t(tmp_path, t, beta, points):
    """The default x2 window stays around the partner x2* however late t is:
    the peak is found within one grid step of x2*.  At t = 40 and beta = 5
    the thermal factor moves the maximum about 0.7 below x2*, and only the
    peak itself is required."""
    code, out = _run(tmp_path, "correlation", "--t", t, "--x1", "-4", "--beta", beta,
                     "--points", points)
    assert code == 0
    manifest = dict(item.split("=") for item in _rows(out)[0].split()[2:])
    assert manifest["peak_present"] == "true"
    x2 = _x2_column(out)
    partner = pair_partner(-4.0, float(t), LineProfile(a=1.0, kappa=0.1, tau=1.0))
    if (t, beta) != ("40", "5"):
        assert abs(float(manifest["peak_location"]) - partner) <= x2[1] - x2[0]


@pytest.mark.parametrize("argv, lo, hi", [
    # the README scan: [1.2a, x2* + 8a]
    (["correlation", "--t", "100", "--x1", "-4", "--points", "16"],
     1.2, 2.0 + 4.0 - 2.0 * math.log(2.0) + 8.0),
    # langevin's mc-check inputs keep [1.2a, 1.2 x_plus]
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "50", "--points", "4"],
     1.2, 1.2 * entanglement_boundary(30.0, LineProfile(a=1.0, kappa=0.1, tau=1.0))[1]),
    # a given bound is kept, the other defaults
    (["correlation", "--t", "100", "--x1", "-4", "--x2-min", "2", "--points", "16"],
     2.0, 2.0 + 4.0 - 2.0 * math.log(2.0) + 8.0),
], ids=["correlation", "langevin", "correlation-x2-min"])
def test_both_pair_commands_share_the_default_window(tmp_path, argv, lo, hi):
    """[max(1.2a, x2* - 8a), min(x2* + 8a, 1.2 x_plus)] for both commands."""
    code, out = _run(tmp_path, *argv)
    assert code == 0
    x2 = _x2_column(out)
    assert x2[0] == pytest.approx(lo, rel=1e-11) and x2[-1] == pytest.approx(hi, rel=1e-11)


def test_correlation_all_zero_scan_has_no_peak(tmp_path):
    # the matched exponentials underflow: every sample is 0; at x2 ~ 1e199 the
    # background underflows too, and the zero height answers without it
    for argv in (["--t", "1e300", "--x1", "-4", "--points", "16"],
                 ["--t", "1e201", "--x1", "-4", "--x2-min", "1e199", "--x2-max", "2e199",
                  "--points", "16"]):
        code, out = _run(tmp_path, "correlation", *argv)
        assert code == 0
        manifest, _, rows = _rows(out)
        assert all(float(r[1]) == 0.0 for r in rows)
        assert "peak_contrast=0 " in manifest and "peak_present=false" in manifest


@pytest.mark.parametrize("argv, contrast, present", [
    # at t = 40 the wedge fills the window; the peak lies 0.009 from x2* = 2.6137
    (["--t", "40", "--x1", "-2", "--beta", "inf", "--points", "64"], 12.2182938326, "true"),
    # every matched row underflows: the maximum, a uniform row, is its own background
    (["--t", "100", "--x1", "-4", "--beta", "1e-200"], 1.0, "false"),
    # 64 samples on the symmetric default window: the two central ones, either
    # side of x2*, tie bit for bit at the maximum
    (["--t", "300", "--x1", "-10"], 503.211311874, "true"),
], ids=["t40", "beta-1e-200", "tie"])
def test_peak_is_measured_against_the_fluid_without_a_horizon(tmp_path, argv, contrast,
                                                              present):
    """The contrast is the height over |corr_homogeneous_closed_form| at the
    peak's own pair; the peak is present at an interior, matched maximum
    with contrast above 3."""
    code, out = _run(tmp_path, "correlation", *argv)
    assert code == 0
    manifest = dict(item.split("=") for item in _rows(out)[0].split()[2:])
    assert float(manifest["peak_contrast"]) == pytest.approx(contrast, rel=1e-10)
    assert manifest["peak_present"] == present


def test_underflowing_background_under_a_peak_is_refused(tmp_path, capsys):
    # at x1 = -1e168 the pair's background underflows to 0 while the matched
    # row at x2 = 1e168 does not: no contrast in the float range
    code, _ = _run(tmp_path, "correlation", "--t", "1e170", "--x1", "-1e168",
                   "--x2-min", "1e168", "--x2-max", "1.1e168", "--points", "16")
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "RegimeError" and "leaves the float range" in record["message"]


@pytest.mark.parametrize("beta", ["0.05", "1e-300"])
def test_hot_scan_jump_to_uniform_rows_is_no_pair_peak(tmp_path, beta):
    # heat suppresses the matched rows, so the maximum is the first uniform row
    # past x_plus: an interior maximum over a low background, but no pair peak
    code, out = _run(tmp_path, "correlation", "--t", "100", "--x1", "-4",
                     "--beta", beta, "--points", "16")
    assert code == 0
    manifest, _, rows = _rows(out)
    top = max(rows, key=lambda r: float(r[1]))
    assert top[2] == "uniform" and f"peak_location={float(top[0]):.12g}" in manifest
    assert "peak_present=false" in manifest


@pytest.mark.parametrize("t, beta", [("800", "5"), ("100", "1e20")])
def test_correlation_scan_at_vanishing_thermal_argument(tmp_path, t, beta):
    # z = pi (X1 + X2)/beta far below 1e-17: the thermal factor is 1, no domain error
    code, out = _run(tmp_path, "correlation", "--t", t, "--x1", "-4", "--beta", beta,
                     "--points", "32")
    assert code == 0
    _, _, rows = _rows(out)
    assert len(rows) == 32
    assert all(math.isfinite(float(r[1])) for r in rows)
    assert any(r[2] == "matched" for r in rows)


def test_tdec_sweep_underflowing_gamma_is_point_error(tmp_path, recwarn):
    # gamma^2 underflows to 0: each point is refused, none written as t_D = inf
    code, out = _run(tmp_path, "tdec-sweep", "--axis", "gamma",
                     "--from", "1e-300", "--to", "1e-299", "--points", "2")
    assert code == 0
    manifest, _, rows = _rows(out)
    assert "point_errors=2" in manifest and rows == []
    assert not recwarn.list


def test_tdec_sweep_gamma_scaling(tmp_path):
    code, out = _run(tmp_path, "tdec-sweep", "--axis", "gamma",
                     "--from", "1e-8", "--to", "1e-5", "--points", "7", "--log")
    assert code == 0
    _, header, rows = _rows(out)
    assert header == ["axis", "t_d_min", "t_d_max", "omega_min", "omega_max"]
    g = np.array([float(r[0]) for r in rows])
    lo = np.array([float(r[1]) for r in rows])
    hi = np.array([float(r[2]) for r in rows])
    assert np.allclose(lo * g ** 2, lo[0] * g[0] ** 2, rtol=1e-12)
    assert np.allclose(hi * g ** 2, hi[0] * g[0] ** 2, rtol=1e-12)


def _config_file(tmp_path, **overrides):
    kv = dict(parse_kv_text(DEFAULT_CONFIG_TEXT), **overrides)
    path = tmp_path / "scenario.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return path


def test_tdec_sweep_gamma_axis_needs_no_config_gamma(tmp_path, capsys):
    # the gamma axis sets gamma at every point: a config without the key
    # sweeps to the default config's rows, and no flag stands in for the key
    kv = parse_kv_text(DEFAULT_CONFIG_TEXT)
    del kv["gamma"]
    cfg_path = tmp_path / "no_gamma.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    sweep = ["tdec-sweep", "--axis", "gamma", "--from", "1e-7", "--to", "1e-6",
             "--points", "3", "--log"]
    code, out = _run(tmp_path, *sweep, "--config", str(cfg_path), name="no_gamma.csv")
    assert code == 0
    code_default, out_default = _run(tmp_path, *sweep, name="default.csv")
    assert code_default == 0
    _, header, rows = _rows(out)
    assert (header, rows) == _rows(out_default)[1:] and len(rows) == 3
    assert main([*sweep, "--gamma", "1", "--output", str(tmp_path / "x.csv")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_tdec_sweep_gamma_keeps_bath_temperature(tmp_path):
    # a 200-ion ring with the charge scaled by sqrt(1000/200) keeps the
    # default flow and sound speed at a fifth of the modes
    cfg_path = _config_file(tmp_path, n_ions=200, ion_charge=37.6246 * math.sqrt(5.0),
                            bath_temperature=1.0)
    code, out = _run(tmp_path, "tdec-sweep", "--axis", "gamma", "--from", "1e-7",
                     "--to", "1e-6", "--points", "3", "--log", "--config", str(cfg_path))
    assert code == 0
    manifest, _, rows = _rows(out)
    assert "point_errors" not in manifest
    config = load_config(cfg_path.read_text())
    profile, derived = RingProfile.from_config(config), derive(config)
    modes = [(b, float(w)) for b in ("u", "v") for w in allowed_frequencies(profile, b)]
    for row in rows:
        g, t_lo, t_hi, om_lo, om_hi = map(float, row)
        for t_d, om in ((t_lo, om_lo), (t_hi, om_hi)):
            # the CSV keeps 12 digits; recover the exact allowed frequency
            branch, exact = next(m for m in modes if m[1] == pytest.approx(om, rel=1e-10))
            est = decoherence_time(config, derived, g, exact, 1.0,
                                   v_coefficients(profile, exact), branch=branch)
            assert t_d == pytest.approx(est.t_d, rel=1e-9)


def test_diffusion_command_with_oracle(tmp_path):
    code, out = _run(tmp_path, "diffusion", "--omega", "2.0",
                     "--t-min", "0.01", "--t-max", "10", "--points", "5", "--oracle")
    assert code == 0
    _, header, rows = _rows(out)
    assert header == ["t", "d_exact", "d_oracle"]
    for r in rows:
        assert float(r[1]) == pytest.approx(float(r[2]), rel=1e-8)


@pytest.mark.parametrize("omega, t", [("2", "1e15"), ("0.5", "1e9"), ("2", "1e16"),
                                      ("0.001", "144558.77")])
def test_diffusion_oracle_refuses_past_its_range(tmp_path, capsys, omega, t):
    """Past nu_b t = 3e6 the oracle misses the closed form (40x at t = 1e15,
    5e-6 at t = 1e9) or divides by zero (t = 1e16), and below omega = 0.03 it
    misses it sporadically (3.7e-6 at omega = 0.001, t = 144558.77, cutoff 2):
    a numeric refusal, exit 3, naming t and omega; no output is written."""
    out = tmp_path / "x.csv"
    argv = ["diffusion", "--omega", omega, "--t-min", t, "--t-max", t, "--points", "1",
            "--oracle", "--output", str(out)]
    assert main(argv) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "QuadratureError"
    assert f"t = {float(t):.6g}, omega = {float(omega):.6g}" in record["message"]
    assert not out.exists()


def test_er_command(tmp_path):
    code, out = _run(tmp_path, "er", "--k", "0.05", "--t-min", "40",
                     "--t-max", "100", "--points", "10")
    assert code == 0
    _, header, rows = _rows(out)
    assert header == ["k", "t", "e_r"]
    ers = [float(r[2]) for r in rows]
    assert ers[-1] > ers[0] > 0.0


def test_er_command_at_late_times(tmp_path):
    """At t = 7100 the mode weights (X1/a)^2 of the default mid-wedge probe
    reach the bottom of the float range (times lam^2 they are subnormal), past
    t ~ 7480 they are 0; e_r, in which they cancel, still matches 50-digit
    mpmath."""
    code, out = _run(tmp_path, "er", "--k", "0.05", "--t-min", "7100", "--t-max", "8000",
                     "--points", "3")
    assert code == 0
    _, _, rows = _rows(out)
    line = LineProfile(a=1.0, kappa=0.1, tau=1.0)
    for _, t, e_r in rows:
        x1 = -0.5 * (line.a + entanglement_boundary(float(t), line)[1])
        expected = er_mpmath(0.05, float(t), 1e-7, 100.0 * hawking_temperature_line(line),
                             line, x1)
        assert float(e_r) == pytest.approx(expected, rel=1e-11)


def test_er_command_at_vanishing_k(tmp_path):
    """At k = 1e-160, k^2 and k^3 underflow, yet the noise term is at its
    k -> 0 limit T0 t^3 / 3 and k coth(beta k/2) at 2 T0: e_r = lam^2 |t^3/6 - t|
    at the default lam = 1e-7, whatever T0."""
    code, out = _run(tmp_path, "er", "--k", "1e-160", "--t-min", "40", "--t-max", "100",
                     "--points", "4")
    assert code == 0
    _, _, rows = _rows(out)
    for _, t, e_r in rows:
        t = float(t)
        assert float(e_r) == pytest.approx(1e-14 * (t ** 3 / 6.0 - t), rel=1e-11)


_LINE = LineProfile(a=1.0, kappa=0.1, tau=1.0)
_LINE_T_H = hawking_temperature_line(_LINE)


@st.composite
def _er_points(draw):
    """(k, t, lam, T0) around e_r's four limits: |lam| = 1e-3, T0 = 10 T_H,
    k a = 1 and |cos(2 k X1)| = 0.1, X1 at the default mid-wedge probe."""
    t = draw(st.floats(5.0, 200.0))
    if draw(st.booleans()):
        k = draw(st.floats(0.01, 1.5))
    else:   # near a zero of cos(2 k X1)
        x1 = -0.5 * (_LINE.a + entanglement_boundary(t, _LINE)[1])
        x1_peak = abs(matched_x0(x1, t, _LINE).x0)
        zero = (0.5 + draw(st.integers(0, 2))) * math.pi / (2.0 * x1_peak)
        k = zero * (1.0 + draw(st.floats(-0.15, 0.15)))
    # special 8 and 9 draw 0 and the limit itself; the rest spread across the limit
    special = draw(st.integers(0, 9))
    lam = ((0.0, 1e-3)[special - 8] if special >= 8
           else 10.0 ** (draw(st.integers(-90, -20)) / 10))
    lam *= draw(st.sampled_from([1.0, -1.0]))
    special = draw(st.integers(0, 9))
    temperature = ((0.0, 10.0 * _LINE_T_H)[special - 8] if special >= 8
                   else 10.0 ** (draw(st.integers(5, 30)) / 10) * _LINE_T_H)
    return k, t, lam, temperature


@settings(max_examples=200, deadline=None)
@given(point=_er_points())
def test_er_answers_inside_its_regime_and_refuses_outside(tmp_path_factory, point):
    """Inside the regime (|lam| <= 1e-3, T0 >= 10 T_H, k a <= 1 and
    |cos(2 k X1)| >= 0.1, or lam = 0) er exits 0 with a finite e_r; outside,
    exit 4 and one JSON record naming the first input past its limit."""
    k, t, lam, temperature = point
    out = tmp_path_factory.mktemp("er") / "er.csv"
    argv = ["er", "--k", repr(k), "--t-min", repr(t), "--t-max", repr(t), "--points", "1",
            "--lam", repr(lam), "--temperature", repr(temperature), "--output", str(out)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    x1 = -0.5 * (_LINE.a + entanglement_boundary(t, _LINE)[1])
    x1_peak = abs(matched_x0(x1, t, _LINE).x0)
    where = f"e_r at k = {k:.6g}, t = {t:.6g}, a = 1, X1 = {x1_peak:.6g}: "
    refusal = (None if lam == 0.0
               else f"e_r at lam = {lam:.6g}: |lam| > 0.001" if abs(lam) > 1e-3
               else f"e_r at T0 = {temperature:.6g}: T0 < 10 T_H" if temperature < 10 * _LINE_T_H
               else where + "k a > 1" if k > 1.0
               else where + "|cos(2 k X1)|" if abs(math.cos(2.0 * k * x1_peak)) < 0.1
               else None)
    if refusal is None:
        assert (code, stderr.getvalue()) == (0, "")
        e_r = float(_rows(out)[2][0][2])
        assert math.isfinite(e_r) and e_r >= 0.0
    else:
        assert code == 4
        lines = stderr.getvalue().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "RegimeError"
        assert record["message"].startswith(refusal), record["message"]
        assert not out.exists()


def test_langevin_command_manifest_records_seed(tmp_path):
    code, out = _run(tmp_path, "langevin", "--t", "30", "--x1", "-1.2",
                     "--realizations", "400", "--seed", "7", "--points", "24")
    assert code == 0
    manifest, header, rows = _rows(out)
    assert "seed=7" in manifest and "realizations=400" in manifest
    assert header == ["x2", "abs_corr", "stderr"]
    assert all(float(r[2]) > 0 for r in rows)


def test_byte_identical_reruns(tmp_path):
    _, out1 = _run(tmp_path, "vcoef", "--max-modes", "5", name="a.csv")
    _, out2 = _run(tmp_path, "vcoef", "--max-modes", "5", name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_ions = banana\n")
    code = main(["hawking", "--config", str(bad), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"


def test_regime_error_exit_code(tmp_path, capsys):
    # temperature sweep beyond 100 T_H is refused with exit code 4
    code = main(["tdec-sweep", "--axis", "temperature", "--from", "0.1", "--to", "1000.0",
                 "--points", "4", "--output", str(tmp_path / "x.csv")])
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "RegimeError", "message": (
        "temperature sweep beyond 100 T_H = 50 refused (low-temperature expansion "
        "invalid); offending values start at 333.4")}


def test_package_reads_no_environment_variable():
    """A config reaches the CLI through --config or the built-in defaults
    alone: no module of the package looks up an environment variable."""
    package = os.path.dirname(os.path.abspath(sonicbh.__file__))
    readers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                if re.search(r"\b(environ|getenv|environb)\b", fh.read()):
                    readers.append(name)
    assert readers == []


def test_output_written_atomically(tmp_path):
    # no stray temp files survive a successful write
    code, out = _run(tmp_path, "hawking", name="atomic.csv")
    assert code == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".sonicbh-")]
    assert not leftovers


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_refusal_names_the_requested_path(tmp_path, capsys, where):
    """The refusal names the --output path, not the temporary file beside it,
    and leaves no temporary file behind."""
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    assert main(["hawking", "--output", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert repr(str(out)) in record["message"] and ".sonicbh-" not in record["message"]
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".sonicbh-")]


# A 2-ion ring with the charge scaled as the benchmark's rings are: the same
# flow, its u fundamental above the ceiling N/T, and its exclusion of one ion
# spacing, pi, wider than the gaps between its horizons.
_TWO_IONS = {"n_ions": 2, "ion_charge": 37.6246 * math.sqrt(500.0)}

# Messages pinned per test id: --sites is gone (the estimator's mode count is
# fixed); er and diffusion name their inputs and the term that leaves the
# float range; an empty default x2 window names t and the partner x2*.
_REFUSAL_MESSAGES = {
    "correlation-t-0": r"^the default x2 window .* is empty at t = 0: x2\* = 6 ",
    "langevin-t-0": r"^the default x2 window .* is empty at t = 0: x2\* = 3\.2 ",
    "correlation-partner-beyond-wedge":
        r"^the default x2 window .* is empty at t = 100: x2\* = 50\.6137 ",
    "diffusion-omega-squared-overflows":
        r"^D\(t\) at omega = 1e\+300, cutoff = 20, t = 1: \(omega/cutoff\)\^2 ",
    "diffusion-omega-over-cutoff-overflows":
        r"^D\(t\) at omega = 1e\+10, cutoff = 1e-310, t = 1: \(omega/cutoff\)\^2 ",
    "langevin-sites-0": "unrecognized arguments: --sites",
    "langevin-sites-513": "unrecognized arguments: --sites",
    "er-k-beyond-small-k-window": r"^e_r at k = 1e\+300, t = 40, a = 1, X1 = 0\.517632: k a > 1, ",
    "er-k-at-zero-of-integrand":
        r"^e_r at k = 0\.55818, t = 20, a = 1, X1 = 1\.40707: \|cos\(2 k X1\)\| ",
    "er-noise-term-overflows": r"^e_r at k = 1e-110, lam = 1e-07, t = 1e\+110: the noise term ",
    "vcoef-epsilon-unknown": "unrecognized arguments: --epsilon",
    "vcoef-no-allowed-mode": r"^no allowed u mode: the u fundamental 12\.6947 lies above the "
                             r"frequency ceiling N/T = 2$",
    "tdec-sweep-two-ion-slivers": r"^exclusion half-width 3\.14159\d*: the horizon slivers ",
    "er-lam-squared-overflows": r"^e_r at k = 0\.24, lam = 1e-07, t = 1\.5e\+307: lam\^2 ",
    "er-lam-1e200-not-weak": r"^e_r at lam = 1e\+200: \|lam\| > 0\.001, outside the weak-",
    "er-lam-0.5-not-weak": r"^e_r at lam = 0\.5: \|lam\| > 0\.001, outside the weak-",
    "er-lam-negative-not-weak": r"^e_r at lam = -0\.5: \|lam\| > 0\.001, outside the weak-",
    "er-temperature-0-below-10-th":
        r"^e_r at T0 = 0: T0 < 10 T_H = 0\.159155, outside the high-temperature limit$",
    "n-ions-above-cap": rf"^n_ions must lie in \[2, {MAX_N_IONS}\], got {MAX_N_IONS + 1}$",
    "n-ions-below-2": rf"^n_ions must lie in \[2, {MAX_N_IONS}\], got 1$",
    "correlation-beta-subnormal": r"^the uniform-region correlation at \|x1 - x2\| = "
                                  r"15\.0919, beta = 4\.94066e-324 leaves the float range$",
    "output-before-command": r"^--output follows the subcommand: ",
    "output-equals-before-command": r"^--output follows the subcommand: ",
    "config-before-command": r"^--config follows the subcommand: ",
    # CSV is the one output format: --format is refused wherever it stands;
    # before the subcommand, the refusal names the option, not its value
    "format-before-command": r"^--format follows the subcommand: sonicbh <command> --format ",
    "t-before-command": r"^--t follows the subcommand: sonicbh <command> --t <value>$",
    "t-equals-before-unknown-command":
        r"^--t follows the subcommand: sonicbh <command> --t <value>$",
    "flag-before-command": r"^--log follows the subcommand: ",
    "unknown-command": r"^argument command: invalid choice: 'hawkng' ",
    "format-after-command": r"^unrecognized arguments: --format json$",
    # moments beyond the float range name the run's t, x1 and T0
    "langevin-moments-overflow": r"^the Monte-Carlo moments at t = 30, x1 = -1\.2, "
                                 r"T0 = 1e\+200 leave the float range: overflow ",
    "langevin-moments-overflow-1e300": r"^the Monte-Carlo moments at t = 30, x1 = -1\.2, "
                                       r"T0 = 1e\+300 leave the float range: overflow ",
}


@pytest.mark.parametrize("argv, config, code", [
    (["hawking"], "missing", 2),
    (["vcoef", "--max-modes", "5"], {"radius": "inf"}, 2),
    (["correlation", "--t", "100", "--x1", "-4", "--points", "16"], {"line_kappa": "nan"}, 2),
    (["diffusion", "--omega", "0", "--t-min", "0.01", "--t-max", "10"], None, 2),
    (["diffusion", "--omega", "-0", "--t-min", "0.01", "--t-max", "10"], None, 2),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "50",
      "--temperature", "nan"], None, 2),
    (["tdec-sweep", "--axis", "temperature", "--from", "0.1", "--to", "1000",
      "--points", "2"], None, 4),
    (["hawking"], {"gamma": "-1e-6"}, 2),
    (["hawking"], {"coupling_eff": "0.01"}, 2),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "50", "--sites", "0"], None, 2),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "50", "--sites", "513"],
     None, 2),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "1"], None, 2),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "50", "--seed", "-1"],
     None, 2),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "50",
      "--seed", str(2 ** 64)], None, 2),
    (["vcoef", "--max-modes", "-3"], None, 2),
    (["tdec-sweep", "--axis", "gamma", "--from", "1e-8", "--to", "1e-5", "--points", "0"],
     None, 2),
    (["boundary", "--points", "0"], None, 2),
    (["boundary", "--points", "-1"], None, 2),
    (["diffusion", "--omega", "2", "--t-min", "0.01", "--t-max", "10", "--points", "0"],
     None, 2),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "-2"], None, 2),
    (["correlation", "--t", "100", "--x1", "-4", "--points", "0"], None, 2),
    (["correlation", "--t", "-5", "--x1", "-4"], None, 2),
    (["langevin", "--t", "-5", "--x1", "-1.2", "--realizations", "50"], None, 2),
    (["tdec-sweep", "--axis", "gamma", "--from", "1e-8", "--to", "1e-6", "--points", "2"],
     _TWO_IONS, 4),
    (["vcoef", "--epsilon", "0.01", "--max-modes", "5"], None, 2),
    (["er", "--k", "0", "--t-min", "40", "--t-max", "100"], None, 2),
    (["er", "--k", "-0.05", "--t-min", "40", "--t-max", "100"], None, 2),
    (["hawking"], {"v_min": "-1.0"}, 4),
    (["vcoef", "--max-modes", "3"], {"v_min": "-1.0"}, 4),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "100",
      "--temperature", "1e200"], None, 3),
    (["diffusion", "--omega", "2", "--t-min", "1e306", "--t-max", "1e308", "--points", "4"],
     None, 3),
    (["correlation", "--t", "0", "--x1", "-4", "--points", "16"], None, 4),
    (["tdec-sweep", "--axis", "temperature", "--from", "0", "--to", "0.3", "--points", "2",
      "--log"], None, 2),
    (["tdec-sweep", "--axis", "temperature", "--from", "-1", "--to", "0.3", "--points", "2",
      "--log"], None, 2),
    (["correlation", "--t", "100", "--x1", "-4", "--x2-min", "-1"], None, 2),
    (["correlation", "--t", "100", "--x1", "-4", "--x2-min", "1.5", "--x2-max", "-1"],
     None, 2),
    (["hawking"], {"cutoff_shape": "exponential"}, 2),
    (["hawking"], {"ion_charge": "30.0"}, 4),
    (["tdec-sweep", "--axis", "temperature", "--from", "0.1", "--to", "1", "--points", "2"],
     {"ion_charge": "30.0"}, 4),
    (["er", "--k", "1e300", "--t-min", "40", "--t-max", "100"], None, 4),
    (["er", "--k", "0.5581795167475397", "--t-min", "20", "--t-max", "21", "--points", "2",
      "--temperature", "0.5"], None, 4),
    (["er", "--k", "1e-110", "--t-min", "1e110", "--t-max", "1e110", "--points", "1"],
     None, 3),
    (["vcoef"], _TWO_IONS, 4),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--lam", "1e200"], None, 4),
    # a line this flat keeps X1 = e at t = 1.5e307, where |cos(2 k X1)| = 0.26 and
    # T0 = 1 put noise / P_C past the float range while the noise term stays in it
    (["er", "--k", "0.24", "--t-min", "1.5e307", "--t-max", "1.5e307", "--points", "1",
      "--temperature", "1"], {"line_kappa": "1e-50"}, 3),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "3", "--lam", "0.5"],
     None, 4),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "3", "--lam", "-0.5"],
     None, 4),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "3",
      "--temperature", "0"], None, 4),
    (["tdec-sweep", "--axis", "gamma", "--from", "1e-7", "--to", "1e-7", "--points", "1"],
     {"n_ions": MAX_N_IONS + 1}, 2),
    (["tdec-sweep", "--axis", "gamma", "--from", "1e-7", "--to", "1e-7", "--points", "1"],
     {"n_ions": 1}, 2),
    (["langevin", "--t", "0", "--x1", "-1.2"], None, 4),
    (["correlation", "--t", "100", "--x1", "-50"], None, 4),
    (["diffusion", "--omega", "1e300", "--t-min", "1", "--t-max", "10", "--points", "3"],
     None, 3),
    (["diffusion", "--omega", "1e10", "--t-min", "1", "--t-max", "10", "--points", "2"],
     {"cutoff": "1e-310"}, 3),
    (["correlation", "--t", "100", "--x1", "-4", "--beta", "5e-324", "--points", "16"],
     None, 4),
    (["--output", "before.csv", "hawking"], None, 2),
    (["--output=before.csv", "hawking"], None, 2),
    (["--config", "before.cfg", "hawking"], None, 2),
    (["--format", "json", "hawking"], None, 2),
    (["hawking", "--format", "json"], None, 2),
    (["--t", "30", "langevin", "--x1", "-1.2"], None, 2),
    (["--t=30", "hawkng"], None, 2),
    (["--log", "tdec-sweep", "--axis", "gamma", "--from", "1e-7", "--to", "1e-6"], None, 2),
    (["hawkng"], None, 2),
    (["langevin", "--t", "30", "--x1", "-1.2", "--temperature", "1e300"], None, 3),
], ids=["missing-config", "radius-inf", "line-kappa-nan", "omega-0", "omega-minus-0",
        "langevin-temperature-nan", "temperature-beyond-100-th", "negative-gamma",
        "coupling-eff-key", "langevin-sites-0", "langevin-sites-513",
        "langevin-realizations-1",
        "langevin-seed-negative", "langevin-seed-2-64", "vcoef-max-modes-negative",
        "tdec-sweep-points-0", "boundary-points-0", "boundary-points-negative",
        "diffusion-points-0", "er-points-negative", "correlation-points-0",
        "correlation-t-negative", "langevin-t-negative",
        "tdec-sweep-two-ion-slivers", "vcoef-epsilon-unknown", "er-k-0",
        "er-k-negative", "hawking-ring-flow-negative", "vcoef-ring-flow-negative",
        "langevin-moments-overflow", "diffusion-omega-t-overflows", "correlation-t-0", "tdec-sweep-log-from-0",
        "tdec-sweep-log-from-negative", "correlation-x2-min-inside",
        "correlation-x2-max-inside", "cutoff-shape-exponential", "hawking-no-horizon",
        "tdec-sweep-no-horizon", "er-k-beyond-small-k-window", "er-k-at-zero-of-integrand",
        "er-noise-term-overflows", "vcoef-no-allowed-mode",
        "er-lam-1e200-not-weak", "er-lam-squared-overflows", "er-lam-0.5-not-weak",
        "er-lam-negative-not-weak", "er-temperature-0-below-10-th", "n-ions-above-cap",
        "n-ions-below-2",
        "langevin-t-0", "correlation-partner-beyond-wedge",
        "diffusion-omega-squared-overflows", "diffusion-omega-over-cutoff-overflows",
        "correlation-beta-subnormal", "output-before-command", "output-equals-before-command",
        "config-before-command", "format-before-command", "format-after-command",
        "t-before-command", "t-equals-before-unknown-command", "flag-before-command",
        "unknown-command", "langevin-moments-overflow-1e300"])
def test_malformed_input_refused(request, tmp_path, capsys, argv, config, code):
    """Refused with the documented exit code and one JSON record, no traceback;
    where _REFUSAL_MESSAGES holds a pattern, the message matches it."""
    common = ["--output", str(tmp_path / "x.csv")]
    if config == "missing":
        common += ["--config", str(tmp_path / "missing.cfg")]
    elif config is not None:
        common += ["--config", str(_config_file(tmp_path, **config))]
    assert main(argv + common) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert re.search(_REFUSAL_MESSAGES.get(request.node.callspec.id, ""), record["message"])
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag", ["--help", "--he"])
def test_help_before_the_subcommand_is_argparse_s_own(capsys, flag):
    # the one top-level option, abbreviated or not, is not refused as following
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sonicbh ")


# ---------------------------------------------------------------------------
# fresh interpreters: start-up cost and crash freedom
# ---------------------------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(sonicbh.__file__)))

# Runs cli.main on its arguments (none: import only), then reports on the
# last line of stdout, as JSON, which scipy modules were loaded, which of
# numpy, numpy.polynomial, json, hashlib and the package's modules were, and
# every module outside sonicbh that the run added to the interpreter's own;
# the probe imports json only after it has looked.
_LOADED = """{"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
          "modules": sorted(m for m in sys.modules if m in ("numpy", "numpy.polynomial",
                                                            "scipy", "json", "hashlib")
                            or m.startswith("sonicbh.")),
          "added": sorted(m for m in set(sys.modules) - before
                          if m.split(".")[0] != "sonicbh")}"""
_PROBE = """import sys
before = set(sys.modules)
from sonicbh.cli import main
try:
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as exc:
    code = exc.code
loaded = %s
import json
print(json.dumps(loaded))
sys.exit(code)
""" % _LOADED
# Runs a study script as __main__, then reports likewise.
_SCRIPT_PROBE = """import sys
before = set(sys.modules)
with open(sys.argv[1], encoding="utf-8") as fh:
    code = compile(fh.read(), sys.argv[1], "exec")
exec(code, {"__name__": "__main__", "__file__": sys.argv[1]})
loaded = %s
import json
print(json.dumps(loaded))
""" % _LOADED


def _fresh_interpreter(cwd, argv, script=("-c", _PROBE), **environ):
    """Run argv in a new interpreter, one at a time, with the package on its
    path and any further environment variables given."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p), **environ)
    return subprocess.run([sys.executable, *script, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


_MC = ["langevin", "--t", "30", "--realizations", "50", "--points", "4"]


@pytest.mark.parametrize("argv, plain, exponent", [
    (["correlation", "--t", "100", "--points", "16", "--x1"], "-4", "-4e0"),
    (_MC + ["--x1"], "-1.2", "-12e-1"),
    (_MC + ["--x1", "-1.2", "--x2-max", "5", "--x2-min"], "-1.5", "-15e-1"),
    (_MC + ["--x1", "-1.2", "--x2-min", "-3", "--x2-max"], "-1.5", "-1.5E0"),
    (["tdec-sweep", "--axis", "temperature", "--to", "0.3", "--points", "2", "--from"],
     "-0.001", "-1e-3"),
    (["tdec-sweep", "--axis", "temperature", "--from", "0.1", "--points", "2", "--to"],
     "-0.001", "-1e-3"),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "2", "--lam"],
     "-0.0000001", "-1e-7"),
], ids=["correlation-x1", "langevin-x1", "x2-min", "x2-max", "from", "to", "lam"])
def test_negative_number_with_exponent_is_a_value(tmp_path, argv, plain, exponent):
    """A negative value written with an exponent is read as the value, not as
    an option string: the same output as its plain spelling."""
    outputs = []
    for name, value in (("plain.csv", plain), ("exponent.csv", exponent)):
        code, out = _run(tmp_path, *argv, value, name=name)
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _readme_examples() -> list[list[str]]:
    """The arguments of each ``sonicbh ...`` line in README's sh blocks."""
    with open(os.path.join(os.path.dirname(_SRC), "README.md"), encoding="utf-8") as fh:
        blocks = [part.split("```", 1)[0] for part in fh.read().split("```sh\n")[1:]]
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("sonicbh ")]


_README_EXAMPLES = _readme_examples()


def test_readme_shows_every_subcommand():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in _README_EXAMPLES) == sorted(commands)


# The two paths a run needs, deployment settings that every subcommand takes:
# no workload, README line or script has to justify them.
_COMMON_OPTIONS = ("--config", "--output")


def test_every_option_is_used_outside_tests():
    """Every option of a subcommand is passed to it by some benchmark workload
    op (seeds 1 and 2, as the golden runs take them), or named by the README
    or a study script: an option that only tests pass is a second path."""
    root = os.path.dirname(_SRC)
    passed = {(run["argv"][0], token) for run in golden_outputs.runs().values()
              if run["argv"] for token in run["argv"]}
    texts = []
    scripts = os.path.join(root, "scripts")
    for path in [os.path.join(root, "README.md")] + sorted(
            os.path.join(scripts, name) for name in os.listdir(scripts) if name.endswith(".py")):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    named = lambda option: any(re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
                               for text in texts)
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    unused = [f"{command} {option}" for command, parser in commands.items()
              for action in parser._actions for option in action.option_strings
              if option.startswith("--") and option not in ("--help", *_COMMON_OPTIONS)
              and (command, option) not in passed and not named(option)]
    assert unused == []


@pytest.mark.parametrize("argv", _README_EXAMPLES, ids=lambda argv: argv[0])
def test_readme_example_runs(tmp_path, argv):
    # as typed in the README: default config and output file, exit 0, no stderr
    proc = _fresh_interpreter(tmp_path, argv, script=("-m", "sonicbh"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / proc.stdout.strip()).read_text().startswith("# manifest:")


@pytest.mark.parametrize("transport", ["matched", "exact"])
def test_langevin_coincident_probes(tmp_path, transport):
    # two probes at one point: each carries its own Jacobian, no secant between them
    argv = ["langevin", "--t", "30", "--x1", "-1.2", "--x2-min", "5", "--x2-max", "5",
            "--points", "2", "--realizations", "200", "--transport", transport,
            "--output", str(tmp_path / "x.csv")]
    proc = _fresh_interpreter(tmp_path, argv, script=("-m", "sonicbh"))
    assert (proc.returncode, proc.stderr) == (0, "")
    _, header, rows = _rows(tmp_path / "x.csv")
    assert [r[0] for r in rows] == ["5", "5"] and rows[0] == rows[1]


_SWEEP = {"gamma": ("1e-7", "1e-6"), "v_min": ("0.1", "0.3"), "temperature": ("0.1", "1")}


# What a command must not load: numpy before it has accepted its input, numpy
# and scipy where it computes on scalars, and the package's numeric modules it
# does not call.
_NO_NUMPY = ("numpy",)
_NO_ARRAYS = ("numpy", "scipy")
# the manifest's config hash is SHA-256 written out in the CLI, so no run loads
# hashlib (and with it OpenSSL's libcrypto) but langevin's, where numpy.random
# imports it (through secrets and hmac)
_NO_HASHLIB = ("hashlib",)
# the null map's Gauss-Legendre rule is written out, not solved for
_NO_EIGEN_SOLVE = ("numpy.polynomial",)
_LINE_MODULES = ("sonicbh.characteristics", "sonicbh.correlations", "sonicbh.langevin")
_RING_AND_MC_MODULES = ("sonicbh.decoherence", "sonicbh.langevin")
_RING_AND_CORRELATION_MODULES = ("sonicbh.decoherence", "sonicbh.correlations")
_RING200 = {"n_ions": 200, "ion_charge": 37.6246 * math.sqrt(5.0)}

# What scipy it may load: nothing, or where it integrates QUADPACK's compiled
# extension (with the scipy top level and the callback helper its first call
# imports), never the scipy.integrate package or scipy.special.
_QUADPACK = "scipy.integrate._quadpack"


def _assert_scipy_footprint(scipy_modules, integrates):
    if integrates:
        assert _QUADPACK in scipy_modules
        assert {"scipy.integrate", "scipy.special"} & set(scipy_modules) == set()
    else:
        assert scipy_modules == []


@pytest.mark.parametrize("argv, config, code, integrates, not_loaded", [
    ([], None, 0, False, _NO_NUMPY + _NO_HASHLIB),
    (["--help"], None, 0, False, _NO_NUMPY + _NO_HASHLIB),
    (["hawking"], None, 0, False,
     _LINE_MODULES + _NO_ARRAYS + _NO_HASHLIB + ("json", "sonicbh.specfun")),
    (["vcoef", "--max-modes", "5"], None, 0, False,
     _LINE_MODULES + _NO_EIGEN_SOLVE + _NO_HASHLIB),
    *[(["tdec-sweep", "--axis", axis, "--from", lo, "--to", hi, "--points", "3"],
       _RING200, 0, False, _LINE_MODULES + _NO_EIGEN_SOLVE + _NO_HASHLIB)
      for axis, (lo, hi) in _SWEEP.items()],
    (["boundary", "--points", "8"], None, 0, False,
     ("sonicbh.correlations", "sonicbh.specfun", *_RING_AND_MC_MODULES, *_NO_ARRAYS,
      *_NO_HASHLIB)),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "2"],
     None, 0, False, _RING_AND_MC_MODULES + _NO_ARRAYS + _NO_HASHLIB),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "200", "--points", "8"],
     None, 0, False, _RING_AND_CORRELATION_MODULES),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "200", "--points", "8",
      "--transport", "exact"], None, 0, False, _RING_AND_CORRELATION_MODULES),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "200", "--points", "8",
      "--temperature", "0.15"], None, 0, False, _RING_AND_CORRELATION_MODULES),
    (["correlation", "--t", "100", "--x1", "-4", "--beta", "nan"], None, 2, False,
     _NO_NUMPY + _NO_HASHLIB),
    (["hawking"], "missing", 2, False, _NO_NUMPY + _NO_HASHLIB),
    (["hawking"], {"line_kappa": "5.0"}, 2, False, _NO_NUMPY + _NO_HASHLIB),
    (["tdec-sweep", "--axis", "gamma", "--from", "1e-7", "--to", "1e-7", "--points", "1"],
     {"n_ions": MAX_N_IONS + 1}, 2, False, _NO_NUMPY + _NO_HASHLIB),
    (["tdec-sweep", "--axis", "temperature", "--from", "0.1", "--to", "200", "--points", "2"],
     None, 4, False, _NO_NUMPY + _NO_HASHLIB),
    (["diffusion", "--omega", "2", "--t-min", "0.01", "--t-max", "10", "--points", "2"],
     None, 0, False, _LINE_MODULES + _NO_HASHLIB),
    (["diffusion", "--omega", "2", "--t-min", "0.01", "--t-max", "10", "--points", "2",
      "--oracle"], None, 0, True, _LINE_MODULES + _NO_HASHLIB),
    (["correlation", "--t", "100", "--x1", "-4", "--points", "16", "--beta", "5"], None, 0,
     False, _RING_AND_MC_MODULES + _NO_ARRAYS + _NO_HASHLIB),
    (["correlation", "--t", "60", "--x1", "-4", "--points", "16", "--beta", "5",
      "--method", "mode_sum_oracle"], None, 0, True, _RING_AND_MC_MODULES + _NO_HASHLIB),
], ids=["import", "help", "hawking", "vcoef", "tdec-sweep-gamma", "tdec-sweep-v-min",
        "tdec-sweep-temperature", "boundary", "er", "langevin-matched", "langevin-exact",
        "langevin-thermal",
        "argument-refusal", "config-refusal", "line-slope-refusal", "ion-cap-refusal",
        "too-hot-sweep-refusal",
        "diffusion",
        "diffusion-oracle", "correlation", "correlation-mode-sum-oracle"])
def test_scipy_loaded_only_where_a_command_integrates(tmp_path, argv, config, code,
                                                      integrates, not_loaded):
    """Commands that only evaluate closed forms never import scipy; one that
    integrates loads QUADPACK's compiled extension and no other scipy module:
    neither the scipy.integrate package nor scipy.special.  Importing the CLI
    loads no numpy, and neither does a refused argument, config or regime (a
    linear temperature sweep past 100 T_H), nor a command that computes on
    scalars (hawking, boundary, er, the closed-form correlation); a command
    that runs loads only the numeric modules it calls, and one that builds a
    null map (vcoef, tdec-sweep) no numpy.polynomial.  Writing the table loads
    no json, and nothing but langevin loads hashlib."""
    common = []
    if argv:
        common = ["--output", str(tmp_path / "x.csv")]
        if config == "missing":
            common += ["--config", str(tmp_path / "missing.cfg")]
        elif config is not None:
            common += ["--config", str(_config_file(tmp_path, **config))]
    proc = _fresh_interpreter(tmp_path, argv + common)
    assert proc.returncode == code, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    _assert_scipy_footprint(loaded["scipy"], integrates)
    assert sorted(set(not_loaded) & set(loaded["modules"])) == []


def test_langevin_check_script_loads_no_scipy(tmp_path):
    """The check script's expectation is at T0 = 0, where its k integral is
    the closed vacuum part alone, so it integrates nothing and loads no
    scipy."""
    path = os.path.join(os.path.dirname(_SRC), "scripts", "run_langevin_check.py")
    proc = _fresh_interpreter(tmp_path, [path], script=("-c", _SCRIPT_PROBE))
    assert proc.returncode == 0, proc.stderr
    _assert_scipy_footprint(json.loads(proc.stdout.splitlines()[-1])["scipy"], False)


@pytest.mark.parametrize("argv", [
    next(argv for argv in _README_EXAMPLES if argv[0] == "langevin"),
    ["langevin", "--t", "30", "--x1", "-1.2", "--seed", "11", "--transport", "exact"],
    [os.path.join(os.path.dirname(_SRC), "scripts", "run_langevin_check.py")],
], ids=["readme", "exact-transport", "check-script"])
def test_langevin_output_does_not_depend_on_blas_threads(tmp_path, argv):
    """The QR factor and the draw blocks' GEMMs give the same bytes on one
    BLAS thread and on two: the CSV body below the manifest is identical."""
    script = argv[0].endswith(".py")
    bodies = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        proc = _fresh_interpreter(cwd, argv if script else argv + ["--output", "out.csv"],
                                  script=() if script else ("-m", "sonicbh"),
                                  OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        out = cwd / ("langevin_check.csv" if script else "out.csv")
        bodies.append(out.read_text().split("\n", 1)[1])
    assert bodies[0] == bodies[1]


def test_correlation_scan_script_loads_neither_numpy_nor_scipy(tmp_path):
    """The scan computes on scalars: its uniform rows come from the image
    series (no quadrature), its grids from the CLI's linspace, and its early
    core integrals and forward traces from the standard library."""
    path = os.path.join(os.path.dirname(_SRC), "scripts", "run_correlation_scan.py")
    proc = _fresh_interpreter(tmp_path, [path], script=("-c", _SCRIPT_PROBE))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    _assert_scipy_footprint(loaded["scipy"], False)
    assert "numpy" not in loaded["modules"]


# The standard library a scalar command may load, as measured when this guard
# was written (Python 3.11, 70 modules beyond the bare interpreter's): argparse;
# tempfile with random and shutil, and through shutil bz2 and lzma;
# dataclasses with inspect; typing.  The manifest's config hash is SHA-256
# written out in the CLI, so no hashlib (random's _sha512 is its own builtin).
# The scan script parses no arguments, so it loads no locale (which
# argparse's messages load).  A module added here is a cost added to every
# run.
_CLI_STDLIB = frozenset("""
    __future__ _ast _bisect _bz2 _collections _collections_abc _compression
    _functools _locale _lzma _opcode _operator _random _sha512 _sre _stat _typing
    _weakrefset argparse ast bisect bz2 collections collections.abc contextlib copy copyreg
    dataclasses dis enum errno fnmatch functools genericpath gettext importlib
    importlib._bootstrap importlib._bootstrap_external importlib.machinery inspect
    itertools keyword linecache locale lzma math opcode operator os os.path posixpath
    random re re._casefix re._compiler re._constants re._parser reprlib shutil stat
    tempfile token tokenize types typing typing.io typing.re warnings weakref zlib
""".split())
_SCAN_STDLIB = _CLI_STDLIB - {"_locale", "locale"}


@pytest.mark.parametrize("argv, allowed", [
    (["hawking"], _CLI_STDLIB),
    (["boundary", "--points", "8"], _CLI_STDLIB),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "2"], _CLI_STDLIB),
    (["correlation", "--t", "100", "--x1", "-4", "--points", "16", "--beta", "5"],
     _CLI_STDLIB),
    (["scripts/run_correlation_scan.py"], _SCAN_STDLIB),
], ids=["hawking", "boundary", "er", "correlation", "run_correlation_scan"])
def test_scalar_path_loads_only_its_stdlib_allowlist(tmp_path, argv, allowed):
    """The commands that compute on scalars, and the scan script, load no
    module outside sonicbh but the standard library they were measured to
    need, under ``python -S``: no site module pre-loads anything, so every
    module a run needs shows."""
    assert {m.split(".")[0] for m in allowed} & {"numpy", "scipy", "json"} == set()
    if argv[0].endswith(".py"):
        argv, probe = [os.path.join(os.path.dirname(_SRC), argv[0])], _SCRIPT_PROBE
    else:
        argv, probe = argv + ["--output", str(tmp_path / "x.csv")], _PROBE
    proc = _fresh_interpreter(tmp_path, argv, script=("-S", "-c", probe))
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout.splitlines()[-1])["added"]
    assert sorted(set(added) - allowed) == []


def test_decoherence_sweep_script(tmp_path):
    """The sweep script writes its 40 gamma and 13 v_min points, every point
    computed, on numpy alone."""
    path = os.path.join(os.path.dirname(_SRC), "scripts", "run_decoherence_sweep.py")
    proc = _fresh_interpreter(tmp_path, [path], script=("-c", _SCRIPT_PROBE))
    assert proc.returncode == 0, proc.stderr
    _assert_scipy_footprint(json.loads(proc.stdout.splitlines()[-1])["scipy"], False)
    for name, n_rows in (("gamma_sweep.csv", 40), ("vmin_sweep.csv", 13)):
        manifest, header, rows = _rows(tmp_path / name)
        assert "errors=0" in manifest.split()
        assert header == list(SweepRow._fields)
        assert len(rows) == n_rows


# Each option pairs a strategy for its ordinary value with one for adversarial
# values.  A run corrupts at most two options (or the config path), so most
# runs get past argument parsing.  Counts stay small and go below each
# option's minimum: no upper bound refuses a huge count, so it would run.
_BAD_FLOATS = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-1e300"])


def _float(*ordinary, optional=False):
    """Ordinary values in every spelling given, or absent where optional."""
    return st.sampled_from([None, *ordinary] if optional else list(ordinary)), _BAD_FLOATS


def _count(ordinary, minimum):
    return st.just(ordinary), st.sampled_from([minimum - 1, 0, -1]).map(str)


def _choice(*values):
    return st.sampled_from(values), st.sampled_from(values)


_FLAG = _choice(None, "")

_SUBCOMMANDS = {
    "hawking": {},
    "boundary": {"--t-max": _float("200"), "--points": _count("8", 1)},
    "diffusion": {"--omega": _float("2"), "--t-min": _float("0.01"),
                  "--t-max": _float("10"), "--points": _count("2", 1), "--oracle": _FLAG},
    "vcoef": {"--max-modes": _count("3", 1)},
    "tdec-sweep": {"--axis": _choice("gamma", "v_min", "temperature"),
                   "--from": _float("0.1"), "--to": _float("0.3"),
                   "--points": _count("2", 1), "--log": _FLAG},
    "correlation": {"--t": _float("100"), "--x1": _float("-4", "-4e0"),
                    "--beta": _float("inf", "1e-200", optional=True),
                    "--x2-min": _float("1.5", optional=True),
                    "--x2-max": _float("30", optional=True), "--points": _count("16", 1),
                    "--method": _choice("closed_form", "mode_sum_oracle")},
    "er": {"--k": _float("0.05"), "--t-min": _float("40"), "--t-max": _float("100"),
           "--points": _count("2", 1), "--lam": _float("1e-7", optional=True),
           "--temperature": _float("0.5", optional=True)},
    "langevin": {"--t": _float("30"), "--x1": _float("-1.2", "-12e-1"),
                 "--temperature": _float("0.5", optional=True),
                 "--realizations": _count("50", 2),
                 "--seed": _count("7", 0), "--x2-min": _float("1.2", optional=True),
                 "--x2-max": _float("6", optional=True), "--points": _count("4", 1),
                 "--transport": _choice("matched", "exact")},
}


@st.composite
def _invocations(draw):
    """(missing_config, argv) for one subcommand run."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    options = _SUBCOMMANDS[command]
    bad = draw(st.sets(st.sampled_from(["--config", *options]), max_size=2))
    argv = [command]
    for option, (ordinary, adversarial) in options.items():
        value = draw(adversarial if option in bad else ordinary)
        if value is not None:
            argv += [option] + ([value] if value else [])
    return "--config" in bad, argv


@settings(max_examples=40, deadline=None)
@given(invocation=_invocations())
def test_every_subcommand_exits_cleanly(tmp_path_factory, invocation):
    """Each run ends in exit 0, 2, 3 or 4; a refusal prints one JSON record,
    a success no warning and no manifest number outside the float range."""
    missing_config, argv = invocation
    work = tmp_path_factory.mktemp("fuzz")
    common = ["--output", str(work / "x.csv")]
    if missing_config:
        common += ["--config", str(work / "missing.cfg")]
    proc = _fresh_interpreter(work, argv + common, script=("-m", "sonicbh"))
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    if proc.returncode == 0:
        assert "Warning" not in proc.stderr, proc.stderr
        manifest = _rows(work / "x.csv")[0].split()[2:]
        for item in manifest:
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(item.split("=", 1)[1])), manifest
    else:
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert set(json.loads(lines[0])) == {"error", "message"}
