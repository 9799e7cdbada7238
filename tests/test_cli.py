import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sonicbh
from sonicbh.cli import main
from sonicbh.correlations import corr_closed_form
from sonicbh.decoherence import allowed_frequencies, decoherence_time, v_coefficients
from sonicbh.params import DEFAULT_CONFIG_TEXT, derive, load_config, parse_kv_text
from sonicbh.profiles import LineProfile, RingProfile


def _run(tmp_path, *args, name="out.csv", fmt=None):
    out = tmp_path / name
    argv = ["--output", str(out)]
    if fmt:
        argv += ["--format", fmt]
    argv += list(args)
    code = main(argv)
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


@pytest.mark.parametrize("t, beta, points, n_matched", [("60", "0.5", "24", 18),
                                                        ("100", "inf", "64", 49)])
def test_mode_sum_oracle_scan_matches_closed_form(tmp_path, t, beta, points, n_matched):
    # at t = 60 the matched separations X1 + X2 reach 3.7 beta, where the
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


def test_correlation_all_zero_scan_has_no_peak(tmp_path):
    # at t = 1e300 the matched exponentials underflow: every sample is 0
    code, out = _run(tmp_path, "correlation", "--t", "1e300", "--x1", "-4", "--points", "16")
    assert code == 0
    manifest, _, rows = _rows(out)
    assert all(float(r[1]) == 0.0 for r in rows)
    assert "peak_contrast=0 " in manifest and "peak_present=false" in manifest


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
    code, out = _run(tmp_path, "--config", str(cfg_path), *sweep, name="no_gamma.csv")
    assert code == 0
    code_default, out_default = _run(tmp_path, *sweep, name="default.csv")
    assert code_default == 0
    _, header, rows = _rows(out)
    assert (header, rows) == _rows(out_default)[1:] and len(rows) == 3
    assert main(["--output", str(tmp_path / "x.csv"), *sweep, "--gamma", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_tdec_sweep_gamma_keeps_bath_temperature(tmp_path):
    # a 200-ion ring with the charge scaled by sqrt(1000/200) keeps the
    # default flow and sound speed at a fifth of the modes
    cfg_path = _config_file(tmp_path, n_ions=200, ion_charge=37.6246 * math.sqrt(5.0),
                            bath_temperature=1.0)
    code, out = _run(tmp_path, "--config", str(cfg_path), "tdec-sweep", "--axis", "gamma",
                     "--from", "1e-7", "--to", "1e-6", "--points", "3", "--log")
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


def test_er_command(tmp_path):
    code, out = _run(tmp_path, "er", "--k", "0.05", "--t-min", "40",
                     "--t-max", "100", "--points", "10")
    assert code == 0
    _, header, rows = _rows(out)
    assert header == ["k", "t", "e_r"]
    ers = [float(r[2]) for r in rows]
    assert ers[-1] > ers[0] > 0.0


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


def test_json_format_mirrors_csv(tmp_path):
    code, out = _run(tmp_path, "boundary", "--t-max", "10", "--points", "5",
                     name="b.json", fmt="json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["t", "x_minus", "x_plus"]
    assert len(doc["rows"]) == 5
    assert doc["manifest"]["command"] == "boundary"


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_ions = banana\n")
    code = main(["--config", str(bad), "--output", str(tmp_path / "x.csv"), "hawking"])
    assert code == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"


def test_regime_error_exit_code(tmp_path, capsys):
    # temperature sweep beyond 100 T_H is refused with exit code 4
    code = main(["--output", str(tmp_path / "x.csv"), "tdec-sweep", "--axis",
                 "temperature", "--from", "0.1", "--to", "1000.0", "--points", "4"])
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "RegimeError"


def test_config_env_var_respected(tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text(DEFAULT_CONFIG_TEXT)
    monkeypatch.setenv("SONICBH_CONFIG", str(cfg))
    code, out = _run(tmp_path, "hawking", name="envvar.csv")
    assert code == 0
    assert out.exists()


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
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert main(["--output", str(out), "--format", "json", "hawking"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert repr(str(out)) in record["message"] and ".sonicbh-" not in record["message"]
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".sonicbh-")]


def test_every_exported_name_exists():
    assert [name for name in sonicbh.__all__ if not hasattr(sonicbh, name)] == []


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
    (["correlation", "--t", "100", "--x1", "-4", "--points", "15"], None, 2),
    (["er", "--k", "0.05", "--t-min", "20000", "--t-max", "20000", "--points", "1"], None, 4),
    (["vcoef", "--epsilon", "0", "--max-modes", "5"], None, 2),
    (["vcoef", "--epsilon", "-0.01", "--max-modes", "5"], None, 2),
    (["correlation", "--t", "-5", "--x1", "-4"], None, 2),
    (["langevin", "--t", "-5", "--x1", "-1.2", "--realizations", "50"], None, 2),
    (["vcoef", "--epsilon", "10", "--max-modes", "5"], None, 4),
    (["vcoef", "--epsilon", "1.5", "--max-modes", "5"], None, 4),
    (["er", "--k", "0", "--t-min", "40", "--t-max", "100"], None, 2),
    (["er", "--k", "-0.05", "--t-min", "40", "--t-max", "100"], None, 2),
    (["hawking"], {"v_min": "-1.0"}, 4),
    (["vcoef", "--max-modes", "3"], {"v_min": "-1.0"}, 4),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "100",
      "--temperature", "1e200"], None, 3),
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
], ids=["missing-config", "radius-inf", "line-kappa-nan", "omega-0", "omega-minus-0",
        "langevin-temperature-nan", "temperature-beyond-100-th", "negative-gamma",
        "coupling-eff-key", "langevin-sites-0", "langevin-sites-513",
        "langevin-realizations-1",
        "langevin-seed-negative", "langevin-seed-2-64", "vcoef-max-modes-negative",
        "tdec-sweep-points-0", "boundary-points-0", "boundary-points-negative",
        "diffusion-points-0", "er-points-negative", "correlation-points-0",
        "correlation-points-15", "er-vanishing-closed-correlator", "vcoef-epsilon-0",
        "vcoef-epsilon-negative", "correlation-t-negative", "langevin-t-negative",
        "vcoef-epsilon-wider-than-ring", "vcoef-epsilon-slivers-leave-ring", "er-k-0",
        "er-k-negative", "hawking-ring-flow-negative", "vcoef-ring-flow-negative",
        "langevin-moments-overflow", "correlation-t-0", "tdec-sweep-log-from-0",
        "tdec-sweep-log-from-negative", "correlation-x2-min-inside",
        "correlation-x2-max-inside", "cutoff-shape-exponential", "hawking-no-horizon",
        "tdec-sweep-no-horizon"])
def test_malformed_input_refused(tmp_path, capsys, argv, config, code):
    """Refused with the documented exit code and one JSON record, no traceback."""
    prefix = ["--output", str(tmp_path / "x.csv")]
    if config == "missing":
        prefix += ["--config", str(tmp_path / "missing.cfg")]
    elif config is not None:
        prefix += ["--config", str(_config_file(tmp_path, **config))]
    assert main(prefix + argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "message"}
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon", ["1e-300", "1e-14"])
def test_vcoef_epsilon_below_horizon_tolerance_refused(tmp_path, capsys, epsilon):
    """An exclusion half-width below what double precision resolves at the
    horizon is refused before the integrand 1/(c - v) is evaluated: exit 3,
    no warning."""
    argv = ["--output", str(tmp_path / "x.csv"), "vcoef", "--epsilon", epsilon,
            "--max-modes", "5"]
    assert main(argv) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SingularIntegrandError"
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# fresh interpreters: start-up cost and crash freedom
# ---------------------------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(sonicbh.__file__)))

# Runs cli.main on its arguments (none: import only), then reports on the
# last line of stdout, as JSON, whether scipy was loaded and which of numpy
# and the package's modules were.
_PROBE = """import json, sys
from sonicbh.cli import main
try:
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"scipy": "scipy" in sys.modules, "modules": sorted(
    m for m in sys.modules if m == "numpy" or m.startswith("sonicbh."))}))
sys.exit(code)
"""


def _fresh_interpreter(cwd, argv, script=("-c", _PROBE)):
    """Run argv in a new interpreter, one at a time, with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("SONICBH_CONFIG", None)
    return subprocess.run([sys.executable, *script, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("transport", ["matched", "exact"])
def test_langevin_coincident_probes(tmp_path, transport):
    # two probes at one point: each carries its own Jacobian, no secant between them
    argv = ["--output", str(tmp_path / "x.csv"), "langevin", "--t", "30", "--x1", "-1.2",
            "--x2-min", "5", "--x2-max", "5", "--points", "2", "--realizations", "200",
            "--transport", transport]
    proc = _fresh_interpreter(tmp_path, argv, script=("-m", "sonicbh"))
    assert (proc.returncode, proc.stderr) == (0, "")
    _, header, rows = _rows(tmp_path / "x.csv")
    assert [r[0] for r in rows] == ["5", "5"] and rows[0] == rows[1]


_SWEEP = {"gamma": ("1e-7", "1e-6"), "v_min": ("0.1", "0.3"), "temperature": ("0.1", "1")}


# What a command must not load: numpy before it has accepted its input, and
# the package's numeric modules it does not call.
_NO_NUMPY = ("numpy",)
_LINE_MODULES = ("sonicbh.characteristics", "sonicbh.correlations", "sonicbh.langevin")
_RING_AND_MC_MODULES = ("sonicbh.decoherence", "sonicbh.langevin")


@pytest.mark.parametrize("argv, config, code, scipy_loaded, not_loaded", [
    ([], None, 0, False, _NO_NUMPY),
    (["--help"], None, 0, False, _NO_NUMPY),
    (["hawking"], None, 0, False, _LINE_MODULES),
    (["vcoef", "--max-modes", "5"], None, 0, False, _LINE_MODULES),
    *[(["tdec-sweep", "--axis", axis, "--from", lo, "--to", hi, "--points", "3"],
       "ring200", 0, False, _LINE_MODULES) for axis, (lo, hi) in _SWEEP.items()],
    (["boundary", "--points", "8"], None, 0, False,
     ("sonicbh.correlations", *_RING_AND_MC_MODULES)),
    (["er", "--k", "0.05", "--t-min", "40", "--t-max", "100", "--points", "2"],
     None, 0, False, _RING_AND_MC_MODULES),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "200", "--points", "8"],
     None, 0, False, ("sonicbh.decoherence",)),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "200", "--points", "8",
      "--transport", "exact"], None, 0, False, ("sonicbh.decoherence",)),
    (["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "200", "--points", "8",
      "--temperature", "0.15"], None, 0, False, ("sonicbh.decoherence",)),
    (["correlation", "--t", "100", "--x1", "-4", "--beta", "nan"], None, 2, False,
     _NO_NUMPY),
    (["hawking"], "missing", 2, False, _NO_NUMPY),
    (["diffusion", "--omega", "2", "--t-min", "0.01", "--t-max", "10", "--points", "2",
      "--oracle"], None, 0, True, _LINE_MODULES),
    (["correlation", "--t", "100", "--x1", "-4", "--points", "16"], None, 0, True,
     _RING_AND_MC_MODULES),
], ids=["import", "help", "hawking", "vcoef", "tdec-sweep-gamma", "tdec-sweep-v-min",
        "tdec-sweep-temperature", "boundary", "er", "langevin-matched", "langevin-exact",
        "langevin-thermal",
        "argument-refusal", "config-refusal", "diffusion-oracle", "correlation"])
def test_scipy_loaded_only_where_a_command_integrates(tmp_path, argv, config, code,
                                                      scipy_loaded, not_loaded):
    """Commands that only evaluate closed forms never import scipy (~0.6 s of
    start-up); quadrature, splines and root finding import it when called.
    Importing the CLI loads no numpy, and neither does a refused argument or
    config; a command that runs loads only the numeric modules it calls."""
    prefix = []
    if argv:
        prefix = ["--output", str(tmp_path / "x.csv")]
        if config == "ring200":
            prefix += ["--config", str(_config_file(
                tmp_path, n_ions=200, ion_charge=37.6246 * math.sqrt(5.0)))]
        elif config == "missing":
            prefix += ["--config", str(tmp_path / "missing.cfg")]
    proc = _fresh_interpreter(tmp_path, prefix + argv)
    assert proc.returncode == code, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["scipy"] == scipy_loaded
    assert sorted(set(not_loaded) & set(loaded["modules"])) == []


# Each option pairs a strategy for its ordinary value with one for adversarial
# values.  A run corrupts at most two options (or the config path), so most
# runs get past argument parsing.  Counts stay small and go below each
# option's minimum: no upper bound refuses a huge count, so it would run.
_BAD_FLOATS = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-1e300"])


def _float(ordinary, optional=False):
    return st.sampled_from([None, ordinary] if optional else [ordinary]), _BAD_FLOATS


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
    "vcoef": {"--epsilon": _float("0.01", optional=True), "--max-modes": _count("3", 1)},
    "tdec-sweep": {"--axis": _choice("gamma", "v_min", "temperature"),
                   "--from": _float("0.1"), "--to": _float("0.3"),
                   "--points": _count("2", 1), "--log": _FLAG},
    "correlation": {"--t": _float("100"), "--x1": _float("-4"),
                    "--beta": _float("inf", optional=True),
                    "--x2-min": _float("1.5", optional=True),
                    "--x2-max": _float("30", optional=True), "--points": _count("16", 16),
                    "--method": _choice("closed_form", "mode_sum_oracle")},
    "er": {"--k": _float("0.05"), "--t-min": _float("40"), "--t-max": _float("100"),
           "--points": _count("2", 1), "--lam": _float("1e-7", optional=True),
           "--temperature": _float("0.5", optional=True)},
    "langevin": {"--t": _float("30"), "--x1": _float("-1.2"),
                 "--temperature": _float("0.5", optional=True),
                 "--realizations": _count("50", 2), "--sites": _count("64", 4),
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
    a success no warning."""
    missing_config, argv = invocation
    work = tmp_path_factory.mktemp("fuzz")
    prefix = ["--output", str(work / "x.csv")]
    if missing_config:
        prefix += ["--config", str(work / "missing.cfg")]
    proc = _fresh_interpreter(work, prefix + argv, script=("-m", "sonicbh"))
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    if proc.returncode == 0:
        assert "Warning" not in proc.stderr, proc.stderr
    else:
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert set(json.loads(lines[0])) == {"error", "message"}
