import json
import math
import os

import numpy as np
import pytest

from sonicbh.cli import main
from sonicbh.decoherence import allowed_frequencies, decoherence_time, v_coefficients
from sonicbh.params import DEFAULT_CONFIG_TEXT, derive, load_config, parse_kv_text
from sonicbh.profiles import RingProfile


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
], ids=["missing-config", "radius-inf", "line-kappa-nan", "omega-0", "omega-minus-0",
        "langevin-temperature-nan", "temperature-beyond-100-th", "negative-gamma",
        "coupling-eff-key", "langevin-sites-0", "langevin-realizations-1",
        "langevin-seed-negative", "langevin-seed-2-64", "vcoef-max-modes-negative",
        "tdec-sweep-points-0", "boundary-points-0", "boundary-points-negative",
        "diffusion-points-0", "er-points-negative", "correlation-points-0",
        "correlation-points-15", "er-vanishing-closed-correlator", "vcoef-epsilon-0",
        "vcoef-epsilon-negative", "correlation-t-negative", "langevin-t-negative",
        "vcoef-epsilon-wider-than-ring", "vcoef-epsilon-slivers-leave-ring", "er-k-0",
        "er-k-negative", "hawking-ring-flow-negative", "vcoef-ring-flow-negative"])
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
