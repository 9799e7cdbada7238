import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sonicbh.errors import ConfigError
from sonicbh.params import (CONFIG_KEYS, DEFAULT_CONFIG_TEXT, PhysicalConfig,
                            default_config, derive, load_config, parse_kv_text,
                            read_config)

TWO_PI = 2 * math.pi


def _doc(**overrides):
    base = dict(n_ions=1000, period=1.0, radius=1.0, ion_mass=1.0, ion_charge=1.0,
                v_min=0.9 * TWO_PI, v_max=1.1 * TWO_PI, gamma1=0.3, gamma2=0.3,
                theta_h=1.0)
    base.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in base.items())


def test_well_formed_document_loads():
    cfg = load_config(_doc())
    assert cfg.n_ions == 1000
    assert cfg.v_min == pytest.approx(0.9 * TWO_PI)


def test_inverted_extrema_rejected():
    with pytest.raises(ConfigError, match="profile extrema inverted"):
        load_config(_doc(v_min=1.2 * TWO_PI, v_max=0.8 * TWO_PI))


def test_unit_constants_default_to_one():
    cfg = load_config(_doc())
    assert cfg.hbar == 1.0 and cfg.k_boltzmann == 1.0


def test_extrema_must_straddle_revolution_speed():
    with pytest.raises(ConfigError, match="straddle"):
        load_config(_doc(v_min=1.01 * TWO_PI, v_max=1.1 * TWO_PI))


def test_segment_tiling_violations_named():
    with pytest.raises(ConfigError, match="gamma1"):
        load_config(_doc(theta_h=0.2, gamma1=0.3))
    with pytest.raises(ConfigError, match="collide"):
        load_config(_doc(theta_h=3.0, gamma1=0.3, gamma2=0.3))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        load_config(_doc() + "\nv_typo = 3.0")


def test_omitted_keys_take_registry_defaults():
    _, values = read_config(_doc())
    assert values == {"gamma": 0.0, "cutoff": None, "cutoff_shape": "lorentzian",
                      "bath_temperature": 0.0, "line_a": 1.0, "line_kappa": 0.1,
                      "line_tau": 1.0}


NUMERIC_KEYS = sorted(key for key, (kind, _, _) in CONFIG_KEYS.items() if kind is not str)


@given(st.sampled_from(NUMERIC_KEYS),
       st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-INF", "1e400"]))
def test_non_finite_values_refused(key, raw):
    kv = dict(parse_kv_text(DEFAULT_CONFIG_TEXT), **{key: raw})
    with pytest.raises(ConfigError, match=key):
        load_config("".join(f"{k} = {v}\n" for k, v in kv.items()))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv_text("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("a = 1\na = 2\n")


def test_comments_and_scientific_notation():
    cfg = load_config(_doc(ion_mass="1.5e3") + "\n# trailing comment\n")
    assert cfg.ion_mass == 1500.0


def test_derive_definitions():
    cfg = load_config(_doc())
    d = derive(cfg)
    assert d.delta == pytest.approx(TWO_PI / 1000, rel=0, abs=0)
    assert d.tau == 0.05
    assert d.omega_max == 1000.0
    assert d.sigma_v == pytest.approx(2.0 * TWO_PI)


def test_derive_kappa_from_halfwidth():
    # v(+-a) = v_max/min with v = 1 +- kappa a forces kappa = dv/(2a);
    # confirmed by evaluating the line law at x = +-1 by hand.
    cfg = PhysicalConfig(n_ions=10, period=TWO_PI, radius=1.0, ion_mass=1.0,
                         ion_charge=1.0, v_min=0.9, v_max=1.1, gamma1=0.1,
                         gamma2=0.1, theta_h=1.0)
    d = derive(cfg, transition_halfwidth=1.0)
    assert d.kappa == pytest.approx(0.1, rel=1e-15)


def test_derive_reference_velocity_default():
    cfg = load_config(_doc())
    d = derive(cfg)
    rho_explicit = derive(cfg, reference_velocity=TWO_PI / cfg.period).rho
    assert d.rho == rho_explicit
    assert d.rho == pytest.approx(cfg.ion_mass * cfg.n_ions / TWO_PI)


def test_derive_is_deterministic():
    cfg = load_config(_doc())
    a, b = derive(cfg), derive(cfg)
    assert a == b


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_delta_times_n_recovers_two_pi(n):
    cfg = PhysicalConfig(n_ions=n, period=1.0, radius=1.0, ion_mass=1.0,
                         ion_charge=1.0, v_min=0.9 * TWO_PI, v_max=1.1 * TWO_PI,
                         gamma1=0.3, gamma2=0.3, theta_h=1.0)
    d = derive(cfg)
    assert abs(d.delta * n - TWO_PI) <= 4 * math.ulp(TWO_PI)


def test_default_config_round_trips():
    cfg = default_config()
    assert cfg.n_ions == 1000
    assert "cutoff_shape" in parse_kv_text(DEFAULT_CONFIG_TEXT)
