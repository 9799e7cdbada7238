import ast
import math
from pathlib import Path

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


def test_derive_reference_velocity_default():
    cfg = load_config(_doc())
    d = derive(cfg)
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


def _call_sites():
    """name -> [(positional count, keyword names, has *args, has **kwargs)] for
    every call in src/, scripts/, perfbench/ and tests/."""
    root = Path(__file__).resolve().parents[1]
    sites = {}
    for folder in ("src", "scripts", "perfbench", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                keywords = {kw.arg for kw in node.keywords}
                sites.setdefault(name, []).append((
                    sum(not isinstance(a, ast.Starred) for a in node.args), keywords,
                    any(isinstance(a, ast.Starred) for a in node.args), None in keywords))
    return sites


def _defaulted_parameters():
    """(called name, parameter, position or None if keyword-only, where) for every
    defaulted parameter in src/sonicbh.  A dataclass field with a default is a
    defaulted parameter of the generated __init__, which the class name calls."""
    src = Path(__file__).resolve().parents[1] / "src" / "sonicbh"
    out = []

    def visit(node, where, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                decorators = [ast.unparse(d) for d in child.decorator_list]
                if any(d.startswith(("dataclass", "dataclasses.dataclass")) for d in decorators):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)]
                    for i, f in enumerate(fields):
                        if f.value is not None:
                            out.append((child.name, f.target.id, i, f"{where}:{f.lineno}"))
                visit(child, where, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                bound = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    out.append((name, positional[i].arg, i - bound, f"{where}:{child.lineno}"))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None, f"{where}:{child.lineno}"))
                visit(child, where)
            else:
                visit(child, where, cls)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.name)
    return out


def test_every_default_is_set_by_some_call():
    """A defaulted parameter that no call in the package, the scripts, the
    benchmark or the tests ever passes is a constant in disguise."""
    sites = _call_sites()
    unset = []
    for name, param, position, where in _defaulted_parameters():
        if not any(param in keywords or star_kw
                   or (position is not None and (n_pos > position or star))
                   for n_pos, keywords, star, star_kw in sites.get(name, ())):
            unset.append(f"{where} {name}({param})")
    assert unset == []
