import ast
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sonicbh.errors import ConfigError
from sonicbh.params import (CONFIG_KEYS, DEFAULT_CONFIG_TEXT, MAX_N_IONS, PhysicalConfig,
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


def test_bath_and_line_keys_refused_in_params():
    """The bath's and the line's keys are refused where the document is read,
    before anything is built from them: a negative coupling, a cutoff at 0,
    a cutoff shape other than the Lorentzian, a supersonic far side (or a
    slope that underflows to none)."""
    slope = r"line_kappa \* line_a"
    for overrides, match in [({"gamma": "-1e-6"}, "gamma"), ({"cutoff": "0"}, "cutoff"),
                             ({"bath_temperature": "-0.1"}, "bath_temperature"),
                             ({"cutoff_shape": "gauss"}, "cutoff_shape"),
                             ({"cutoff_shape": "exponential"}, "cutoff_shape"),
                             ({"line_kappa": "5.0"}, slope), ({"line_a": "10.0"}, slope),
                             ({"line_kappa": "1e-200", "line_a": "1e-200"}, slope)]:
        kv = dict(parse_kv_text(DEFAULT_CONFIG_TEXT), **overrides)
        with pytest.raises(ConfigError, match=match):
            read_config("".join(f"{k} = {v}\n" for k, v in kv.items()))


@pytest.mark.parametrize("key", sorted(key for key, (_k, _d, domain) in CONFIG_KEYS.items()
                                      if domain == "positive"))
@pytest.mark.parametrize("raw", ["0", "-1"])
def test_positive_keys_refused_where_read(key, raw):
    # read_config is the one check of a key's own domain; PhysicalConfig,
    # LineProfile and EnvironmentSpec do not repeat it
    with pytest.raises(ConfigError, match=f"^{key} must be positive"):
        read_config(_doc(**{key: raw}))


def test_config_errors_raised_only_in_params_and_cli():
    """A config key is refused where the document is read (params) and an
    argument where it is parsed (cli); no numeric module raises ConfigError,
    so a refused config never waits on numpy."""
    raisers = set()
    for path in sorted((ROOT / "src" / "sonicbh").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) == "ConfigError":
                    raisers.add(path.name)
    assert raisers == {"params.py", "cli.py"}


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


@given(st.integers(min_value=2, max_value=MAX_N_IONS))
def test_delta_times_n_recovers_two_pi(n):
    cfg = PhysicalConfig(n_ions=n, period=1.0, radius=1.0, ion_mass=1.0,
                         ion_charge=1.0, v_min=0.9 * TWO_PI, v_max=1.1 * TWO_PI,
                         gamma1=0.3, gamma2=0.3, theta_h=1.0, hbar=1.0, k_boltzmann=1.0)
    d = derive(cfg)
    assert abs(d.delta * n - TWO_PI) <= 4 * math.ulp(TWO_PI)


def test_default_config_round_trips():
    cfg = default_config()
    assert cfg.n_ions == 1000
    assert "cutoff_shape" in parse_kv_text(DEFAULT_CONFIG_TEXT)


ROOT = Path(__file__).resolve().parents[1]


def _program_files(root):
    """The .py files of src/, scripts/ and perfbench/, without perfbench/tests."""
    return [path for folder in ("src", "scripts", "perfbench")
            for path in sorted((root / folder).rglob("*.py"))
            if "tests" not in path.relative_to(root).parts]


def _call_sites(root):
    """name -> [ast.Call] of every call in the program files."""
    sites = {}
    for path in _program_files(root):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                sites.setdefault(name, []).append(node)
    return sites


def _parameters(root):
    """(called name, parameter, position or None if keyword-only, defaulted,
    where) for every parameter in src/sonicbh.  A dataclass or NamedTuple
    field is a parameter of the generated constructor, which the class name
    calls."""
    src = root / "src" / "sonicbh"
    out = []

    def visit(node, where, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                decorators = [ast.unparse(d) for d in child.decorator_list]
                named_tuple = any(ast.unparse(b).endswith("NamedTuple") for b in child.bases)
                if named_tuple or any(d.startswith(("dataclass", "dataclasses.dataclass"))
                                      for d in decorators):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)]
                    for i, f in enumerate(fields):
                        out.append((child.name, f.target.id, i, f.value is not None,
                                    f"{where}:{f.lineno}"))
                visit(child, where, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                bound = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i in range(bound, len(positional)):
                    out.append((name, positional[i].arg, i - bound, i >= first,
                                f"{where}:{child.lineno}"))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    out.append((name, arg.arg, None, default is not None,
                                f"{where}:{child.lineno}"))
                visit(child, where)
            else:
                visit(child, where, cls)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.name)
    return out


def _passed(call, param, position):
    """What a call passes to a parameter: its expression, None if the call
    leaves it out, or the call itself when a * or ** argument may carry it."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    if position is not None and not starred and position < len(call.args):
        return call.args[position]
    if starred or any(kw.arg is None for kw in call.keywords):
        return call
    return None


# Defaulted parameters that only an oracle in tests/ sets.
DEFAULT_ALLOWLIST = {
    # C11 probes e_r at a fixed inside probe x1 = -4
    "open_correction_er(x1)",
}


def _unset_defaults(root):
    """{"name(param)": where} of every defaulted parameter that no call in the
    program files passes."""
    sites = _call_sites(root)
    return {f"{name}({param})": where
            for name, param, position, defaulted, where in _parameters(root)
            if defaulted and all(_passed(call, param, position) is None
                                 for call in sites.get(name, ()))}


def test_every_default_is_set_by_some_call():
    """A defaulted parameter that no call in the package, the scripts or the
    benchmark passes is a constant in disguise: tests alone do not justify an
    option.  An allowlist entry must name a parameter that only tests set."""
    unset = _unset_defaults(ROOT)
    assert sorted(f"{where} {key}" for key, where in unset.items()
                  if key not in DEFAULT_ALLOWLIST) == []
    assert sorted(DEFAULT_ALLOWLIST - set(unset)) == []


def _fixed_modes(root):
    """{"name(param)": where} of every parameter that all program calls pass
    one and the same string literal."""
    sites = _call_sites(root)
    fixed = {}
    for name, param, position, _, where in _parameters(root):
        passed = [_passed(call, param, position) for call in sites.get(name, ())]
        # a left-out argument (None) or an expression is never a string literal
        values = {p.value if isinstance(p, ast.Constant) else p for p in passed}
        if len(values) == 1 and isinstance(next(iter(values)), str):
            fixed[f"{name}({param})"] = where
    return fixed


def test_every_mode_argument_varies():
    """A parameter that every call in the package, the scripts and the
    benchmark passes the same string literal selects one path, and its other
    paths are taken by no caller: delete them and the parameter.  Numeric
    literals are sizes, not path selectors, and are left alone."""
    assert sorted(f"{where} {key}" for key, where in _fixed_modes(ROOT).items()) == []


def _unread_constants(root):
    """module.NAME of every module-level UPPER_CASE constant of src/sonicbh that
    no program file reads, as a name or as an attribute."""
    reads = set()
    for path in _program_files(root):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    unread = []
    for path in sorted((root / "src" / "sonicbh").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [n for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
            unread += [f"{path.stem}.{n.id}" for n in names if isinstance(n, ast.Name)
                       and n.id.lstrip("_").isupper() and n.id not in reads]
    return unread


def test_every_constant_is_read():
    """A module-level UPPER_CASE constant of src/sonicbh that nothing in the
    package, the scripts or the benchmark reads is dead: delete it."""
    assert _unread_constants(ROOT) == []


def _unread_fields(root):
    """module.Class.field of every dataclass or NamedTuple field of
    src/sonicbh that no program file reads as an attribute.  A NamedTuple
    whose ``_fields`` a program file reads is written out whole, row by row,
    and is exempt."""
    reads, whole_rows = set(), set()
    for path in _program_files(root):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
                if node.attr == "_fields" and isinstance(node.value, ast.Name):
                    whole_rows.add(node.value.id)
    unread = []
    for path in sorted((root / "src" / "sonicbh").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            dataclass = any(ast.unparse(d).startswith(("dataclass", "dataclasses.dataclass"))
                            for d in node.decorator_list)
            named_tuple = any(ast.unparse(b).endswith("NamedTuple") for b in node.bases)
            if not dataclass and not (named_tuple and node.name not in whole_rows):
                continue
            unread += [f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign) and item.target.id not in reads]
    return unread


def test_every_field_is_read():
    """A result or spec field that nothing in the package, the scripts or the
    benchmark reads is carried for tests alone: delete it."""
    assert _unread_fields(ROOT) == []


# The observable layers.  Each builds on the primitives below it (specfun,
# params, environment, profiles, characteristics) and on no other
# observable, so that a check of one never runs through another; the CLI
# alone composes them.
OBSERVABLES = ("decoherence", "correlations", "langevin")


def _layer_violations(root):
    """"importer -> observable" for every import of an observable module of
    src/sonicbh by another observable, or by any module but the CLI."""
    found = []
    for path in sorted((root / "src" / "sonicbh").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            targets = [node.module] if node.module else [a.name for a in node.names]
            found += [f"{path.stem} -> {target}" for target in targets
                      if target in OBSERVABLES and target != path.stem
                      and path.stem != "cli"]
    return found


def test_observables_import_only_lower_layers():
    """The Monte-Carlo estimator checks the analytic correlations without
    borrowing from them, and no observable imports another."""
    assert _layer_violations(ROOT) == []


def _importers(root, module):
    """The modules of src/sonicbh that import module."""
    found = set()
    for path in sorted((root / "src" / "sonicbh").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any((name or "").split(".")[0] == module for name in names):
                found.add(path.stem)
    return sorted(found)


def test_only_params_imports_dataclasses():
    """The package's value types are NamedTuples, which cost about an eighth
    of a frozen dataclass to create at import.  PhysicalConfig, which the
    benchmark's sweep check copies with dataclasses.replace, is the one
    dataclass, and params the one module that imports dataclasses."""
    assert _importers(ROOT, "dataclasses") == ["params"]


def test_no_module_imports_warnings():
    """Each limit ends in a refusal raised where it is owned: no module of
    the package warns, so no warning can be filtered away before the CLI."""
    assert _importers(ROOT, "warnings") == []


# Definitions that no command, script or benchmark file reaches through the
# code, yet something outside the package calls.
REACH_ALLOWLIST = {
    # argparse calls the parser's error hook on a bad command line
    "cli._Parser.error",
}


# The dunders that building an instance of a reached class runs.
CONSTRUCTOR_DUNDERS = ("__init__", "__post_init__")


def _bindings(tree, package_module):
    """What the imports of a module bind to in the package: name -> ("import",
    module, name) or ("module", module), "__init__" standing for the package.
    package_module: the tree is a module of the package (relative imports)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if package_module and node.level == 1:
                source = node.module or "__init__"
            elif not package_module and (node.module or "").split(".")[0] == "sonicbh":
                source = node.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = ("import", source, alias.name)
        elif isinstance(node, ast.Import) and not package_module:
            for alias in node.names:
                if alias.name.split(".")[0] == "sonicbh":
                    bound[alias.asname or "sonicbh"] = (
                        "module", alias.name.partition(".")[2] if alias.asname else "__init__")
    return bound


def _reached(root, allowlisted):
    """(definitions, reached keys) of root/src/sonicbh.

    A definition key is "module.name" or "module.Class.method".  The roots are
    cli.main, the module-level code of the package, every file of scripts/
    and perfbench/ (not perfbench/tests) and the allowlisted keys; a name
    resolves through the imports, and an attribute of anything but a module
    reaches every method of that name.  A reached class reaches its
    CONSTRUCTOR_DUNDERS; any other dunder (__call__, __eq__, ...) is reached
    only by name or through the allowlist.
    """
    definitions, scopes, trees = {}, {}, {}
    for path in sorted((root / "src" / "sonicbh").glob("*.py")):
        module = path.stem
        trees[module] = ast.parse(path.read_text(), filename=str(path))
        scopes[module] = _bindings(trees[module], package_module=True)
        for node in trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = f"{module}.{node.name}"
                definitions[key] = (module, node)
                scopes[module][node.name] = ("def", key)
                if isinstance(node, ast.ClassDef):
                    definitions.update({f"{key}.{item.name}": (module, item)
                                        for item in node.body
                                        if isinstance(item, ast.FunctionDef)})
    methods = {}
    for key in definitions:
        if key.count(".") == 2:
            methods.setdefault(key.rsplit(".", 1)[1], set()).add(key)

    def lookup(scope, name):
        entry = scope.get(name)
        if entry is None and scope is scopes["__init__"] and name in scopes:
            return ("module", name)
        if entry is not None and entry[0] == "import":
            return lookup(scopes.get(entry[1], {}), entry[2])
        return entry

    def resolve(expr, scope):
        if isinstance(expr, ast.Name):
            return lookup(scope, expr.id)
        if isinstance(expr, ast.Attribute) and is_module(expr.value, scope):
            return lookup(scopes[resolve(expr.value, scope)[1]], expr.attr)
        return None

    def is_module(expr, scope):
        return (resolve(expr, scope) or (None,))[0] == "module"

    def references(nodes, scope):
        out = set()
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            if not (isinstance(sub, (ast.Name, ast.Attribute))
                    and isinstance(sub.ctx, ast.Load)):
                continue
            target = resolve(sub, scope)
            if target is not None and target[0] == "def":
                out.add(target[1])
            elif isinstance(sub, ast.Attribute) and not is_module(sub.value, scope):
                out |= methods.get(sub.attr, set())
        return out

    todo = {"cli.main", *allowlisted}
    for module, tree in trees.items():
        todo |= references([node for node in tree.body if not isinstance(
            node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))], scopes[module])
    for folder in ("scripts", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            todo |= references([tree], _bindings(tree, package_module=False))
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in definitions:
            continue
        reached.add(key)
        module, node = definitions[key]
        if isinstance(node, ast.ClassDef):
            body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
            todo |= references(node.bases + node.decorator_list + body, scopes[module])
            todo |= {f"{key}.{item.name}" for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name in CONSTRUCTOR_DUNDERS}
        else:
            todo |= references([node], scopes[module])
    return definitions, reached


def test_every_public_name_is_reached():
    """A function, class or method of src/sonicbh, public or private, that no
    command, script, benchmark file or allowlisted hook reaches is test-only
    code: delete it or move it into tests/.  An allowlist entry must name a
    definition that only the allowlist keeps."""
    definitions, reached = _reached(ROOT, REACH_ALLOWLIST)
    _, reached_by_roots = _reached(ROOT, ())
    assert sorted(key for key in definitions if key not in reached) == []
    assert sorted(key for key in REACH_ALLOWLIST
                  if key not in definitions or key in reached_by_roots) == []


def test_no_unused_imports():
    """Every name a module of src/sonicbh imports is used there."""
    unused = []
    for path in sorted((ROOT / "src" / "sonicbh").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_package_init_imports_nothing():
    """Each name has one import path, its own module: the package's __init__
    holds its docstring and __version__, and re-exports nothing."""
    tree = ast.parse((ROOT / "src" / "sonicbh" / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_one_entry_point_module():
    """`python -m sonicbh` and the console script are the entry points: no
    module of src/sonicbh but __main__.py runs code as a script."""
    found = [path.name for path in sorted((ROOT / "src" / "sonicbh").glob("*.py"))
             if any(isinstance(node, ast.If) and "__name__" in ast.unparse(node.test)
                    for node in ast.parse(path.read_text()).body)]
    assert found == ["__main__.py"]
