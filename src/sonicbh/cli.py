"""Command-line front end: load a config, run a computation, emit a dataset.

Outputs are CSV (default) or JSON, written atomically, each carrying a
manifest line with the config hash, seed where stochastic, and the package
version.  Exit codes: 0 success, 2 config error (including an unreadable
config file and a bad argument), 3 numeric failure, 4 regime violation;
every failure prints one JSON record on stderr.

Only the standard library and the light modules (errors, params,
environment) load at import; json loads only to write JSON or an error
record, and hashlib only once a config is read.  The config is checked
before numpy loads, and each command imports the numeric modules it calls,
so a refused argument or config exits before numpy is imported and no
command loads a module it does not call.  Linear grids are built here
without numpy (``linspace``, which the scan script uses too), so the
commands that compute on scalars (hawking, boundary, er and the closed-form
correlation) load none, and a linear tdec-sweep refused for its regime exits
before numpy loads.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile

from . import __version__
from .environment import EnvironmentSpec, effective_coupling
from .errors import ConfigError, RegimeError, SonicBHError
from .params import DEFAULT_CONFIG_TEXT, check_number, derive, read_config

def _read_config_text(path: str | None) -> str:
    if path is None:
        return DEFAULT_CONFIG_TEXT
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_all(path: str | None):
    text = _read_config_text(path)
    config, values = read_config(text)
    derived = derive(config)
    gamma = values["gamma"]
    cutoff = values["cutoff"] if values["cutoff"] is not None else 1.0 / derived.tau
    env = EnvironmentSpec(coupling_eff=effective_coupling(gamma, config, derived),
                          cutoff=cutoff, bath_temperature=values["bath_temperature"])
    import hashlib
    from .profiles import LineProfile
    line = LineProfile(a=values["line_a"], kappa=values["line_kappa"],
                       tau=values["line_tau"])
    manifest = {"config_sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}
    return config, env, line, gamma, manifest


def linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) bit for bit: i * step + start, the last of
    two or more points set to stop."""
    step = (stop - start) / max(num - 1, 1)
    points = [i * step + start for i in range(num)]
    return points[:-1] + [stop] if num > 1 else points


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_atomic(path: str, payload: str):
    """Write through a temporary file beside path; a failure names path."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sonicbh-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_table(path: str, columns, rows, manifest: dict, fmt: str):
    manifest = dict(manifest, version=__version__)
    if fmt == "csv":
        items = " ".join(f"{k}={manifest[k]}" for k in sorted(manifest))
        lines = [f"# manifest: {items}", ",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write_atomic(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        import json
        doc = {"manifest": manifest, "columns": list(columns),
               "rows": [[v if not isinstance(v, float) else float(_fmt(v))
                         for v in row] for row in rows]}
        _write_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    """Argument errors are refused like config errors: exit 2, JSON on stderr.

    A negative number with an exponent (-4e0, -1e-3) is a value, not an
    option string; argparse's own rule knows only -4 and -4.0.  The
    subcommands' parsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def _follows_command(flag: str):
    """Argument type of a common option given before the subcommand, where
    argparse would read its value as the subcommand: refused by name."""
    def refuse(raw: str):
        raise ConfigError(f"{flag} follows the subcommand: sonicbh <command> {flag} <value>")
    return refuse


def _number(domain: str):
    """Argument type: a finite number inside domain, as for config values."""
    def parse(raw: str) -> float:
        try:
            return check_number("value", raw, domain)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _count(minimum: int, below: int | None = None):
    """Argument type: an integer of at least minimum (and under below)."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
        if value < minimum or (below is not None and value >= below):
            bounds = f">= {minimum}" + (f" and < {below}" if below is not None else "")
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {value}")
        return value
    return parse


def _beta_arg(raw: str) -> float:
    if raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    return _number("positive")(raw)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sonicbh",
                description="sonic-horizon open-system toolkit")
    # the common options, which follow the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config path (default: built-in)")
    common.add_argument("--output", help="output file (default: <command>.csv/json)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    for flag in ("--config", "--output", "--format"):
        p.add_argument(flag, type=_follows_command(flag), default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("hawking", help="Hawking temperatures of both geometries")

    s = add_parser("boundary", help="entanglement-wedge boundary x_pm(t)")
    s.add_argument("--t-max", type=_number("positive"), default=200.0)
    s.add_argument("--points", type=_count(1), default=400)

    s = add_parser("diffusion", help="normal diffusion coefficient D(t)")
    s.add_argument("--omega", type=_number("positive"), required=True)
    s.add_argument("--t-min", type=_number("positive"), required=True)
    s.add_argument("--t-max", type=_number("positive"), required=True)
    s.add_argument("--points", type=_count(1), default=50)
    s.add_argument("--oracle", action="store_true", help="include the nested-quadrature column")

    s = add_parser("vcoef", help="mode weights V1/V2 over allowed frequencies")
    s.add_argument("--max-modes", type=_count(1), default=40)

    s = add_parser("tdec-sweep", help="decoherence-time band sweep")
    s.add_argument("--axis", choices=("gamma", "v_min", "temperature"), required=True)
    s.add_argument("--from", dest="lo", type=_number("finite"), required=True)
    s.add_argument("--to", dest="hi", type=_number("finite"), required=True)
    s.add_argument("--points", type=_count(1), default=20)
    s.add_argument("--log", action="store_true", help="log-spaced axis")

    s = add_parser("correlation", help="pair-correlation scan over x2")
    s.add_argument("--t", type=_number("non-negative"), required=True)
    s.add_argument("--x1", type=_number("finite"), required=True)
    s.add_argument("--beta", type=_beta_arg, default=math.inf)
    s.add_argument("--x2-min", type=_number("finite"), default=None)
    s.add_argument("--x2-max", type=_number("finite"), default=None)
    # detect_peak needs 16 samples
    s.add_argument("--points", type=_count(16), default=64)
    s.add_argument("--method", choices=("closed_form", "mode_sum_oracle"),
                   default="closed_form")

    s = add_parser("er", help="per-mode open-system relative correction")
    s.add_argument("--k", type=_number("positive"), action="append", required=True)
    s.add_argument("--t-min", type=_number("positive"), required=True)
    s.add_argument("--t-max", type=_number("positive"), required=True)
    s.add_argument("--points", type=_count(1), default=40)
    s.add_argument("--lam", type=_number("finite"), default=1e-7)
    s.add_argument("--temperature", type=_number("non-negative"), default=None,
                   help="default: 100 x line Hawking temperature")

    s = add_parser("langevin", help="Monte-Carlo correlation estimator")
    s.add_argument("--t", type=_number("non-negative"), required=True)
    s.add_argument("--x1", type=_number("finite"), required=True)
    s.add_argument("--temperature", type=_number("non-negative"), default=0.0)
    s.add_argument("--realizations", type=_count(2), default=2000)
    s.add_argument("--seed", type=_count(0, 2 ** 64), default=1234)
    s.add_argument("--x2-min", type=_number("finite"), default=None)
    s.add_argument("--x2-max", type=_number("finite"), default=None)
    s.add_argument("--points", type=_count(1), default=48)
    s.add_argument("--transport", choices=("matched", "exact"), default="matched")
    return p


def _x2_window(args, line) -> tuple[float, float]:
    """The x2 window of a pair command: --x2-min and --x2-max where given,
    else [max(1.2a, x2* - 8a), min(x2* + 8a, 1.2 x_plus)] around the partner
    x2* of x1, whose width does not grow with t; a missing bound of an empty
    window is refused."""
    lo, hi = args.x2_min, args.x2_max
    if lo is None or hi is None:
        from .characteristics import entanglement_boundary, pair_partner
        a, partner = line.a, pair_partner(args.x1, args.t, line)
        xp = entanglement_boundary(args.t, line)[1]
        default_lo = max(1.2 * a, partner - 8.0 * a)
        default_hi = min(partner + 8.0 * a, 1.2 * xp)
        if not default_lo < default_hi:
            raise RegimeError(
                "the default x2 window [max(1.2a, x2* - 8a), min(x2* + 8a, 1.2 x_plus)] "
                f"is empty at t = {args.t:g}: x2* = {partner:g} (x1 = {args.x1:g}), "
                f"x_plus = {xp:g}; give --x2-min and --x2-max")
        lo = default_lo if lo is None else lo
        hi = default_hi if hi is None else hi
    return lo, hi


def _run(args) -> tuple[list, list, dict]:
    config, env, line, gamma, manifest = _load_all(args.config)
    manifest["command"] = args.command

    if args.command == "hawking":
        from .profiles import RingProfile, hawking_temperature_line, hawking_temperature_ring
        ring = RingProfile.from_config(config)
        rows = [["ring", hawking_temperature_ring(ring)],
                ["line", hawking_temperature_line(line)]]
        return ["geometry", "t_hawking"], rows, manifest

    if args.command == "boundary":
        from .characteristics import entanglement_boundary
        rows = []
        for t in linspace(0.0, args.t_max, args.points):
            xm, xp = entanglement_boundary(t, line)
            rows.append([t, xm, xp])
        return ["t", "x_minus", "x_plus"], rows, manifest

    if args.command == "diffusion":
        import numpy as np
        from .decoherence import diffusion_exact, diffusion_quadrature_oracle
        ts = np.geomspace(args.t_min, args.t_max, args.points)
        cols = ["t", "d_exact"] + (["d_oracle"] if args.oracle else [])
        rows = []
        for t in ts:
            row = [float(t), diffusion_exact(float(t), args.omega, env)]
            if args.oracle:
                row.append(diffusion_quadrature_oracle(float(t), args.omega, env))
            rows.append(row)
        return cols, rows, manifest

    if args.command == "vcoef":
        from .decoherence import allowed_frequencies, v_coefficients
        from .profiles import RingProfile
        ring = RingProfile.from_config(config)
        omegas = allowed_frequencies(ring, "u")[: args.max_modes]
        rows = []
        for om in omegas:
            vc = v_coefficients(ring, float(om))
            rows.append([float(om), vc.v1_u, vc.v2_u, vc.v1_v, vc.v2_v, vc.epsilon])
        return ["omega", "v1_u", "v2_u", "v1_v", "v2_v", "epsilon"], rows, manifest

    if args.command == "tdec-sweep":
        if args.axis != "gamma" and gamma <= 0:
            raise ConfigError(f"a {args.axis} sweep needs a positive config gamma")
        if args.log and min(args.lo, args.hi) <= 0:
            raise ConfigError(f"--log needs a positive range, got --from {args.lo:g} "
                              f"--to {args.hi:g}")
        from .decoherence import SweepRow, sweep_decoherence
        if args.log:
            import numpy as np
            values = np.geomspace(args.lo, args.hi, args.points)
        else:
            values = linspace(args.lo, args.hi, args.points)
        rows, errs = sweep_decoherence(args.axis, values, config, gamma,
                                       temperature=env.bath_temperature)
        if errs:
            manifest["point_errors"] = len(errs)
        return SweepRow._fields, rows, manifest

    if args.command == "correlation":
        from .correlations import build_correlation_grid, detect_peak
        lo, hi = _x2_window(args, line)
        if min(lo, hi) <= line.a:
            raise ConfigError(f"the x2 window [{lo:g}, {hi:g}] must lie beyond "
                              f"a = {line.a:g}")
        grid = build_correlation_grid(args.x1, linspace(lo, hi, args.points), args.t,
                                      args.beta, line, method=args.method)
        peak = detect_peak(grid)
        manifest.update(peak_location=_fmt(peak.location),
                        peak_present=str(peak.present).lower(),
                        peak_contrast=_fmt(peak.contrast))
        rows = [list(row) for row in zip(grid.x2, grid.values, grid.regions)]
        return ["x2", "abs_corr", "region"], rows, manifest

    if args.command == "er":
        from .correlations import open_correction_er
        from .profiles import hawking_temperature_line
        temp = (args.temperature if args.temperature is not None
                else 100.0 * hawking_temperature_line(line))
        ts = linspace(args.t_min, args.t_max, args.points)
        rows = [[k, t, open_correction_er(k, t, args.lam, temp, line)]
                for k in args.k for t in ts]
        return ["k", "t", "e_r"], rows, manifest

    if args.command == "langevin":
        from .langevin import estimate_correlation
        x2 = linspace(*_x2_window(args, line), args.points)
        mc = estimate_correlation(args.realizations, args.x1, x2, args.t,
                                  args.temperature, line, seed=args.seed,
                                  transport=args.transport)
        manifest.update(seed=args.seed, realizations=args.realizations,
                        transport=args.transport)
        rows = [[float(x), float(v), float(s)] for x, v, s in
                zip(x2, mc.values, mc.stderr)]
        return ["x2", "abs_corr", "stderr"], rows, manifest

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        columns, rows, manifest = _run(args)
        out = args.output or f"{args.command}.{args.format}"
        write_table(out, columns, rows, manifest, args.format)
        print(out)
        return 0
    except (ConfigError, OSError) as exc:
        _emit_error(exc)
        return 2
    except RegimeError as exc:
        _emit_error(exc)
        return 4
    except (SonicBHError, ValueError, ArithmeticError) as exc:
        _emit_error(exc)
        return 3


def _emit_error(exc: Exception):
    import json
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
