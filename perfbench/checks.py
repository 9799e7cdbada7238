"""Output checks for the benchmark's valid ops, run after the timed passes.

    python3 perfbench/checks.py PLAN.json RESULT.json

Each check recomputes an op's output, or a seeded subset of it, along an
independent path already in the package, at the acceptance tolerances:

- ``diffusion``: every row's closed-form D(t) against its nested-quadrature
  column within 1e-6 relative (C01).
- ``correlation``: matched rows of a closed-form scan against
  ``corr_mode_sum_oracle`` within 1e-4 relative (C06) on a seeded subset;
  rows of a mode-sum scan against the closed form on every matched row.
- ``sweep``: the reported omega_min/omega_max modes recomputed with one
  ``v_coefficients`` and one ``decoherence_time`` call each; on the gamma
  axis at T0 = 0 also the exact gamma^-2 scaling of every row.
- ``langevin``: every point of the Monte-Carlo curve within 5 standard
  errors of ``expected_correlation_curve``; on fixed inputs also C10's
  combined-error test of the peak location.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import replace

import numpy as np

from sonicbh.characteristics import entanglement_boundary
from sonicbh.correlations import corr_closed_form, corr_mode_sum_oracle
from sonicbh.decoherence import allowed_frequencies, decoherence_time, v_coefficients
from sonicbh.errors import ExtrapolationError
from sonicbh.langevin import expected_correlation_curve, left_sector_map
from sonicbh.params import DEFAULT_CONFIG_TEXT, derive, load_config, parse_kv_text
from sonicbh.profiles import LineProfile, RingProfile

C01_TOL = 1e-6
C06_TOL = 1e-4
RECOMPUTE_TOL = 1e-9      # outputs carry 12 significant digits
C06_SAMPLES = 3
SWEEP_SAMPLES = 4
# Monte-Carlo errors are correlated across x2 (every point uses the same
# realizations), so C10's peak-location bound, calibrated on its own fixed
# inputs, is applied only to fixed inputs; seeded runs are held pointwise
# to their deterministic expectation instead.
MC_POINTWISE_SIGMAS = 5.0


class CheckFailed(Exception):
    pass


def read_table(path: str) -> tuple[list[str], list[list]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# manifest:"):
        raise CheckFailed(f"{path}: no manifest line")
    reader = csv.reader(lines[1:])
    header = next(reader)
    rows = [[_number(v) for v in row] for row in reader]
    return header, rows


def _number(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Context:
    """The scenario one op ran under: its config and the shapes it implies."""

    def __init__(self, op: dict):
        self.argv = op["argv"]
        text = op["config"] or DEFAULT_CONFIG_TEXT
        self.config = load_config(text)
        self.kv = parse_kv_text(text)
        self.line = LineProfile(a=float(self.kv.get("line_a", 1.0)),
                                kappa=float(self.kv.get("line_kappa", 0.1)),
                                tau=float(self.kv.get("line_tau", 1.0)))


def check_diffusion(ctx: Context, path: str, rng: random.Random):
    header, rows = read_table(path)
    _require(header == ["t", "d_exact", "d_oracle"], f"columns {header}")
    _require(len(rows) > 0, "no rows")
    worst = max(_rel(r[1], r[2]) for r in rows)
    _require(worst < C01_TOL, f"C01: worst relative error {worst:.3e}")


def _c06(rows, oracle, rng) -> str | None:
    """C06 on up to C06_SAMPLES seeded matched rows (x2, |value|).

    The oracle refuses some matched pairs (its regulator removal does not
    settle); such rows are skipped and reported, and the next one is tried.
    """
    checked, refused = 0, 0
    for x2, value in rng.sample(rows, len(rows)):
        if checked == C06_SAMPLES:
            break
        try:
            reference = abs(oracle(x2))
        except ExtrapolationError:
            refused += 1
            continue
        dev = _rel(value, reference)
        _require(dev < C06_TOL, f"C06: relative deviation {dev:.3e} at x2 = {x2!r}")
        checked += 1
    _require(checked > 0, f"C06: the oracle refused all {refused} matched rows")
    return f"C06 oracle refused {refused} matched rows" if refused else None


def check_correlation(ctx: Context, path: str, rng: random.Random, method: str):
    header, rows = read_table(path)
    _require(header == ["x2", "abs_corr", "region"], f"columns {header}")
    t, x1 = float(_opt(ctx.argv, "--t")), float(_opt(ctx.argv, "--x1"))
    raw_beta = _opt(ctx.argv, "--beta", "inf")
    beta = math.inf if raw_beta == "inf" else float(raw_beta)
    _require(all(math.isfinite(r[1]) and r[1] > 0 for r in rows), "non-finite or zero row")
    matched = [(r[0], r[1]) for r in rows if r[2] == "matched"]
    _require(len(matched) > 0, "no matched rows")
    if method == "closed_form":
        return _c06(matched, lambda x2: corr_mode_sum_oracle(x1, x2, t, beta, ctx.line), rng)
    worst = max(_rel(v, abs(corr_closed_form(x1, x2, t, beta, ctx.line))) for x2, v in matched)
    _require(worst < C06_TOL, f"C06: worst relative deviation {worst:.3e}")
    return None


def _mode_branch(profile, omega: float) -> tuple[str, float]:
    for branch in ("u", "v"):
        allowed = allowed_frequencies(profile, branch)
        hit = np.flatnonzero(np.isclose(allowed, omega, rtol=1e-10, atol=0.0))
        if hit.size:
            return branch, float(allowed[hit[0]])
    raise CheckFailed(f"omega {omega!r} is not an allowed mode of either branch")


def check_sweep(ctx: Context, path: str, rng: random.Random):
    header, rows = read_table(path)
    _require(header == ["axis", "t_d_min", "t_d_max", "omega_min", "omega_max"],
             f"columns {header}")
    points = int(_opt(ctx.argv, "--points", 20))
    _require(len(rows) == points, f"{len(rows)} rows for {points} points")
    axis = _opt(ctx.argv, "--axis")
    gamma = float(_opt(ctx.argv, "--gamma", ctx.kv.get("gamma", 0.0)))
    bath = float(ctx.kv.get("bath_temperature", 0.0))
    if axis == "gamma" and bath == 0.0:
        scaled = [(r[1] * r[0] ** 2, r[2] * r[0] ** 2) for r in rows]
        worst = max(max(_rel(lo, scaled[0][0]), _rel(hi, scaled[0][1])) for lo, hi in scaled)
        _require(worst < RECOMPUTE_TOL, f"gamma^-2 scaling off by {worst:.3e}")
        _require(len({(r[3], r[4]) for r in rows}) == 1, "extreme modes move along gamma")
    # the axis as the CLI builds it: printed axis values lose the last bits,
    # and t_D near the band edge is sensitive to them through the horizons
    space = np.geomspace if "--log" in ctx.argv else np.linspace
    axis_values = space(float(_opt(ctx.argv, "--from")), float(_opt(ctx.argv, "--to")), points)
    for i in sorted(rng.sample(range(len(rows)), min(SWEEP_SAMPLES, len(rows)))):
        row, value = rows[i], float(axis_values[i])
        _require(_rel(row[0], value) < RECOMPUTE_TOL,
                 f"row {i}: axis {row[0]!r}, expected {value!r}")
        config, g, temp = ctx.config, gamma, bath
        if axis == "gamma":
            g = value
        elif axis == "temperature":
            temp = value
        else:
            config = replace(config, v_min=value)
        profile, derived = RingProfile.from_config(config), derive(config)
        for t_d, omega in ((row[1], row[3]), (row[2], row[4])):
            branch, om = _mode_branch(profile, omega)
            est = decoherence_time(config, derived, g, om, temp,
                                   v_coefficients(profile, om), branch=branch)
            _require(_rel(t_d, est.t_d) < RECOMPUTE_TOL,
                     f"t_D at omega={om:.6g}: reported {t_d!r}, recomputed {est.t_d!r}")


def check_vcoef(ctx: Context, path: str, rng: random.Random):
    header, rows = read_table(path)
    _require(header == ["omega", "v1_u", "v2_u", "v1_v", "v2_v", "epsilon"], f"columns {header}")
    max_modes = int(_opt(ctx.argv, "--max-modes", 40))
    _require(0 < len(rows) <= max_modes, f"{len(rows)} rows")
    two_pi = 2.0 * math.pi
    for r in rows:
        _require(0.0 <= r[1] <= two_pi and 0.0 <= r[3] <= two_pi, f"V1 outside [0, 2pi]: {r}")
    profile = RingProfile.from_config(ctx.config)
    i = rng.randrange(len(rows))
    om = float(allowed_frequencies(profile, "u")[i])
    _require(_rel(rows[i][0], om) < RECOMPUTE_TOL,
             f"row {i}: omega {rows[i][0]!r}, expected {om!r}")
    vc = v_coefficients(profile, om)
    worst = max(abs(a - b) for a, b in zip(rows[i][1:5], (vc.v1_u, vc.v2_u, vc.v1_v, vc.v2_v)))
    _require(worst < RECOMPUTE_TOL * two_pi, f"V1/V2 recompute off by {worst:.3e}")


def check_finite(ctx: Context, path: str, rng: random.Random):
    _header, rows = read_table(path)
    _require(len(rows) > 0, "no rows")
    _require(all(math.isfinite(v) for r in rows for v in r if isinstance(v, float)),
             "non-finite value")


def check_boundary(ctx: Context, path: str, rng: random.Random):
    check_finite(ctx, path, rng)
    _header, rows = read_table(path)
    _require(all(r[1] <= -ctx.line.a and r[2] >= ctx.line.a for r in rows),
             "boundary inside the core")


def check_hawking(ctx: Context, path: str, rng: random.Random):
    _header, rows = read_table(path)
    values = {r[0]: r[1] for r in rows}
    line = ctx.line
    expected = abs(line.v_max - line.v_min) / (4.0 * math.pi * line.a)
    _require(_rel(values["line"], expected) < RECOMPUTE_TOL, f"line T_H {values['line']!r}")
    _require(values["ring"] > 0 and math.isfinite(values["ring"]), "ring T_H")


def _qfit_loc(x2, values, search, stderr=None):
    """C10's peak locator: vertex of a (weighted) quadratic around the
    argmax of the lower confidence envelope; returns (location, sigma)."""
    envelope = values if stderr is None else values - 2.0 * stderr
    j = int(np.argmax(np.where(search, envelope, -np.inf)))
    s = slice(max(j - 3, 0), min(j + 4, len(values)))
    if stderr is None:
        c = np.polyfit(x2[s], values[s], 2)
        return float(-c[1] / (2 * c[0])), 0.0
    w = 1.0 / np.maximum(stderr[s], 1e-300)
    c, cov = np.polyfit(x2[s], values[s], 2, w=w, cov="unscaled")
    dv_da, dv_db = c[1] / (2 * c[0] ** 2), -1.0 / (2 * c[0])
    var = dv_da ** 2 * cov[0, 0] + dv_db ** 2 * cov[1, 1] + 2 * dv_da * dv_db * cov[0, 1]
    return float(-c[1] / (2 * c[0])), math.sqrt(max(var, 0.0))


def _c10(x2, mc, stderr, reference, t, line, systematic=0.0):
    h = float(x2[1] - x2[0])
    search = x2 <= entanglement_boundary(t, line)[1]
    loc_ref, _ = _qfit_loc(x2, reference, search)
    loc_mc, sigma = _qfit_loc(x2, mc, search, stderr)
    bound = 3.0 * sigma + systematic + h
    _require(abs(loc_mc - loc_ref) <= bound,
             f"C10: MC peak {loc_mc:.4f} vs {loc_ref:.4f}, bound {bound:.4f}")


def check_langevin(ctx: Context, path: str, rng: random.Random, peak: bool = False):
    header, rows = read_table(path)
    _require(header == ["x2", "abs_corr", "stderr"], f"columns {header}")
    arr = np.array(rows, dtype=float)
    x2, mc, stderr = arr[:, 0], arr[:, 1], arr[:, 2]
    t, x1 = float(_opt(ctx.argv, "--t")), float(_opt(ctx.argv, "--x1"))
    temperature = float(_opt(ctx.argv, "--temperature", 0.0))
    transport = _opt(ctx.argv, "--transport", "matched")
    # the estimator's default regulator: a quarter of the smallest traced
    # separation (langevin.estimate_correlation)
    x0, _w = left_sector_map(np.concatenate([[x1], x2]), t, ctx.line, transport)
    eps = 0.25 * max(float(np.abs(x0[1:] - x0[0]).min()), 1e-3 * ctx.line.a)
    scheme = expected_correlation_curve(x1, x2, t, temperature, ctx.line, eps, transport)
    z = float(np.max(np.abs(mc - scheme) / np.maximum(stderr, 1e-300)))
    _require(z <= MC_POINTWISE_SIGMAS, f"MC vs its expectation: max |z| = {z:.2f}")
    if peak:
        _c10(x2, mc, stderr, scheme, t, ctx.line)


def check_langevin_script(ctx: Context, path: str, rng: random.Random):
    header, rows = read_table(path)
    _require(header == ["x2", "closed", "scheme", "mc", "mc_stderr"], f"columns {header}")
    arr = np.array(rows, dtype=float)
    x2 = arr[:, 0]
    t = 30.0  # scripts/run_langevin_check.py
    search = x2 <= entanglement_boundary(t, ctx.line)[1]
    systematic = abs(_qfit_loc(x2, arr[:, 2], search)[0] - _qfit_loc(x2, arr[:, 1], search)[0])
    _c10(x2, arr[:, 3], arr[:, 4], arr[:, 1], t, ctx.line, systematic)


def check_correlation_script(ctx: Context, path: str, rng: random.Random):
    header, rows = read_table(path)
    _require(header == ["t0_over_th", "x2", "abs_corr", "region"], f"columns {header}")
    t, x1 = 100.0, -4.0  # scripts/run_correlation_scan.py
    t_h = abs(ctx.line.v_max - ctx.line.v_min) / (4.0 * math.pi * ctx.line.a)
    notes = []
    for mult in sorted({r[0] for r in rows}):
        beta = math.inf if mult == 0.0 else 1.0 / (mult * t_h)
        matched = [(r[1], r[2]) for r in rows if r[0] == mult and r[3] == "matched"]
        _require(len(matched) > 0, f"no matched rows at T0 = {mult} T_H")
        notes.append(_c06(matched, lambda x2: corr_mode_sum_oracle(x1, x2, t, beta, ctx.line),
                          rng))
    return "; ".join(n for n in notes if n) or None


CHECKS = {
    "diffusion": check_diffusion,
    "correlation": check_correlation,
    "sweep": check_sweep,
    "vcoef": check_vcoef,
    "finite": check_finite,
    "boundary": check_boundary,
    "hawking": check_hawking,
    "langevin": check_langevin,
    "langevin_script": check_langevin_script,
    "correlation_script": check_correlation_script,
}


def run_check(op: dict, seed: int) -> dict:
    """{"failure": reason or None, "note": what the check could not cover}."""
    spec = dict(op["check"])
    kind = spec.pop("kind")
    rng = random.Random(f"check/{seed}/{op['id']}")
    try:
        return {"failure": None, "note": CHECKS[kind](Context(op), op["output"], rng, **spec)}
    except CheckFailed as exc:
        return {"failure": str(exc), "note": None}
    except Exception as exc:  # a check that cannot run fails its op
        return {"failure": f"{type(exc).__name__}: {exc}", "note": None}


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = {str(op["id"]): run_check(op, plan["seed"]) for op in plan["ops"]}
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
