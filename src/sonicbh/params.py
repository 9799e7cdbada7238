"""Physical configuration of the rotating-ion flow and its derived scales.

Everything downstream consumes a validated :class:`PhysicalConfig`.  The unit
system is natural (hbar = k_B = 1 by default) but both constants are carried
explicitly so expressions with literal hbar**2 or k_B**2 factors evaluate
as written.

Configuration documents are flat key-value text, one ``key = value`` pair per
line, ``#`` comments allowed.  Numbers may be decimal or scientific.  Every
key the toolkit reads is listed once in CONFIG_KEYS, and read_config is the
one place a document is parsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# Most ions a ring holds: the work grows ~4x per doubling of N.  On the bench
# flow (charge scaled) a one-point gamma sweep took 8.6-9.4 s and 56 MB at
# 30,000 ions, up to 13 s at 32,000 (2-core x86-64, Python 3.11).
MAX_N_IONS = 30_000

REQUIRED = object()

# Every configuration key, once: key -> (type, default, domain).  REQUIRED
# keys must be set; cutoff's None is the derived default 1/tau, filled in where
# the bath is built.  A number's domain names a check_number domain, a
# string's is the tuple of its accepted values.  Domains are checked before
# any cross-key invariant.
CONFIG_KEYS = {
    # ring flow -> PhysicalConfig
    "n_ions": (int, REQUIRED, "positive"),
    "period": (float, REQUIRED, "positive"),
    "radius": (float, REQUIRED, "positive"),
    "ion_mass": (float, REQUIRED, "positive"),
    "ion_charge": (float, REQUIRED, "finite"),
    "v_min": (float, REQUIRED, "finite"),
    "v_max": (float, REQUIRED, "finite"),
    "gamma1": (float, REQUIRED, "positive"),
    "gamma2": (float, REQUIRED, "positive"),
    "theta_h": (float, REQUIRED, "finite"),
    "hbar": (float, 1.0, "positive"),
    "k_boltzmann": (float, 1.0, "positive"),
    # environment
    "gamma": (float, 0.0, "non-negative"),
    "cutoff": (float, None, "positive"),
    "cutoff_shape": (str, "lorentzian", ("lorentzian",)),
    "bath_temperature": (float, 0.0, "non-negative"),
    # straight-channel profile
    "line_a": (float, 1.0, "positive"),
    "line_kappa": (float, 0.1, "positive"),
    "line_tau": (float, 1.0, "positive"),
}


@dataclass(frozen=True)
class PhysicalConfig:
    """Ring-trap flow parameters.

    v_min/v_max are the extrema of the post-collapse profile, the one ring
    the package evaluates; they straddle the uniform pre-collapse 2*pi/period.
    read_config checks and defaults each key (CONFIG_KEYS); construction checks
    2 <= n_ions <= MAX_N_IONS, ion_charge != 0 and the cross-key invariants.
    """

    n_ions: int
    period: float
    radius: float
    ion_mass: float
    ion_charge: float
    v_min: float
    v_max: float
    gamma1: float
    gamma2: float
    theta_h: float
    hbar: float
    k_boltzmann: float

    def __post_init__(self):
        _validate(self)

    @property
    def mean_velocity(self) -> float:
        """Uniform pre-collapse velocity 2*pi/T (one revolution per period)."""
        return TWO_PI / self.period


class DerivedParams(NamedTuple):
    """Scales derived from a PhysicalConfig; the one definition of each."""

    delta: float        # mean ion separation 2*pi/N
    rho: float          # conformal factor m R^2 N / (v_bar T), v_bar = 2*pi/T
    tau: float          # collapse time 0.05 T
    omega_max: float    # frequency ceiling N/T
    delta_v: float      # v_max - v_min


def check_number(name: str, raw: str | float, domain: str = "finite") -> float:
    """float(raw), refused with ConfigError unless finite and inside domain
    ("finite", "positive" or "non-negative")."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {raw!r}")
    if domain == "positive" and not value > 0:
        raise ConfigError(f"{name} must be positive, got {raw!r}")
    if domain == "non-negative" and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {raw!r}")
    return value


def _validate(cfg: PhysicalConfig):
    if not 2 <= cfg.n_ions <= MAX_N_IONS:
        raise ConfigError(f"n_ions must lie in [2, {MAX_N_IONS}], got {cfg.n_ions}")
    if cfg.ion_charge == 0:
        raise ConfigError("ion_charge must be nonzero")
    if cfg.v_min > cfg.v_max:
        raise ConfigError("profile extrema inverted: "
                          f"v_min={cfg.v_min!r} > v_max={cfg.v_max!r}")
    v_bar = cfg.mean_velocity
    if not (cfg.v_min < v_bar < cfg.v_max):
        raise ConfigError(
            "v_min/v_max must straddle the revolution speed 2*pi/period: "
            f"need v_min < {v_bar:.6g} < v_max, got ({cfg.v_min:.6g}, {cfg.v_max:.6g})")
    if not (0 < cfg.theta_h < TWO_PI):
        raise ConfigError(f"theta_h must lie in (0, 2*pi), got {cfg.theta_h!r}")
    # The five profile segments must tile [0, 2*pi) in order without overlap.
    if cfg.theta_h - cfg.gamma1 < 0:
        raise ConfigError("segment overlap: theta_h - gamma1 < 0")
    if cfg.theta_h + cfg.gamma1 > TWO_PI - cfg.theta_h - cfg.gamma2:
        raise ConfigError(
            "segment overlap: ramps collide (theta_h + gamma1 > 2*pi - theta_h - gamma2)")
    if cfg.gamma2 > cfg.theta_h:
        raise ConfigError("segment overlap: gamma2 > theta_h wraps past 2*pi")


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse a flat ``key = value`` document into a string map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(text: str) -> tuple[PhysicalConfig, dict]:
    """Parse a document once, checking every key against CONFIG_KEYS (unknown,
    missing and out-of-domain keys are refused).  Returns the PhysicalConfig
    and a map of the other keys, omitted ones at their default."""
    kv = parse_kv_text(text)
    unknown = set(kv) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    missing = [key for key, (_k, default, _d) in CONFIG_KEYS.items()
               if default is REQUIRED and key not in kv]
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    values = {}
    for key, (kind, default, domain) in CONFIG_KEYS.items():
        if key not in kv:
            values[key] = default
        elif kind is str:
            if kv[key] not in domain:
                raise ConfigError(f"{key} must be one of {domain}, got {kv[key]!r}")
            values[key] = kv[key]
        else:
            value = check_number(key, kv[key], domain)
            if kind is int and value != int(value):
                raise ConfigError(f"{key} must be an integer, got {kv[key]!r}")
            values[key] = kind(value)
    # continuity pins the line's far-side speeds to 1 -+ kappa a: both subsonic
    if not 0 < values["line_kappa"] * values["line_a"] < 1:
        raise ConfigError("line_kappa * line_a must lie in (0, 1) (subsonic far side), "
                          f"got {values['line_kappa'] * values['line_a']!r}")
    physical = {f.name: values.pop(f.name) for f in fields(PhysicalConfig)}
    return PhysicalConfig(**physical), values


def load_config(text: str) -> PhysicalConfig:
    """Parse and validate a configuration document; the ring-flow part of read_config."""
    return read_config(text)[0]


def derive(config: PhysicalConfig) -> DerivedParams:
    """Compute the derived scales.

    The conformal factor is position dependent; the decoherence-time estimate
    takes it at the pre-collapse uniform speed 2*pi/T.
    """
    return DerivedParams(
        delta=TWO_PI / config.n_ions,
        rho=(config.ion_mass * config.radius ** 2 * config.n_ions
             / (config.mean_velocity * config.period)),
        tau=0.05 * config.period,
        omega_max=config.n_ions / config.period,
        delta_v=config.v_max - config.v_min,
    )


# Bench defaults.  The trap constants (ion_mass, ion_charge) are assumptions:
# ion_mass is tuned so the gamma = 5e-6 noise level decoheres the worst
# allowed mode in one collapse time, ion_charge puts the sonic point at the
# revolution speed 2*pi/period.
DEFAULT_CONFIG_TEXT = """\
# --- ring flow ---
n_ions = 1000
period = 1.0
radius = 1.0
ion_mass = 11414.0
ion_charge = 37.6246
v_min = 5.654866776461628    # 0.9 * 2*pi/period
v_max = 6.911503837897546    # 1.1 * 2*pi/period
gamma1 = 0.3
gamma2 = 0.3
theta_h = 1.0
hbar = 1.0
k_boltzmann = 1.0
# --- environment ---
gamma = 5.0e-6
cutoff = 20.0                # ~ 1/collapse time
cutoff_shape = lorentzian
bath_temperature = 0.0
# --- straight-channel profile ---
line_a = 1.0
line_kappa = 0.1
line_tau = 1.0
"""


def default_config() -> PhysicalConfig:
    return load_config(DEFAULT_CONFIG_TEXT)
