"""Seeded op lists for the four benchmark workloads.

An op is one invocation a desk user would type: a ``sonicbh`` subcommand or
one of the study scripts.  The seed changes values, never sizes: every value
is drawn inside the validity window of its command (T0 well below the
low-temperature limit, v_min below the revolution speed, x1 inside the
entanglement wedge), so each seed does about the same work.

Each workload also carries a fixed mix of malformed ops of its own
subcommands.  The kinds are fixed per workload and only their incidental
values are seeded, so the share of ops that end as documented does not
depend on the seed.

This module imports nothing from the package: the program receives only the
generated inputs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("tdec-shared", "tdec-fresh", "pair-scan", "mc-check")

# The documented defaults of the configuration format (README), written out
# so generated configs differ from them only in the keys a workload sets.
BASE_CONFIG = {
    "n_ions": "1000", "period": "1.0", "radius": "1.0", "ion_mass": "11414.0",
    "ion_charge": "37.6246", "v_min": "5.654866776461628",
    "v_max": "6.911503837897546", "gamma1": "0.3", "gamma2": "0.3",
    "theta_h": "1.0", "hbar": "1.0", "k_boltzmann": "1.0", "gamma": "5.0e-6",
    "cutoff": "20.0", "cutoff_shape": "lorentzian", "bath_temperature": "0.0",
    "line_a": "1.0", "line_kappa": "0.1", "line_tau": "1.0",
}

# Scales of the default configuration that bound the seeded windows.
RING_T_H = 0.5                          # ring Hawking temperature
LINE_T_H = 0.2 / (4.0 * math.pi)        # line Hawking temperature


def line_x_plus(t: float) -> float:
    """Wedge boundary x_plus(t) of the default line profile (a=1, kappa=0.1)."""
    return 0.1 * t + 0.9306852819440055


def config_text(**overrides) -> str:
    kv = dict(BASE_CONFIG, **{k: repr(v) if isinstance(v, float) else str(v)
                              for k, v in overrides.items()})
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def ring_config(n_ions: int, **overrides) -> str:
    """A config with fewer ions and the same flow: the charge is scaled so the
    sound speed, and with it the sonic points and t_D, stay the default's."""
    charge = float(BASE_CONFIG["ion_charge"]) * math.sqrt(
        float(BASE_CONFIG["n_ions"]) / n_ions)
    return config_text(n_ions=n_ions, ion_charge=charge, **overrides)


def _op(argv, *, config=None, malformed=False, check=None, script=None, output=None,
        known_defect=None):
    """One op; ``output`` is the dataset its check reads (default <command>.csv).

    ``known_defect`` names a defect that makes a valid op fail its check
    today; such a failure is reported and lowers ``ops_ok_ratio`` but does
    not count in ``failed``.
    """
    return {"argv": [str(a) for a in argv], "config": config, "malformed": malformed,
            "check": check, "script": script, "known_defect": known_defect,
            "output": output or (f"{argv[0]}.csv" if argv else None)}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _tdec_shared(rng: random.Random) -> list[dict]:
    # n_ions = 200 keeps each band to ~100 modes; the band is still the same
    # V1/V2 table at every point, which is what this workload is about.
    t_lo, t_hi = rng.uniform(0.05, 0.5), rng.uniform(2.0, 5.0)
    g_lo, g_hi = 10 ** rng.uniform(-7.0, -6.0), 10 ** rng.uniform(-5.5, -5.0)
    t0 = rng.uniform(0.2, 2.0)
    return [
        # README example: T0 = 0, one band rescaled as gamma^-2
        _op(["tdec-sweep", "--axis", "gamma", "--from", "1e-8", "--to", "1e-5",
             "--points", "50", "--log"], check={"kind": "sweep"}),
        _op(["tdec-sweep", "--axis", "temperature", "--from", _fmt(t_lo),
             "--to", _fmt(t_hi), "--points", "3"],
            config=ring_config(200), check={"kind": "sweep"}),
        _op(["tdec-sweep", "--axis", "gamma", "--from", _fmt(g_lo), "--to", _fmt(g_hi),
             "--points", "3", "--log"],
            config=ring_config(200, bath_temperature=round(t0, 4)), check={"kind": "sweep"},
            known_defect="the CLI's gamma axis drops the config's bath_temperature "
                         "and reports T0 = 0 decoherence times"),
        # malformed: a missing config file; a temperature beyond 100 T_H
        _op(["tdec-sweep", "--axis", "temperature", "--from", "0.1", "--to", "1",
             "--points", "2", "--config", f"missing-{rng.randrange(10**6)}.cfg"],
            malformed=True),
        _op(["tdec-sweep", "--axis", "temperature", "--from", "0.1",
             "--to", _fmt(rng.uniform(150.0, 400.0) * RING_T_H), "--points", "2"],
            malformed=True),
    ]


def _tdec_fresh(rng: random.Random) -> list[dict]:
    lo, hi = rng.uniform(4.7, 4.9), rng.uniform(5.1, 5.3)
    return [
        _op(["vcoef", "--max-modes", "40"], check={"kind": "vcoef"}),  # README
        _op(["tdec-sweep", "--axis", "v_min", "--from", _fmt(lo), "--to", _fmt(hi),
             "--points", "3"],
            config=ring_config(400), check={"kind": "sweep"}),
        _op(["vcoef", "--max-modes", "40"],
            config=config_text(v_min=round(rng.uniform(4.8, 5.5), 6)),
            check={"kind": "vcoef"}),
        # malformed: a non-finite radius; a missing config file
        _op(["vcoef", "--max-modes", "5"],
            config=config_text(radius=rng.choice(["inf", "Infinity", "INF"])),
            malformed=True),
        _op(["tdec-sweep", "--axis", "v_min", "--from", "5.0", "--to", "5.2",
             "--points", "2", "--config", f"missing-{rng.randrange(10**6)}.cfg"],
            malformed=True),
    ]


def _scan(rng: random.Random, beta: str, method: str = "closed_form",
          points: int = 64, t_max: float = 100.0) -> dict:
    t = rng.uniform(40.0, t_max)
    xp = line_x_plus(t)
    x1 = rng.uniform(-0.85 * xp, -1.5)
    argv = ["correlation", "--t", _fmt(t), "--x1", _fmt(x1), "--beta", beta,
            "--x2-min", _fmt(rng.uniform(1.2, 2.0)),
            "--x2-max", _fmt(rng.uniform(1.3, 1.6) * xp), "--points", str(points)]
    if method != "closed_form":
        argv += ["--method", method]
    return _op(argv, check={"kind": "correlation", "method": method})


def _pair_scan(rng: random.Random) -> list[dict]:
    def finite_beta():
        return _fmt(1.0 / (rng.uniform(5.0, 60.0) * LINE_T_H))

    return [
        _op(["correlation", "--t", "100", "--x1", "-4", "--beta", "inf"],
            check={"kind": "correlation", "method": "closed_form"}),  # README
        _scan(rng, "inf"),
        _scan(rng, finite_beta()),
        _scan(rng, finite_beta()),
        # the mode-sum oracle refuses some matched pairs from t ~ 80 on
        # (ExtrapolationError, exit 3); closed-form scans keep t up to 100 and
        # their checks record those refusals
        _scan(rng, "inf", method="mode_sum_oracle", points=24, t_max=70.0),
        _op(["diffusion", "--omega", "2", "--t-min", "0.01", "--t-max", "100",
             "--oracle"], check={"kind": "diffusion"}),  # README
        _op(["diffusion", "--omega", _fmt(rng.uniform(0.5, 4.0)),
             "--t-min", _fmt(rng.uniform(0.01, 0.1)),
             "--t-max", _fmt(rng.uniform(50.0, 200.0)), "--oracle"],
            check={"kind": "diffusion"}),
        _op(["er", "--k", "0.05", "--t-min", "40", "--t-max", "100"],
            check={"kind": "finite"}),  # README
        _op(["boundary", "--t-max", "200"], check={"kind": "boundary"}),  # README
        _op(["hawking"], check={"kind": "hawking"}),  # README
        _op([], script="scripts/run_correlation_scan.py",
            check={"kind": "correlation_script"}, output="correlation_t100.csv"),
        # malformed: NaN beta; zero frequency; a non-finite line profile
        _op(["correlation", "--t", _fmt(rng.uniform(40.0, 100.0)), "--x1", "-3",
             "--beta", rng.choice(["nan", "NaN", "NAN"]), "--points", "16"],
            malformed=True),
        _op(["diffusion", "--omega", rng.choice(["0", "0.0", "-0"]),
             "--t-min", "0.01", "--t-max", _fmt(rng.uniform(10.0, 100.0))],
            malformed=True),
        _op(["correlation", "--t", "100", "--x1", "-4", "--points", "16"],
            config=config_text(line_kappa=rng.choice(["nan", "NaN"])), malformed=True),
    ]


def _langevin(rng: random.Random, temperature: float, transport: str) -> dict:
    t = rng.uniform(25.0, 35.0)
    argv = ["langevin", "--t", _fmt(t), "--x1", _fmt(rng.uniform(-1.4, -1.1)),
            "--realizations", "10000", "--seed", str(rng.randrange(1, 10**6))]
    if temperature:
        argv += ["--temperature", _fmt(temperature)]
    if transport != "matched":
        argv += ["--transport", transport]
    return _op(argv, check={"kind": "langevin"})


def _mc_check(rng: random.Random) -> list[dict]:
    return [
        _op(["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "10000",
             "--seed", "7"], check={"kind": "langevin", "peak": True}),  # README
        _langevin(rng, 0.0, "matched"),
        _langevin(rng, rng.uniform(5.0, 20.0) * LINE_T_H, "matched"),
        _langevin(rng, 0.0, "exact"),
        _op([], script="scripts/run_langevin_check.py",
            check={"kind": "langevin_script"}, output="langevin_check.csv"),
        # malformed: too few realizations; a missing config; a NaN temperature
        _op(["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "1",
             "--seed", str(rng.randrange(1, 10**6))], malformed=True),
        _op(["langevin", "--t", "30", "--x1", "-1.2",
             "--config", f"missing-{rng.randrange(10**6)}.cfg"], malformed=True),
        _op(["langevin", "--t", "30", "--x1", "-1.2", "--realizations", "2000",
             "--temperature", rng.choice(["nan", "NaN"])], malformed=True),
    ]


_GENERATORS = {"tdec-shared": _tdec_shared, "tdec-fresh": _tdec_fresh,
             "pair-scan": _pair_scan, "mc-check": _mc_check}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one workload; the same (workload, seed) gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    ops = _GENERATORS[workload](random.Random(f"{workload}/{seed}"))
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
