"""Stochastic lattice cross-check of the correlation structure.

A 1+1 field on a periodic lattice, driven (optionally) by white noise in the
memoryless limit of the bath kernels.  Two layers:

* ``step`` -- one update of the full first-order system
      d(phi)/dt = Pi - v phi_x,   d(Pi)/dt = phi_xx - (v Pi)_x - lam^2 dphi/dt + xi,
  split as a symplectic kick-drift-kick for the wave part plus an advection /
  damping / noise stage.  Noise is drawn from a counter-based generator keyed
  by (seed, realization, step), so trajectories are bit-reproducible and
  realizations parallelize.

* ``estimate_correlation`` -- the Monte-Carlo two-point estimator for the
  left sector at zero coupling.  The left component rides d(x)/dt = v - 1 and
  its momentum transports as Pi_L(x,t) = phi0'(x0(x)) dx0/dx, so one thermal
  sample of the initial field evaluated on the (precomputed) characteristic
  map gives one realization; the ensemble averages Pi_L(x1) Pi_L(x2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .characteristics import matched_dx0_dx, matched_x0, trace_characteristic
from .correlations import CorrelationGrid
from .errors import StabilityError
from .profiles import LineProfile
from .specfun import fourier_integral, thermal_weight


@dataclass(frozen=True)
class LatticeState:
    grid: np.ndarray       # uniform periodic positions, spacing h
    field: np.ndarray
    momentum: np.ndarray
    time: float
    seed: int
    realization_id: int = 0
    step_index: int = 0

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])


def make_lattice(n_sites: int, x_min: float, x_max: float, seed: int = 0,
                 realization_id: int = 0) -> LatticeState:
    grid = x_min + (x_max - x_min) * np.arange(n_sites) / n_sites
    zeros = np.zeros(n_sites)
    return LatticeState(grid=grid, field=zeros.copy(), momentum=zeros.copy(),
                        time=0.0, seed=seed, realization_id=realization_id)


def _rng_for(seed: int, realization_id: int, step_index: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=[np.uint64(seed), np.uint64(realization_id)],
                              counter=[np.uint64(step_index), 0, 0, 0])
    return np.random.Generator(bitgen)


def _dx(arr: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(arr, -1) - np.roll(arr, 1)) / (2.0 * h)


def _dxx(arr: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(arr, -1) - 2.0 * arr + np.roll(arr, 1)) / (h * h)


def _dx_upwind(arr: np.ndarray, h: float, speed: np.ndarray) -> np.ndarray:
    fwd = (np.roll(arr, -1) - arr) / h
    bwd = (arr - np.roll(arr, 1)) / h
    return np.where(speed > 0, bwd, fwd)


def cfl_limit(state: LatticeState, profile, sound_speed: float = 1.0) -> float:
    v = np.abs(np.asarray(profile.velocity(state.grid, state.time)))
    return 0.5 * state.spacing / float(sound_speed + v.max())


def step(state: LatticeState, dt: float, profile, env=None,
         norm_bound: float = 1e6) -> LatticeState:
    """Advance one time step.

    dt must respect the advective CFL bound 0.5 h / max(c + |v|).  The wave
    part (phi, Pi) is a kick-drift-kick; the advection of phi by v uses the
    upwinded derivative; coupling (damping + noise) applies when env has a
    nonzero effective coupling.  An env with a noise kernel injects white
    noise of strength hbar N(0) per unit (x, t) cell.
    """
    h = state.spacing
    limit = cfl_limit(state, profile)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3g} violates the CFL bound {limit:.3g}")
    phi, pi = state.field.copy(), state.momentum.copy()
    t, half = state.time, 0.5 * dt

    v0 = np.asarray(profile.velocity(state.grid, t), dtype=float)
    # half kick: Pi += dt/2 (phi_xx - (v Pi)_x)
    pi += half * (_dxx(phi, h) - _dx(v0 * pi, h))
    # drift: phi += dt (Pi - v phi_x), advection upwinded, midpoint velocity
    v_mid = np.asarray(profile.velocity(state.grid, t + half), dtype=float)
    phi += dt * (pi - v_mid * _dx_upwind(phi, h, v_mid))
    # half kick at the new time
    v1 = np.asarray(profile.velocity(state.grid, t + dt), dtype=float)
    pi += half * (_dxx(phi, h) - _dx(v1 * pi, h))

    if env is not None and env.coupling_eff > 0.0:
        lam2 = env.coupling_eff ** 2
        dphi_dt = pi - v1 * _dx_upwind(phi, h, v1)
        pi -= dt * lam2 * dphi_dt
        from .environment import noise_kernel
        strength = noise_kernel(0.0, env) if env.cutoff_shape == "exponential" \
            else 0.5 * env.coupling_eff ** 2 * env.cutoff ** 2
        rng = _rng_for(state.seed, state.realization_id, state.step_index)
        xi = rng.standard_normal(len(phi)) * math.sqrt(strength / (h * dt))
        pi += dt * xi

    if not np.all(np.isfinite(phi)) or np.abs(phi).max() > norm_bound:
        raise StabilityError(
            f"field norm {np.abs(phi).max():.3g} exceeded bound at "
            f"t = {t + dt:.6g} (step {state.step_index})")
    return replace(state, field=phi, momentum=pi, time=t + dt,
                   step_index=state.step_index + 1)


def wave_energy(state: LatticeState) -> float:
    """Static-background energy h * sum(Pi^2 + phi_x^2)/2 (v = 0 diagnostics).

    The gradient uses the staggered forward difference, the quadratic form
    conjugate to the three-point Laplacian driving the update, so the
    symplectic wave stage conserves this energy up to bounded O(dt^2) ripple.
    """
    h = state.spacing
    grad = (np.roll(state.field, -1) - state.field) / h
    return float(0.5 * h * np.sum(state.momentum ** 2 + grad ** 2))


# --------------------------------------------------------------------------
# thermal ensembles and the correlation estimator
# --------------------------------------------------------------------------

@dataclass
class Ensemble:
    realizations: int
    mean: np.ndarray
    second_moment: np.ndarray
    seed: int

    @property
    def stderr(self) -> np.ndarray:
        var = np.maximum(self.second_moment - self.mean ** 2, 0.0)
        return np.sqrt(var / self.realizations)


def _mode_numbers(n_modes: int, length: float) -> np.ndarray:
    return 2.0 * math.pi * np.arange(1, n_modes + 1) / length


def _thermal_amplitudes(rng, k: np.ndarray, beta: float, length: float,
                        n_real: int, uv_epsilon: float) -> np.ndarray:
    """Complex mode amplitudes c_k (k > 0) with <|c_k|^2> = coth(beta k/2)/(2 k L).

    A Gaussian spectral envelope e^{-(uv_epsilon k)^2 / 2} regulates the
    momentum two-point function, whose k integral exists only in the
    regulated sense; a sharp mode cutoff would leave O(k_max) truncation
    ringing in <Pi Pi> and dominate the estimator variance.  The Gaussian
    shape distorts the correlation at separation d only by
    O(exp(-d^2 / 2 uv_epsilon^2)), negligible for uv_epsilon well under the
    probe separations, while capping the per-site variance at
    ~ 1/(4 pi uv_epsilon^2).
    """
    occ = np.array([thermal_weight(kk, beta) for kk in k]) / k
    var = occ / (2.0 * k * length) * np.exp(-(uv_epsilon * k) ** 2)
    sd = np.sqrt(0.5 * var)
    return (rng.standard_normal((n_real, len(k))) * sd
            + 1j * rng.standard_normal((n_real, len(k))) * sd)


def left_sector_map(x_points: np.ndarray, t: float, profile: LineProfile,
                    transport: str = "matched") -> tuple[np.ndarray, np.ndarray]:
    """(x0, dx0/dx) of the left-mover characteristics at the observation points.

    transport = 'matched' uses the long-time matched scheme shared with the
    analytic closed form; 'exact' backward-integrates the true flow (the two
    differ by O(a) offsets at late times -- see the package notes).
    """
    if transport == "matched":
        x0 = np.array([matched_x0(x, t, profile) for x in x_points])
        w = np.array([matched_dx0_dx(x, t, profile) for x in x_points])
        return x0, w
    if transport == "exact":
        x0 = np.array([trace_characteristic(x, t, "left", profile,
                                            rtol=1e-10, atol=1e-11).x0
                       for x in x_points])
        w = np.gradient(x0, x_points)
        return x0, w
    raise ValueError(f"unknown transport {transport!r}")


def expected_correlation_curve(x1: float, x2_values, t: float, temperature: float,
                               profile: LineProfile, uv_epsilon: float,
                               transport: str = "matched") -> np.ndarray:
    """Deterministic expectation of the Monte-Carlo estimator (infinite-N limit).

    |<Pi_L Pi_L>| = w1 w2 / (2 pi) * int_0^inf k coth(beta k/2)
    e^{-(uv_epsilon k)^2} cos(k (x0_2 - x0_1)) dk.  Quantifies the scheme's
    regulator systematic against the unregulated closed form.
    """
    x2_values = np.asarray(x2_values, dtype=float)
    pts = np.concatenate([[x1], x2_values])
    x0, w = left_sector_map(pts, t, profile, transport)
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    spectral = lambda k: thermal_weight(k, beta) * math.exp(-(uv_epsilon * k) ** 2)
    out = np.empty(len(x2_values))
    for i, (x0_2, w2) in enumerate(zip(x0[1:], w[1:])):
        sep = abs(x0_2 - x0[0])
        val = fourier_integral(spectral, 0.0, sep, kind="cos").value
        out[i] = abs(w[0] * w2 * val) / (2.0 * math.pi)
    return out


def estimate_correlation(n_realizations: int, x1: float, x2_values, t: float,
                         temperature: float, profile: LineProfile, env=None,
                         seed: int = 1234, n_sites: int = 512,
                         domain: tuple[float, float] | None = None,
                         n_modes: int | None = None, uv_epsilon: float | None = None,
                         transport: str = "matched") -> CorrelationGrid:
    """Monte-Carlo <Pi_L(x1) Pi_L(x2)> at zero coupling.

    Thermal initial data at the given temperature is sampled mode-wise on a
    periodic domain; the left sector is transported along the characteristic
    map and differentiated per mode.  Statistical error bars ride along.
    Only the closed-system estimator is provided here (env must be absent or
    uncoupled); the open-system correction is a per-mode analytic object.
    """
    if env is not None and env.coupling_eff != 0.0:
        raise ValueError("correlation estimator is a closed-system oracle; "
                         "env.coupling_eff must be 0")
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    x2_values = np.asarray(x2_values, dtype=float)
    pts = np.concatenate([[x1], x2_values])
    x0, w = left_sector_map(pts, t, profile, transport)
    if domain is None:
        lo, hi = float(x0.min()), float(x0.max())
        pad = 4.0 * max(hi - lo, profile.a)
        domain = (lo - pad, hi + pad)
    length = domain[1] - domain[0]
    if n_modes is None:
        n_modes = min(n_sites // 2 - 1, 255)
    if uv_epsilon is None:
        # small against the traced separations, wide enough to kill ringing
        sep_scale = max(np.abs(x0[1:] - x0[0]).min(), 1e-3 * profile.a)
        uv_epsilon = 0.25 * sep_scale
    k = _mode_numbers(n_modes, length)
    beta = math.inf if temperature == 0.0 else 1.0 / temperature

    rng = _rng_for(seed, 0, 0)
    mean = np.zeros(len(x2_values))
    second = np.zeros(len(x2_values))
    done = 0
    batch = max(1, min(n_realizations, int(4e7 // max(n_modes * len(pts), 1))))
    phases = np.exp(1j * np.outer(k, x0 - domain[0]))       # (modes, points)
    deriv_matrix = (1j * k)[:, None] * phases
    while done < n_realizations:
        b = min(batch, n_realizations - done)
        c = _thermal_amplitudes(rng, k, beta, length, b, uv_epsilon)  # (b, modes)
        dphi = 2.0 * np.real(c @ deriv_matrix)              # (b, points)
        pi_l = dphi * w[None, :]
        prod = pi_l[:, 0:1] * pi_l[:, 1:]
        mean += prod.sum(axis=0)
        second += (prod ** 2).sum(axis=0)
        done += b
    mean /= n_realizations
    second /= n_realizations
    ens = Ensemble(realizations=n_realizations, mean=mean, second_moment=second,
                   seed=seed)
    return CorrelationGrid(t=t, x1=x1, x2=x2_values, values=np.abs(mean),
                           method="monte_carlo", temperature=temperature,
                           regions=["mc"] * len(x2_values), stderr=ens.stderr)
