"""Monte-Carlo cross-check of the pair-correlation structure.

``estimate_correlation`` is the two-point estimator for the left sector at
zero coupling.  The left component rides d(x)/dt = v - 1 and its momentum
transports as Pi_L(x,t) = phi0'(x0(x)) dx0/dx, so one thermal sample of the
initial field evaluated on the (precomputed) characteristic map gives one
realization; the ensemble averages Pi_L(x1) Pi_L(x2).  Samples are drawn
from a Philox counter-based generator keyed by the seed, so a run is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import matched_dx0_dx, matched_x0, trace_characteristic
from .correlations import CorrelationGrid
from .profiles import LineProfile
from .specfun import fourier_integral, thermal_weight


@dataclass
class Ensemble:
    realizations: int
    mean: np.ndarray
    second_moment: np.ndarray

    @property
    def stderr(self) -> np.ndarray:
        var = np.maximum(self.second_moment - self.mean ** 2, 0.0)
        return np.sqrt(var / self.realizations)


def _mode_numbers(n_modes: int, length: float) -> np.ndarray:
    return 2.0 * math.pi * np.arange(1, n_modes + 1) / length


def _thermal_sd(k: np.ndarray, beta: float, length: float,
                uv_epsilon: float) -> np.ndarray:
    """Per-mode standard deviation of Re c_k and of Im c_k, for complex mode
    amplitudes c_k (k > 0) with <|c_k|^2> = coth(beta k/2)/(2 k L).

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
    return np.sqrt(0.5 * var)


def left_sector_map(x_points: np.ndarray, t: float, profile: LineProfile,
                    transport: str = "matched") -> tuple[np.ndarray, np.ndarray]:
    """(x0, dx0/dx) of the left-mover characteristics at the observation points.

    transport = 'matched' uses the long-time matched scheme shared with the
    analytic closed form; 'exact' traces each point back on the true flow,
    with its own Jacobian e^{-kappa int sigma} over the time the curve spends
    in the transition region (the two maps differ by O(a) offsets at late
    times -- see the package notes).
    """
    if transport == "matched":
        x0 = np.array([matched_x0(x, t, profile) for x in x_points])
        w = np.array([matched_dx0_dx(x, t, profile) for x in x_points])
        return x0, w
    if transport == "exact":
        traces = [trace_characteristic(x, t, profile) for x in x_points]
        return (np.array([tr.x0 for tr in traces]),
                np.array([tr.dx0_dx for tr in traces]))
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


@np.errstate(over="raise", invalid="raise")   # moments beyond the float range are refused
def estimate_correlation(n_realizations: int, x1: float, x2_values, t: float,
                         temperature: float, profile: LineProfile,
                         seed: int = 1234, n_sites: int = 512,
                         uv_epsilon: float | None = None,
                         transport: str = "matched") -> CorrelationGrid:
    """Monte-Carlo <Pi_L(x1) Pi_L(x2)> at zero coupling.

    Thermal initial data at the given temperature is sampled mode-wise on a
    periodic domain padded around the traced initial positions, with
    min(n_sites // 2 - 1, 255) modes; the left sector is transported along
    the characteristic map and differentiated per mode.  Statistical error
    bars ride along.  The estimator is closed-system only; the open-system
    correction is a per-mode analytic object (``open_correction_er``).

    Realizations are drawn in batches of 4e7 // (modes * points) into one
    real buffer of 2 * batch * modes standard normals: within a batch, the
    real parts of every amplitude first, then the imaginary parts.  The
    batch rule and that order decide which normal feeds which realization,
    so both are part of the seeded stream: changing either re-deals the
    output of every seed.
    """
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    x2_values = np.asarray(x2_values, dtype=float)
    pts = np.concatenate([[x1], x2_values])
    x0, w = left_sector_map(pts, t, profile, transport)
    lo, hi = float(x0.min()), float(x0.max())
    pad = 4.0 * max(hi - lo, profile.a)
    lo, hi = lo - pad, hi + pad
    length = hi - lo
    n_modes = min(n_sites // 2 - 1, 255)
    if uv_epsilon is None:
        # small against the traced separations, wide enough to kill ringing
        sep_scale = max(np.abs(x0[1:] - x0[0]).min(), 1e-3 * profile.a)
        uv_epsilon = 0.25 * sep_scale
    k = _mode_numbers(n_modes, length)
    beta = math.inf if temperature == 0.0 else 1.0 / temperature

    # with c_k = sd_k (a_k + i b_k), a_k and b_k standard normals,
    # Pi_L = 2 Re(sum_k c_k i k e^{ik(x0 - lo)}) w = a . to_re + b . to_im
    phase = np.outer(k, x0 - lo)                             # (modes, points)
    scale = (2.0 * k * _thermal_sd(k, beta, length, uv_epsilon))[:, None] * w[None, :]
    to_re = -scale * np.sin(phase)
    to_im = -scale * np.cos(phase)

    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0)]))
    mean = np.zeros(len(x2_values))
    second = np.zeros(len(x2_values))
    done = 0
    batch = max(1, min(n_realizations, int(4e7 // max(n_modes * len(pts), 1))))
    buf = np.empty(2 * batch * n_modes)
    while done < n_realizations:
        b = min(batch, n_realizations - done)
        # flat slice: z[:, :b] of a (2, batch, modes) buffer is not contiguous
        z = buf[:2 * b * n_modes].reshape(2, b, n_modes)
        rng.standard_normal(out=z)                           # all a_k, then all b_k
        pi_l = z[0] @ to_re
        pi_l += z[1] @ to_im                                 # (b, points)
        prod = pi_l[:, 0:1] * pi_l[:, 1:]
        mean += prod.sum(axis=0)
        second += (prod ** 2).sum(axis=0)
        done += b
    mean /= n_realizations
    second /= n_realizations
    ens = Ensemble(realizations=n_realizations, mean=mean, second_moment=second)
    return CorrelationGrid(x2=x2_values, values=np.abs(mean),
                           regions=["mc"] * len(x2_values), stderr=ens.stderr)
