"""Monte-Carlo cross-check of the pair-correlation structure.

``estimate_correlation`` is the two-point estimator for the left sector at
zero coupling.  The left component rides d(x)/dt = v - 1 and its momentum
transports as Pi_L(x,t) = phi0'(x0(x)) dx0/dx, so one thermal sample of the
initial field evaluated on the (precomputed) characteristic map gives one
realization; the ensemble averages Pi_L(x1) Pi_L(x2).  The estimator reads
that field only at the probes, so each realization is drawn there directly:
d = min(2 * N_MODES, points + 1) standard normals times a QR factor of the
field's covariance at the probes, which has exactly the law of the sampled
mode amplitudes.  The normals come from a Philox counter-based generator
keyed by the seed, so a run is bit-reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .characteristics import matched_x0, trace_characteristic
from .profiles import LineProfile
from .specfun import fourier_integral, thermal_weight

# Fourier modes of the sampled initial field
N_MODES = 255

# Doubles in each of estimate_correlation's three reused buffers (normals,
# field at the probes, products): 256 KiB unless one realization needs more.
_DRAW_BLOCK = 2 ** 15


class Ensemble(NamedTuple):
    """The estimator's result, one entry per x2: |<Pi_L(x1) Pi_L(x2)>| and
    its standard error sqrt((<p^2> - <p>^2) / N) over the N realizations."""

    values: np.ndarray
    stderr: np.ndarray


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

    transport = 'matched' takes the long-time matched scheme shared with the
    analytic closed form (``matched_x0``); 'exact' traces each point back on
    the true flow (``trace_characteristic``), with its Jacobian
    e^{-kappa int sigma} over the time the curve spends in the transition
    region.  The two maps differ by O(a) offsets at late times -- see the
    package notes.
    """
    transport_map = {"matched": matched_x0, "exact": trace_characteristic}.get(transport)
    if transport_map is None:
        raise ValueError(f"unknown transport {transport!r}")
    maps = [transport_map(x, t, profile) for x in x_points]
    return np.array([m.x0 for m in maps]), np.array([m.dx0_dx for m in maps])


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
                         seed: int = 1234, uv_epsilon: float | None = None,
                         transport: str = "matched") -> Ensemble:
    """Monte-Carlo <Pi_L(x1) Pi_L(x2)> at zero coupling.

    Thermal initial data at the given temperature is sampled mode-wise on a
    periodic domain padded around the traced initial positions, with the
    module's fixed N_MODES = 255 modes; the left sector is transported along
    the characteristic map and differentiated per mode.  Statistical error
    bars ride along.  The estimator is closed-system only; the open-system
    correction is a per-mode analytic object (``open_correction_er``).

    The estimator reads the field only at its points + 1 probes (x1 and the
    points x2 values), where it is Gaussian: Pi_L = z A for the 2 * N_MODES
    real amplitudes z and the (2 * N_MODES, points + 1) matrix A, so its
    covariance is A^T A.  A is factored once, A = Q R, with R of shape
    (d, points + 1) and d = min(2 * N_MODES, points + 1); since R^T R = A^T A,
    each realization g R, g holding d standard normals, has exactly the law
    of z A.  QR, not a Cholesky factor of A^T A, which is singular for
    coincident probes or points + 1 > 2 * N_MODES and would square the
    condition number.  Realization i takes normals i d, ..., (i + 1) d - 1 of
    the seed's stream.  They are drawn in blocks of
    _DRAW_BLOCK // (points + 1) realizations (at least one), through three
    buffers allocated once and filled in place: the (block, d) normals, the
    (block, points + 1) field at the probes and the (block, points) products,
    squared in place once summed.  Each holds at most _DRAW_BLOCK doubles
    (256 KiB) unless one realization needs more; the block regroups only the
    moment sums.
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
    if uv_epsilon is None:
        # small against the traced separations, wide enough to kill ringing
        sep_scale = max(np.abs(x0[1:] - x0[0]).min(), 1e-3 * profile.a)
        uv_epsilon = 0.25 * sep_scale
    k = 2.0 * math.pi * np.arange(1, N_MODES + 1) / length
    beta = math.inf if temperature == 0.0 else 1.0 / temperature

    # with c_k = sd_k (a_k + i b_k), a_k and b_k standard normals,
    # Pi_L = 2 Re(sum_k c_k i k e^{ik(x0 - lo)}) w = [a, b] . A
    phase = np.outer(k, x0 - lo)                             # (modes, points)
    scale = (2.0 * k * _thermal_sd(k, beta, length, uv_epsilon))[:, None] * w[None, :]
    a_matrix = np.concatenate([-scale * np.sin(phase), -scale * np.cos(phase)])
    r = np.linalg.qr(a_matrix, mode="r")                     # (d, points), R^T R = A^T A
    d = r.shape[0]

    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0)]))
    mean = np.zeros(len(x2_values))
    second = np.zeros(len(x2_values))
    rows = max(1, min(n_realizations, _DRAW_BLOCK // len(pts)))   # d <= len(pts)
    normals = np.empty((rows, d))
    field = np.empty((rows, len(pts)))
    prod = np.empty((rows, len(x2_values)))
    for done in range(0, n_realizations, rows):
        b = min(rows, n_realizations - done)
        g, pi_l, p = normals[:b], field[:b], prod[:b]
        rng.standard_normal(out=g)
        np.matmul(g, r, out=pi_l)
        np.multiply(pi_l[:, :1], pi_l[:, 1:], out=p)
        mean += p.sum(axis=0)
        second += np.square(p, out=p).sum(axis=0)
    mean /= n_realizations
    second /= n_realizations
    var = np.maximum(second - mean ** 2, 0.0)
    return Ensemble(values=np.abs(mean), stderr=np.sqrt(var / n_realizations))
