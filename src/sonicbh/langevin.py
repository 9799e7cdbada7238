"""Monte-Carlo cross-check of the pair-correlation structure.

``estimate_correlation`` is the two-point estimator for the left sector at
zero coupling.  The left component rides d(x)/dt = v - 1 and its momentum
transports as Pi_L(x,t) = phi0'(x0(x)) dx0/dx, so one thermal sample of the
initial field evaluated on the (precomputed) characteristic map gives one
realization; the ensemble averages Pi_L(x1) Pi_L(x2).  The estimator reads
that field only at the probes, so each realization is drawn there directly:
d = min(2 * N_MODES, points + 1) standard normals times a QR factor of the
field's covariance at the probes, which has exactly the law of the sampled
mode amplitudes.  The normals are the package's own: Philox4x32-10 blocks
keyed by the seed (``_philox4x32``), two Box-Muller normals a block
(``_standard_normals``), in numpy alone, so a run is bit-reproducible and
loads no numpy.random.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .characteristics import matched_x0, trace_characteristic
from .profiles import LineProfile
from .specfun import bose_integral, thermal_excess, thermal_weight

# Fourier modes of the sampled initial field
N_MODES = 255

# Doubles in each of estimate_correlation's two reused buffers (the normals,
# then the products; the field at the probes): 64 KiB unless _MIN_GEMM_ROWS
# realizations need more
_DRAW_BLOCK = 2 ** 13
# Fewest realizations per block: a thinner GEMM runs below BLAS speed
_MIN_GEMM_ROWS = 128


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


# Rybicki's sampling sum for the Dawson function: step h, and the weights
# e^{-(m h)^2} of its 20 odd offsets m = 1, 3, ..., 39 on each side
_DAWSON_STEP = 0.2
_DAWSON_OFFSETS = range(1, 40, 2)
_DAWSON_WEIGHTS = tuple(math.exp(-(m * _DAWSON_STEP) ** 2) for m in _DAWSON_OFFSETS)
_DAWSON_ASYMPTOTIC = 8.0


def _dawson_slope(x: float) -> float:
    """F'(x) = 1 - 2x F(x) for x >= 0, F the Dawson function; 0 at x = inf.

    Below x = 8, F by Rybicki's sampling sum F(x) = pi^{-1/2} sum_{n odd}
    e^{-(x - n h)^2} / n, h = 0.2, over the 20 odd offsets on each side of
    the even n0 nearest x/h (G. B. Rybicki, Computers in Physics 3, 85,
    1989): its sampling error is ~e^{-(pi/2h)^2} ~ 1e-27.  From x = 8 the
    asymptotic series -sum_{k>=1} (2k-1)!!/(2x^2)^k, to the last term that
    still changes it, which avoids the cancellation in 1 - 2x F.
    """
    if x >= _DAWSON_ASYMPTOTIC:
        y = 0.5 / (x * x)
        total, term = 0.0, 1.0
        for k in range(1, 40):
            term *= (2 * k - 1) * y
            if total - term == total:
                break
            total -= term
        return total
    n0 = 2 * round(0.5 * x / _DAWSON_STEP)
    offset = x - n0 * _DAWSON_STEP
    up = math.exp(2.0 * offset * _DAWSON_STEP)     # e^{2 offset m h}, m = 1, 3, ...
    step = up * up
    total = 0.0
    for m, weight in zip(_DAWSON_OFFSETS, _DAWSON_WEIGHTS):
        total += weight * (up / (n0 + m) + 1.0 / ((n0 - m) * up))
        up *= step
    return 1.0 - 2.0 * x * math.exp(-offset * offset) * total / math.sqrt(math.pi)


def expected_correlation_curve(x1: float, x2_values, t: float, temperature: float,
                               profile: LineProfile, uv_epsilon: float,
                               transport: str = "matched") -> np.ndarray:
    """Deterministic expectation of the Monte-Carlo estimator (infinite-N limit).

    |<Pi_L Pi_L>| = w1 w2 / (2 pi) * |int_0^inf k coth(beta k/2)
    e^{-(uv_epsilon k)^2} cos(k s) dk|, s = |x0_2 - x0_1|.  Quantifies the
    scheme's regulator systematic against the unregulated closed form.  The
    weight splits as k coth(beta k/2) = k + ``thermal_excess``, so the
    integral is V(s) + B(s): the vacuum part in closed form,

        V(s) = int_0^inf k e^{-eps^2 k^2} cos(k s) dk = F'(s / 2 eps) / (2 eps^2),

    F the Dawson function (``_dawson_slope``), and the Bose part B(s) by one
    Fourier quadrature (``specfun.bose_integral``), to 1e-11 of the
    regulated vacuum scale 1/(s^2 + 2 eps^2).  B is exactly 0 at T0 = 0, so
    there the expectation takes no quadrature.
    """
    x2_values = np.asarray(x2_values, dtype=float)
    pts = np.concatenate([[x1], x2_values])
    x0, w = left_sector_map(pts, t, profile, transport)
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    eps2 = uv_epsilon * uv_epsilon
    bose = lambda k: thermal_excess(k, beta) * math.exp(-(uv_epsilon * k) ** 2)
    out = np.empty(len(x2_values))
    for i, (x0_2, w2) in enumerate(zip(x0[1:], w[1:])):
        sep = abs(float(x0_2 - x0[0]))
        vacuum = _dawson_slope(sep / (2.0 * uv_epsilon)) / (2.0 * eps2)
        val = vacuum + bose_integral(bose, sep, beta, 1.0 / (sep * sep + 2.0 * eps2))
        out[i] = abs(w[0] * w2 * val) / (2.0 * math.pi)
    return out


def _probe_factor(k: np.ndarray, offsets: np.ndarray, mode_scale: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
    """R of A = Q R, A = [-s sin(k x); -s cos(k x)] the (2 modes, probes)
    matrix, x the probes' offsets and s = mode_scale (x) w.

    A is built in one array, its phases, sines, cosines and scale written in
    place, and goes before R is copied out of LAPACK's factor: at most A and
    one A-sized array are alive at once.
    """
    modes = len(k)
    a_matrix = np.empty((2 * modes, len(offsets)))
    sin, cos = a_matrix[:modes], a_matrix[modes:]
    np.multiply.outer(k, offsets, out=sin)                   # the phases
    np.cos(sin, out=cos)
    np.sin(sin, out=sin)
    scale = np.multiply.outer(mode_scale, w)
    np.negative(scale, out=scale)
    sin *= scale
    cos *= scale
    del scale
    h, _ = np.linalg.qr(a_matrix, mode="raw")               # h.T holds R over its diagonal
    del a_matrix, sin, cos
    return np.triu(h.T[:min(h.shape)])


# Philox4x32-10 (J. K. Salmon, M. A. Moraes, R. O. Dror and D. E. Shaw,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11): the round
# multipliers, the key's Weyl increments and the 32-bit word mask
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_WORD = 0xFFFFFFFF
# Philox blocks per pass of _standard_normals, two normals each: one draw
# buffer's worth.  Its scratch is five uint64 arrays of that many words,
# 160 KiB at most.
_PHILOX_BLOCKS = _DRAW_BLOCK // 2


def _philox4x32(counters, key: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """The four output words of Philox4x32-10 for each counter, under the
    key (k0, k1): counters is four uint64 arrays holding the counter's
    32-bit words 0-3, overwritten.

    A round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)); a 32 x 32-bit product fits in uint64,
    so hi is ``>> 32`` and lo ``& _WORD``.  The key gains (W0, W1) mod 2^32
    after each round.  Each round writes its four words into four of five
    arrays and renames them, copying nothing.
    """
    c0, c1, c2, c3 = counters
    spare = np.empty_like(c0)
    k0, k1 = key
    for _ in range(10):
        np.multiply(c0, _PHILOX_M[0], out=c0)
        np.multiply(c2, _PHILOX_M[1], out=c2)
        np.right_shift(c2, 32, out=spare)
        spare ^= c1
        spare ^= k0
        np.right_shift(c0, 32, out=c1)
        c1 ^= c3
        c1 ^= k1
        c2 &= _WORD
        c0 &= _WORD
        c0, c1, c2, c3, spare = spare, c2, c1, c0, c3
        k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
    return c0, c1, c2, c3


def _standard_normals(seed: int, first: int, out: np.ndarray) -> None:
    """Fill the C-contiguous float array out with normals first, first + 1,
    ... of the seed's stream.

    The key is (seed & _WORD, seed >> 32), so a seed in [0, 2^64) is the
    whole 64-bit key.  Block j, counter (j & _WORD, j >> 32, 0, 0), gives two
    53-bit uniforms, from words 0-1 and from words 2-3: of each pair, read as
    the 64-bit integer word_lo + 2^32 word_hi, the top 53 bits m.  The first
    is u = 1 - m 2^-53, in (0, 1] so that log never sees 0, the second
    v = m 2^-53, in [0, 1).  By Box-Muller they give normals
    2j = r cos(2 pi v) and 2j + 1 = r sin(2 pi v), r = sqrt(-2 ln u).  The
    range may start at an odd index, so how a caller splits it never changes
    a normal.  At most _PHILOX_BLOCKS blocks are generated at a time.
    """
    key = (seed & _WORD, seed >> 32)
    flat = out.reshape(-1)
    done = 0
    while done < flat.size:
        block, skip = divmod(first + done, 2)
        take = min(flat.size - done, 2 * _PHILOX_BLOCKS - skip)
        low = np.arange(block, block + (skip + take + 1) // 2, dtype=np.uint64)
        high = low >> 32
        low &= _WORD
        w0, w1, w2, w3 = _philox4x32((low, high, np.zeros_like(low), np.zeros_like(low)), key)
        np.left_shift(w1, 32, out=w1)
        w1 |= w0
        w1 >>= 11
        radius = w0.view(np.float64)                          # word 0 is spent
        np.multiply(w1, -2.0 ** -53, out=radius)
        radius += 1.0                                         # u
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        np.left_shift(w3, 32, out=w3)
        w3 |= w2
        w3 >>= 11
        angle = w2.view(np.float64)                           # and so is word 2
        np.multiply(w3, 2.0 * math.pi * 2.0 ** -53, out=angle)   # 2 pi v
        dst = flat[done:done + take]
        cos, sin = dst[skip::2], dst[1 - skip::2]               # an odd start skips a cosine
        np.cos(angle[skip:skip + cos.size], out=cos)
        cos *= radius[skip:skip + cos.size]
        np.sin(angle[:sin.size], out=sin)
        sin *= radius[:sin.size]
        done += take


def _block_rows(n_realizations: int, probes: int) -> int:
    """Realizations per draw block: _DRAW_BLOCK doubles of field, but at least
    _MIN_GEMM_ROWS rows per GEMM, and never more than the run draws."""
    return min(n_realizations, max(_MIN_GEMM_ROWS, _DRAW_BLOCK // probes))


def _moments(n_realizations: int, r: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """<p> and <p^2> of the products p = Pi_L(x1) Pi_L(x2) over the
    realizations g R, g drawn block by block from the seed's stream."""
    d, probes = r.shape                                     # R^T R = A^T A
    mean = np.zeros(probes - 1)
    second = np.zeros(probes - 1)
    rows = _block_rows(n_realizations, probes)
    work = np.empty(rows * max(d, probes - 1))              # the normals, then the products
    field = np.empty((rows, probes))
    for done in range(0, n_realizations, rows):
        b = min(rows, n_realizations - done)
        g, pi_l = work[:b * d].reshape(b, d), field[:b]
        _standard_normals(seed, done * d, g)
        np.matmul(g, r, out=pi_l)
        p = work[:b * (probes - 1)].reshape(b, probes - 1)
        np.multiply(pi_l[:, :1], pi_l[:, 1:], out=p)
        mean += p.sum(axis=0)
        second += np.square(p, out=p).sum(axis=0)
    mean /= n_realizations
    second /= n_realizations
    return mean, second


# moments beyond the float range, and a domain too long for it, are refused
@np.errstate(over="raise", invalid="raise", divide="raise")
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
    condition number.  A is gone before the draws (``_probe_factor``).
    Realization i takes normals i d, ..., (i + 1) d - 1 of the seed's
    stream.  They are drawn in blocks of max(128, _DRAW_BLOCK // (points + 1))
    realizations, at most all of them (``_block_rows``), through two buffers
    allocated once and filled in place: one holds the (block, d) normals and,
    once the GEMM has read them, the (block, points) products, squared in
    place once summed; the other the (block, points + 1) field at the probes.
    Each holds at most _DRAW_BLOCK doubles (64 KiB) up to 63 points, and 128
    realizations above; the block regroups only the moment sums.  Moments
    beyond the float range are refused with t, x1 and T0 named, and the x2
    window too where it pads the domain to an infinite length.
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
    where = f"the Monte-Carlo moments at t = {t:.6g}, x1 = {x1:.6g}, T0 = {temperature:.6g}"
    if math.isinf(length):
        raise FloatingPointError(
            f"{where} leave the float range: the x2 window [{x2_values.min():.6g}, "
            f"{x2_values.max():.6g}] pads the sampled domain to an infinite length")
    if uv_epsilon is None:
        # small against the traced separations, wide enough to kill ringing
        sep_scale = max(np.abs(x0[1:] - x0[0]).min(), 1e-3 * profile.a)
        uv_epsilon = 0.25 * sep_scale
    k = 2.0 * math.pi * np.arange(1, N_MODES + 1) / length
    beta = math.inf if temperature == 0.0 else 1.0 / temperature
    try:
        # with c_k = sd_k (a_k + i b_k), a_k and b_k standard normals,
        # Pi_L = 2 Re(sum_k c_k i k e^{ik(x0 - lo)}) w = [a, b] . A
        r = _probe_factor(k, x0 - lo, 2.0 * k * _thermal_sd(k, beta, length, uv_epsilon), w)
        mean, second = _moments(n_realizations, r, seed)
        var = np.maximum(second - mean ** 2, 0.0)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{where} leave the float range: {exc}") from None
    return Ensemble(values=np.abs(mean), stderr=np.sqrt(var / n_realizations))
