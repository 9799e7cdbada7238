"""Independent oracles of the post-collapse ring for the tests.

The flow, its sound speed c = K v^(-1/2) and its null coordinates
x_b(theta) = int_0^theta dtheta'/(c +- v) are built here from the config
alone.  On a plateau x_b runs at the constant rate 1/(c +- v); on a ramp of
slope s it is (+-2/(3 s)) ln|K +- v^(3/2)| + const, taken with the plain log.
On the v branch slivers of half-width epsilon around the horizons
v = K^(2/3) are cut out and the value is carried across them flat.
"""

from __future__ import annotations

import math


def _sound_constant_squared(config, num=float):
    """K^2 = 2 Q^2 N / (m R^3 T), with c = K v^(-1/2)."""
    return (2 * num(config.ion_charge) ** 2 * config.n_ions
            / (num(config.ion_mass) * num(config.radius) ** 3 * num(config.period)))


def ring_flow(config, num=float, sqrt=math.sqrt, pi=math.pi):
    """v and c of the post-collapse ring, built from the config alone, with its
    ramps: in floats, or in mpmath with num, sqrt, pi = mp.mpf, mp.sqrt, mp.pi."""
    vmin, vmax, th_h, g1, g2 = map(num, (config.v_min, config.v_max, config.theta_h,
                                         config.gamma1, config.gamma2))
    down = 2 * pi - th_h
    mid, half = (vmax + vmin) / 2, (vmax - vmin) / 2

    def v(th):
        if th <= th_h - g1 or th > down + g2:
            return vmin
        if th <= th_h + g1:
            return mid + half * (th - th_h) / g1
        if th <= down - g2:
            return vmax
        return mid - half * (th - down) / g2

    k2 = _sound_constant_squared(config, num)
    return v, lambda th: sqrt(k2 / v(th)), [(th_h - g1, th_h + g1), (down - g2, down + g2)]


def ring_null_coordinate(config, branch, epsilon=0.0):
    """(x_b as a function of theta in [0, 2 pi], the kept intervals, the
    horizons): b = u or v, slivers (h - epsilon, h + epsilon) cut out on v."""
    sign = 1.0 if branch == "u" else -1.0
    k = math.sqrt(_sound_constant_squared(config))
    vmin, vmax, th_h = config.v_min, config.v_max, config.theta_h
    g1, g2, down = config.gamma1, config.gamma2, 2 * math.pi - th_h
    # (start, end, v at start, v at end) of the five linear pieces of v
    segments = [(0.0, th_h - g1, vmin, vmin), (th_h - g1, th_h + g1, vmin, vmax),
                (th_h + g1, down - g2, vmax, vmax), (down - g2, down + g2, vmax, vmin),
                (down + g2, 2 * math.pi, vmin, vmin)]
    v_h = k ** (2.0 / 3.0)
    horizons = [lo + (v_h - v_lo) * (hi - lo) / (v_hi - v_lo)
                for lo, hi, v_lo, v_hi in segments
                if branch == "v" and min(v_lo, v_hi) < v_h < max(v_lo, v_hi)]
    cuts = [0.0, *(h + s * epsilon for h in horizons for s in (-1, 1)), 2 * math.pi]
    kept = list(zip(cuts[0::2], cuts[1::2]))

    def antiderivative(lo, hi, v_lo, v_hi):
        if v_lo == v_hi:
            rate = 1.0 / (k / math.sqrt(v_lo) + sign * v_lo)
            return lambda th: rate * th
        s = (v_hi - v_lo) / (hi - lo)
        return lambda th: (sign * 2.0 / (3.0 * s)
                           * math.log(abs(k + sign * (v_lo + s * (th - lo)) ** 1.5)))

    pieces = [(max(a, lo), min(b, hi), antiderivative(lo, hi, v_lo, v_hi))
              for a, b in kept for lo, hi, v_lo, v_hi in segments
              if min(b, hi) > max(a, lo)]

    def x_b(theta):
        total = 0.0
        for lo, hi, f in pieces:
            if theta <= lo:
                break
            total += f(min(theta, hi)) - f(lo)
        return total

    return x_b, kept, horizons
