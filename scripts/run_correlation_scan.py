#!/usr/bin/env python3
"""Pair-correlation scans: the long-time peak, its thermal dilution, and the
wedge geometry.

Emits correlation_t100.csv (|<Pi_L Pi_L>| vs x2 at three initial
temperatures), wedge_boundary.csv (x_pm(t)), and wedge_fan.csv (a fan of
left-moving characteristics around the interfaces).  It computes on scalars
and loads neither numpy nor scipy.
"""

import math

from sonicbh.characteristics import characteristic_fan_rows, entanglement_boundary
from sonicbh.cli import linspace, write_table
from sonicbh.correlations import build_correlation_grid, detect_peak
from sonicbh.profiles import LineProfile, hawking_temperature_line

PROFILE = LineProfile(a=1.0, kappa=0.1, tau=1.0)
T_LONG = 100.0


def main():
    t_h = hawking_temperature_line(PROFILE)
    x2 = linspace(1.5, 30.0, 160)
    rows = []
    for mult in (0.0, 20.0, 60.0):
        beta = math.inf if mult == 0.0 else 1.0 / (mult * t_h)
        grid = build_correlation_grid(-4.0, x2, T_LONG, beta, PROFILE)
        peak = detect_peak(grid)
        print(f"T0 = {mult:>4.0f} T_H: peak at x2 = {peak.location:.3f}, "
              f"contrast {peak.contrast:.1f}")
        rows += [[mult, x, v, r] for x, v, r in zip(grid.x2, grid.values, grid.regions)]
    write_table("correlation_t100.csv", ["t0_over_th", "x2", "abs_corr", "region"],
                rows, {"command": "script:correlation-scan", "t": T_LONG, "x1": -4.0},
                "csv")
    print("correlation_t100.csv")

    rows = []
    for t in linspace(0.0, 120.0, 240):
        xm, xp = entanglement_boundary(t, PROFILE)
        rows.append([t, xm, xp])
    write_table("wedge_boundary.csv", ["t", "x_minus", "x_plus"], rows,
                {"command": "script:wedge-boundary"}, "csv")
    print("wedge_boundary.csv")

    fan = characteristic_fan_rows(PROFILE, [-1.5, -1.0, -0.5, 0.72, 0.9, 1.0, 1.5],
                                  linspace(0.0, 40.0, 60))
    write_table("wedge_fan.csv", ["t", "x", "region"], fan,
                {"command": "script:wedge-fan"}, "csv")
    print("wedge_fan.csv")


if __name__ == "__main__":
    main()
