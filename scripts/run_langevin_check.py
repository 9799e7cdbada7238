#!/usr/bin/env python3
"""Desk-scale stochastic cross-check of the pair-correlation peak.

Samples thermal initial data, transports the left sector along the matched
characteristic map, and compares the ensemble peak against the closed form
(and against the estimator's own infinite-N expectation).  Emits
langevin_check.csv with columns (x2, closed, scheme, mc, mc_stderr).
"""

import math

import numpy as np

from sonicbh.cli import write_table
from sonicbh.correlations import build_correlation_grid
from sonicbh.langevin import estimate_correlation, expected_correlation_curve
from sonicbh.profiles import LineProfile

PROFILE = LineProfile(a=1.0, kappa=0.1, tau=1.0)
T, X1, EPS, SEED = 30.0, -1.2, 0.12, 7000


def main():
    x2 = np.linspace(1.1, 6.0, 64)
    closed = build_correlation_grid(X1, x2, T, math.inf, PROFILE).values
    scheme = expected_correlation_curve(X1, x2, T, 0.0, PROFILE, EPS)
    mc = estimate_correlation(10_000, X1, x2, T, 0.0, PROFILE, seed=SEED,
                              uv_epsilon=EPS)
    rows = [[float(a), float(b), float(c), float(d), float(e)]
            for a, b, c, d, e in zip(x2, closed, scheme, mc.values, mc.stderr)]
    write_table("langevin_check.csv", ["x2", "closed", "scheme", "mc", "mc_stderr"],
                rows, {"command": "script:langevin-check", "seed": SEED,
                       "realizations": 10_000, "uv_epsilon": EPS})
    resid = (mc.values - scheme) / np.maximum(mc.stderr, 1e-300)
    print(f"langevin_check.csv  (mean z-score vs scheme: {resid.mean():+.2f})")


if __name__ == "__main__":
    main()
