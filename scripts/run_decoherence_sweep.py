#!/usr/bin/env python3
"""Decoherence-time bands: sweep the force-noise fraction and the profile depth.

Writes gamma_sweep.csv and vmin_sweep.csv next to the working directory, the
datasets behind the noise-bound discussion: the worst allowed mode decoheres
within one collapse time at gamma = 5e-6 and survives past 100 revolutions
once gamma drops to 3e-8.
"""

import numpy as np

from sonicbh.params import default_config
from sonicbh.cli import write_table
from sonicbh.decoherence import SweepRow, sweep_decoherence


def main():
    config = default_config()

    gammas = np.geomspace(1e-8, 1e-5, 40)
    rows, errors = sweep_decoherence("gamma", gammas, config, 1.0)
    write_table("gamma_sweep.csv", SweepRow._fields, rows,
                {"command": "script:gamma-sweep", "errors": len(errors)})
    print(f"gamma_sweep.csv ({len(rows)} rows)")

    v_bar = config.mean_velocity
    vmins = np.linspace(0.78, 0.90, 13) * v_bar
    rows, errors = sweep_decoherence("v_min", vmins, config, 3e-8)
    write_table("vmin_sweep.csv", SweepRow._fields, rows,
                {"command": "script:vmin-sweep", "errors": len(errors)})
    print(f"vmin_sweep.csv ({len(rows)} rows)")


if __name__ == "__main__":
    main()
