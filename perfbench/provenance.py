"""Print the versions a benchmark run depends on, as one JSON object.

Run in the same environment as the ops; importing the package here also
compiles its bytecode before anything is timed.
"""

import json
import platform

import numpy
import scipy

import sonicbh.cli  # noqa: F401


def blas() -> dict:
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {k: info.get(k) for k in ("name", "version", "openblas configuration")}


print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "sonicbh": sonicbh.__version__,
                  "blas": blas()}))
