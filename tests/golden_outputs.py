"""Golden outputs: the sha256 of everything a fixed set of runs writes.

The runs are every op of the four benchmark workloads at seeds 1 and 2 (as
``perfbench/workloads.py`` generates them) and the three study scripts, each
in a fresh interpreter and its own directory.  Per run the record holds the
exit code and the sha256 of stdout, of stderr and of every file written.  The
file also records the numpy and scipy versions and the BLAS thread count the
runs were made with.

``tests/test_golden_outputs.py`` reruns them and names every run that moved.
A change that moves outputs on purpose rewrites the file, from the root of a
checkout:

    python3 tests/golden_outputs.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_outputs.json")
SCRIPTS = ("run_correlation_scan.py", "run_decoherence_sweep.py", "run_langevin_check.py")
SEEDS = (1, 2)
BLAS_THREADS = "1"        # langevin's QR goes through LAPACK: one thread, one answer
WORKERS = 2


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_golden_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs() -> dict[str, dict]:
    """Name -> (argv, config, script) of every run; a workload's script ops
    are the study scripts, run once each."""
    workloads = _workloads()
    out = {f"script/{name}": {"argv": [], "config": None, "script": f"scripts/{name}"}
           for name in SCRIPTS}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.make_ops(workload, seed):
                if op["script"] is None:
                    out[f"{workload}/seed{seed}/op{op['id']:02d}"] = {
                        "argv": op["argv"], "config": op["config"], "script": None}
    return out


def stack() -> dict[str, str]:
    """What the outputs may depend on beyond the source."""
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": BLAS_THREADS}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(spec: dict) -> dict:
    """Run one spec in a fresh interpreter inside a new directory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS)
    with tempfile.TemporaryDirectory(prefix="sonicbh-golden-") as cwd:
        argv = list(spec["argv"])
        if spec["config"] is not None:
            with open(os.path.join(cwd, "config.cfg"), "w", encoding="utf-8") as fh:
                fh.write(spec["config"])
            argv += ["--config", "config.cfg"]
        target = ([os.path.join(ROOT, spec["script"])] if spec["script"]
                  else ["-m", "sonicbh", *argv])
        proc = subprocess.run([sys.executable, *target], cwd=cwd, env=env,
                              capture_output=True, timeout=300)
        files = {}
        for name in sorted(os.listdir(cwd)):
            if name != "config.cfg":
                with open(os.path.join(cwd, name), "rb") as fh:
                    files[name] = _sha256(fh.read())
    return {"exit": proc.returncode, "stdout": _sha256(proc.stdout),
            "stderr": _sha256(proc.stderr), "files": files}


def record_all() -> dict[str, dict]:
    specs = runs()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        return dict(zip(specs, pool.map(record, specs.values())))


def main() -> int:
    doc = {"stack": stack(), "runs": record_all()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{GOLDEN}: {len(doc['runs'])} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
