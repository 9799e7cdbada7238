#!/usr/bin/env python3
"""The sonicbh benchmark: seeded CLI workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/`` and
``scripts/``).  Each op of the workload runs in its own fresh interpreter,
one after another, as a user would run it; a pass runs every op once.
Passes repeat while another fits in S seconds (at least one).  The end-to-end
metrics come from untraced passes.  With ``--trace 1`` one untraced pass is
followed by traced passes, which give the per-layer metrics and the tracing
overhead.  The outputs of the first pass are then checked (checks.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record with
provenance and per-op exit codes and CPU times goes to
``.perfbench/BENCH_<workload>_seed<N>_trace<T>.json``.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracer import LAYERS, self_times, summarize
from workloads import WORKLOADS, make_ops

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 120.0
RUN_BUDGET_S = 140.0      # no pass starts that would end after this
MALFORMED_EXITS = (2, 3, 4)
MARKS = "perfbench-marks.json"
OWN_FILES = {MARKS, "perfbench-stdout.txt", "perfbench-stderr.txt", "config.cfg"}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio",
}

# (metric, unit, source, key): source "calls"/"self" read a span summary,
# "count" a count recorded at a layer boundary.
PER_LAYER = [
    ("decoherence.v_coefficients.calls", "count", "calls", "decoherence.v_coefficients"),
    ("decoherence.v_coefficients.self_s", "s", "self", "decoherence.v_coefficients"),
    ("decoherence.decoherence_time.calls", "count", "calls", "decoherence.decoherence_time"),
    ("decoherence.point_errors", "count", "count", "decoherence.point_errors"),
    ("decoherence.diffusion_quadrature_oracle.calls", "count", "calls",
     "decoherence.diffusion_quadrature_oracle"),
    ("decoherence.diffusion_quadrature_oracle.self_s", "s", "self",
     "decoherence.diffusion_quadrature_oracle"),
    ("profiles.null_coordinate_map.calls", "count", "calls", "profiles.null_coordinate_map"),
    ("profiles.null_coordinate_map.self_s", "s", "self", "profiles.null_coordinate_map"),
    ("profiles.null_map.builds", "count", "count", "profiles.null_map.builds"),
    ("specfun.fourier_integral.calls", "count", "calls", "specfun.fourier_integral"),
    ("specfun.fourier_integral.evals", "count", "count", "specfun.fourier_integral.evals"),
    ("specfun.fourier_integral.self_s", "s", "self", "specfun.fourier_integral"),
    ("specfun.integrate_adaptive.calls", "count", "calls", "specfun.integrate_adaptive"),
    ("specfun.integrate_adaptive.evals", "count", "count", "specfun.integrate_adaptive.evals"),
    ("specfun.integrate_adaptive.self_s", "s", "self", "specfun.integrate_adaptive"),
    ("specfun.integrate_adaptive.errors", "count", "count", "specfun.integrate_adaptive.errors"),
    ("correlations.corr_homogeneous.calls", "count", "calls", "correlations.corr_homogeneous"),
    ("correlations.corr_homogeneous.self_s", "s", "self", "correlations.corr_homogeneous"),
    ("correlations.corr_closed_form.calls", "count", "calls", "correlations.corr_closed_form"),
    ("correlations.corr_closed_form.self_s", "s", "self", "correlations.corr_closed_form"),
    ("correlations.corr_mode_sum_oracle.calls", "count", "calls",
     "correlations.corr_mode_sum_oracle"),
    ("correlations.corr_mode_sum_oracle.self_s", "s", "self",
     "correlations.corr_mode_sum_oracle"),
    ("correlations.build_correlation_grid.rows_matched", "count", "count",
     "correlations.build_correlation_grid.rows_matched"),
    ("correlations.build_correlation_grid.rows_uniform", "count", "count",
     "correlations.build_correlation_grid.rows_uniform"),
    ("characteristics.trace_characteristic.calls", "count", "calls",
     "characteristics.trace_characteristic"),
    ("characteristics.trace_characteristic.self_s", "s", "self",
     "characteristics.trace_characteristic"),
    ("characteristics.forward_characteristic.calls", "count", "calls",
     "characteristics.forward_characteristic"),
    ("characteristics.forward_characteristic.self_s", "s", "self",
     "characteristics.forward_characteristic"),
    ("characteristics.matched_x0.calls", "count", "calls", "characteristics.matched_x0"),
    ("characteristics.core_integrals.builds", "count", "count",
     "characteristics.core_integrals.builds"),
    ("langevin.estimate_correlation.self_s", "s", "self", "langevin.estimate_correlation"),
    ("langevin.left_sector_map.self_s", "s", "self", "langevin.left_sector_map"),
    ("params.load_config.self_s", "s", "self", "params.load_config"),
    ("params.derive.self_s", "s", "self", "params.derive"),
    ("cli.write_table.self_s", "s", "self", "cli.write_table"),
    ("cli.write_table.bytes", "bytes", "count", "cli.write_table.bytes"),
]
# Metrics computed from more than one source; see layer_metrics().
DERIVED_UNITS = {
    "langevin.realizations_per_s": "1/s", "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.unaccounted_s": "s", "ops_failed_ratio": "ratio",
}


# --------------------------------------------------------------------------
# running ops
# --------------------------------------------------------------------------

def child_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    env.pop("SONICBH_CONFIG", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def _outputs(cwd: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(cwd)):
        if name not in OWN_FILES:
            with open(os.path.join(cwd, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_op(op: dict, cwd: str, root: str, env: dict, trace: bool) -> dict:
    """Run one op in a fresh interpreter; wall, set-up, CPU, RSS and marks."""
    os.makedirs(cwd)
    argv = list(op["argv"])
    if op["config"] is not None:
        with open(os.path.join(cwd, "config.cfg"), "w", encoding="utf-8") as fh:
            fh.write(op["config"])
        argv += ["--config", "config.cfg"]
    target = ["script", os.path.join(root, op["script"])] if op["script"] else ["cli", *argv]
    cmd = [sys.executable, os.path.join(HERE, "child.py"), MARKS, "1" if trace else "0",
           str(op["id"]), *target]
    with open(os.path.join(cwd, "perfbench-stdout.txt"), "wb") as out, \
         open(os.path.join(cwd, "perfbench-stderr.txt"), "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(cwd, "perfbench-stderr.txt"), encoding="utf-8",
              errors="replace") as fh:
        stderr = fh.read()
    marks = None
    if os.path.exists(os.path.join(cwd, MARKS)):
        with open(os.path.join(cwd, MARKS), encoding="utf-8") as fh:
            marks = json.load(fh)
    setup = None
    if marks is not None:
        setup = marks.get("t_config", marks["t_import"]) - t_spawn
        if op["script"] is None and "t_config" not in marks:
            setup = None    # refused before any config was read
    return {"id": op["id"], "exit": proc.returncode, "wall_s": wall, "setup_s": setup,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "t_spawn": t_spawn, "stderr": stderr[-2000:], "marks": marks,
            "outputs": _outputs(cwd)}


def malformed_handled(rec: dict) -> bool:
    """A malformed op passes when refused as documented: exit 2/3/4, one
    JSON record on stderr and no traceback."""
    if rec["exit"] not in MALFORMED_EXITS or "Traceback" in rec["stderr"]:
        return False
    lines = rec["stderr"].strip().splitlines()
    if len(lines) != 1:
        return False
    try:
        return isinstance(json.loads(lines[0]), dict)
    except ValueError:
        return False


def run_pass(ops, pass_dir, root, env, trace) -> tuple[float, list[dict]]:
    t0 = time.monotonic()
    records = [run_op(op, os.path.join(pass_dir, f"op{op['id']:02d}"), root, env, trace)
               for op in ops]
    return time.monotonic() - t0, records


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def layer_metrics(records: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    spans, counts = [], {}
    imports, unaccounted = [], 0.0
    for rec in records:
        marks = rec["marks"]
        if marks is None:
            continue
        op_spans = [tuple(s) for s in marks.get("spans", [])]
        spans += [(n, a, b, p + len(spans) if p >= 0 else -1, o) for n, a, b, p, o in op_spans]
        for key, n in marks.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + n
        imports.append(marks["t_import"] - marks["t_start"])
        roots = sum(b - a for _n, a, b, p, _o in op_spans if p < 0)
        unaccounted += rec["wall_s"] - (marks["t_main"] - rec["t_spawn"]) - roots
    summary = summarize(spans)
    out = {}
    for name, _unit, source, key in PER_LAYER:
        if source == "count":
            out[name] = counts.get(key, 0)
        else:
            out[name] = summary.get(key, {}).get("calls" if source == "calls" else "self_s", 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in summary.items()
                                     if k.startswith(layer + "."))
    est = summary.get("langevin.estimate_correlation")
    out["langevin.realizations_per_s"] = (
        counts.get("langevin.estimate_correlation.realizations", 0) / est["incl_s"]
        if est else 0.0)
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.unaccounted_s"] = unaccounted
    top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:5]
    return out, [(name, v["self_s"], v["calls"]) for name, v in top]


def check_self_times(records: list[dict]) -> list[str]:
    """Per op: self times are non-negative and sum to at most the inclusive time."""
    problems = []
    for rec in records:
        spans = [tuple(s) for s in (rec["marks"] or {}).get("spans", [])]
        own = self_times(spans)
        roots = sum(b - a for _n, a, b, p, _o in spans if p < 0)
        if any(v < -1e-9 for v in own) or sum(own) > roots + 1e-9:
            problems.append(f"op {rec['id']}: inconsistent self times")
    return problems


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for sub in ("src", "scripts"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or None


def provenance(root: str, env: dict, seed: int, threads: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "provenance.py")], cwd=root,
                         env=env, capture_output=True, text=True, check=True,
                         timeout=OP_TIMEOUT_S)
    return {"commit": _commit(root), "source_sha256": _source_digest(root), "seed": seed,
            "nproc": threads, "cpu_model": _cpu_model(), "platform": platform.platform(),
            "blas_threads": env["OPENBLAS_NUM_THREADS"], **json.loads(out.stdout)}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(ops, work, root, env, seconds, trace) -> tuple[list, list]:
    """Untraced passes (one only when tracing), then traced passes."""
    t_begin = time.monotonic()
    untraced, traced = [], []
    while True:
        tracing = trace and len(untraced) == 1
        passes = traced if tracing else untraced
        passes.append(run_pass(ops, os.path.join(work, f"pass{len(untraced) + len(traced)}"),
                               root, env, tracing))
        elapsed = time.monotonic() - t_begin
        mean = elapsed / (len(untraced) + len(traced))
        if trace and not traced:
            continue
        if elapsed + mean > min(seconds, RUN_BUDGET_S):
            return untraced, traced


def evaluate(ops, untraced, traced, work, root, env, seed) -> tuple[list[tuple], dict]:
    """Per-op verdicts over the untraced passes: exit codes, output checks
    on the first pass, and identical outputs on every pass, traced or not.
    Also returns the checks' notes on what they could not cover."""
    first = untraced[0][1]
    plan = [dict(op, output=os.path.join(work, "pass0", f"op{op['id']:02d}", op["output"]))
            for op, rec in zip(ops, first) if not op["malformed"] and rec["exit"] == 0]
    verdicts = {}
    if plan:
        plan_path = os.path.join(work, "check-plan.json")
        result_path = os.path.join(work, "check-result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "ops": plan}, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "checks.py"), plan_path,
                               result_path], cwd=root, env=env, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        if proc.returncode == 0:
            with open(result_path, encoding="utf-8") as fh:
                verdicts = {int(k): v for k, v in json.load(fh).items()}
        else:
            verdicts = {op["id"]: {"failure": f"checker failed: {proc.stderr[-300:]}"}
                        for op in plan}
    outcomes = []
    for _wall, records in untraced:
        for op, rec in zip(ops, records):
            if op["malformed"]:
                reason = None if malformed_handled(rec) else f"exit {rec['exit']}, not refused"
            elif rec["exit"] != 0:
                reason = f"exit {rec['exit']}"
            else:
                reason = verdicts.get(op["id"], {}).get("failure")
                same = all(r[op["id"]]["outputs"] == first[op["id"]]["outputs"]
                           for _w, r in untraced + traced)
                if reason is None and not same:
                    reason = "outputs differ between passes"
            outcomes.append((op, rec, reason))
    return outcomes, {i: v["note"] for i, v in verdicts.items() if v.get("note")}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sonicbh", "cli.py")):
        print("perfbench: run from the root of a sonicbh checkout (no src/sonicbh here)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    env = child_env(root, threads)
    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    ops = make_ops(args.workload, args.seed)
    prov = provenance(root, env, args.seed, threads)
    t_run = time.monotonic()
    untraced, traced = measure(ops, work, root, env, args.seconds, bool(args.trace))
    outcomes, check_notes = evaluate(ops, untraced, traced, work, root, env, args.seed)

    valid = [o for o in outcomes if not o[0]["malformed"] and not o[0]["known_defect"]]
    failed = [o for o in valid if o[2] is not None]
    known = sorted({f"op {op['id']}: {op['known_defect']} ({reason})"
                    for op, _rec, reason in outcomes if op["known_defect"] and reason})
    ok_ratio = sum(o[2] is None for o in outcomes) / len(outcomes)
    walls = [w for w, _r in untraced]
    records = [rec for _w, recs in untraced for rec in recs]
    setups = [r["setup_s"] for r in records if r["setup_s"] is not None]
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
               "peak_rss_mb": max(r["rss_mb"] for r in records), "ops_ok_ratio": ok_ratio}
    units = dict(END_TO_END)
    problems = [f"op {o[1]['id']}: {o[2]}" for o in failed]
    top = []
    if args.trace:
        traced_records = traced[0][1]
        layer, top = layer_metrics(traced_records, statistics.median(w for w, _ in traced),
                                   metrics["wall_s"])
        layer["ops_failed_ratio"] = 1.0 - ok_ratio
        problems += check_self_times(traced_records)
        metrics = layer
        units = {name: unit for name, unit, _s, _k in PER_LAYER} | DERIVED_UNITS

    correct = not problems
    result = {"correct": correct, "attempted": len(valid), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "run_s": time.monotonic() - t_run,
        "passes": {"untraced": walls, "traced": [w for w, _r in traced]},
        "problems": problems, "known_defects": known, "check_notes": check_notes,
        "top_self_s": top, "result": result,
        "ops": [{"pass": i // len(ops), "id": op["id"], "argv": op["argv"],
                 "script": op["script"], "malformed": op["malformed"], "exit": rec["exit"],
                 "wall_s": rec["wall_s"], "setup_s": rec["setup_s"], "cpu_s": rec["cpu_s"],
                 "rss_mb": rec["rss_mb"], "failure": reason,
                 "stderr": rec["stderr"][-300:] if reason else ""}
                for i, (op, rec, reason) in enumerate(outcomes)],
    }
    with open(os.path.join(state, f"BENCH_{args.workload}_seed{args.seed}"
                                  f"_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)} untraced, "
          f"{len(traced)} traced  ops/pass {len(ops)}  nproc {threads}")
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}")
    for name, self_s, calls in top:
        print(f"  top self time: {name:44s} {self_s:9.3f} s over {calls} calls")
    for line in known:
        print(f"  KNOWN DEFECT {line}")
    for line in problems:
        print(f"  FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
