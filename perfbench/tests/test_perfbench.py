"""Tests of the benchmark itself: op generation, tracing and run.py.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    assert make_ops(workload, 11) == make_ops(workload, 11)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_values_not_sizes(workload):
    a, b = make_ops(workload, 1), make_ops(workload, 2)
    assert a != b
    assert [(op["script"], op["malformed"], op["argv"][:1], len(op["argv"])) for op in a] == \
           [(op["script"], op["malformed"], op["argv"][:1], len(op["argv"])) for op in b]
    for op_a, op_b in zip(a, b):
        for flag in ("--points", "--realizations", "--max-modes"):
            if flag in op_a["argv"]:
                assert run_arg(op_a, flag) == run_arg(op_b, flag)


def run_arg(op, flag):
    return op["argv"][op["argv"].index(flag) + 1]


def test_alias_imported_by_name_is_traced():
    import sonicbh.correlations as correlations
    import sonicbh.specfun as specfun

    original = specfun.fourier_integral
    rec = tracer.Tracer()
    replaced = rec.install()
    try:
        # correlations binds ``from .specfun import fourier_integral``
        assert correlations.fourier_integral is not original
        correlations.corr_homogeneous(2.0, 50.0, math.inf)
    finally:
        tracer.Tracer.uninstall(replaced)
    assert correlations.fourier_integral is original
    names = [span[0] for span in rec.spans]
    assert names[0] == "correlations.corr_homogeneous"
    quad = [span for span in rec.spans if span[0] == "specfun.fourier_integral"]
    assert quad and all(span[3] == 0 for span in quad)
    assert rec.counts["specfun.fourier_integral.evals"] > 0


def test_self_times_from_nested_spans():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0),
             ("d", 5.0, 6.0, 0, 0)]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    summary = tracer.summarize(spans)
    assert summary["a"] == {"calls": 1, "incl_s": 10.0, "self_s": 6.0}


def test_malformed_rule():
    ok = {"exit": 2, "stderr": '{"error": "ConfigError", "message": "x"}\n'}
    assert run.malformed_handled(ok)
    assert not run.malformed_handled(dict(ok, exit=0))
    assert not run.malformed_handled(dict(ok, exit=-11, stderr=""))
    assert not run.malformed_handled({"exit": 2, "stderr": "usage: sonicbh\nerror: bad\n"})
    assert not run.malformed_handled({"exit": 3, "stderr": "Traceback (most recent call last)\n"})


@pytest.fixture(scope="module")
def traced_and_untraced(tmp_path_factory):
    """One cheap op of each kind, run untraced and traced."""
    env = run.child_env(ROOT, 1)
    ops = [op for op in make_ops("pair-scan", 5)
           if op["argv"][:1] in (["correlation"], ["hawking"]) and not op["malformed"]][:3]
    out = []
    for trace in (False, True):
        base = tmp_path_factory.mktemp(f"trace{int(trace)}")
        out.append([run.run_op(op, str(base / f"op{op['id']}"), ROOT, env, trace)
                    for op in ops])
    return ops, out[0], out[1]


def test_traced_outputs_identical(traced_and_untraced):
    _ops, plain, traced = traced_and_untraced
    for a, b in zip(plain, traced):
        assert a["exit"] == b["exit"] == 0
        assert a["outputs"] and a["outputs"] == b["outputs"]
        assert "spans" not in a["marks"] and b["marks"]["spans"]


def test_traced_self_times_consistent(traced_and_untraced):
    _ops, _plain, traced = traced_and_untraced
    assert run.check_self_times(traced) == []
    for rec in traced:
        spans = [tuple(s) for s in rec["marks"]["spans"]]
        own = tracer.self_times(spans)
        assert min(own) >= 0.0
        roots = sum(end - start for _n, start, end, parent, _o in spans if parent < 0)
        assert sum(own) == pytest.approx(roots, rel=1e-9)
        assert roots <= rec["wall_s"]
    metrics, _top = run.layer_metrics(traced, 1.0, 1.0)
    assert metrics["correlations.build_correlation_grid.rows_matched"] > 0
    assert metrics["cli.write_table.bytes"] > 0


def test_refuses_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "mc-check", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
