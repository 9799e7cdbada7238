"""Run one benchmark op in a fresh interpreter, as a user would.

    python3 perfbench/child.py MARKS TRACE OP_ID cli ARGS...
    python3 perfbench/child.py MARKS TRACE OP_ID script PATH

Imports the package, then calls ``sonicbh.cli.main(ARGS)`` (what the
``sonicbh`` console script does) or runs the study script as ``__main__``.
On the way it notes, on the system-wide monotonic clock, when the
interpreter started, when the import finished and when the config was
loaded; with TRACE = 1 it also records spans around the package's layers.
The notes go to the JSON file MARKS when the op ends; a process killed by a
signal leaves none.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


def _mark_config_loaded(cli, marks):
    """Note when the CLI's config loader first returns (end of set-up)."""
    loader = getattr(cli, "_load_all", None)
    if loader is None:
        marks["setup_hook"] = "import"
        return

    def load_all(*args, **kwargs):
        try:
            return loader(*args, **kwargs)
        finally:
            marks.setdefault("t_config", time.monotonic())

    marks["setup_hook"] = "cli._load_all"
    cli._load_all = load_all


def main(argv):
    marks_path, trace, op_id, kind, rest = argv[0], argv[1] == "1", int(argv[2]), argv[3], argv[4:]
    marks = {"t_start": T_START}
    import sonicbh.cli as cli
    marks["t_import"] = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(op_id)
        tracer.install()
    _mark_config_loaded(cli, marks)
    code = 0
    marks["t_main"] = time.monotonic()
    try:
        if kind == "cli":
            code = cli.main(rest)
        else:
            sys.argv = [rest[0]]
            run = lambda: runpy.run_path(rest[0], run_name="__main__")
            (tracer.wrap("script.main", run) if tracer else run)()
    finally:
        marks["t_end"] = time.monotonic()
        if tracer is not None:
            from tracer import cache_misses
            marks["spans"] = tracer.spans
            marks["counts"] = dict(tracer.counts, **cache_misses())
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
