"""Spans around calls into the package's layers, recorded from outside.

``install`` wraps chosen public functions of the ``sonicbh`` modules and
replaces every alias of each original in every loaded ``sonicbh.*`` module,
because modules bind their imports by name (``from .specfun import
fourier_integral``).  No source file changes.

A span is ``(name, start, end, parent, op)`` on the system-wide monotonic
clock: ``parent`` is the index of the enclosing span or -1.  Spans stay in
memory until the op ends.  Counts that come from what a call returns or
raises are kept beside the spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

# Wrapped functions per layer.  Each is a boundary called at most a few
# thousand times per op; scalar leaves called per integrand evaluation are
# left unwrapped so the trace does not swamp them.
TRACED = {
    "params": ("load_config", "derive", "parse_kv_text"),
    "cli": ("main", "write_table"),
    "specfun": ("fourier_integral", "integrate_adaptive"),
    "profiles": ("null_coordinate_map", "find_horizons", "hawking_temperature_ring",
                 "hawking_temperature_line"),
    "environment": ("effective_coupling", "noise_kernel", "dissipation_kernel"),
    "decoherence": ("v_coefficients", "decoherence_time", "allowed_frequencies",
                    "sweep_decoherence", "diffusion_exact",
                    "diffusion_quadrature_oracle", "diffusion_thermal",
                    "diffusion_result"),
    "characteristics": ("trace_characteristic", "forward_characteristic",
                        "matched_x0", "matched_dx0_dx", "entanglement_boundary",
                        "characteristic_fan_rows", "core_integrals"),
    "correlations": ("corr_homogeneous", "corr_closed_form", "corr_mode_sum_oracle",
                     "build_correlation_grid", "detect_peak",
                     "thermal_momentum_integral", "open_correction_er"),
    "langevin": ("estimate_correlation", "left_sector_map",
                 "expected_correlation_curve"),
}
LAYERS = tuple(TRACED)


class Tracer:
    """In-memory span and count recorder for one op."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.errors"] += 1
                partial = getattr(exc, "partial", None)  # QuadratureError
                if partial is not None:
                    counts[f"{name}.evals"] += partial.evaluations
                raise
            finally:
                spans[index] = (name, start, time.monotonic(), parent, tracer.op_id)
                stack.pop()
            tracer._count(name, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def _count(self, name, args, kwargs, result):
        """Counts read off what a layer boundary returned."""
        counts, short = self.counts, name.split(".", 1)[1]
        if short in ("fourier_integral", "integrate_adaptive"):
            counts[f"{name}.evals"] += result.evaluations
        elif short == "build_correlation_grid":
            regions = Counter(result.regions)
            counts[f"{name}.rows_matched"] += regions["matched"]
            counts[f"{name}.rows_uniform"] += regions["uniform"]
        elif short == "sweep_decoherence":
            counts["decoherence.point_errors"] += len(result[1])
        elif short == "write_table":
            counts[f"{name}.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])
        elif short == "estimate_correlation":
            counts[f"{name}.realizations"] += int(args[0] if args else kwargs["n_realizations"])

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap the listed functions and every alias of them in ``sonicbh.*``.

        Returns the (module, attribute, original) triples replaced, for
        ``uninstall``.
        """
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"sonicbh.{layer}")
            for attr in names:
                original = getattr(module, attr, None)
                if original is None or hasattr(original, "__wrapped_original__"):
                    continue
                wrappers[id(original)] = (original, self.wrap(f"{layer}.{attr}", original))
        replaced = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "sonicbh" or modname.startswith("sonicbh.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced.append((module, attr, value))
        return replaced

    @staticmethod
    def uninstall(replaced):
        for module, attr, original in replaced:
            setattr(module, attr, original)


def cache_misses() -> dict[str, int]:
    """Builds of the package's cached objects so far in this process."""
    out = {}
    for key, modname, attr in (("profiles.null_map.builds", "sonicbh.profiles", "_build_null_map"),
                               ("characteristics.core_integrals.builds",
                                "sonicbh.characteristics", "core_integrals")):
        fn = getattr(sys.modules.get(modname), attr, None)
        fn = getattr(fn, "__wrapped_original__", fn)
        if hasattr(fn, "cache_info"):
            out[key] = fn.cache_info().misses
    return out


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _o) in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["incl_s"] += span[2] - span[1]
        entry["self_s"] += own
    return out
