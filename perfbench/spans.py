"""Span tracer for one benchmark sample.

The tracer wraps public tropgc functions from outside the package. Each call
records a span (name, start, end, parent) in memory; a layer's self time is
the time its spans cover minus the time covered by their child spans. The
modules bind each other's functions with ``from .x import f``, so a wrapper
replaces the original in every ``tropgc`` namespace that holds it; otherwise
calls made through the other binding would escape their spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = ("chambers", "enumeration", "graphs", "complexes", "linalg",
          "spectral")

# Public functions on the call paths of the workloads. The timed section
# calls only functions listed here, so their spans cover it.
TRACED = {
    "chambers": ("signature", "permute_signature", "compare_signatures",
                 "compare_up_to_symmetry", "apply_permutation",
                 "feasible_point", "is_feasible", "enumerate_chambers"),
    "enumeration": ("enumerate_stable_graphs", "generator_basis",
                    "filtration_levels", "check_aligned"),
    "graphs": ("canonicalize", "contract_edge", "is_stable"),
    "complexes": ("build_graph_complex", "homology"),
    "linalg": ("RationalMatrix.matmul", "rank", "kernel_basis",
               "subspace_dims"),
    "spectral": ("align_chain", "build_filtered_complex", "filtered_from_raw",
                 "page_dim", "infinity_table", "decomposition_report"),
}

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("graphs.canonicalize.calls", "count"),
    ("graphs.canonicalize.self_s", "s"),
    ("graphs.canonicalize.repeat_ratio", "ratio"),
    ("enumeration.enumerate_stable_graphs.calls", "count"),
    ("enumeration.enumerate_stable_graphs.self_s", "s"),
    ("enumeration.enumerate_stable_graphs.classes", "count"),
    ("enumeration.cache.files_written", "count"),
    ("enumeration.cache.bytes_written", "bytes"),
    ("enumeration.cache.files_read", "count"),
    ("graphs.contract_edge.calls", "count"),
    ("graphs.contract_edge.self_s", "s"),
    ("complexes.build.self_s", "s"),
    ("complexes.generators", "count"),
    ("complexes.boundary_nnz", "count"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.self_s", "s"),
    ("linalg.rank.max_dim", "count"),
    ("linalg.rank.rank_sum", "count"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.subspace_dims.calls", "count"),
    ("linalg.subspace_dims.self_s", "s"),
    ("spectral.page_dim.calls", "count"),
    ("spectral.page_dim.self_s", "s"),
    ("spectral.build_filtered_complex.self_s", "s"),
    ("spectral.align_chain.self_s", "s"),
    ("enumeration.filtration_levels.self_s", "s"),
    ("graphs.is_stable.calls", "count"),
    ("graphs.is_stable.self_s", "s"),
    ("chambers.feasible_point.calls", "count"),
    ("chambers.feasible_point.self_s", "s"),
    ("chambers.permute_signature.calls", "count"),
    ("chambers.permute_signature.self_s", "s"),
    ("chambers.enumerate_chambers.self_s", "s"),
    ("chambers.compare_up_to_symmetry.calls", "count"),
    ("chambers.compare_up_to_symmetry.self_s", "s"),
    ("chambers.compare_up_to_symmetry.permutations", "count"),
    ("chambers.compare_up_to_symmetry.subset_comparisons", "count"),
    ("chambers.signature.calls", "count"),
    ("chambers.signature.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.reference_s", "s"),
    ("trace.unattributed_s", "s"),
)


class Tracer:
    """Spans and counters of one traced sample."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.canon_inputs: set = set()
        self.enum_depth = 0

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(token, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - covered[k])
        return out


def _cache_listing() -> dict[str, int]:
    from tropgc.enumeration import cache_dir
    try:
        with os.scandir(cache_dir()) as it:
            return {e.name: e.stat().st_size for e in it}
    except FileNotFoundError:
        return {}


def _hooks(tracer: Tracer) -> dict[str, tuple]:
    """Per-function (before, after) hooks that record counts."""

    def canon_after(_token, args, _kwargs, _result):
        tracer.canon_inputs.add(args[0])

    def enum_before(_args, _kwargs):
        tracer.enum_depth += 1
        return _cache_listing()

    def enum_after(before, _args, _kwargs, result):
        tracer.enum_depth -= 1
        tracer.add("enumeration.enumerate_stable_graphs.classes",
                   len(result.classes))
        after = _cache_listing()
        new = [name for name in after if name not in before]
        if not new:
            tracer.add("enumeration.cache.files_read", 1)
        elif tracer.enum_depth == 0:
            # A nested call's files are counted once, by the outermost call.
            tracer.add("enumeration.cache.files_written", len(new))
            tracer.add("enumeration.cache.bytes_written",
                       sum(after[name] for name in new))

    def build_after(_token, _args, _kwargs, c):
        tracer.add("complexes.generators", sum(len(b) for b in c.bases))
        tracer.add("complexes.boundary_nnz",
                   sum(len(m.entries()) for m in c.boundaries))

    def rank_after(_token, args, _kwargs, result):
        m = args[0]
        tracer.counts["linalg.rank.max_dim"] = max(
            tracer.counts.get("linalg.rank.max_dim", 0), m.rows, m.cols)
        tracer.add("linalg.rank.rank_sum", result)

    def compare_before(_args, kwargs):
        if kwargs.get("counters") is None:
            kwargs["counters"] = {}
        return kwargs["counters"]

    def compare_after(counters, _args, _kwargs, _result):
        for key in ("permutations", "subset_comparisons"):
            tracer.add(f"chambers.compare_up_to_symmetry.{key}",
                       counters[key])

    return {
        "graphs.canonicalize": (None, canon_after),
        "enumeration.enumerate_stable_graphs": (enum_before, enum_after),
        "complexes.build_graph_complex": (None, build_after),
        "linalg.rank": (None, rank_after),
        "chambers.compare_up_to_symmetry": (compare_before, compare_after),
    }


def install(tracer: Tracer) -> None:
    """Replace every traced function in every loaded tropgc namespace."""
    import tropgc
    hooks = _hooks(tracer)
    namespaces = [m for name, m in sys.modules.items()
                  if name == "tropgc" or name.startswith("tropgc.")]
    for layer, names in TRACED.items():
        module = getattr(tropgc, layer)
        for qualname in names:
            span_name = f"{layer}.{qualname.rpartition('.')[2]}"
            before, after = hooks.get(span_name, (None, None))
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, tracer.wrap(span_name, getattr(cls, attr),
                                               before, after))
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(span_name, original, before, after)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced sample whose timed section took
    wall_s. trace.overhead_s and trace.reference_s are filled in by the
    caller, which also times untraced samples."""
    per_name = tracer.self_times()
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for name, (_, s) in per_name.items()
            if name.startswith(layer + "."))
    for name, (calls, self_s) in per_name.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out["complexes.build.self_s"] = per_name.get(
        "complexes.build_graph_complex", (0, 0.0))[1]
    calls = per_name.get("graphs.canonicalize", (0, 0.0))[0]
    out["graphs.canonicalize.repeat_ratio"] = (
        1 - len(tracer.canon_inputs) / calls if calls else 0.0)
    out.update(tracer.counts)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(
        out[f"{layer}.self_s"] for layer in LAYERS)
    return {name: out.get(name, 0) for name, _ in PER_LAYER
            if name not in ("trace.overhead_s", "trace.reference_s")}
