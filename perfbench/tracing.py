"""In-memory spans and counters, and the per-layer metrics built from them.

A span is recorded around each public call the benchmark makes into a
`twovalued` module.  Spans are kept in memory and written out when the run
ends.  A layer's self time is a span's duration minus the part of it that
its child spans cover.  Every per-layer value is given per pass over the
workload's operation list, so runs that fit a different number of passes
into their time budget stay comparable.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Where a metric comes from: the span whose summed self time it is (spans
# are named after the public function they wrap), COUNT for the counter of
# the metric's own name, or None for a figure layer_metrics derives.
COUNT = "count"

# name, unit, better, source, and the end-to-end metric (on which workload)
# the layer metric should move.  BENCHMARK.json's "per_layer" lists these.
LAYER_METRICS = [
    ("constructions.principal_s", "s", "lower", "constructions.principal",
     "wall_s on library"),
    ("constructions.unipotent_s", "s", "lower", "constructions.unipotent",
     "wall_s on library"),
    ("constructions.special_series_s", "s", "lower", "constructions.special_series",
     "wall_s on library"),
    ("constructions.product_with_boolean_s", "s", "lower", "constructions.product_with_boolean",
     "wall_s on library"),
    ("constructions.build_s", "s", "lower", None,
     "wall_s on library"),
    ("constructions.cells", "count", "higher", COUNT,
     "wall_s on library"),
    ("constructions.cells_per_s", "1/s", "higher", None,
     "wall_s on library"),
    ("core.verify_s", "s", "lower", "core.verify_axioms",
     "wall_s, op_p50_s, op_tail_s on library; wall_s on session; none on the large groups"),
    ("core.verify_triples", "count", "higher", COUNT,
     "wall_s, op_p50_s, op_tail_s on library; wall_s on session"),
    ("core.verify_triples_per_s", "1/s", "higher", None,
     "wall_s, op_p50_s, op_tail_s on library; wall_s on session"),
    ("core.order_s", "s", "lower", "core.order",
     "wall_s, op_p50_s, op_tail_s on library; wall_s on session"),
    ("structure.split_direct_factor_s", "s", "lower", "structure.split_direct_factor",
     "op_p50_s on library"),
    ("structure.c2_factors", "count", "higher", COUNT,
     "op_p50_s on library"),
    ("structure.is_special_s", "s", "lower", "structure.is_special",
     "op_p50_s on library"),
    ("structure.is_homomorphism_s", "s", "lower", "structure.is_homomorphism",
     "op_p50_s on library; wall_s on session"),
    ("classify.classify_s", "s", "lower", "classify.classify",
     "wall_s, peak_rss_mb, failed_frac on library (its large groups); wall_s on session"),
    ("classify.reconstruct_abelian_s", "s", "lower", "classify.reconstruct_abelian",
     "wall_s, peak_rss_mb, failed_frac on library (its large groups)"),
    ("classify.check_cells", "count", "lower", COUNT,
     "wall_s, peak_rss_mb, failed_frac on library (its large groups)"),
    ("classify.replays", "count", "higher", COUNT,
     "none: counts classify calls replayed step by step"),
    ("classify.witness_s", "s", "lower", "classify.witness_isomorphism",
     "failed_frac, wall_s on session"),
    ("classify.witness_found", "count", "higher", COUNT,
     "failed_frac, wall_s on session"),
    ("classify.witness_timeouts", "count", "lower", COUNT,
     "failed_frac, wall_s on session"),
    ("classify.witness_success_ratio", "ratio", "higher", None,
     "failed_frac, wall_s on session"),
    ("cocycle.extract_quasicocycle_s", "s", "lower", "cocycle.extract_quasicocycle",
     "op_p50_s on library"),
    ("cocycle.cohomology_invariant_s", "s", "lower", "cocycle.cohomology_invariant",
     "op_p50_s on library"),
    ("cli.read_group_s", "s", "lower", "cli.read_group",
     "wall_s, op_p50_s on session"),
    ("cli.read_bytes", "B", "higher", COUNT,
     "wall_s, op_p50_s on session"),
    ("cli.read_mb_per_s", "MB/s", "higher", None,
     "wall_s, op_p50_s on session"),
    ("cli.write_group_s", "s", "lower", "cli.write_group",
     "wall_s, op_p50_s on session"),
    ("cli.enumerate_all_s", "s", "lower", "cli.enumerate_all",
     "wall_s, op_p50_s on session"),
    ("cli.process_s", "s", "lower", None,
     "wall_s, op_p50_s on session"),
    ("formal.sympy_import_s", "s", "lower", None,
     "setup_s on every workload"),
    ("formal.sample_suite_s", "s", "lower", "formal.random_sample_suite",
     "wall_s on session"),
    ("formal.samples_per_s", "1/s", "higher", None,
     "wall_s on session"),
    ("trace.wall_s", "s", "lower", None,
     "none: traced wall_s; see record.py for the tracing overhead"),
    ("trace.spans", "count", "lower", None,
     "none: spans recorded per pass"),
]


class Tracer:
    """Records spans (name, start, end, parent) and named counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_ = self.spans[idx]
            self.spans[idx] = (name_, start, perf_counter(), parent_)

    def count(self, name: str, value: float = 1):
        self.counts[name] += value


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    spans: list = []
    counts: dict = {}

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float = 1):
        pass


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - child_time[i]
    return out


def layer_metrics(spans, counts, passes: int, sympy_import_s: float,
                  traced_wall_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value, per pass, from one traced run."""
    st = self_times(spans)
    m = {}
    for name, _, _, source, _ in LAYER_METRICS:
        if source == COUNT:
            m[name] = counts.get(name, 0) / passes
        elif source is not None:
            m[name] = st.get(source, 0.0) / passes
    m["constructions.build_s"] = sum(
        m[f"constructions.{f}_s"]
        for f in ("principal", "unipotent", "special_series", "product_with_boolean")
    )
    m["constructions.cells_per_s"] = _rate(m["constructions.cells"], m["constructions.build_s"])
    m["core.verify_triples_per_s"] = _rate(m["core.verify_triples"], m["core.verify_s"])
    found, timeouts = m["classify.witness_found"], m["classify.witness_timeouts"]
    m["classify.witness_success_ratio"] = _rate(found, found + timeouts)
    m["cli.read_mb_per_s"] = _rate(m["cli.read_bytes"] / 1e6, m["cli.read_group_s"])
    m["cli.process_s"] = statistics.median(
        [end - start for name, start, end, _ in spans if name == "cli.process"] or [0.0]
    )
    m["formal.sympy_import_s"] = sympy_import_s
    m["formal.samples_per_s"] = _rate(counts.get("formal.samples", 0) / passes,
                                      m["formal.sample_suite_s"])
    m["trace.wall_s"] = traced_wall_s
    m["trace.spans"] = len(spans) / passes
    return {name: m[name] for name, *_ in LAYER_METRICS}


def _rate(amount: float, seconds: float) -> float:
    """amount / seconds, or 0 where nothing was timed."""
    return amount / seconds if seconds > 0 else 0.0
