"""Spans and counters for the traced benchmark run.

The wrappers live here, in the benchmark, around the public functions of
each rewindlab module; the program itself is not changed.  A span records
its name, start, end, parent span and case id.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict

# Per-layer metrics, in BENCHMARK.json order: (span or counter, what, unit).
LAYER_METRICS = [
    ("circuits.protocol_layout", "calls", "count"),
    ("circuits.protocol_layout", "self_s", "s"),
    ("statmech.lattice_from_circuit", "calls", "count"),
    ("statmech.lattice_from_circuit", "self_s", "s"),
    ("statmech.lattice_from_circuit", "nodes", "count"),
    ("statmech.partition_sum_exhaustive", "calls", "count"),
    ("statmech.partition_sum_exhaustive", "self_s", "s"),
    ("statmech.partition_sum_exhaustive", "configs_per_s", "1/s"),
    ("statmech.single_wall_fidelity", "calls", "count"),
    ("statmech.single_wall_fidelity", "self_s", "s"),
    ("statmech.single_wall_fidelity", "support", "count"),
    ("statmech.transfer_fidelity", "calls", "count"),
    ("statmech.transfer_fidelity", "self_s", "s"),
    ("closedform.conv_fidelity", "calls", "count"),
    ("closedform.conv_fidelity", "self_s", "s"),
    ("closedform.hybrid_fidelity", "calls", "count"),
    ("closedform.hybrid_fidelity", "self_s", "s"),
    ("closedform.local_fidelity", "calls", "count"),
    ("closedform.local_fidelity", "self_s", "s"),
    ("closedform.noisy_conv_fidelity", "calls", "count"),
    ("closedform.noisy_conv_fidelity", "self_s", "s"),
    ("closedform.seg_count", "hits", "count"),
    ("closedform.seg_count", "misses", "count"),
    ("pathcount.count_paths_relaxed", "calls", "count"),
    ("pathcount.count_paths_relaxed", "self_s", "s"),
    ("pathcount.relaxed_cache", "hits", "count"),
    ("pathcount.relaxed_cache", "misses", "count"),
    ("noise.channel_stats", "calls", "count"),
    ("noise.channel_stats", "self_s", "s"),
    ("oracle.exact_twirl_fidelity", "calls", "count"),
    ("oracle.exact_twirl_fidelity", "self_s", "s"),
    ("oracle.exact_twirl_fidelity", "gates", "count"),
    ("oracle.exact_twirl_fidelity", "peak_alloc_mb", "MB"),
    ("oracle.mc_pure", "calls", "count"),
    ("oracle.mc_pure", "self_s", "s"),
    ("oracle.mc_pure", "samples", "count"),
    ("oracle.mc_density", "calls", "count"),
    ("oracle.mc_density", "self_s", "s"),
    ("oracle.mc_density", "samples", "count"),
    ("parallel.map_chunks", "calls", "count"),
    ("parallel.map_chunks", "chunks", "count"),
    ("cli.sweep", "calls", "count"),
    ("cli.sweep", "self_s", "s"),
    ("cli.sweep", "rows", "count"),
    ("cli.sweep", "bytes", "bytes"),
]


class NullTracer:
    """Tracing off: spans and counts cost one no-op call."""

    case = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, what: str, amount: float = 1) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = defaultdict(float)
        self.case: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, what: str, amount: float = 1) -> None:
        self.counts[f"{name}.{what}"] += amount

    def self_times(self) -> Counter:
        """Span time minus the time covered by child spans, summed per name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass means of the counts and self times; rates and peaks as measured."""
        self_s = self.self_times()
        out = {}
        for name, what, unit in LAYER_METRICS:
            key = f"{name}.{what}"
            if what == "self_s":
                value = self_s[name] / passes
            elif what == "configs_per_s":
                busy = self_s[name]
                value = self.counts[f"{name}.configs"] / busy if busy > 0 else 0.0
            elif what == "peak_alloc_mb":
                value = self.peaks[name]
            else:
                value = self.counts[key] / passes
            out[key] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "case": case}) + "\n")


def _patch(owners, attr: str, make) -> None:
    """Replace ``attr`` on every module that holds the same function object."""
    original = getattr(owners[0], attr)
    wrapped = functools.wraps(original)(make(original))
    for owner in owners:
        if getattr(owner, attr, None) is original:
            setattr(owner, attr, wrapped)


def install(tracer: Tracer, program) -> None:
    """Wrap the public functions of each layer with spans and counters."""
    p = program

    def spanned(name, after=None):
        """A span per call; ``after(result, *args)`` counts work outside the span."""

        def make(fn):
            def traced(*args, **kwargs):
                tracer.count(name, "calls")
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return traced

        return make

    _patch([p.circuits, p.cli], "protocol_layout", spanned("circuits.protocol_layout"))

    def nodes(lattice, *args, **kwargs):
        tracer.count("statmech.lattice_from_circuit", "nodes", lattice.free_node_count)

    _patch([p.statmech], "lattice_from_circuit", spanned("statmech.lattice_from_circuit", nodes))

    def configs(result, lattice, *args, **kwargs):
        tracer.count("statmech.partition_sum_exhaustive", "configs", 2**lattice.free_node_count)

    _patch([p.statmech], "partition_sum_exhaustive", spanned("statmech.partition_sum_exhaustive", configs))

    enumerate_support = p.statmech.enumerate_support

    def support(result, lattice, *args, **kwargs):
        tracer.count("statmech.single_wall_fidelity", "support", len(enumerate_support(lattice)))

    _patch([p.statmech], "single_wall_fidelity", spanned("statmech.single_wall_fidelity", support))
    _patch([p.statmech], "transfer_fidelity", spanned("statmech.transfer_fidelity"))
    for fn in ("conv_fidelity", "hybrid_fidelity", "local_fidelity", "noisy_conv_fidelity"):
        _patch([p.closedform], fn, spanned(f"closedform.{fn}"))
    _patch([p.pathcount, p.closedform], "count_paths_relaxed", spanned("pathcount.count_paths_relaxed"))
    _patch([p.noise], "channel_stats", spanned("noise.channel_stats"))

    def twirl(fn):
        name = "oracle.exact_twirl_fidelity"

        def traced(layout, *args, **kwargs):
            tracer.count(name, "calls")
            tracer.count(name, "gates", len(layout.forward_slots))
            with tracer.span(name):
                tracemalloc.start()
                try:
                    result = fn(layout, *args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            tracer.peaks[name] = max(tracer.peaks[name], peak / 2**20)
            return result

        return traced

    _patch([p.oracle], "exact_twirl_fidelity", twirl)

    def monte_carlo(fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            name = "oracle.mc_pure" if bound.arguments["channel"] is None else "oracle.mc_density"
            tracer.count(name, "calls")
            tracer.count(name, "samples", bound.arguments["samples"])
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    _patch([p.oracle], "mc_average_fidelity", monte_carlo)

    def chunks(fn):
        def counted(fn_arg, chunk_args):
            tracer.count("parallel.map_chunks", "calls")
            tracer.count("parallel.map_chunks", "chunks", len(chunk_args))
            return fn(fn_arg, chunk_args)

        return counted

    _patch([p.parallel, p.statmech, p.oracle], "map_chunks", chunks)
