"""Span tracing from outside the package.

The tracer wraps public functions at the module attributes where their
callers look them up (``testing.ase``, ``mmd.gram``, ...), so the package
itself is unchanged. Each call records a span with its name, start, end,
parent and optional work counts. Spans stay in memory until the run ends.

A layer is the module part of a span name (``embed`` in ``embed.ase``).
The root span of each operation is named ``op`` and belongs to the layer
``bench``: its self time is what the benchmark spends between wrapped
calls. Self times of every span of one operation add up to the duration
of its root span.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects nested spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, self.clock(), float("nan"), parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = self.clock()

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(args, kwargs, result)``
        returns work counts, computed after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.counts.update(count(args, kwargs, result))
            return result

        return traced


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(index)
    result = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(s.duration - covered)
    return result


def layer_of(name):
    return "bench" if name == ROOT else name.split(".", 1)[0]


def _roots(spans):
    """Index of the root span each span descends from."""
    roots = []
    for index, s in enumerate(spans):
        roots.append(index if s.parent is None else roots[s.parent])
    return roots


def summarize(spans, root=ROOT):
    """Per-name totals over the spans under roots named ``root``.

    Returns ``(ops, totals)``: the number of such roots and, for each span
    name, its summed inclusive seconds ``s``, self seconds ``self_s``, call
    count ``calls`` and summed work counts. Gram calls made directly by
    ``two_sample_test`` are the reflection search; their inclusive time is
    kept under ``testing.reflection``.
    """
    selfs = self_times(spans)
    roots = _roots(spans)
    ops = sum(1 for s in spans if s.parent is None and s.name == root)
    totals = {}
    for index, s in enumerate(spans):
        if spans[roots[index]].name != root:
            continue
        names = [s.name]
        if s.name == "mmd.gram" and spans[s.parent].name == "testing.two_sample_test":
            names.append("testing.reflection")
        for name in names:
            entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += s.duration
            entry["self_s"] += selfs[index] if name == s.name else 0.0
            entry["calls"] += 1
            for key, value in s.counts.items():
                entry[key] = entry.get(key, 0) + value
    return ops, totals


def layer_self_seconds(totals):
    """Self seconds per layer; over all spans of an operation they sum to
    the root span's duration."""
    layers = {}
    for name, entry in totals.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + entry["self_s"]
    return layers


def instrument(tracer, modules):
    """Replace the package's public functions by traced wrappers.

    ``modules`` maps the names ``harness``, ``io``, ``mmd``, ``model`` and
    ``testing`` to the imported package modules. Returns a function that
    puts the original attributes back.
    """
    harness, io, mmd, model, testing = (
        modules[k] for k in ("harness", "io", "mmd", "model", "testing")
    )

    def n3(args, kwargs, result):
        return {"n3": int(result.coordinates.shape[0]) ** 3}

    def entries(args, kwargs, result):
        return {"entries": int(result.size)}

    def flops(args, kwargs, result):
        total = len(args[0])
        return {"flops": 2 * total * total * int(args[4])}

    def edges(args, kwargs, result):
        return {"edges": result.edge_count}

    plan = [
        ("embed.ase", [(testing, "ase"), (harness, "ase")], n3),
        ("testing.preprocess", [(testing, "preprocess")], None),
        ("testing.permutation_null", [(testing, "permutation_null")], flops),
        ("testing.two_sample_test", [(testing, "two_sample_test"), (harness, "two_sample_test")], None),
        ("testing.two_sample_point_test", [(harness, "two_sample_point_test")], None),
        ("mmd.gram", [(mmd, "gram")], entries),
        ("mmd.u_statistic", [(mmd, "u_statistic")], None),
        ("mmd.median_heuristic", [(mmd, "median_heuristic")], None),
        ("model.sample_latent", [(model, "sample_latent"), (harness, "sample_latent")], None),
        ("model.sample_rdpg", [(model, "sample_rdpg"), (harness, "sample_rdpg")], None),
        ("io.read_edge_list", [(io, "read_edge_list")], edges),
        ("io.write", [(io, "write_edge_list")], None),
        ("io.write", [(io, "write_table_csv")], None),
        ("io.write", [(io, "write_matrix_csv")], None),
        ("harness.run_power_experiment", [(harness, "run_power_experiment")], None),
        ("harness.pairwise_dissimilarity", [(harness, "pairwise_dissimilarity")], None),
        ("harness.knn_classify", [(harness, "knn_classify")], None),
    ]
    saved = []
    for name, sites, count in plan:
        wrapper = tracer.wrap(name, getattr(*sites[0]), count)
        for module, attr in sites:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
