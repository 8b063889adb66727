"""Self-time arithmetic and tracing of the benchmark's span recorder."""

import itertools

import pytest

import spans
from spans import Span


def tree():
    # op [0, 10]: two_sample_test [1, 7] with children ase [1.5, 3.5],
    # gram [4, 5] (reflection) and u_statistic [5, 6.5] > gram [5.5, 6];
    # read_edge_list [8, 9.5].
    return [
        Span("op", 0.0, 10.0, None),
        Span("testing.two_sample_test", 1.0, 7.0, 0),
        Span("embed.ase", 1.5, 3.5, 1, {"n3": 27}),
        Span("mmd.gram", 4.0, 5.0, 1, {"entries": 4}),
        Span("mmd.u_statistic", 5.0, 6.5, 1),
        Span("mmd.gram", 5.5, 6.0, 4, {"entries": 6}),
        Span("io.read_edge_list", 8.0, 9.5, 0, {"edges": 3}),
    ]


def test_self_times_of_hand_built_tree():
    assert spans.self_times(tree()) == pytest.approx([2.5, 1.5, 2.0, 1.0, 1.0, 0.5, 1.5])


def test_self_time_counts_overlapping_children_once():
    overlapping = [Span("op", 0.0, 10.0, None), Span("a", 1.0, 4.0, 0), Span("b", 3.0, 6.0, 0)]
    assert spans.self_times(overlapping)[0] == pytest.approx(5.0)


def test_summary_totals_and_layers_add_up_to_the_op():
    ops, totals = spans.summarize(tree())
    assert ops == 1
    assert totals["mmd.gram"] == pytest.approx({"s": 1.5, "self_s": 1.5, "calls": 2, "entries": 10})
    assert totals["testing.reflection"]["s"] == pytest.approx(1.0)
    assert totals["testing.reflection"]["calls"] == 1
    assert totals["mmd.u_statistic"]["self_s"] == pytest.approx(1.0)
    assert totals["embed.ase"]["n3"] == 27
    layers = spans.layer_self_seconds(totals)
    assert layers == pytest.approx(
        {"bench": 2.5, "testing": 1.5, "embed": 2.0, "mmd": 2.5, "io": 1.5}
    )
    assert sum(layers.values()) == pytest.approx(10.0)


def test_summary_keeps_other_roots_apart():
    spans_list = tree() + [Span("setup", 20.0, 21.0, None), Span("model.sample_rdpg", 20.0, 21.0, 7)]
    ops, totals = spans.summarize(spans_list)
    assert ops == 1 and "model.sample_rdpg" not in totals
    ops, totals = spans.summarize(spans_list, root="setup")
    assert ops == 1 and set(totals) == {"setup", "model.sample_rdpg"}


def test_wrapped_calls_nest_and_count_after_closing():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("mmd.gram", lambda x: x * 2, count=lambda a, k, r: {"entries": r})
    outer = tracer.wrap("mmd.u_statistic", lambda x: inner(x) + inner(x))
    with tracer.span("op"):
        assert outer(3) == 12
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("op", None), ("mmd.u_statistic", 0), ("mmd.gram", 1), ("mmd.gram", 1)]
    assert [s.counts for s in tracer.spans[2:]] == [{"entries": 6}, {"entries": 6}]
    assert all(s.end > s.start for s in tracer.spans)


def test_instrument_wraps_lookup_sites_and_restores():
    import numpy as np

    import rdpgtest.harness as harness
    import rdpgtest.io as io
    import rdpgtest.mmd as mmd
    import rdpgtest.model as model
    import rdpgtest.testing as testing

    modules = {"harness": harness, "io": io, "mmd": mmd, "model": model, "testing": testing}
    original = (mmd.gram, testing.ase, harness.ase)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, modules)
    try:
        assert testing.ase is harness.ase and testing.ase is not original[1]
        x = np.arange(8.0).reshape(4, 2)
        with tracer.span("op"):
            mmd.u_statistic(mmd.GaussianKernel(1.0), x, x + 1.0)
    finally:
        restore()
    assert (mmd.gram, testing.ase, harness.ase) == original
    assert [s.name for s in tracer.spans] == ["op", "mmd.u_statistic"] + ["mmd.gram"] * 3
    _, totals = spans.summarize(tracer.spans)
    assert totals["mmd.gram"]["entries"] == 48
