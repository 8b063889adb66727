"""One benchmark process: import the package, set up one workload, run it.

Started by ``run.py`` in a fresh interpreter, so that its set-up time and
peak memory belong to this workload alone. Prints one JSON object as the
last line of its standard output.

With ``--trace 0`` it times the host-speed probe (``probe.py``) after
set-up, before the first op and after every op, and scales each time by
it. With ``--trace 1`` it alternates untraced and traced operations; the
traced ones run with the package's public functions wrapped (see
``spans.py``), and the spans are written to ``--spans`` when it ends.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rdpgtest.harness  # noqa: E402
import rdpgtest.io  # noqa: E402
import rdpgtest.mmd  # noqa: E402
import rdpgtest.model  # noqa: E402
import rdpgtest.testing  # noqa: E402

import probe  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = {
    "harness": rdpgtest.harness,
    "io": rdpgtest.io,
    "mmd": rdpgtest.mmd,
    "model": rdpgtest.model,
    "testing": rdpgtest.testing,
}

# Per-layer metrics of the traced run: (metric, span name, field, unit).
# Values are per traced op.
LAYER_METRICS = [
    ("embed.ase.s", "embed.ase", "s", "s"),
    ("embed.ase.calls", "embed.ase", "calls", "count"),
    ("embed.ase.n3", "embed.ase", "n3", "count"),
    ("testing.permutation_null.self_s", "testing.permutation_null", "self_s", "s"),
    ("testing.permutation_null.flops", "testing.permutation_null", "flops", "flop"),
    ("mmd.gram.s", "mmd.gram", "s", "s"),
    ("mmd.gram.calls", "mmd.gram", "calls", "count"),
    ("mmd.gram.entries", "mmd.gram", "entries", "count"),
    ("testing.reflection.s", "testing.reflection", "s", "s"),
    ("mmd.u_statistic.self_s", "mmd.u_statistic", "self_s", "s"),
    ("mmd.median_heuristic.s", "mmd.median_heuristic", "s", "s"),
    ("io.read_edge_list.s", "io.read_edge_list", "s", "s"),
    ("io.read_edge_list.edges", "io.read_edge_list", "edges", "count"),
    ("io.write.s", "io.write", "s", "s"),
    ("model.sample_latent.s", "model.sample_latent", "s", "s"),
    ("model.sample_rdpg.s", "model.sample_rdpg", "s", "s"),
    ("testing.preprocess.s", "testing.preprocess", "s", "s"),
    ("testing.two_sample_test.self_s", "testing.two_sample_test", "self_s", "s"),
    ("testing.two_sample_point_test.self_s", "testing.two_sample_point_test", "self_s", "s"),
    ("harness.run_power_experiment.self_s", "harness.run_power_experiment", "self_s", "s"),
    ("harness.pairwise_dissimilarity.self_s", "harness.pairwise_dissimilarity", "self_s", "s"),
    ("harness.knn_classify.s", "harness.knn_classify", "s", "s"),
]
LAYERS = ("bench", "model", "io", "embed", "mmd", "testing", "harness")


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics from the spans of the traced ops and set-up."""
    ops, totals = spans.summarize(tracer.spans)
    metrics = {}
    for metric, name, key, unit in LAYER_METRICS:
        metrics[metric] = (totals.get(name, {}).get(key, 0) / ops, unit)
    layers = spans.layer_self_seconds(totals)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0) / ops, "s")
    metrics["trace.op_s"] = (sum(traced) / len(traced), "s")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    _, setup_totals = spans.summarize(tracer.spans, root="setup")
    setup_layers = spans.layer_self_seconds(setup_totals)
    for layer in ("model", "io"):
        metrics[f"setup.{layer}.s"] = (setup_layers.get(layer, 0.0), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_context(workload, scale):
    import hashlib

    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return {"name": info.get("name"), "version": info.get("version")}

    source = hashlib.sha256()
    package = os.path.dirname(rdpgtest.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "source_sha256": source.hexdigest(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "sizes": workloads.SIZES[scale][workload],
    }


class Runner:
    """Runs and checks ops; counts attempts and failures."""

    def __init__(self, workload, state, expected, tracer):
        self.workload = workload
        self.state = state
        self.expected = expected
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.broken = False

    def _fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def run(self, traced=False):
        """One op; returns its wall seconds (the root span's when traced)."""
        self.attempted += 1
        try:
            if traced:
                restore = spans.instrument(self.tracer, MODULES)
                try:
                    with self.tracer.span(spans.ROOT) as root:
                        output = workloads.op(self.workload, self.state)
                finally:
                    restore()
                seconds = root.duration
            else:
                start = time.perf_counter()
                output = workloads.op(self.workload, self.state)
                seconds = time.perf_counter() - start
        except Exception:
            self._fail(traceback.format_exc(limit=3))
            self.broken = True
            return None
        if self.expected is None:
            self.expected = {"outputs": output, "exact": True}
        problems = reference.compare(output, self.expected["outputs"], exact=self.expected["exact"])
        if problems:
            self._fail("; ".join(problems))
        return seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        restore = spans.instrument(tracer, MODULES)
        try:
            with tracer.span("setup"):
                state = workloads.setup(args.workload, args.scale, args.seed, args.workdir)
        finally:
            restore()
    else:
        state = workloads.setup(args.workload, args.scale, args.seed, args.workdir)
    result = {"setup_s": time.monotonic() - args.spawned}
    if tracer is None:
        result["setup_probe_s"] = probe.measure()
        result["setup_scaled_s"] = probe.scaled(result["setup_s"], result["setup_probe_s"])
    if args.setup_only:
        print(json.dumps(result))
        return 0

    recorded = reference.load(args.workload, args.scale, args.seed)
    expected = None if recorded is None else {"outputs": recorded, "exact": False}
    runner = Runner(args.workload, state, expected, tracer)
    result["reference"] = "recorded" if recorded is not None else "first op of this run"
    result["warmup_s"] = runner.run()

    # Untraced runs time the probe before the first op and after every op,
    # so that each op has a probe on either side.
    plain, traced, probes = [], [], []
    if tracer is None:
        probes.append(probe.run())
    start = time.perf_counter()
    while not runner.broken:
        if time.perf_counter() - start >= args.seconds and plain and (traced or tracer is None):
            break
        use_trace = tracer is not None and len(traced) < len(plain)
        seconds = runner.run(traced=use_trace)
        if seconds is not None:
            (traced if use_trace else plain).append(seconds)
            if tracer is None:
                probes.append(probe.run())

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        op_seconds=plain,
        probe_seconds=probes,
        probe_nominal_s=probe.NOMINAL_S,
        op_scaled_seconds=probe.scaled_ops(plain, probes) if tracer is None else [],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        context=run_context(args.workload, args.scale),
    )
    if tracer is not None and not runner.broken:
        result["traced_op_seconds"] = traced
        result["layers"] = layer_metrics(tracer, plain, traced)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump([vars(s) for s in tracer.spans], handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
