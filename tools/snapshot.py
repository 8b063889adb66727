"""Dump a fixed grid of rdpgtest outputs from one source tree, or compare two dumps.

    python3 tools/snapshot.py TREE OUT       # import TREE/src, write OUT (JSON)
    python3 tools/snapshot.py --diff A B     # list the keys whose values differ

Run it on two checkouts, such as a parent commit and a change to it, and
diff the two dumps. A change meant to keep every result gives no
difference. The grid records:

- test calls over kernels, d, variants, alignment and n != m, graph and point,
  tests and a null with more permutations than one panel, a graph test
  and a point test whose null draws on a worker thread, and a graph test
  and a null under 384 rows whose second panel runs on it;
- graph tests pinned to one CPU and to two, at equal sizes under and
  over the helper's eigh budget and at unequal sizes with graph b over it
  and under it, with the stream's next draw;
- sampled graphs of every latent family, with the stream's next draw,
  and permutation nulls around the panel boundaries, over several blocks
  of the draw and around the row blocks of the null's quadratic form,
  with a point test of atom-valued positions over two row blocks;
- ``sbm_to_latent`` atoms on random and structured block matrices;
- embeddings, sign conventions and alignment diagnostics;
- power-study, alignment-comparison and dissimilarity outputs, the
  dissimilarity of graphs of unequal sizes pinned to one CPU and to two;
- the bytes of written files;
- stdout, stderr, exit code and files of CLI invocations;
- the input rules: edge-list reader branches, array graphs that are not
  adjacencies, sample and study sizes, replicate counts and every other
  count, extreme and median bandwidths, INI keys and values, seeds, integer
  options, matrix labels and their count, written and read, empty
  matrices written, infinite block probabilities, sparsity factors at every entry point, point
  clouds of two widths, the ``eps_floor`` bound, non-finite statistics,
  streams that are not a ``numpy.random.Generator`` (also where the
  sampler draws), non-finite latent-family parameters, an assignment to
  a field of a built ``ExperimentConfig``, a grid list changed after it
  was built, a write into a built ``Graph``, non-finite pooled rows of
  the null and a power study's pair that is not a ``(label, F, G)``
  triple of latent distributions, or not a tuple or list;
- the shape rule of an array of points at each entry point, NaN latent
  positions;
- the repr of each error raised.

The parameter-text readers are looked up in ``cli``, or in ``harness``
and ``io`` on a tree that keeps them there.

Floats are kept by ``repr`` (exact for float64) and arrays by a hash of
their bytes with shape and dtype, so equal keys mean bit-identical
results. BLAS runs on one thread, since its summation order changes with
the thread count. The grid takes a few seconds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"  # argparse wraps --help text to the terminal width

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io as _stdio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from dataclasses import replace  # noqa: E402
from itertools import product  # noqa: E402

import numpy as np  # noqa: E402


def _value(v):
    """Exact, JSON-friendly text for a result."""
    if isinstance(v, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()[:24]
        return f"array{v.shape} {v.dtype} {digest}"
    if isinstance(v, bytes):
        return v.decode("utf-8", "backslashreplace")
    return repr(v)


class Grid:
    """Ordered key -> value text; a call that raises records its error."""

    def __init__(self):
        self.out = {}

    def put(self, key, value):
        if key in self.out:
            raise KeyError(f"duplicate snapshot key {key}")
        self.out[key] = _value(value)

    def run(self, key, fn, record):
        """``record(key, result)`` on success, else the error's type and text."""
        try:
            result = fn()
        except Exception as exc:  # every error is a result to compare
            self.put(f"{key}/error", f"{type(exc).__name__}: {exc}")
            return None
        record(key, result)
        return result


@contextlib.contextmanager
def _usable_cores(count):
    """This process pinned to ``count`` of its CPUs, and restored on
    leaving: the threads it starts meanwhile inherit the pin, and a tree
    whose package picks a path by the core count reads it from the
    affinity. Where the platform cannot pin, nothing changes."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(saved)[:count]))
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _report(grid, key, r):
    for name in ("statistic", "scaled_statistic", "p_value", "reject", "n", "m", "rho",
                 "kernel", "null_values", "preprocessing"):
        grid.put(f"{key}/{name}", getattr(r, name))
    grid.put(f"{key}/kv", r.format_kv())
    grid.put(f"{key}/json", r.to_json())


def _graphs(rt):
    f, g = rt.two_block_pair(0.15)
    box, _ = rt.uniform_box_pair(0.1)
    rng = rt.substream(11)
    out = {}
    for n in (20, 25, 30, 40, 45):
        out[f"f{n}"] = rt.sample_rdpg(rt.sample_latent(f, n, rng), 1.0, rng)
        out[f"g{n}"] = rt.sample_rdpg(rt.sample_latent(g, n, rng), 1.0, rng)
        out[f"box{n}"] = rt.sample_rdpg(rt.sample_latent(box, n, rng), 1.0, rng)
    return out


def grid_tests(grid, rt, graphs):
    kernels = {
        "gauss0.5": rt.GaussianKernel(0.5),
        "gaussmed": rt.GaussianKernel(None),
        "imq": rt.InverseMultiquadricKernel(),
        "imq0.7,1.5": rt.InverseMultiquadricKernel(0.7, 1.5),
        "energy1": rt.EnergyKernel(1.0),
        "energy0.5": rt.EnergyKernel(0.5),
    }
    pairs = {"30x30": ("f30", "g30"), "25x45": ("f25", "g45"), "40x20": ("box40", "f20")}
    variants = ("identity", "scaling", "projection", "sparse")
    for (kname, kernel), variant, d, align, (size, (a, b)) in product(
        kernels.items(), variants, (1, 2, 3), (True, False), pairs.items()
    ):
        extra = {"sparsity_x": 0.8, "sparsity_y": 0.6} if variant == "sparse" else {}
        key = f"test/{kname}/{variant}/d{d}/{'align' if align else 'noalign'}/{size}"
        grid.run(key, lambda: rt.two_sample_test(
            graphs[a], graphs[b],
            rt.TestConfig(variant=variant, d=d, kernel=kernel, permutations=25, seed=3,
                          align_reflections=align, **extra),
        ), lambda k, r: _report(grid, k, r))
    # Input types, an explicit rng and a second seed.
    config = rt.TestConfig(permutations=30, seed=9)
    for kind, convert in (("int", lambda g: np.asarray(g, dtype=int)),
                          ("list", lambda g: np.asarray(g).tolist())):
        grid.run(f"test/input-{kind}", lambda: rt.two_sample_test(
            convert(graphs["f30"]), convert(graphs["g45"]), config), lambda k, r: _report(grid, k, r))
    grid.run("test/explicit-rng", lambda: rt.two_sample_test(
        graphs["f30"], graphs["f40"], config, rng=rt.substream(4, 4)), lambda k, r: _report(grid, k, r))
    # Arrays that are not adjacencies: a Graph would refuse each of them.
    rng = rt.substream(14)
    x = rt.sample_latent(rt.two_block_pair(0.0)[0], 30, rng)
    adjacency = np.asarray(rt.sample_rdpg(x, 1.0, rng))
    arrays = {"times-3": 3 * adjacency, "plus-identity": adjacency + np.eye(30, dtype=int),
              "edge-probabilities": rt.edge_prob_matrix(x)}
    for kind, array in arrays.items():
        grid.run(f"test/array-{kind}", lambda: rt.two_sample_test(array, graphs["g30"], config),
                 lambda k, r: _report(grid, k, r))
        grid.run(f"dissim/array-{kind}", lambda: rt.pairwise_dissimilarity(
            [graphs["g30"], array], 2, rt.GaussianKernel()), lambda k, dm: grid.put(k, dm.values))
    huge = rt.GaussianKernel(1e200)
    grid.run("test/gauss1e200", lambda: rt.two_sample_test(
        graphs["f30"], graphs["g30"], rt.TestConfig(kernel=huge, permutations=20)),
        lambda k, r: _report(grid, k, r))
    rng = rt.substream(12)
    f, g = rt.two_block_pair(0.1)
    x, y = rt.sample_latent(f, 30, rng), rt.sample_latent(g, 40, rng)
    for (kname, kernel), variant in product(kernels.items(), variants):
        grid.run(f"point/{kname}/{variant}", lambda: rt.two_sample_point_test(
            x, y, rt.TestConfig(variant=variant, kernel=kernel, permutations=25, seed=5,
                                sparsity_x=0.5, sparsity_y=0.5)), lambda k, r: _report(grid, k, r))
    pooled = np.vstack([x, y])
    for kname, kernel in kernels.items():
        if kernel == rt.GaussianKernel(None):
            continue
        grid.run(f"mmd/{kname}/null", lambda: rt.permutation_null(
            pooled, 30, 40, kernel, 15, rt.substream(1)), grid.put)
        grid.run(f"mmd/{kname}/u", lambda: rt.u_statistic(kernel, x, y), grid.put)
        grid.run(f"mmd/{kname}/v", lambda: rt.v_statistic(kernel, x, y), grid.put)
        grid.run(f"mmd/{kname}/gram", lambda: rt.gram(kernel, x, y), grid.put)
    # B = 2500 is nine panels of the null: eight of 256, then 452 with the remainder.
    grid.run("test/B2500/25x45", lambda: rt.two_sample_test(
        graphs["f25"], graphs["g45"], rt.TestConfig(d=3, permutations=2500, seed=6)),
        lambda k, r: _report(grid, k, r))
    # N = 600 at B = 600 is two panels whose products split, so a worker
    # thread draws the null while the graphs embed; the point test at the
    # same sizes draws on it while the kernel blocks are built.
    rng = rt.substream(13)
    split = (rt.sample_rdpg(rt.sample_latent(f, 150, rng), 1.0, rng),
             rt.sample_rdpg(rt.sample_latent(g, 450, rng), 1.0, rng))
    grid.run("test/B600/150x450", lambda: rt.two_sample_test(
        *split, rt.TestConfig(permutations=600, seed=7)), lambda k, r: _report(grid, k, r))
    # N = 300 at B = 600: graph b embeds on the helper, which then sums the
    # second of two panels over one row block.
    rng = rt.substream(24)
    pair = (rt.sample_rdpg(rt.sample_latent(f, 150, rng), 1.0, rng),
            rt.sample_rdpg(rt.sample_latent(g, 150, rng), 1.0, rng))

    def helped():
        stream = rt.substream(25)
        return rt.two_sample_test(*pair, rt.TestConfig(permutations=600), rng=stream), stream.random()

    grid.run("test/B600/150x150", helped,
             lambda k, out: (_report(grid, k, out[0]), grid.put(f"{k}/next", out[1])))
    # Graph b embeds on a helper thread when its eigh fits 2 MiB (up to 228
    # vertices): equal sizes under and over it, and unequal sizes with graph
    # b over it, and under it, smaller or larger; on one CPU and on two.
    rng = rt.substream(15)
    for n, m in ((150, 150), (240, 240), (100, 300), (300, 100), (100, 200)):
        pair = (rt.sample_rdpg(rt.sample_latent(f, n, rng), 1.0, rng),
                rt.sample_rdpg(rt.sample_latent(g, m, rng), 1.0, rng))
        for cores in (1, 2):
            def run():
                stream = rt.substream(16, n, m)
                return rt.two_sample_test(*pair, rt.TestConfig(permutations=40, seed=7),
                                          rng=stream), stream.random()

            with _usable_cores(cores):
                grid.run(f"test/cores{cores}/{n}x{m}", run,
                         lambda k, out: (_report(grid, k, out[0]), grid.put(f"{k}/next", out[1])))
    box_f, box_g = rt.uniform_box_pair(0.1)
    rng = rt.substream(14)
    clouds = rt.sample_latent(box_f, 150, rng), rt.sample_latent(box_g, 450, rng)
    grid.run("point/B600/150x450", lambda: rt.two_sample_point_test(
        *clouds, rt.TestConfig(permutations=600, seed=8)), lambda k, r: _report(grid, k, r))
    grid.run("mmd/B2500/null", lambda: rt.permutation_null(
        pooled, 30, 40, kernels["imq"], 2500, rt.substream(3)), grid.put)
    grid.run("mmd/median", lambda: rt.median_heuristic(pooled), grid.put)
    grid.run("mmd/p_value", lambda: rt.p_value(0.1, [0.0, 0.1, 0.2]), grid.put)


def grid_sampler(grid, rt):
    """Graphs of every latent family at sizes 1 to 1201 and two sparsity
    factors, with the next draw of the sampling stream."""
    families = {
        "two_block": rt.two_block_pair(0.1)[1],
        "dirichlet": rt.DirichletLatent([1.0, 2.0, 0.5]),
        "box": rt.UniformBox([0.1, 0.0], [0.6, 0.7]),
        "logit_normal": rt.LogitNormalMixture([[0.0, 0.0], [1.0, -1.0]],
                                              [np.eye(2), 0.5 * np.eye(2)], [0.5, 0.5]),
        "degree_corrected": rt.DegreeCorrected(rt.two_block_pair(0.0)[0], 0.4, 1.0),
    }
    for (name, dist), n, sparsity in product(families.items(), (1, 2, 3, 150, 1201), (1.0, 0.3)):
        def sample():
            rng = rt.substream(17, n)
            graph = rt.sample_rdpg(rt.sample_latent(dist, n, rng), sparsity, rng)
            return graph.adjacency, rng.random()
        grid.run(f"sample/{name}/n{n}/s{sparsity}", sample,
                 lambda key, out: (grid.put(f"{key}/adjacency", out[0]), grid.put(f"{key}/next", out[1])))


def grid_null(grid, rt):
    """Permutation nulls around the panel boundaries, for a pool under and
    over 64 rows, and, with the stream's next draw, one whose draw takes
    five blocks of rounds (240 rounds each at 50 rows) and one of 300 rows
    whose second panel runs on the helper."""
    for (n, m), b in product(((7, 13), (30, 40), (150, 250)),
                             (255, 256, 511, 512, 1023, 1024, 2047, 2049, 10000)):
        pooled = rt.substream(18, n).random((n + m, 2)) / np.sqrt(2.0)
        grid.run(f"null/{n}x{m}/B{b}", lambda: rt.permutation_null(
            pooled, n, m, rt.GaussianKernel(0.5), b, rt.substream(19, b)), grid.put)

    def drawn(n, m, b):
        rng = rt.substream(19, n + m)
        pooled = rt.substream(18, n + m).random((n + m, 2)) / np.sqrt(2.0)
        return rt.permutation_null(pooled, n, m, rt.GaussianKernel(0.5), b, rng), rng.random()

    for n, m, b in ((20, 30, 1000), (100, 200, 600)):
        grid.run(f"null/{n}x{m}/B{b}", lambda: drawn(n, m, b),
                 lambda key, out: (grid.put(key, out[0]), grid.put(f"{key}/next", out[1])))
    # Pools of 383 rows (one row block of the quadratic form), 384 (two of
    # 192), 576 (three) and 1600 (seven, then 256 rows), each two panels.
    for n, m in ((100, 283), (100, 284), (176, 400), (400, 1200)):
        pooled = rt.substream(20, n, m).random((n + m, 2)) / np.sqrt(2.0)
        grid.run(f"null/{n}x{m}/B600", lambda: rt.permutation_null(
            pooled, n, m, rt.GaussianKernel(0.5), 600, rt.substream(21, n, m)), grid.put)
    # Atom-valued positions over two row blocks: many permutations tie.
    f, g = rt.two_block_pair(0.1)
    rng = rt.substream(22)
    atoms = rt.sample_latent(f, 200, rng), rt.sample_latent(g, 200, rng)
    grid.run("point/atoms/200x200", lambda: rt.two_sample_point_test(
        *atoms, rt.TestConfig(permutations=600, seed=23)), lambda k, r: _report(grid, k, r))


def grid_sbm(grid, rt):
    structured = {
        "two-block": [[0.5, 0.2], [0.2, 0.5]],
        "rank1": [[0.3, 0.3], [0.3, 0.3]],
        "zero": [[0.0, 0.0], [0.0, 0.0]],
        "identity3": np.eye(3).tolist(),
        "repeated": [[0.5, 0.1, 0.1], [0.1, 0.5, 0.1], [0.1, 0.1, 0.5]],
        "ones": [[1.0, 1.0], [1.0, 1.0]],
        "scalar": [[0.4]],
        "not-psd": [[0.1, 0.5], [0.5, 0.1]],
        "asymmetric": [[0.5, 0.2], [0.3, 0.5]],
        "out-of-range": [[1.5, 0.2], [0.2, 0.5]],
        "asymmetric-out-of-range": [[1.5, 0.2], [0.3, 0.5]],
        "not-square": [[0.5, 0.2, 0.1]],
    }
    for name, b in structured.items():
        k = len(b)
        grid.run(f"sbm/{name}", lambda: rt.sbm_to_latent(b, np.full(k, 1.0 / k)),
                 lambda key, d: grid.put(key, (d.atoms.tolist(), d.weights.tolist())))
    grid.run("sbm/bad-weights", lambda: rt.sbm_to_latent([[0.5, 0.2], [0.2, 0.5]], [1.0]), grid.put)
    rng = np.random.default_rng(2024)
    for case in range(300):
        k = 1 + case % 6
        r = 1 + (case // 6) % k
        v = rng.random((k, r))
        if case % 10 == 9:
            v[:, 0] *= -1.0  # same B, different sign pattern of the factor
        b = v @ v.T
        b = b / b.max() * (0.2 + 0.8 * rng.random())
        b = (b + b.T) / 2
        grid.run(f"sbm/random{case}", lambda: rt.sbm_to_latent(b, np.full(k, 1.0 / k)),
                 lambda key, d: grid.put(key, (d.atoms.tolist(), d.weights.tolist())))


def grid_embed(grid, rt, graphs):
    for name, d in product(("f20", "g45", "box30"), (1, 2, 3, 4)):
        grid.run(f"embed/{name}/d{d}", lambda: rt.ase(graphs[name], d),
                 lambda key, e: (grid.put(f"{key}/x", e.coordinates),
                                 grid.put(f"{key}/values", e.eigenvalues)))
    special = {
        "complete5": np.ones((5, 5)) - np.eye(5),
        "empty4": np.zeros((4, 4)),
        "two-triangles": np.kron(np.eye(2), np.ones((3, 3)) - np.eye(3)),
        "path4": np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1),
        "negative": -np.eye(3),
        "asymmetric": np.triu(np.ones((3, 3))),
    }
    for name, d in product(special, (1, 2, 3)):
        grid.run(f"embed/{name}/d{d}", lambda: rt.ase(special[name], d),
                 lambda key, e: (grid.put(f"{key}/x", e.coordinates),
                                 grid.put(f"{key}/values", e.eigenvalues)))
    grid.run("embed/d0", lambda: rt.ase(special["path4"], 0), grid.put)
    columns = {
        "mixed": [[1.0, -2.0, 0.0], [-3.0, 1.0, 0.0], [1.0, 0.5, 0.0]],
        "zero-sum": [[1.0, -1.0], [-1.0, 1.0], [0.5, -0.5]],
        "tiny-sum": [[1e-13, 2.0], [-3e-13, -1.0]],
        "row": [[-1.0, 2.0, -3.0]],
    }
    for name, u in columns.items():
        grid.run(f"fix_signs/{name}", lambda: rt.fix_signs(np.array(u)), grid.put)
    rng = rt.substream(13)
    x = rng.random((30, 3))
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    grid.run("embed/second_moment_rotation", lambda: rt.second_moment_rotation(x), grid.put)
    grid.run("embed/procrustes", lambda: rt.procrustes_align(x @ rot + 1e-3, x),
             lambda key, a: grid.put(key, (a.rotation, a.frobenius_error, a.two_to_infinity_error)))
    grid.run("embed/two_to_infinity", lambda: rt.two_to_infinity(x), grid.put)


def _file(path):
    with open(path, "rb") as handle:
        return handle.read()


def _reader(name, old_home):
    """The parameter-text reader ``name``: from ``cli`` where the tree has it
    there, else from ``old_home``, the module that held it before."""
    cli = sys.modules["rdpgtest.cli"]
    return getattr(cli, name, None) or getattr(sys.modules[f"rdpgtest.{old_home}"], name)


def grid_harness(grid, rt, graphs, workdir):
    f2, g2 = rt.two_block_pair(0.2)
    configs = {
        "two-block": rt.ExperimentConfig(
            pairs=[(eps, *rt.two_block_pair(eps)) for eps in (0.0, 0.2)], n_grid=[20, 25],
            m_grid=[20, 35], replicates=3, master_seed=8, oracle_arm=True,
            test=rt.TestConfig(permutations=20, seed=8)),
        "box-scaling": rt.ExperimentConfig(
            pairs=[(eps, *rt.uniform_box_pair(eps)) for eps in (0.0, 0.3)], n_grid=[25],
            replicates=2, master_seed=2, sparsity=0.7,
            test=rt.TestConfig(variant="scaling", kernel=rt.InverseMultiquadricKernel(),
                               permutations=20, seed=2)),
        "sparse": rt.ExperimentConfig(
            pairs=[("s", f2, g2)], n_grid=[30], replicates=2, master_seed=4, sparsity=0.5,
            test=rt.TestConfig(variant="sparse", sparsity_x=0.5, sparsity_y=0.5,
                               permutations=20, seed=4)),
    }
    for name, config in configs.items():
        config = replace(config, output_path=os.path.join(workdir, f"power-{name}.csv"))
        grid.run(f"power/{name}", lambda: rt.run_power_experiment(config),
                 lambda key, t: (grid.put(key, [vars(c) for c in t.cells]),
                                 grid.put(f"{key}/csv", _file(config.output_path))))
    for name, (f, g, spec, m) in {
        "two-block": (*rt.two_block_pair(0.0), rt.GaussianKernel(0.5), 25),
        "box": (*rt.uniform_box_pair(0.1), rt.EnergyKernel(), None),
    }.items():
        grid.run(f"wcompare/{name}", lambda: rt.w_comparison_experiment(
            f, g, 20, 2, spec, 3, 6, m=m, surrogate_size=2000),
            lambda key, w: (grid.put(f"{key}/random", w.delta_random),
                            grid.put(f"{key}/fixed", w.delta_fixed),
                            grid.put(f"{key}/w", w.w_fixed),
                            w.to_csv(os.path.join(workdir, "w.csv")),
                            grid.put(f"{key}/csv", _file(os.path.join(workdir, "w.csv")))))
    collection = [graphs[k] for k in ("f20", "f25", "f30", "g20", "g25", "g30")]
    labels = ["f", "f", "f", "g", "g", "g"]
    for (kname, spec), floor in product(
        {"gauss": rt.GaussianKernel(0.5), "imq": rt.InverseMultiquadricKernel(0.5, 1.0),
         "energy": rt.EnergyKernel(1.5)}.items(), (True, False)
    ):
        key = f"dissim/{kname}/{'floor' if floor else 'raw'}"
        m = grid.run(key, lambda: rt.pairwise_dissimilarity(collection, 2, spec, floor=floor,
                                                              labels=labels),
                     lambda k, dm: grid.put(k, (dm.values, dm.labels)))
        for k, folds in ((1, 2), (3, 3)):
            grid.run(f"{key}/knn{k},{folds}", lambda: rt.knn_classify(m, labels, k, folds=folds),
                     lambda kk, rep: grid.put(kk, rep.format()))
    # Unequal sizes on one CPU and on two: a helper thread sums the cross
    # blocks while the graphs embed. The two must agree.
    unequal = [graphs[k] for k in ("f20", "g45", "box30", "f40", "g25", "box45", "f30", "g40")]
    unequal_labels = ["f", "g", "box", "f", "g", "box", "f", "g"]
    for cores, (kname, spec) in product((1, 2), {
        "gauss": rt.GaussianKernel(0.5), "imq": rt.InverseMultiquadricKernel(0.7, 1.5),
        "energy": rt.EnergyKernel(0.5)}.items()
    ):
        key = f"dissim/unequal/cores{cores}/{kname}"
        with _usable_cores(cores):
            m = grid.run(key, lambda: rt.pairwise_dissimilarity(unequal, 2, spec, floor=False),
                         lambda k, dm: grid.put(k, dm.values))
        grid.run(f"{key}/knn1,2", lambda: rt.knn_classify(m, unequal_labels, 1, folds=2),
                 lambda kk, rep: grid.put(kk, rep.format()))
    grid.run("dissim/median", lambda: rt.pairwise_dissimilarity(collection, 2, rt.GaussianKernel(None)),
             grid.put)
    grid.run("wcompare/median", lambda: rt.w_comparison_experiment(
        *rt.two_block_pair(0.0), 20, 2, rt.GaussianKernel(None), 2, 6), grid.put)
    grid.run("dissim/one-graph", lambda: rt.pairwise_dissimilarity(collection[:1], 2, rt.GaussianKernel()),
             grid.put)
    grid.run("dissim/too-small", lambda: rt.pairwise_dissimilarity(
        [graphs["f20"], np.zeros((1, 1))], 2, rt.GaussianKernel()), grid.put)
    grid.run("knn/too-large-k", lambda: rt.knn_classify(np.zeros((4, 4)), "aabb", 3, folds=2), grid.put)
    grid.run("dissim/d-float", lambda: rt.pairwise_dissimilarity(collection, 2.0, rt.GaussianKernel()),
             grid.put)
    for params in ({}, {"kernel": "imq", "c": "2"}, {"sigma": "median", "b": 50, "d": "3"},
                   {"kernel": "energy", "sigma": "1"}, {"variant": "nope"}, {"kernel": "x"}):
        grid.run(f"build_test_config/{sorted(params.items())}",
                 lambda: _reader("build_test_config", "harness")(params),
                 lambda k, c: grid.put(k, repr(c)))


def grid_io(grid, rt, graphs, workdir):
    io = sys.modules["rdpgtest.io"]
    path = os.path.join(workdir, "out")
    writers = {
        "edges/f20": lambda: rt.write_edge_list(graphs["f20"], path),
        "edges/empty": lambda: rt.write_edge_list(rt.Graph(np.zeros((0, 0), dtype=int)), path),
        "edges/isolated": lambda: rt.write_edge_list(rt.Graph(np.array(
            [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])), path),
        "matrix/plain": lambda: io.write_matrix_csv(np.arange(6.0).reshape(2, 3) / 7, path),
        "matrix/labels": lambda: io.write_matrix_csv(np.eye(2), path, labels=["a", "b"]),
        "matrix/special": lambda: io.write_matrix_csv(
            [[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 0.1]], path, labels=[1, "x y"]),
        "matrix/vector": lambda: io.write_matrix_csv([1.0, 2.5], path),
        "matrix/int": lambda: io.write_matrix_csv(np.array([[1, 2], [3, 4]]), path),
        "matrix/label-comma": lambda: io.write_matrix_csv(np.eye(2), path, labels=["a,b", "c"]),
        "matrix/label-newline": lambda: io.write_matrix_csv(np.eye(2), path, labels=["a\nb", "c"]),
        "matrix/label-space": lambda: io.write_matrix_csv(np.eye(2), path, labels=[" a", "c"]),
        "matrix/label-count": lambda: io.write_matrix_csv(np.eye(3), path, labels=["a", "b"]),
        "matrix/no-rows-labelled": lambda: io.write_matrix_csv(np.zeros((0, 2)), path, labels=[]),
        "matrix/no-rows": lambda: io.write_matrix_csv(np.zeros((0, 2)), path),
        "matrix/no-columns": lambda: io.write_matrix_csv(np.zeros((2, 0)), path),
        "table": lambda: io.write_table_csv(path, ("a", "b", "c", "d"),
                                            [[1, 0.1, True, "x"], [np.int64(2), np.float64(1e-7),
                                                                   np.bool_(False), None]],
                                            comments=["c=1", "k"]),
    }
    for key, write in writers.items():
        grid.run(f"io/{key}", write, lambda k, _: grid.put(k, _file(path)))
        if os.path.exists(path):
            grid.run(f"io/{key}/read-matrix", lambda: io.read_matrix_csv(path), grid.put)
            os.remove(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# labels: a,b\n1,0,0\n0,1,0\n0,0,1\n")
    grid.run("io/read-matrix/label-count", lambda: io.read_matrix_csv(path), grid.put)
    os.remove(path)
    bad = {"no-header": "0 1\n", "bad-count": "# vertices: x\n", "loop": "# vertices: 2\n1 1\n",
           "range": "# vertices: 2\n0 2\n", "tokens": "# vertices: 2\n0 1 2\n", "empty": "",
           "ok": "# vertices: 3\n\n0 1\n# note\n1 0\n",
           "blank-before-header": "\n \n# vertices: 3\n0 2\n", "other-key": "# nodes: 3\n0 1\n",
           "two-colons": "# vertices: 2: 3\n", "negative-count": "# vertices: -2\n",
           "edges-blank-and-comment": "# vertices: 4\n0 1\n\n# c\n  \n2 3\n",
           "vertex-not-integer": "# vertices: 3\n0 1\n1 y\n",
           "two-bad-lines": "# vertices: 3\n0 1\n\n2 2\n0 9\n",
           "header-after-edge": "0 1\n# vertices: 3\n",
           # Bodies that int() and NumPy's loadtxt read differently.
           "underscore": "# vertices: 12\n1_0 2\n", "full-width": "# vertices: 3\n\uff11 \uff12\n",
           "arabic-indic": "# vertices: 3\n\u0661 \u0662\n", "plus": "# vertices: 3\n+1 2\n",
           "leading-zero": "# vertices: 3\n01 2\n", "negative": "# vertices: 3\n0 1\n-1 2\n",
           "int64-overflow": "# vertices: 3\n0 9223372036854775808\n",
           "trailing-comment": "# vertices: 3\n0 1 # x\n", "one-token": "# vertices: 3\n0 1\n2\n",
           "form-feed-inside": "# vertices: 3\n0 1\f2 0\n", "edgeless": "# vertices: 3\n\n \n",
           "crlf": "# vertices: 3\r\n0 1\r\n2 1\r\n", "odd-separators": "# vertices: 4\n0\xa01\n2\x0b3\n",
           "above-u+ffff": "# vertices: 3\n0 1\n1\U00020000 2\n"}
    for name, text in bad.items():
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        grid.run(f"io/read/{name}", lambda: rt.read_edge_list(path), lambda k, g: grid.put(k, g.adjacency))
    # One graph as perfbench's dissim_io set-up writes it: n = 300, seed 0, index 0.
    rng = rt.substream(0, 0)
    graph = rt.sample_rdpg(rt.sample_latent(rt.two_block_pair(0.1)[0], 300, rng), 1.0, rng)
    grid.run("io/edges/dissim_io-g000", lambda: rt.write_edge_list(graph, path),
             lambda k, _: grid.put(k, hashlib.sha256(_file(path)).hexdigest()))
    grid.run("io/read/dissim_io-g000", lambda: rt.read_edge_list(path), lambda k, g: grid.put(k, g.adjacency))
    # Names of 1 to 4 digits: edges at vertices 9/10, 99/100 and 999/1000 of n = 1001.
    widths = np.zeros((1001, 1001), dtype=int)
    for u, v in ((0, 9), (9, 10), (10, 99), (99, 100), (100, 999), (999, 1000), (0, 1000)):
        widths[u, v] = widths[v, u] = 1
    grid.run("io/edges/digit-widths", lambda: rt.write_edge_list(rt.Graph(widths), path),
             lambda k, _: grid.put(k, _file(path)))
    grid.run("io/read/digit-widths", lambda: rt.read_edge_list(path), lambda k, g: grid.put(k, g.adjacency))
    dists = {
        "pmm": {"kind": "point_mass_mixture", "atoms": "0.5 0.2 ; 0.1 0.6", "weights": "0.3 0.7"},
        "dirichlet": {"kind": "dirichlet", "concentration": "1, 2 3"},
        "box": {"kind": "uniform_box", "lower": "0 0", "upper": "0.5 0.5"},
        "logit": {"kind": "logit_normal_mixture", "means": "0 0 ; 4 4",
                  "covs": "1 0 ; 0 1 | 1 0 ; 0 1", "weights": "0.4 0.6", "scale": "0.5"},
        "dc": {"kind": "degree_corrected", "atoms": "0.7 0 ; 0 0.7", "weights": "0.5 0.5",
               "theta_low": "0.3", "theta_high": "0.9"},
        "mystery": {"kind": "mystery"},
    }
    for name, section in dists.items():
        grid.run(f"io/dist/{name}", lambda: _reader("parse_distribution", "io")(section),
                 lambda k, dist: grid.put(k, dist.sample(3, rt.substream(1))))


FILES = {
    "power.ini": """[experiment]
family = two_block
sweep = 0 0.2
n = 20 24
m = 20 30
replicates = 2
seed = 7
output = power.csv

[test]
d = 2
sigma = median
B = 20
""",
    "box.ini": """[experiment]
family = uniform_box
sweep = 0 0.3
n = 24
replicates = 2
seed = 3
dim = 2
sparsity = 0.8

[test]
variant = scaling
kernel = imq
c = 0.8
beta = 1
B = 20
align_reflections = false
""",
    "custom.ini": """[experiment]
family = custom
n = 20
replicates = 2
seed = 5
oracle_arm = yes
output = custom.csv

[test]
kernel = energy
q = 1.5
B = 20

[F]
kind = point_mass_mixture
atoms = 0.7 0.1 ; 0.1 0.7
weights = 0.45 0.55

[G]
kind = degree_corrected
atoms = 0.7 0.1 ; 0.1 0.7
weights = 0.5 0.5
theta_low = 0.6
""",
    "w.ini": """[experiment]
family = two_block
epsilon = 0.1
n = 20
m = 24
replicates = 3
seed = 4
surrogate_size = 1000
output = w.csv

[test]
sigma = 0.5
""",
    "wcustom.ini": """[experiment]
family = custom
n = 20
replicates = 2
seed = 4

[test]
kernel = imq

[F]
kind = uniform_box
lower = 0.1 0.1
upper = 0.6 0.6

[G]
kind = dirichlet
concentration = 1 1
""",
    "badkey.ini": "[experiment]\nfamily = two_block\nn = 20\nalpha = 1\n",
    "labels.txt": "f\nf\nf\ng\ng\ng\n",
    "bad.edges": "# vertices: 3\n0 3\n",
    "wmedian.ini": "[experiment]\nfamily = two_block\nn = 20\n\n[test]\nsigma = median\n",
    "wnon.ini": "[experiment]\nfamily = two_block\nreplicates = 2\noutput = wnon.csv\n",
    "pnon.ini": "[experiment]\nfamily = two_block\nsweep = 0\nreplicates = 2\n",
    "missing.txt": "m0.edges\nnot-there.edges\n",
    "sparse0.ini": "[experiment]\nfamily = two_block\nn = 20\nreplicates = 2\nsparsity = 0\n",
    "seedneg.ini": "[experiment]\nfamily = two_block\nn = 20\nreplicates = 2\nseed = -3\n",
    "sizes.ini": "[experiment]\nfamily = two_block\nn = 20 1\nreplicates = 2\noutput = sizes.csv\n"
                 "\n[test]\nB = 10\n",
    "replicates.ini": "[experiment]\nfamily = two_block\nn = 20\nreplicates = many\n",
    "sweep.ini": "[experiment]\nfamily = two_block\nn = 20\nsweep = 0 a\n",
    "testd.ini": "[experiment]\nfamily = two_block\nn = 20\n\n[test]\nd = two\n",
    "weights.ini": "[experiment]\nn = 20\n\n[F]\nkind = point_mass_mixture\natoms = 0.5\n"
                   "weights = 0.4 x\n\n[G]\nkind = dirichlet\nconcentration = 1 1\n",
    "wn.ini": "[experiment]\nfamily = two_block\nn = 20 30\noutput = wn.csv\n",
    # [test] keys that w-compare does not read.
    "wkeys.ini": "[experiment]\nfamily = two_block\nn = 20\nreplicates = 2\noutput = wkeys.csv\n"
                 "\n[test]\nvariant = projection\nB = 7\nalpha_level = 0.3\n"
                 "align_reflections = false\n",
}

INVOCATIONS = [
    "test a.edges b.edges --d 2",
    "test a.edges c.edges --d 2 --variant scaling --kernel imq --c 0.5 --beta 1 --B 50 "
    "--alpha 0.1 --seed 3 --output report.json",
    "test a.edges c.edges --d 2 --sigma median --no-align",
    "test a.edges b.edges --d 1 --variant projection --kernel energy --q 1.5",
    "test a.edges b.edges --d 2 --variant sparse --sparsity-a 0.5 --sparsity-b 0.7 --eps-floor 1e-8",
    "test a.edges b.edges --d 2 --variant sparse",
    "test a.edges b.edges --d 50",
    "test a.edges missing.edges --d 2",
    "test a.edges b.edges --d 2 --kernel energy --sigma 0.3",
    "test a.edges b.edges --d 2 --sigma -1",
    "test bad.edges b.edges --d 2",
    "test a.edges b.edges",
    "embed a.edges --d 2 --output emb.csv",
    "embed c.edges --d 3 --output emb3.csv",
    "dissim manifest.txt --d 2 --output d.csv",
    "dissim manifest.txt --d 2 --kernel imq --raw --output d2.csv",
    "dissim manifest.txt --d 2 --kernel energy --q 0.5 --output d3.csv",
    "classify d.csv --k 1 --folds 2",
    "classify d2.csv --labels labels.txt --k 1 --folds 3 --seed 4",
    "simulate-power power.ini",
    "simulate-power box.ini --output box.csv",
    "simulate-power custom.ini",
    "simulate-power badkey.ini",
    "w-compare w.ini",
    "w-compare wcustom.ini --output wc.csv",
    "w-compare wcustom.ini",
    "--help",
    "test --help",
    "test a.edges b.edges --d 2 --sigma 1e200",
    "dissim missing.txt --d 2 --sigma median --output dm.csv",
    "dissim manifest.txt --d 2 --sigma median --output dm2.csv",
    "w-compare wmedian.ini --output wm.csv",
    "w-compare wnon.ini",
    "simulate-power pnon.ini",
    "test a.edges b.edges --d 2 --variant sparse --sparsity-a 0",
    "simulate-power sparse0.ini",
    "dissim --help",
    "test a.edges b.edges --d 2 --seed -1",
    "simulate-power seedneg.ini",
    "simulate-power sizes.ini",
    "simulate-power replicates.ini",
    "simulate-power sweep.ini",
    "simulate-power testd.ini",
    "simulate-power weights.ini",
    "w-compare wn.ini",
    "test a.edges b.edges --d 2 --sigma wide",
    "classify d.csv --k 1 --folds 2 --seed -1",
    "w-compare wkeys.ini",
    "test a.edges b.edges --d 2 --eps-floor nan",
]


def grid_cli(grid, rt, graphs, workdir):
    cli = sys.modules["rdpgtest.cli"]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in FILES.items():
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(text)
        for name, graph in (("a", "f30"), ("b", "g30"), ("c", "f45")):
            rt.write_edge_list(graphs[graph], f"{name}.edges")
        manifest = []
        for index, key in enumerate(("f20", "f25", "f30", "g20", "g25", "g30")):
            rt.write_edge_list(graphs[key], f"m{index}.edges")
            manifest.append(f"m{index}.edges,{key[0]}")
        with open("manifest.txt", "w", encoding="utf-8") as handle:
            handle.write("\n".join(manifest) + "\n")
        before = set(os.listdir("."))
        for index, line in enumerate(INVOCATIONS):
            out, err = _stdio.StringIO(), _stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(line.split())
                except SystemExit as exc:
                    code = exc.code
            key = f"cli/{index:02d} {line}"
            grid.put(f"{key}/code", code)
            grid.put(f"{key}/stdout", out.getvalue())
            grid.put(f"{key}/stderr", err.getvalue())
        for name in sorted(set(os.listdir(".")) - before):
            grid.put(f"cli/file/{name}", _file(name))
    finally:
        os.chdir(cwd)


def grid_points(grid, rt, workdir):
    """The point rule at each entry point, for a 0-D and a 3-D array, with
    whether a file or a draw followed; NaN latent positions; a grid list
    changed after its study was built; and a write into a built graph."""
    io = sys.modules["rdpgtest.io"]
    kernel, pool = rt.GaussianKernel(0.5), np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]])
    path = os.path.join(workdir, "points.csv")
    entries = {
        "gram-a": lambda x, rng: rt.gram(kernel, x, pool),
        "gram-b": lambda x, rng: rt.gram(kernel, pool, x),
        "u_statistic-x": lambda x, rng: rt.u_statistic(kernel, x, pool),
        "u_statistic-y": lambda x, rng: rt.u_statistic(kernel, pool, x),
        "v_statistic-x": lambda x, rng: rt.v_statistic(kernel, x, pool),
        "v_statistic-y": lambda x, rng: rt.v_statistic(kernel, pool, x),
        "median_heuristic": lambda x, rng: rt.median_heuristic(x),
        "edge_prob_matrix": lambda x, rng: rt.edge_prob_matrix(x),
        "sample_rdpg": lambda x, rng: rt.sample_rdpg(x, 1.0, rng),
        "check_moment_assumption": lambda x, rng: rt.check_moment_assumption(x),
        "PointMassMixture": lambda x, rng: rt.PointMassMixture(x, [1.0]),
        "LogitNormalMixture": lambda x, rng: rt.LogitNormalMixture(x, np.eye(2), [1.0]),
        "fix_signs": lambda x, rng: rt.fix_signs(x),
        "procrustes_align-xhat": lambda x, rng: rt.procrustes_align(x, pool[:1]),
        "procrustes_align-x": lambda x, rng: rt.procrustes_align(pool[:1], x),
        "two_to_infinity": lambda x, rng: rt.two_to_infinity(x),
        "second_moment_rotation": lambda x, rng: rt.second_moment_rotation(x),
        "preprocess": lambda x, rng: rt.preprocess(x, "projection"),
        "permutation_null": lambda x, rng: rt.permutation_null(x, 2, 2, kernel, 5, rng),
        "write_matrix_csv": lambda x, rng: io.write_matrix_csv(x, path),
    }
    for (name, call), (shape, x) in product(entries.items(), (("0d", np.float64(0.5)),
                                                              ("3d", np.ones((3, 2, 2))))):
        key, rng = f"points/{name}/{shape}", rt.substream(18)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # without the rule a 3-D array reaches numpy
            grid.run(key, lambda: call(x, rng), lambda k, r: grid.put(k, type(r).__name__))
        grid.put(f"{key}/after", (os.path.exists(path), rng.random()))
        if os.path.exists(path):
            os.remove(path)
    nan = [[0.5, 0.5], [np.nan, 0.2], [0.3, 0.3]]
    grid.run("points/nan/sample_rdpg", lambda: rt.sample_rdpg(nan, 1.0, rt.substream(19)),
             lambda k, g: grid.put(k, (g.n, g.edge_count)))
    grid.run("points/nan/moment", lambda: rt.check_moment_assumption(nan),
             lambda k, m: grid.put(k, (m.gap, m.flagged)))

    def mutated_grid():
        n_grid = [10]
        config = rt.ExperimentConfig(pairs=[(0.0, *rt.two_block_pair(0.0))], n_grid=n_grid,
                                     m_grid=[10], replicates=1,
                                     test=rt.TestConfig(permutations=5), master_seed=0)
        n_grid.append(20)
        table = rt.run_power_experiment(config)
        return len(table.cells), table.metadata["n_grid"]
    grid.run("points/mutated-grid", mutated_grid, grid.put)

    def written_graph():
        graph = rt.Graph(np.zeros((3, 3), dtype=int))
        graph.adjacency[2, 2] = 1
        graph.adjacency[1, 2] = 1
        rt.write_edge_list(graph, path)
        return _file(path)
    grid.run("points/graph-write", written_graph, grid.put)


def grid_errors(grid, rt):
    path = np.eye(4, k=1, dtype=int) + np.eye(4, k=-1, dtype=int)
    good = ("x", *rt.two_block_pair(0.0))
    cases = {
        "config/variant": lambda: rt.TestConfig(variant="x"),
        "config/permutations": lambda: rt.TestConfig(permutations=0),
        "config/alpha": lambda: rt.TestConfig(alpha_level=1.0),
        "config/d": lambda: rt.TestConfig(d=0),
        "config/eps": lambda: rt.TestConfig(eps_floor=-1.0),
        "config/sparse": lambda: rt.TestConfig(variant="sparse", sparsity_x=0.5),
        "config/seed": lambda: rt.TestConfig(seed=-1),
        "config/seed-float": lambda: rt.TestConfig(seed=1.5),
        "config/d-float": lambda: rt.TestConfig(d=2.0),
        "config/permutations-float": lambda: rt.TestConfig(permutations=2.5),
        "streams/seed": lambda: rt.substream(-1),
        "kernel/sigma0": lambda: rt.GaussianKernel(0.0),
        "kernel/sigma-inf": lambda: rt.GaussianKernel(np.inf),
        "kernel/imq-c": lambda: rt.InverseMultiquadricKernel(c=-1.0),
        "kernel/imq-beta": lambda: rt.InverseMultiquadricKernel(beta=np.nan),
        "kernel/energy": lambda: rt.EnergyKernel(2.0),
        "kernel/unresolved": lambda: rt.gram(rt.GaussianKernel(None), [[0.0]], [[1.0]]),
        "kernel/dims": lambda: rt.gram(rt.GaussianKernel(), [[0.0]], [[1.0, 2.0]]),
        "u/small": lambda: rt.u_statistic(rt.GaussianKernel(), [[0.0]], [[1.0], [2.0]]),
        "median/same": lambda: rt.median_heuristic([[1.0], [1.0]]),
        "preprocess/zero": lambda: rt.preprocess(np.zeros((3, 2)), "scaling"),
        "preprocess/degenerate": lambda: rt.preprocess(np.zeros((3, 2)), "projection"),
        "preprocess/unknown": lambda: rt.preprocess(np.ones((3, 2)), "x"),
        "point/one-row": lambda: rt.two_sample_point_test([[0.5, 0.1]], [[0.1, 0.5], [0.2, 0.2]],
                                                          rt.TestConfig()),
        "point/nan": lambda: rt.two_sample_point_test([[np.nan, 0.1], [0.2, 0.2]],
                                                      [[0.1, 0.5], [0.2, 0.2]], rt.TestConfig()),
        "null/sizes": lambda: rt.permutation_null(np.ones((4, 1)), 2, 3, rt.GaussianKernel(), 5,
                                                  rt.substream(0)),
        "p_value/empty": lambda: rt.p_value(0.0, []),
        "p_value/nan": lambda: rt.p_value(float("nan"), [1.0, 2.0]),
        "graph/asym": lambda: rt.Graph(np.triu(np.ones((3, 3), dtype=int), 1)),
        "graph/loop": lambda: rt.Graph(np.eye(2, dtype=int)),
        "graph/values": lambda: rt.Graph(2 * (np.ones((2, 2), dtype=int) - np.eye(2, dtype=int))),
        "latent/weights": lambda: rt.PointMassMixture([[0.5]], [0.5]),
        "latent/atoms": lambda: rt.PointMassMixture([[1.5]], [1.0]),
        "latent/box": lambda: rt.UniformBox([0.5, 0.5], [0.9, 0.9]),
        "latent/dc": lambda: rt.DegreeCorrected(rt.PointMassMixture([[0.5]], [1.0]), 0.0),
        "model/edge-prob": lambda: rt.edge_prob_matrix([[2.0]]),
        "model/rng": lambda: rt.sample_rdpg([[0.5], [0.5]]),
        "model/n": lambda: rt.sample_latent(rt.UniformBox([0.0], [0.5]), 0, rt.substream(0)),
        "moment/n": lambda: rt.check_moment_assumption(np.ones((1, 2))),
        "experiment/replicates": lambda: rt.ExperimentConfig(
            pairs=[good], n_grid=[10], replicates=0, test=rt.TestConfig(),
            master_seed=0),
        "experiment/replicates-float": lambda: rt.ExperimentConfig(
            pairs=[good], n_grid=[10], replicates=2.5, test=rt.TestConfig(),
            master_seed=0),
        "experiment/n-float": lambda: rt.ExperimentConfig(
            pairs=[good], n_grid=[10.5], replicates=1, test=rt.TestConfig(),
            master_seed=0),
        "wcompare/replicates": lambda: rt.w_comparison_experiment(
            *rt.two_block_pair(0.0), 20, 2, rt.GaussianKernel(), 0, 0),
        "experiment/seed": lambda: rt.ExperimentConfig(
            pairs=[good], n_grid=[10], replicates=1, test=rt.TestConfig(),
            master_seed=-1),
        "experiment/sizes": lambda: rt.ExperimentConfig(
            pairs=[good], n_grid=[10, 1], replicates=1, test=rt.TestConfig(),
            master_seed=0),
        "experiment/m-sizes": lambda: rt.ExperimentConfig(
            pairs=[good], n_grid=[10], m_grid=[1], replicates=1,
            test=rt.TestConfig(d=1), master_seed=0),
        "experiment/assign": lambda: setattr(rt.ExperimentConfig(
            pairs=[good], n_grid=[10], replicates=1, test=rt.TestConfig(),
            master_seed=0), "replicates", 0),
        "wcompare/sizes": lambda: rt.w_comparison_experiment(
            *rt.two_block_pair(0.0), 20, 2, rt.GaussianKernel(), 1, 0, m=1),
        "sparsity/preprocess": lambda: rt.preprocess(np.ones((3, 2)), "sparse", sparsity=0),
        "sparsity/experiment": lambda: rt.ExperimentConfig(
            pairs=[good], n_grid=[10], replicates=1, test=rt.TestConfig(),
            master_seed=0, sparsity=0),
        "sparsity/edge-prob": lambda: rt.edge_prob_matrix([[0.5]], 1.5),
        "median/u": lambda: rt.u_statistic(rt.GaussianKernel(None), [[0.0], [1.0]], [[0.5], [2.0]]),
        "u/non-finite": lambda: rt.u_statistic(rt.EnergyKernel(), [[1e200, -1e200], [-1e200, 1e200]],
                                               [[1e200, 1e200], [-1e200, -1e200]]),
        "v/non-finite": lambda: rt.v_statistic(rt.EnergyKernel(), [[1e200, -1e200], [-1e200, 1e200]],
                                               [[1e200, 1e200], [-1e200, -1e200]]),
        "v/empty": lambda: rt.v_statistic(rt.GaussianKernel(), np.zeros((0, 1)), [[1.0]]),
        "config/eps-nan": lambda: rt.TestConfig(eps_floor=np.nan),
        "point/widths": lambda: rt.two_sample_point_test(
            rt.substream(15).random((5, 2)), rt.substream(16).random((5, 3)), rt.TestConfig()),
        "embed/d-float": lambda: rt.ase(np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1), 2.0),
        "wcompare/d-float": lambda: rt.w_comparison_experiment(
            *rt.two_block_pair(0.0), 20, 2.0, rt.GaussianKernel(), 1, 0),
        "knn/k-float": lambda: rt.knn_classify(np.zeros((4, 4)), "aabb", 2.5, folds=2),
        "knn/folds-float": lambda: rt.knn_classify(np.zeros((4, 4)), "aabb", 1, folds=2.5),
        "null/n-float": lambda: rt.permutation_null(np.ones((5, 1)), 2.5, 2.5, rt.GaussianKernel(), 5,
                                                    rt.substream(0)),
        "rng/null-None": lambda: rt.permutation_null(np.eye(4), 2, 2, rt.GaussianKernel(), 5, None),
        "rng/test-int": lambda: rt.two_sample_test(path, path, rt.TestConfig(), rng=5),
        "rng/point-RandomState": lambda: rt.two_sample_point_test(
            np.eye(4), np.eye(4), rt.TestConfig(), rng=np.random.RandomState(0)),
    }
    # Non-finite parameters of each latent family, built and then sampled.
    nan, inf, eye = np.nan, np.inf, np.eye(2)
    for name, build in {
        "atom-nan": lambda: rt.PointMassMixture([[nan, 0.1]], [1.0]),
        "weight-nan": lambda: rt.PointMassMixture([[0.1, 0.1], [0.2, 0.2]], [nan, 1.0]),
        "lower-nan": lambda: rt.UniformBox([nan, 0.0], [0.5, 0.5]),
        "upper-nan": lambda: rt.UniformBox([0.0, 0.0], [0.5, nan]),
        "concentration-nan": lambda: rt.DirichletLatent([nan, 1.0]),
        "concentration-inf": lambda: rt.DirichletLatent([inf, 1.0]),
        "mean-nan": lambda: rt.LogitNormalMixture([[nan, 0.0]], eye, [1.0]),
        "cov-nan": lambda: rt.LogitNormalMixture([[0.0, 0.0]], [[nan, 0.0], [0.0, 1.0]], [1.0]),
        "scale-nan": lambda: rt.LogitNormalMixture([[0.0, 0.0]], eye, [1.0], scale=nan),
        "scale-inf": lambda: rt.LogitNormalMixture([[0.0, 0.0]], eye, [1.0], scale=inf),
    }.items():
        cases[f"latent/{name}"] = lambda build=build: rt.sample_latent(build(), 3, rt.substream(0))
    cases["latent/sbm-nan"] = lambda: rt.sbm_to_latent([[nan, 0.2], [0.2, 0.5]], [0.5, 0.5])
    # Non-finite pooled rows of the null alone, under warnings as errors
    # (an infinite row warned of an invalid subtraction).
    for name, entry in (("nan", nan), ("inf", inf), ("-inf", -inf)):
        def null(entry=entry):
            pooled = rt.substream(24).random((10, 2)) / np.sqrt(2.0)
            pooled[3, 1] = entry
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return rt.permutation_null(pooled, 5, 5, rt.GaussianKernel(0.5), 5,
                                           rt.substream(25))
        cases[f"null/pooled-{name}"] = null
    # A malformed second pair of a power study, after a good first one.
    _, f, g = good
    for name, pair in (("two-items", (0.0, f)), ("g-str", (0.0, f, "G")),
                       ("four-items", (0.0, f, g, 1)), ("int", 5), ("None", None), ("str", "abc")):
        cases[f"experiment/pair-{name}"] = lambda pair=pair: rt.ExperimentConfig(
            pairs=[good, pair], n_grid=[10], replicates=1,
            test=rt.TestConfig(permutations=5), master_seed=0)
    for name, b in (("diagonal", [[inf, 0.2], [0.2, 0.5]]), ("off-diagonal", [[0.5, inf], [inf, 0.5]])):
        def refused(b=b):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # inf - inf in a symmetry check warns
                return rt.sbm_to_latent(b, [0.5, 0.5])
        cases[f"latent/sbm-inf-{name}"] = refused
    for name, rng in (("None", None), ("RandomState", np.random.RandomState(0))):
        cases[f"rng/latent-{name}"] = lambda rng=rng: rt.sample_latent(
            rt.UniformBox([0.0], [0.5]), 3, rng)
        cases[f"rng/rdpg-{name}"] = lambda rng=rng: rt.sample_rdpg([[0.5], [0.5]], 1.0, rng)
    logit = rt.LogitNormalMixture([[0.0, 0.0], [4.0, 4.0]], [np.eye(2), np.eye(2)], [0.4, 0.6])
    for value in (2.5, 0):
        cases[f"wcompare/surrogate_size-{value}"] = lambda value=value: rt.w_comparison_experiment(
            logit, logit, 20, 2, rt.GaussianKernel(), 1, 0, surrogate_size=value)
    for field, value in product(("sparsity_x", "sparsity_y"), (None, 0, 1.5)):
        cases[f"sparsity/config-{field}-{value}"] = lambda field=field, value=value: rt.TestConfig(
            variant="sparse", **{"sparsity_x": 0.5, "sparsity_y": 0.5, field: value})
    for key, call in cases.items():
        grid.run(f"error/{key}", call, grid.put)


def snapshot(tree):
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import rdpgtest as rt
    import rdpgtest.cli  # noqa: F401  (looked up through sys.modules)

    if not os.path.abspath(rt.__file__).startswith(os.path.abspath(tree)):
        raise SystemExit(f"imported rdpgtest from {rt.__file__}, not from {tree}")
    grid = Grid()
    graphs = _graphs(rt)
    with tempfile.TemporaryDirectory() as workdir:
        grid_tests(grid, rt, graphs)
        grid_sampler(grid, rt)
        grid_null(grid, rt)
        grid_sbm(grid, rt)
        grid_embed(grid, rt, graphs)
        grid_harness(grid, rt, graphs, workdir)
        cwd = os.getcwd()
        os.chdir(workdir)  # error texts that name a file then name the same path each run
        try:
            grid_io(grid, rt, graphs, ".")
        finally:
            os.chdir(cwd)
        grid_cli(grid, rt, graphs, workdir)
        grid_points(grid, rt, workdir)
    grid_errors(grid, rt)
    return grid.out


def diff(a, b):
    """Keys whose values differ, or that only one dump has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        with open(argv[1], encoding="utf-8") as fa, open(argv[2], encoding="utf-8") as fb:
            a, b = json.load(fa), json.load(fb)
        keys = diff(a, b)
        for key in keys:
            print(f"{key}\n  A: {a.get(key, '<absent>')[:300]}\n  B: {b.get(key, '<absent>')[:300]}")
        print(f"{len(keys)} of {len(a.keys() | b.keys())} keys differ")
        return 1 if keys else 0
    if len(argv) == 2 and not argv[0].startswith("-"):
        out = snapshot(argv[0])
        with open(argv[1], "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=0, sort_keys=True)
        errors = sum(key.endswith("/error") for key in out)
        print(f"wrote {len(out)} keys ({errors} errors) to {argv[1]}")
        return 0
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
