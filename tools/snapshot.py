"""Dump a fixed grid of rdpgtest outputs from one source tree, or compare two dumps.

    python3 tools/snapshot.py TREE OUT       # import TREE/src, write OUT (JSON)
    python3 tools/snapshot.py --diff A B     # list the keys whose values differ

Run it on two checkouts, such as a parent commit and a change to it, and
diff the two dumps. A change meant to keep every result gives no
difference. The grid records:

- test calls over kernels, d, variants, alignment and n != m, graph and point;
- ``sbm_to_latent`` atoms on random and structured block matrices;
- embeddings, sign conventions and alignment diagnostics;
- power-study, alignment-comparison and dissimilarity outputs;
- the bytes of written files;
- stdout, stderr, exit code and files of CLI invocations;
- the input rules: edge-list reader branches, array graphs that are not
  adjacencies, sample sizes, extreme and median bandwidths, INI keys,
  sparsity factors at every entry point and non-finite statistics;
- the repr of each error raised.

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
        grid.run(f"mmd/{kname}/eval", lambda: rt.kernel_eval(kernel, x[0], y[1]), grid.put)
        grid.run(f"mmd/{kname}/oracle", lambda: rt.mmd_population_oracle(kernel, f, g, 10), grid.put)
        box, cube = rt.uniform_box_pair(0.2)
        grid.run(f"mmd/{kname}/oracle-mc", lambda: rt.mmd_population_oracle(
            kernel, box, cube, 200, rng=rt.substream(2)), grid.put)
    grid.run("mmd/median", lambda: rt.median_heuristic(pooled), grid.put)
    grid.run("mmd/p_value", lambda: rt.p_value(0.1, [0.0, 0.1, 0.2]), grid.put)


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


def grid_harness(grid, rt, graphs, workdir):
    harness = sys.modules["rdpgtest.harness"]
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
        config.output_path = os.path.join(workdir, f"power-{name}.csv")
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
    grid.run("dissim/median", lambda: rt.pairwise_dissimilarity(collection, 2, rt.GaussianKernel(None)),
             grid.put)
    grid.run("wcompare/median", lambda: rt.w_comparison_experiment(
        *rt.two_block_pair(0.0), 20, 2, rt.GaussianKernel(None), 2, 6), grid.put)
    grid.run("dissim/one-graph", lambda: rt.pairwise_dissimilarity(collection[:1], 2, rt.GaussianKernel()),
             grid.put)
    grid.run("dissim/too-small", lambda: rt.pairwise_dissimilarity(
        [graphs["f20"], np.zeros((1, 1))], 2, rt.GaussianKernel()), grid.put)
    grid.run("knn/too-large-k", lambda: rt.knn_classify(np.zeros((4, 4)), "aabb", 3, folds=2), grid.put)
    for params in ({}, {"kernel": "imq", "c": "2"}, {"sigma": "median", "b": 50, "d": "3"},
                   {"kernel": "energy", "sigma": "1"}, {"variant": "nope"}, {"kernel": "x"}):
        grid.run(f"build_test_config/{sorted(params.items())}",
                 lambda: harness.build_test_config(params), lambda k, c: grid.put(k, repr(c)))


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
    bad = {"no-header": "0 1\n", "bad-count": "# vertices: x\n", "loop": "# vertices: 2\n1 1\n",
           "range": "# vertices: 2\n0 2\n", "tokens": "# vertices: 2\n0 1 2\n", "empty": "",
           "ok": "# vertices: 3\n\n0 1\n# note\n1 0\n",
           "blank-before-header": "\n \n# vertices: 3\n0 2\n", "other-key": "# nodes: 3\n0 1\n",
           "two-colons": "# vertices: 2: 3\n", "negative-count": "# vertices: -2\n",
           "edges-blank-and-comment": "# vertices: 4\n0 1\n\n# c\n  \n2 3\n",
           "vertex-not-integer": "# vertices: 3\n0 1\n1 y\n",
           "two-bad-lines": "# vertices: 3\n0 1\n\n2 2\n0 9\n",
           "header-after-edge": "0 1\n# vertices: 3\n"}
    for name, text in bad.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        grid.run(f"io/read/{name}", lambda: rt.read_edge_list(path), lambda k, g: grid.put(k, g.edges()))
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
        grid.run(f"io/dist/{name}", lambda: io.parse_distribution(section),
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


def grid_errors(grid, rt):
    cases = {
        "config/variant": lambda: rt.TestConfig(variant="x"),
        "config/permutations": lambda: rt.TestConfig(permutations=0),
        "config/alpha": lambda: rt.TestConfig(alpha_level=1.0),
        "config/d": lambda: rt.TestConfig(d=0),
        "config/eps": lambda: rt.TestConfig(eps_floor=-1.0),
        "config/sparse": lambda: rt.TestConfig(variant="sparse", sparsity_x=0.5),
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
            pairs=[("x", None, None)], n_grid=[10], replicates=0, test=rt.TestConfig(),
            master_seed=0),
        "sparsity/preprocess": lambda: rt.preprocess(np.ones((3, 2)), "sparse", sparsity=0),
        "sparsity/experiment": lambda: rt.ExperimentConfig(
            pairs=[("x", None, None)], n_grid=[10], replicates=1, test=rt.TestConfig(),
            master_seed=0, sparsity=0),
        "sparsity/edge-prob": lambda: rt.edge_prob_matrix([[0.5]], 1.5),
        "median/u": lambda: rt.u_statistic(rt.GaussianKernel(None), [[0.0], [1.0]], [[0.5], [2.0]]),
        "u/non-finite": lambda: rt.u_statistic(rt.EnergyKernel(), [[1e200, -1e200], [-1e200, 1e200]],
                                               [[1e200, 1e200], [-1e200, -1e200]]),
    }
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
        grid_sbm(grid, rt)
        grid_embed(grid, rt, graphs)
        grid_harness(grid, rt, graphs, workdir)
        grid_io(grid, rt, graphs, workdir)
        grid_cli(grid, rt, graphs, workdir)
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
