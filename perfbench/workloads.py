"""The four benchmark workloads: inputs from a seed, one operation each.

Each workload stresses different layers, so that a change to one layer
shows on one workload and is predicted to leave another unchanged:

``test_large``
    One ``two_sample_test`` of two n = m = 2000 graphs, B = 200. Dense
    ``eigh`` is most of the op and the dense adjacency plus the pooled gram
    set the peak memory: an embedding or memory change shows here.
``null_heavy``
    One ``two_sample_test`` with n = 400, m = 1200, median-heuristic
    bandwidth and B = 10000. The permutation null, the pooled gram and the
    median heuristic dominate; the embedding is small. Also covers n != m.
``power_grid``
    One ``run_power_experiment`` over two cells of 100 replicates with an
    oracle arm (200 graph tests, 200 point tests, a CSV flush per cell):
    many small calls, so per-call overhead and sampling show here.
``dissim_io``
    Read 40 edge-list files, fill the 40 x 40 dissimilarity matrix with the
    inverse multiquadric kernel, classify it by 5-fold 3-NN and write it as
    CSV. No permutation null and a non-Gaussian kernel, so a Gaussian-only
    or null-only change is predicted to leave it unchanged.

Every workload uses the two-block blockmodel ``[[.5, .2], [.2, .5]]`` with
weights ``(.4, .6)`` and, where a second class is needed, its ``+0.1``
diagonal offset. Set-up and operation call the package only through
public functions looked up on its modules at call time, so the traced run
sees the calls.
"""

import os

import rdpgtest.harness as harness
import rdpgtest.io as io
import rdpgtest.mmd as mmd
import rdpgtest.model as model
import rdpgtest.streams as streams
import rdpgtest.testing as testing

NAMES = ("test_large", "null_heavy", "power_grid", "dissim_io")

# "tiny" only serves the benchmark's own smoke test.
SIZES = {
    "full": {
        "test_large": {"n": 2000, "m": 2000, "d": 2, "sigma": 0.5, "B": 200},
        "null_heavy": {"n": 400, "m": 1200, "d": 2, "sigma": "median", "B": 10000},
        "power_grid": {"n": 150, "sweep": [0.0, 0.1], "replicates": 100, "d": 2, "sigma": 0.5, "B": 100},
        "dissim_io": {"graphs": 40, "n": 300, "epsilon": 0.1, "d": 2, "k": 3, "folds": 5},
    },
    "tiny": {
        "test_large": {"n": 60, "m": 60, "d": 2, "sigma": 0.5, "B": 20},
        "null_heavy": {"n": 20, "m": 60, "d": 2, "sigma": "median", "B": 50},
        "power_grid": {"n": 30, "sweep": [0.0, 0.1], "replicates": 3, "d": 2, "sigma": 0.5, "B": 20},
        "dissim_io": {"graphs": 10, "n": 40, "epsilon": 0.1, "d": 2, "k": 3, "folds": 5},
    },
}


def _kernel(sigma):
    return mmd.GaussianKernel(None if sigma == "median" else sigma)


def _graph(dist, n, rng):
    return model.sample_rdpg(model.sample_latent(dist, n, rng), 1.0, rng)


def setup(name, scale, seed, workdir):
    """Generate the inputs of workload ``name``; returns the op's state."""
    p = SIZES[scale][name]
    if name in ("test_large", "null_heavy"):
        f, _ = harness.two_block_pair(0.0)
        rng = streams.substream(seed, 0)
        config = testing.TestConfig(d=p["d"], kernel=_kernel(p["sigma"]), permutations=p["B"], seed=seed)
        return {"a": _graph(f, p["n"], rng), "b": _graph(f, p["m"], rng), "config": config}
    if name == "power_grid":
        config = harness.ExperimentConfig(
            pairs=[(eps, *harness.two_block_pair(eps)) for eps in p["sweep"]],
            n_grid=[p["n"]],
            replicates=p["replicates"],
            test=testing.TestConfig(d=p["d"], kernel=_kernel(p["sigma"]), permutations=p["B"], seed=seed),
            master_seed=seed,
            oracle_arm=True,
            output_path=os.path.join(workdir, "power.csv"),
        )
        return {"config": config}
    if name == "dissim_io":
        f, g = harness.two_block_pair(p["epsilon"])
        paths, labels = [], []
        for index in range(p["graphs"]):
            label = "F" if index % 2 == 0 else "G"
            graph = _graph(f if label == "F" else g, p["n"], streams.substream(seed, index))
            path = os.path.join(workdir, f"g{index:03d}.edges")
            io.write_edge_list(graph, path)
            paths.append(path)
            labels.append(label)
        return {
            "paths": paths,
            "labels": labels,
            "params": p,
            "seed": seed,
            "output": os.path.join(workdir, "dissim.csv"),
        }
    raise ValueError(f"unknown workload {name!r}")


def op(name, state):
    """Run one operation; returns the outputs the reference check compares."""
    if name in ("test_large", "null_heavy"):
        report = testing.two_sample_test(state["a"], state["b"], state["config"])
        return {"statistic": report.statistic, "p_value": report.p_value, "reject": report.reject}
    if name == "power_grid":
        table = harness.run_power_experiment(state["config"])
        return {
            "rejections": [c.rejections for c in table.cells],
            "oracle_rejections": [c.oracle_rejections for c in table.cells],
        }
    if name == "dissim_io":
        p = state["params"]
        graphs = [io.read_edge_list(path) for path in state["paths"]]
        matrix = harness.pairwise_dissimilarity(
            graphs, p["d"], mmd.InverseMultiquadricKernel(), labels=state["labels"]
        )
        knn = harness.knn_classify(matrix, state["labels"], p["k"], folds=p["folds"], seed=state["seed"])
        io.write_matrix_csv(matrix.values, state["output"], labels=state["labels"])
        count = len(graphs)
        upper = [float(matrix.values[g, h]) for g in range(count) for h in range(g + 1, count)]
        return {"dissimilarity": upper, "accuracy": knn.accuracy}
    raise ValueError(f"unknown workload {name!r}")
