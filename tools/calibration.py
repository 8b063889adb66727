"""Estimate the size of the graph test over a grid of null cells, or compare two dumps.

    python3 tools/calibration.py TREE OUT      # import TREE/src, run the grid, write OUT (JSON)
    python3 tools/calibration.py --diff A B    # print two dumps' sizes side by side

Each cell draws R = 200 replicate pairs of graphs from one latent
distribution pair at epsilon = 0, where the null hypothesis of the
cell's variant holds, and counts the rejections at alpha = 0.05 with
B = 100 permutations and d = 2. Two arms share the replicate graphs:

- ``graph``: the package's test, through ``run_power_experiment``;
- ``oracle``: each embedding Procrustes-aligned to its own true latent
  positions (``procrustes_align``), then ``two_sample_point_test``. It
  needs the truth, so it is a reference, not a method: it removes the
  frame nuisance between the two embeddings and keeps their noise.

A level test rejects about 5% of the time; each size is printed with its
binomial standard error. The seeds are fixed, like those of
``tools/snapshot.py``, so a tree gives the same dump each run, and BLAS
runs on one thread. The n = m = 200 cells take a few seconds each; the
(400, 1200) cells take minutes.
"""

import json
import os
import sys
import time

SEED = 9100
REPLICATES = 200
PERMUTATIONS = 100

# name -> (variant, n, m, latent pair, sigma); sigma None is the median bandwidth.
CELLS = {
    "identity/200x200/sigma0.3": ("identity", 200, 200, "two_block", 0.3),
    "identity/200x200/median": ("identity", 200, 200, "two_block", None),
    "identity/200x200/sigma0.5": ("identity", 200, 200, "two_block", 0.5),
    "projection/200x200/sigma0.5": ("projection", 200, 200, "two_block", 0.5),
    "projection/200x200/sigma0.3": ("projection", 200, 200, "two_block", 0.3),
    "scaling-box/200x200/sigma0.5": ("scaling", 200, 200, "uniform_box", 0.5),
    "scaling-box/200x200/sigma0.3": ("scaling", 200, 200, "uniform_box", 0.3),
    "scaling-box/200x200/median": ("scaling", 200, 200, "uniform_box", None),
    "identity/400x1200/median": ("identity", 400, 1200, "two_block", None),
    "identity/400x1200/sigma0.5": ("identity", 400, 1200, "two_block", 0.5),
    "identity/100x800/median": ("identity", 100, 800, "two_block", None),
    "identity/100x800/sigma0.3": ("identity", 100, 800, "two_block", 0.3),
    "identity/100x800/sigma0.5": ("identity", 100, 800, "two_block", 0.5),
}


def _rate(rejections, replicates):
    p = rejections / replicates
    return {"rejections": rejections, "size": p, "se": (p * (1.0 - p) / replicates) ** 0.5}


def oracle_rejections(rt, f, g, n, m, config, replicates, seed):
    """Rejections of the oracle arm on the replicates of ``run_power_experiment``
    at grid cell 0, drawn from ``substream(seed, 0, r)``."""
    rejections = 0
    for r in range(replicates):
        rng = rt.substream(seed, 0, r)
        x, y, graph_a, graph_b = rt.harness._replicate(f, g, n, m, 1.0, rng)
        aligned = []
        for graph, truth in ((graph_a, x), (graph_b, y)):
            xhat = rt.ase(graph, config.d).coordinates
            aligned.append(xhat @ rt.procrustes_align(xhat, truth).rotation)
        rejections += int(rt.two_sample_point_test(*aligned, config, rng=rng).reject)
    return rejections


def run_cell(rt, cell, replicates=REPLICATES, permutations=PERMUTATIONS, seed=SEED):
    """Both arms' rejection counts, sizes and standard errors for one cell."""
    variant, n, m, family, sigma = cell
    f, g = (rt.two_block_pair if family == "two_block" else rt.uniform_box_pair)(0.0)
    config = rt.TestConfig(variant=variant, d=2, kernel=rt.GaussianKernel(sigma),
                           permutations=permutations, alpha_level=0.05, seed=seed)
    table = rt.run_power_experiment(rt.ExperimentConfig(
        pairs=[(0.0, f, g)], n_grid=[n], m_grid=[m], replicates=replicates, test=config,
        master_seed=seed))
    return {"graph": _rate(table.cells[0].rejections, replicates),
            "oracle": _rate(oracle_rejections(rt, f, g, n, m, config, replicates, seed),
                            replicates)}


def _text(arm):
    return f"{arm['size']:.3f} ± {arm['se']:.3f}"


def calibrate(tree):
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import rdpgtest as rt

    if not os.path.abspath(rt.__file__).startswith(os.path.abspath(tree)):
        raise SystemExit(f"imported rdpgtest from {rt.__file__}, not from {tree}")
    out = {}
    print(f"{'cell':<30}{'graph':>16}{'oracle':>16}{'s':>8}")
    for name, cell in CELLS.items():
        start = time.perf_counter()
        out[name] = run_cell(rt, cell)
        print(f"{name:<30}{_text(out[name]['graph']):>16}{_text(out[name]['oracle']):>16}"
              f"{time.perf_counter() - start:>8.1f}", flush=True)
    return out


def diff(a, b):
    """One line per cell and arm of both dumps: the size in A, in B, and B - A
    with the standard error of that difference."""
    lines = [f"{'cell':<30}{'arm':<8}{'A':>16}{'B':>16}{'B - A':>18}"]
    for name in sorted(a.keys() & b.keys()):
        for arm in ("graph", "oracle"):
            x, y = a[name][arm], b[name][arm]
            change = f"{y['size'] - x['size']:+.3f} ± {(x['se'] ** 2 + y['se'] ** 2) ** 0.5:.3f}"
            lines.append(f"{name:<30}{arm:<8}{_text(x):>16}{_text(y):>16}{change:>18}")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        with open(argv[1], encoding="utf-8") as fa, open(argv[2], encoding="utf-8") as fb:
            print("\n".join(diff(json.load(fa), json.load(fb))))
        return 0
    if len(argv) == 2 and not argv[0].startswith("-"):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"  # before numpy loads: the bits depend on the thread count
        out = calibrate(argv[0])
        with open(argv[1], "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
        print(f"wrote {len(out)} cells to {argv[1]}")
        return 0
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
