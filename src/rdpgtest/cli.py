"""Command line interface.

Subcommands::

    rdpgtest test A.edges B.edges --d 2 --variant identity --seed 7
    rdpgtest embed G.edges --d 2 --output emb.csv
    rdpgtest simulate-power power.ini
    rdpgtest w-compare wcomp.ini
    rdpgtest dissim manifest.txt --d 2 --output dissim.csv
    rdpgtest classify dissim.csv --labels labels.txt --k 3

All numeric output is written in full precision; the exit code is 0 on
success and nonzero with a diagnostic on error. Each subcommand returns
its stdout text and :func:`main` writes it; when the reader has closed
stdout (``rdpgtest test ... | head -3``) the exit code is 1, with no
diagnostic.
"""

import argparse
import os
import sys

import numpy as np

from . import harness, io, mmd
from .embed import ase
from .testing import VARIANTS, two_sample_test


def _add_kernel_args(parser, sigma):
    parser.add_argument("--kernel", help="gaussian, imq or energy")
    parser.add_argument("--sigma", help=sigma)
    parser.add_argument("--c", type=float, help="inverse multiquadric offset")
    parser.add_argument("--beta", type=float, help="inverse multiquadric exponent")
    parser.add_argument("--q", type=float, help="energy kernel exponent")


def _cmd_test(args):
    config = harness.build_test_config(vars(args))
    graph_a = io.read_edge_list(args.graph_a)
    graph_b = io.read_edge_list(args.graph_b)
    report = two_sample_test(graph_a, graph_b, config)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    return report.format_kv()


def _cmd_embed(args):
    graph = io.read_edge_list(args.graph)
    embedding = ase(graph, args.d)
    io.write_matrix_csv(embedding.coordinates, args.output)
    return f"wrote {embedding.n} x {embedding.d} embedding to {args.output}"


def _cmd_simulate_power(args):
    config = harness.load_power_config(args.config)
    if args.output:
        config.output_path = args.output
    table = harness.run_power_experiment(config)
    lines = [
        f"n={cell.n} m={cell.m} sweep={cell.sweep} power={io._fmt(cell.power)} se={io._fmt(cell.se)}"
        for cell in table.cells
    ]
    if config.output_path:
        lines.append(f"wrote {config.output_path}")
    return "\n".join(lines)


def _cmd_w_compare(args):
    cfg = harness.load_wcompare_config(args.config)
    output = args.output or cfg.pop("output")
    if not output:
        raise ValueError("an output path is required (--output or 'output =' in the config)")
    cfg.pop("output", None)
    result = harness.w_comparison_experiment(**cfg)
    result.to_csv(output)
    return (
        f"median |delta| random alignment: {io._fmt(np.median(np.abs(result.delta_random)))}\n"
        f"median |delta| fixed alignment:  {io._fmt(np.median(np.abs(result.delta_fixed)))}\n"
        f"wrote {output}"
    )


def _cmd_dissim(args):
    spec = mmd.fixed_bandwidth(harness.build_test_config(vars(args)).kernel)
    paths, labels = io.read_manifest(args.manifest)
    graphs = [io.read_edge_list(p) for p in paths]
    matrix = harness.pairwise_dissimilarity(graphs, args.d, spec, floor=not args.raw, labels=labels)
    io.write_matrix_csv(matrix.values, args.output, labels=matrix.labels)
    return f"wrote {len(graphs)} x {len(graphs)} dissimilarity matrix to {args.output}"


def _cmd_classify(args):
    matrix, labels = io.read_matrix_csv(args.matrix)
    if args.labels:
        labels = io.read_labels(args.labels)
    if labels is None:
        raise ValueError("no labels: pass --labels or embed them in the matrix CSV")
    report = harness.knn_classify(matrix, labels, args.k, folds=args.folds, seed=args.seed)
    return report.format()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rdpgtest",
        description="Nonparametric two-sample hypothesis tests for random dot product graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="two-sample test between two edge-list graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--d", type=int, required=True, help="embedding dimension")
    p.add_argument("--variant", choices=VARIANTS)
    _add_kernel_args(p, "gaussian bandwidth, or 'median'")
    p.add_argument("--B", dest="b", type=int, help="permutation count")
    p.add_argument("--alpha", dest="alpha_level", metavar="ALPHA", type=float,
                   help="significance level")
    p.add_argument("--seed", type=int)
    p.add_argument("--sparsity-a", dest="sparsity_x", metavar="SPARSITY_A", type=float,
                   help="known sparsity of graph A")
    p.add_argument("--sparsity-b", dest="sparsity_y", metavar="SPARSITY_B", type=float,
                   help="known sparsity of graph B")
    p.add_argument("--eps-floor", type=float)
    p.add_argument("--no-align", dest="align_reflections", action="store_false", default=None,
                   help="skip the reflection alignment search")
    p.add_argument("--output", default=None, help="write the report as JSON")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("embed", help="spectral embedding of an edge-list graph")
    p.add_argument("graph")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("simulate-power", help="Monte Carlo power study from a config file")
    p.add_argument("config")
    p.add_argument("--output", default=None, help="override the config output path")
    p.set_defaults(func=_cmd_simulate_power)

    p = sub.add_parser("w-compare", help="alignment comparison experiment from a config file")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_w_compare)

    p = sub.add_parser("dissim", help="pairwise dissimilarity matrix for a graph manifest")
    p.add_argument("manifest", help="text file: one edge-list path per line, optionally ',label'")
    p.add_argument("--d", type=int, required=True)
    _add_kernel_args(p, "gaussian bandwidth")
    p.add_argument("--raw", action="store_true", help="keep negative statistics instead of flooring at 0")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_dissim)

    p = sub.add_parser("classify", help="k-NN classification from a dissimilarity CSV")
    p.add_argument("matrix")
    p.add_argument("--labels", default=None, help="label file, one per line")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so that the flush
        # at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
