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

This module reads all parameter text, from flags and INI files: the test
and kernel keys, the latent distribution sections ``[F]`` and ``[G]``, and
the power-study and alignment-comparison files.
"""

import argparse
import configparser
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness, io, mmd
from .embed import ase
from .model import DegreeCorrected, DirichletLatent, LogitNormalMixture, PointMassMixture, UniformBox
from .testing import VARIANTS, TestConfig, two_sample_test


def _parse_vector(text):
    return np.array([float(t) for t in text.replace(",", " ").split()])


def _parse_matrix(text):
    return np.array([_parse_vector(row) for row in text.split(";")])


def _parse_stack(text):
    return np.array([_parse_matrix(block) for block in text.split("|")])


def _where(section):
    return f" in [{section.name}]" if hasattr(section, "name") else ""


def _check_keys(section, known, required=(), what="key"):
    """Reject a ``what`` of ``section`` outside ``known`` or a missing ``required`` one."""
    where = _where(section)
    for key in required:
        if key not in section:
            raise ValueError(f"missing {what} {key!r}{where}")
    for key in section:
        if key not in known:
            raise ValueError(f"unknown {what} {key!r}{where}")


def _converted(section, converters):
    """``{key: convert(section[key])}`` for each key of ``converters`` given and not None;
    a value that does not convert is refused with its key (and section)."""
    out = {}
    for key, convert in converters.items():
        if section.get(key) is not None:
            try:
                out[key] = convert(section[key])
            except ValueError as exc:
                raise ValueError(f"bad value for key {key!r}{_where(section)}: {exc}") from None
    return out


def _boolean(value):
    text = str(value).strip().lower()
    if text not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"expected true/false, yes/no, on/off or 1/0, got {value!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text]


KERNEL_KEYS = ("kernel", "sigma", "c", "beta", "q")

_KERNELS = {
    mmd.GaussianKernel.name: (mmd.GaussianKernel, {"sigma": "sigma"}),
    "imq": (mmd.InverseMultiquadricKernel, {"c": "c", "beta": "beta"}),
    mmd.InverseMultiquadricKernel.name: (mmd.InverseMultiquadricKernel, {"c": "c", "beta": "beta"}),
    mmd.EnergyKernel.name: (mmd.EnergyKernel, {"q": "exponent"}),
}


def kernel_from_params(params):
    """Kernel named by ``params["kernel"]``, gaussian if absent: ``gaussian``
    (``sigma``: a number or ``median``), ``imq`` or ``inverse_multiquadric``
    (``c``, ``beta``) or ``energy`` (``q``), from a mapping of numbers or
    strings. Absent or None keys keep the kernel's defaults; None if all are.
    A parameter of another kernel is an error."""
    given = {key: str(params[key]).strip() for key in KERNEL_KEYS if params.get(key) is not None}
    if not given:
        return None
    name = given.pop("kernel", mmd.GaussianKernel.name)
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}")
    kernel, fields = _KERNELS[name]
    for key in given:
        if key not in fields:
            raise ValueError(f"the {name} kernel does not take {key!r}")
    if given.get("sigma") == "median":
        return mmd.GaussianKernel(None)
    values = _converted(params, dict.fromkeys(given, float))
    return kernel(**{fields[key]: value for key, value in values.items()})


def _degree_corrected(atoms, weights, **theta):
    return DegreeCorrected(PointMassMixture(atoms, weights), **theta)


# Per distribution kind: its constructor and the parser of each key it reads.
_KINDS = {
    "point_mass_mixture": (PointMassMixture, {"atoms": _parse_matrix, "weights": _parse_vector}),
    "dirichlet": (DirichletLatent, {"concentration": _parse_vector}),
    "uniform_box": (UniformBox, {"lower": _parse_vector, "upper": _parse_vector}),
    "logit_normal_mixture": (
        LogitNormalMixture,
        {"means": _parse_matrix, "covs": _parse_stack, "weights": _parse_vector, "scale": float},
    ),
    "degree_corrected": (
        _degree_corrected,
        {"atoms": _parse_matrix, "weights": _parse_vector, "theta_low": float, "theta_high": float},
    ),
}
_OPTIONAL = ("scale", "theta_low", "theta_high")  # their constructors have defaults


def parse_distribution(section):
    """Build a latent distribution from a key-value config section.

    ``section`` is any mapping of strings (for example a ``configparser``
    section). The key ``kind`` selects the variant; vectors are whitespace
    or comma separated, matrix rows are separated by ``;`` and stacked
    matrices by ``|``::

        kind = point_mass_mixture
        atoms = 0.59 0.39 ; 0.59 -0.39
        weights = 0.4 0.6

    A key that ``kind`` does not read is an error, and so is a missing one.
    """
    kind = section.get("kind", "").strip()
    if kind not in _KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    build, parsers = _KINDS[kind]
    _check_keys(section, {"kind", *parsers}, [key for key in parsers if key not in _OPTIONAL])
    return build(**_converted(section, parsers))


_TEST_KEYS = dict(
    variant=str, d=int, permutations=int, b=int, alpha_level=float, seed=int,
    sparsity_x=float, sparsity_y=float, eps_floor=float, align_reflections=_boolean,
)


def build_test_config(params):
    """:class:`TestConfig` from a mapping keyed like the INI ``[test]``
    section (``b`` wins over ``permutations``; the kernel keys are those of
    :func:`kernel_from_params`), with values given as strings or numbers.
    Absent or None keys keep the defaults; others are ignored."""
    return _test_config(_converted(params, _TEST_KEYS), params)


def _test_config(fields, kernel_params):
    """:class:`TestConfig` from converted ``fields`` and the kernel keys of ``kernel_params``."""
    if "b" in fields:
        fields["permutations"] = fields.pop("b")
    kernel = kernel_from_params(kernel_params)
    if kernel is not None:
        fields["kernel"] = kernel
    return TestConfig(**fields)


_FAMILIES = {
    "two_block": (harness.two_block_pair, {"base": float, "cross": float, "weights": _parse_vector}),
    "uniform_box": (harness.uniform_box_pair, {"f_upper": float, "g_upper": float, "dim": int}),
    "custom": (None, {}),
}


def _family(experiment):
    """Pair function (None for ``custom``) and parameter keys of the family."""
    family = experiment.get("family", "custom").strip()
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {tuple(_FAMILIES)}, got {family!r}")
    return _FAMILIES[family]


def _numbers(convert):
    """Converter of a whitespace-separated list of ``convert`` values."""
    return lambda text: [convert(t) for t in text.split()]


def _read_experiment(path, sweep, keys, test_keys):
    """Converted ``[experiment]`` values, seeded test configuration and ``pairs(values)``
    of a file: the ``(label, F, G)`` triples of the family at each swept value.
    ``[experiment]`` holds ``n`` and may hold ``family``, ``seed``, ``replicates``,
    ``output``, the family's keys and ``keys``, a map from each loader key (``n``, ``m``
    and the ``sweep`` key among them) to its converter; the ``custom`` family (one fixed
    pair) takes no ``sweep`` key. Its ``sparsity`` fills in ``[test]`` sparsities left
    out. ``[test]`` holds the kernel keys and ``test_keys``, the loader's keys of
    ``_TEST_KEYS``. ``[F]`` and ``[G]`` are required for ``custom`` and unknown otherwise."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(path)
    experiment = parser["experiment"] if parser.has_section("experiment") else {}
    pair, family_keys = _family(experiment)
    needed = ("experiment",) + (("F", "G") if pair is None else ())
    _check_keys(parser.sections(), {"test", *needed}, needed, what="section")
    own = {"seed": int, "replicates": int, "output": str.strip, **keys}
    unswept = {sweep} if pair is None else set()
    _check_keys(experiment, {"family", *own, *family_keys} - unswept, ("n",))
    test = parser["test"] if parser.has_section("test") else {}
    _check_keys(test, {*test_keys, *KERNEL_KEYS})
    values = _converted(experiment, own)
    fields = {f"sparsity_{s}": values["sparsity"] for s in "xy" if "sparsity" in values}
    fields.update(_converted(test, _TEST_KEYS))
    if "seed" in values:
        fields["seed"] = values["seed"]

    def pairs(sweep_values):
        if pair is None:
            return [("custom", *map(parse_distribution, (parser["F"], parser["G"])))]
        family_params = _converted(experiment, family_keys)
        return [(eps, *pair(eps, **family_params)) for eps in sweep_values]

    return values, _test_config(fields, test), pairs


def load_power_config(path):
    """Read a power-study configuration file (INI format, see README)."""
    keys = {"n": _numbers(int), "m": _numbers(int), "sweep": _numbers(float),
            "oracle_arm": _boolean, "sparsity": float}
    values, test_cfg, pairs = _read_experiment(path, "sweep", keys, _TEST_KEYS.keys() - {"seed"})
    return harness.ExperimentConfig(
        pairs=pairs(values.get("sweep", [0.0])),
        n_grid=values["n"],
        m_grid=values.get("m") or None,
        replicates=values.get("replicates", 100),
        test=test_cfg,
        master_seed=test_cfg.seed,
        output_path=values.get("output") or None,
        **{key: values[key] for key in ("oracle_arm", "sparsity") if key in values},
    )


def load_wcompare_config(path):
    """Read an alignment-comparison configuration file (INI format)."""
    keys = {"n": int, "m": int, "epsilon": float, "surrogate_size": int}
    values, test_cfg, pairs = _read_experiment(path, "epsilon", keys, {"d"})
    _, f, g = pairs([values.get("epsilon", 0.0)])[0]
    return {
        "f_dist": f,
        "g_dist": g,
        "n": values["n"],
        "m": values.get("m", values["n"]),
        "d": test_cfg.d,
        "spec": mmd.fixed_bandwidth(test_cfg.kernel),
        "replicates": values.get("replicates", 100),
        "master_seed": test_cfg.seed,
        "output": values.get("output") or None,
        **{key: values[key] for key in ("surrogate_size",) if key in values},
    }


def _add_kernel_args(parser, sigma):
    parser.add_argument("--kernel", help="gaussian, imq or energy")
    parser.add_argument("--sigma", help=sigma)
    parser.add_argument("--c", type=float, help="inverse multiquadric offset")
    parser.add_argument("--beta", type=float, help="inverse multiquadric exponent")
    parser.add_argument("--q", type=float, help="energy kernel exponent")


def _cmd_test(args):
    config = build_test_config(vars(args))
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
    n, d = embedding.coordinates.shape
    return f"wrote {n} x {d} embedding to {args.output}"


def _cmd_simulate_power(args):
    config = load_power_config(args.config)
    if args.output:
        config = replace(config, output_path=args.output)
    table = harness.run_power_experiment(config)
    lines = [
        f"n={cell.n} m={cell.m} sweep={cell.sweep} power={io._fmt(cell.power)} se={io._fmt(cell.se)}"
        for cell in table.cells
    ]
    if config.output_path:
        lines.append(f"wrote {config.output_path}")
    return "\n".join(lines)


def _cmd_w_compare(args):
    cfg = load_wcompare_config(args.config)
    configured = cfg.pop("output")
    output = args.output or configured
    if not output:
        raise ValueError("an output path is required (--output or 'output =' in the config)")
    result = harness.w_comparison_experiment(**cfg)
    result.to_csv(output)
    return (
        f"median |delta| random alignment: {io._fmt(np.median(np.abs(result.delta_random)))}\n"
        f"median |delta| fixed alignment:  {io._fmt(np.median(np.abs(result.delta_fixed)))}\n"
        f"wrote {output}"
    )


def _cmd_dissim(args):
    spec = mmd.fixed_bandwidth(build_test_config(vars(args)).kernel)
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
