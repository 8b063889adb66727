"""File formats: edge lists, full-precision CSV tables, config sections.

Graphs travel as line-oriented edge lists::

    # vertices: 5
    0 1
    0 2

One undirected edge per line, 0-indexed, whitespace separated, listed
once; the header records the vertex count so isolated vertices survive a
round trip. Numeric tables are written with 17 significant digits so that
re-running an experiment reproduces byte-identical files.
"""

import numpy as np

from .errors import EdgeListFormatError
from .model import (
    DegreeCorrected,
    DirichletLatent,
    Graph,
    LogitNormalMixture,
    PointMassMixture,
    UniformBox,
)

__all__ = ["read_edge_list", "write_edge_list"]


def read_edge_list(path):
    """Parse an edge-list file into a :class:`Graph`.

    Duplicate edge lines are accepted idempotently. Self-loops, vertex
    indices outside ``[0, n)``, and malformed lines raise
    :class:`EdgeListFormatError` with the offending line number.
    """
    n = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text:
                continue
            if n is None:
                if not text.startswith("#"):
                    raise EdgeListFormatError("missing '# vertices: n' header", lineno)
                parts = text[1:].split(":")
                if len(parts) != 2 or parts[0].strip() != "vertices":
                    raise EdgeListFormatError(f"bad header {text!r}", lineno)
                try:
                    n = int(parts[1])
                except ValueError:
                    count = parts[1].strip()
                    raise EdgeListFormatError(f"vertex count {count!r} is not an integer", lineno)
                if n < 0:
                    raise EdgeListFormatError(f"vertex count must be >= 0, got {n}", lineno)
                adjacency = np.zeros((n, n), dtype=np.int8)
            elif not text.startswith("#"):
                tokens = text.split()
                if len(tokens) != 2:
                    raise EdgeListFormatError(f"expected 'u v', got {text!r}", lineno)
                try:
                    u, v = int(tokens[0]), int(tokens[1])
                except ValueError:
                    raise EdgeListFormatError(f"non-integer vertex in {text!r}", lineno)
                if u == v:
                    raise EdgeListFormatError(f"self-loop '{u} {v}' is not allowed", lineno)
                if not (0 <= u < n and 0 <= v < n):
                    raise EdgeListFormatError(f"vertex out of range in {text!r} (n={n})", lineno)
                adjacency[u, v] = 1
                adjacency[v, u] = 1
    if n is None:
        raise EdgeListFormatError("empty file, expected '# vertices: n' header", 1)
    return Graph(adjacency)


def write_edge_list(graph, path):
    """Write a graph in the edge-list format read by :func:`read_edge_list`."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# vertices: {graph.n}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def _fmt(value):
    """The one number format of every output: 17 significant digits for a float."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_table_csv(path, columns, rows, comments=()):
    """Write a CSV table with optional '#' comment lines before the header."""
    with open(path, "w", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def write_matrix_csv(matrix, path, labels=None):
    """Write a numeric matrix in full precision, optionally tagged with row labels."""
    with open(path, "w", encoding="utf-8") as handle:
        if labels is not None:
            handle.write("# labels: " + ",".join(map(str, labels)).replace("\n", "\n# ") + "\n")
        for row in np.atleast_2d(np.asarray(matrix, dtype=float)).tolist():
            handle.write(",".join(map(_fmt, row)) + "\n")


def read_matrix_csv(path):
    """Read a matrix written by :func:`write_matrix_csv`.

    Returns
    -------
    (ndarray, list[str] | None)
    """
    labels = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                if "labels:" in text:
                    labels = [t.strip() for t in text.split("labels:", 1)[1].split(",")]
                continue
            rows.append([float(t) for t in text.split(",")])
    return np.asarray(rows, dtype=float), labels


def read_labels(path):
    """One label per line; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


def read_manifest(path):
    """``(paths, labels)`` from one graph path per line, each followed by
    ``,label`` on every line or on none (then ``labels`` is None). Blank
    lines and ``#`` comments are skipped."""
    paths, labels = [], []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            entry, comma, label = text.rpartition(",")
            if labels and (labels[0] is None) == bool(comma):
                raise ValueError(f"{path}, line {lineno}: label every graph or none")
            paths.append(entry.strip() if comma else text)
            labels.append(label.strip() if comma else None)
    return paths, (labels if labels and labels[0] is not None else None)


def _parse_vector(text):
    return np.array([float(t) for t in text.replace(",", " ").split()])


def _parse_matrix(text):
    return np.array([_parse_vector(row) for row in text.split(";")])


def _check_keys(section, known, required=(), what="key"):
    """Reject a ``what`` of ``section`` outside ``known`` or a missing ``required`` one."""
    where = f" in [{section.name}]" if hasattr(section, "name") else ""
    for key in required:
        if key not in section:
            raise ValueError(f"missing {what} {key!r}{where}")
    for key in section:
        if key not in known:
            raise ValueError(f"unknown {what} {key!r}{where}")


def _parse_stack(text):
    return np.array([_parse_matrix(block) for block in text.split("|")])


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
    return build(**{key: parse(section[key]) for key, parse in parsers.items() if key in section})
