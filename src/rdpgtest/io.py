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

import warnings

import numpy as np

from .errors import EdgeListFormatError
from .model import (
    DegreeCorrected,
    DirichletLatent,
    Graph,
    LogitNormalMixture,
    PointMassMixture,
    UniformBox,
    as_graph,
)
from .streams import as_points

__all__ = ["read_edge_list", "write_edge_list"]


def read_edge_list(path):
    """Parse an edge-list file into a :class:`Graph`.

    Duplicate edge lines are accepted idempotently. Self-loops, vertex
    indices outside ``[0, n)``, and malformed lines raise
    :class:`EdgeListFormatError` with the offending line number. The edge
    lines are read in one vectorized pass; a body it refuses goes to the line loop.
    """
    return _read_edge_lines(path, fast=True) or _read_edge_lines(path, fast=False)


def _read_edge_lines(path, fast):
    """The line loop, or with ``fast`` the header loop and :func:`_scatter_edges`."""
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
                if fast:
                    return _scatter_edges(handle.read(), adjacency)
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


def _scatter_edges(body, adjacency):
    """The :class:`Graph` of the edge lines ``body``, or None for a body that is not ASCII,
    no edges, a line not two int64 tokens, a vertex outside ``[0, n)`` or a self-loop."""
    if not body.isascii():  # NumPy 2.4's loadtxt has crashed on characters above U+FFFF
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no edges warns; so does '1.0' read as 1 by NumPy < 2
            edges = np.loadtxt(body.split("\n"), dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, Warning):
        return None
    u, v = edges[:, 0], edges[:, -1]  # a negative vertex is refused: the scatter would wrap it
    if edges.shape[1] != 2 or edges.min() < 0 or edges.max() >= len(adjacency) or (u == v).any():
        return None
    adjacency[u, v] = 1
    adjacency[v, u] = 1
    return Graph(adjacency)


# Adjacency entries in one block of rows of write_edge_list (one row if longer).
_BLOCK_ENTRIES = 1 << 16


def _names(n, end):
    """The names ``0 … n-1``, each followed by ``end``, as fixed-width void
    records; zero bytes pad a shorter name on the left."""
    width = len(str(max(n - 1, 0)))
    powers = 10 ** np.arange(width - 1, -1, -1)
    index = np.arange(n)[:, None]
    table = np.empty((n, width + 1), np.uint8)
    table[:, :-1] = index // powers % 10 + ord("0")
    table[:, :-1][(index < powers) & (powers > 1)] = 0  # leading zeros, but 0 keeps its digit
    table[:, -1] = ord(end)
    return table.view(f"V{width + 1}").ravel()


def write_edge_list(graph, path):
    """Write a graph, or an adjacency array checked as a :class:`Graph` before
    the file is opened, in the edge-list format read by :func:`read_edge_list`.

    The edges go in whole-array passes over blocks of rows: the indices
    right of the diagonal are looked up in a byte table of the names
    ``0 … n-1``, the ``u v`` lines are laid out in one zero-padded byte
    array, and one compress drops the padding. Beyond the name tables the
    working memory is bounded by a block of 2**16 adjacency entries (one
    row if longer). The bytes are those of one ``"{} {}\\n".format`` per
    edge, with ``\\n`` line ends on every platform.
    """
    graph = as_graph(graph)
    n = graph.n
    heads, tails = _names(n, " "), _names(n, "\n")
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    with open(path, "wb") as handle:
        handle.write(f"# vertices: {n}\n".encode())
        for start in range(0, n, rows):
            handle.write(_edge_lines(graph.adjacency[start:start + rows], start, heads, tails))


def _edge_lines(block, start, heads, tails):
    """The bytes of the ``u v`` lines of the rows ``block``, the first of
    them row ``start``, right of the diagonal; its scratch dies with the call."""
    u, v = np.nonzero(np.triu(block, start + 1))
    lines = np.empty((len(u), 2), heads.dtype)
    lines[:, 0] = heads[u + start]
    lines[:, 1] = tails[v]
    text = lines.view(np.uint8).ravel()
    return text[text != 0]


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


_LABELS = "# labels:"


def write_matrix_csv(matrix, path, labels=None):
    """Write a numeric matrix in full precision, optionally tagged with row labels.
    A label with a comma, a line break or surrounding whitespace would not read back,
    and labels must be one per row, so either is refused before the file is opened."""
    labels = None if labels is None else [str(label) for label in labels]
    for label in labels or ():
        if "," in label or label != label.strip() or len(label.splitlines()) > 1:
            raise ValueError(
                f"matrix label {label!r} has a comma, a line break or surrounding whitespace")
    rows = as_points(matrix, "matrix").tolist()
    if labels is not None and len(labels) != len(rows):
        raise ValueError(f"{len(labels)} labels for {len(rows)} rows")
    with open(path, "w", encoding="utf-8") as handle:
        if labels is not None:
            handle.write(_LABELS + " " + ",".join(labels) + "\n")
        for row in rows:
            handle.write(",".join(map(_fmt, row)) + "\n")


def read_matrix_csv(path):
    """Read a matrix written by :func:`write_matrix_csv`: the labels come
    from its one ``# labels:`` line, one per row, any other ``#`` line is a
    comment, and every row has the width of the first.

    Returns
    -------
    (ndarray, list[str] | None)
    """
    labels = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if text.startswith(_LABELS):
                if labels is not None:
                    raise ValueError(f"{path}, line {lineno}: a second '{_LABELS}' line")
                labels, labels_line = [t.strip() for t in text[len(_LABELS):].split(",")], lineno
            elif text and not text.startswith("#"):
                try:
                    rows.append([float(t) for t in text.split(",")])
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"{path}, line {lineno}: {len(rows[-1])} values, "
                                     f"but the first row has {len(rows[0])}")
    if labels is not None and len(labels) != len(rows):
        raise ValueError(f"{path}, line {labels_line}: {len(labels)} labels for {len(rows)} rows")
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
    return build(**_converted(section, parsers))
