import configparser
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdpgtest import io
from rdpgtest.errors import EdgeListFormatError, ModelError
from rdpgtest.harness import (
    load_power_config,
    load_wcompare_config,
    run_power_experiment,
    two_block_pair,
    uniform_box_pair,
)
from rdpgtest.io import (
    parse_distribution,
    read_edge_list,
    read_labels,
    read_manifest,
    read_matrix_csv,
    write_edge_list,
    write_matrix_csv,
)
from rdpgtest.mmd import GaussianKernel
from rdpgtest.model import (
    DegreeCorrected,
    DirichletLatent,
    Graph,
    LogitNormalMixture,
    PointMassMixture,
    UniformBox,
    sample_latent,
    sample_rdpg,
)
from rdpgtest.streams import substream
from util import edge_pairs, format_edge_list

ROOT = Path(__file__).resolve().parents[1]


class TestEdgeList:
    def test_round_trip_exact(self, tmp_path):
        f, _ = two_block_pair(0.0)
        for seed in range(10):
            rng = substream(120, seed)
            graph = sample_rdpg(sample_latent(f, 30, rng), 1.0, rng)
            path = tmp_path / f"g{seed}.edges"
            write_edge_list(graph, path)
            back = read_edge_list(path)
            assert back.n == graph.n
            assert np.array_equal(back.adjacency, graph.adjacency)

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 2\n0 1\n")
        graph = read_edge_list(path)
        assert graph.n == 2 and edge_pairs(graph) == [(0, 1)]

    def test_duplicate_edges_idempotent(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 3\n0 1\n1 0\n0 1\n")
        graph = read_edge_list(path)
        assert graph.edge_count == 1

    def test_isolated_vertices_preserved(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 5\n0 1\n")
        assert read_edge_list(path).n == 5

    def test_self_loop_rejected_with_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 3\n0 1\n1 1\n")
        with pytest.raises(EdgeListFormatError, match="self-loop") as err:
            read_edge_list(path)
        assert err.value.line_number == 3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        with pytest.raises(EdgeListFormatError, match="header"):
            read_edge_list(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 3\n0 1\n0 1 2\n")
        with pytest.raises(EdgeListFormatError) as err:
            read_edge_list(path)
        assert err.value.line_number == 3

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 3\n0 7\n")
        with pytest.raises(EdgeListFormatError, match="range"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "adjacency, text",
        [
            (np.zeros((0, 0), dtype=int), "# vertices: 0\n"),
            ([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], "# vertices: 4\n0 2\n"),
        ],
        ids=["no-vertices", "isolated-vertices"],
    )
    def test_written_bytes(self, tmp_path, adjacency, text):
        path = tmp_path / "g.edges"
        write_edge_list(Graph(np.array(adjacency)), path)
        assert path.read_bytes() == text.encode()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("")
        with pytest.raises(EdgeListFormatError, match="empty"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("\n  \n# vertices: 3\n0 1\n", [(0, 1)]),
            ("# nodes: 3\n0 1\n", ("bad header '# nodes: 3'", 1)),
            ("# vertices: 2: 3\n", ("bad header '# vertices: 2: 3'", 1)),
            ("\n# vertices: three\n", ("vertex count 'three' is not an integer", 2)),
            ("# vertices: -1\n", ("vertex count must be >= 0, got -1", 1)),
            ("# vertices: 4\n0 1\n\n# a comment\n2 3\n", [(0, 1), (2, 3)]),
            ("# vertices: 3\n0 1\n1 x\n", ("non-integer vertex in '1 x'", 3)),
        ],
        ids=["blank-before-header", "other-key", "two-colons", "count-not-integer",
             "negative-count", "blank-and-comment-among-edges", "vertex-not-integer"],
    )
    def test_reader_branches(self, tmp_path, text, expected):
        path = tmp_path / "g.edges"
        path.write_text(text)
        if isinstance(expected, list):
            assert edge_pairs(read_edge_list(path)) == expected
            return
        message, line = expected
        with pytest.raises(EdgeListFormatError) as err:
            read_edge_list(path)
        assert str(err.value) == f"line {line}: {message}" and err.value.line_number == line

    def test_first_of_two_bad_lines_is_reported(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 3\n0 1\n\n2 2\n0 9\n")
        with pytest.raises(EdgeListFormatError, match="^line 4: self-loop '2 2'"):
            read_edge_list(path)


def _graph_of(n, kind, seed):
    """An edgeless, a sparse (about 1.5 edges per vertex) or a complete graph on n vertices."""
    if kind == "empty":
        return Graph(np.zeros((n, n), dtype=int))
    if kind == "complete":
        return Graph(1 - np.eye(n, dtype=int))
    upper = np.triu(substream(seed, n).random((n, n)) < 3 / max(n, 1), 1)
    return Graph(upper | upper.T)


class TestEdgeListWriter:
    """The block writer gives the bytes of one ``str.format`` per edge, and they read back."""

    def check(self, graph, path):
        write_edge_list(graph, path)
        assert path.read_bytes() == format_edge_list(graph).encode()
        assert np.array_equal(read_edge_list(path).adjacency, graph.adjacency)

    @pytest.mark.parametrize("kind", ["empty", "sparse", "complete"])
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001])
    def test_same_bytes_as_the_format_oracle(self, tmp_path, n, kind):
        self.check(_graph_of(n, kind, 122), tmp_path / "g.edges")

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_edges_on_both_sides_of_a_block_boundary(self, tmp_path, n):
        rows = io._BLOCK_ENTRIES // n  # the first row of the second block
        assert 1 < rows < n // 2
        a = np.zeros((n, n), dtype=int)
        for u, v in [(0, n - 1), (rows - 1, rows), (rows - 1, n - 1), (rows, rows + 1),
                     (rows, n - 1), (2 * rows - 1, 2 * rows)]:
            a[u, v] = a[v, u] = 1
        self.check(Graph(a), tmp_path / "g.edges")

    @pytest.mark.parametrize("entries", [1, 10, 11, 25])
    @pytest.mark.parametrize("kind", ["sparse", "complete"])
    def test_blocks_of_one_row_and_of_several(self, tmp_path, monkeypatch, entries, kind):
        monkeypatch.setattr(io, "_BLOCK_ENTRIES", entries)  # n = 11: rows of 1, 1, 1 and 2
        self.check(_graph_of(11, kind, 123), tmp_path / "g.edges")

    def test_an_array_writes_the_bytes_of_its_graph(self, tmp_path):
        graph = _graph_of(12, "sparse", 124)
        write_edge_list(graph, tmp_path / "graph.edges")
        write_edge_list(graph.adjacency.tolist(), tmp_path / "list.edges")
        write_edge_list(np.array([[0, 1], [1, 0]]), tmp_path / "pair.edges")
        assert (tmp_path / "list.edges").read_bytes() == (tmp_path / "graph.edges").read_bytes()
        assert (tmp_path / "pair.edges").read_bytes() == b"# vertices: 2\n0 1\n"

    def test_an_array_with_a_self_loop_is_refused_before_the_file_is_created(self, tmp_path):
        path = tmp_path / "g.edges"
        with pytest.raises(ModelError, match=r"^adjacency must have a zero diagonal \(no self-loops\)$"):
            write_edge_list(np.array([[0, 1], [1, 1]]), path)
        assert not path.exists()

    def test_memory_of_a_dense_graph_is_bounded_by_a_block(self, tmp_path):
        n = 2000
        graph = _graph_of(n, "complete", 0)
        path = tmp_path / "g.edges"
        tracemalloc.start()
        try:
            write_edge_list(graph, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One str.format per edge peaked at 308 MB on this graph: the index
        # arrays, two lists of ints and the joined text of all 1 999 000 edges.
        assert peak < 64 * io._BLOCK_ENTRIES  # 4 MiB: 64 bytes per entry of a block
        names = sum(len(str(i)) for i in range(n))
        assert path.stat().st_size == len(f"# vertices: {n}\n") + (n - 1) * names + n * (n - 1)


def _outcome(read, path):
    """What a reader gives for ``path``: the adjacency bytes, dtype and shape, or the error."""
    try:
        a = read(path).adjacency
    except EdgeListFormatError as exc:
        return str(exc), exc.line_number
    return a.tobytes(), a.dtype, a.shape


def _line_loop(path):
    return io._read_edge_lines(path, fast=False)


# Separators that str.split takes as whitespace, ASCII or not.
SEPARATORS = [" ", "  ", "\t", "\v", "\f", "\x1c", "\x1f", "\xa0", "\x85", "\u2003", "\u3000"]
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# Spellings of an index that int() reads as the same number.
SPELLINGS = [str, "+{}".format, "0{}".format, lambda i: str(i).translate(FULL_WIDTH)]
# Lines the line loop skips or refuses.
ODD_LINES = ["", "   ", "\t", "# note", "  # c", "x", "0 1 2", "0", "-1 0", "1_0 1", "1.0 0", "0 1 # x",
             "9223372036854775808 0", "-9223372036854775809 0", "0\U00020000 1", "0 0", "7 0", "1 0\f2 1"]


@st.composite
def edge_files(draw):
    n = draw(st.integers(0, 120))  # indices of one, two and three digits
    # Drawn with replacement, both orders: duplicates and reversed duplicates.
    # v is drawn from n - 1 values and skips u, so no pair is a self-loop.
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda p: (p[0], p[1] + (p[1] >= p[0])))
    edges = draw(st.lists(pair, max_size=15)) if n > 1 else []
    # Each file uses one or two separators and spellings, so many files are plain ASCII.
    sep = st.sampled_from(draw(st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=2)))
    spell = st.sampled_from(draw(st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=2)))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + draw(spell)(u) + draw(sep) + draw(spell)(v)
             + draw(st.sampled_from(["", " ", "\f"])) for u, v in edges]
    for odd in draw(st.lists(st.sampled_from(ODD_LINES), max_size=2)) if draw(st.booleans()) else []:
        lines.insert(draw(st.integers(0, len(lines))), odd)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    header = draw(st.sampled_from(["", "\n", " \t\n"])) + f"# vertices: {n}"
    return eol.join([header, *lines]) + draw(st.sampled_from(["", eol]))


class TestEdgeListFastPass:
    """The vectorized pass gives what the line loop gives, or leaves the file to it."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=edge_files())
    def test_same_graph_or_error_as_the_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("edges") / "g.edges"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_edge_list, path) == _outcome(_line_loop, path)

    @pytest.mark.parametrize(
        "text, expected, fast",
        [
            ("# vertices: 12\n1_0 2\n", [(2, 10)], False),
            ("# vertices: 3\n\uff11 \uff12\n", [(1, 2)], False),
            ("# vertices: 3\n\u0661 \u0662\n", [(1, 2)], False),
            ("# vertices: 3\n+1 2\n", [(1, 2)], True),
            ("# vertices: 3\n01 2\n", [(1, 2)], True),
            ("# vertices: 3\n-1 2\n", ("vertex out of range in '-1 2' (n=3)", 2), False),
            ("# vertices: 3\n0 9223372036854775808\n",
             ("vertex out of range in '0 9223372036854775808' (n=3)", 2), False),
            ("# vertices: 3\n0 1 # x\n", ("expected 'u v', got '0 1 # x'", 2), False),
            ("# vertices: 3\n0 1 2\n", ("expected 'u v', got '0 1 2'", 2), False),
            ("# vertices: 3\n0 1\n2\n", ("expected 'u v', got '2'", 3), False),
            ("# vertices: 3\n0 1\f2 0\n", ("expected 'u v', got '0 1\\x0c2 0'", 2), False),
            ("# vertices: 3\n\n \n", [], False),
            ("# vertices: 3\r\n0 1\r\n2 1\r\n", [(0, 1), (1, 2)], True),
            ("# vertices: 3\n0 1\n1\U00020000 2\n", ("non-integer vertex in '1\U00020000 2'", 3), False),
        ],
        ids=["underscore", "full-width", "arabic-indic", "plus", "leading-zero", "negative",
             "int64-overflow", "trailing-comment", "three-tokens", "one-token", "form-feed-inside",
             "edgeless", "crlf", "above-u+ffff"],
    )
    def test_inputs_int_and_numpy_read_differently(self, tmp_path, recwarn, text, expected, fast):
        path = tmp_path / "g.edges"
        path.write_bytes(text.encode("utf-8"))
        assert (io._read_edge_lines(path, fast=True) is not None) == fast
        assert _outcome(read_edge_list, path) == _outcome(_line_loop, path)
        assert not recwarn.list  # an edgeless body makes NumPy warn
        if isinstance(expected, list):
            assert edge_pairs(read_edge_list(path)) == expected
            return
        message, line = expected
        with pytest.raises(EdgeListFormatError) as err:
            read_edge_list(path)
        assert str(err.value) == f"line {line}: {message}" and err.value.line_number == line

    def test_a_body_beyond_ascii_never_reaches_numpy(self, tmp_path, monkeypatch):
        # NumPy 2.4's loadtxt has crashed the interpreter on '0\U0002c6ca1'.
        monkeypatch.setattr(np, "loadtxt", None)
        path = tmp_path / "g.edges"
        path.write_text("# vertices: 3\n0\U0002c6ca1\n", encoding="utf-8")
        with pytest.raises(EdgeListFormatError, match="^line 2: expected 'u v'"):
            read_edge_list(path)

    def test_written_files_take_the_vectorized_pass(self, tmp_path):
        f, _ = two_block_pair(0.1)
        rng = substream(121)
        graph = sample_rdpg(sample_latent(f, 300, rng), 1.0, rng)
        path = tmp_path / "g.edges"
        write_edge_list(graph, path)
        fast = io._read_edge_lines(path, fast=True)
        assert fast is not None and np.array_equal(fast.adjacency, graph.adjacency)
        assert _outcome(read_edge_list, path) == _outcome(_line_loop, path)


class TestCsv:
    def test_embedding_round_trips_float64(self, tmp_path):
        rng = substream(121)
        coords = rng.standard_normal((20, 3))
        path = tmp_path / "emb.csv"
        write_matrix_csv(coords, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, coords)
        assert read_matrix_csv(path)[1] is None

    def test_matrix_with_labels(self, tmp_path):
        m = np.array([[0.0, 0.25], [0.25, 0.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path, labels=["a", "b"])
        back, labels = read_matrix_csv(path)
        assert np.array_equal(back, m) and labels == ["a", "b"]

    @pytest.mark.parametrize(
        "labels, header",
        [(None, b""), (["a", 2, "c"], b"# labels: a,2,c\n")],
        ids=["unlabelled", "labelled"],
    )
    def test_matrix_bytes(self, tmp_path, labels, header):
        path = tmp_path / "m.csv"
        write_matrix_csv([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 0.1], [1 / 3, -7e22, 2.5]],
                         path, labels=labels)
        assert path.read_bytes() == header + (
            b"-0,nan,inf\n"
            b"-inf,4.9406564584124654e-324,0.10000000000000001\n"
            b"0.33333333333333331,-7.0000000000000004e+22,2.5\n"
        )

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\r", " a", "b\t", "a\u2028b"])
    def test_label_that_would_not_read_back_is_refused(self, tmp_path, label):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=re.escape(f"matrix label {label!r} has a comma")):
            write_matrix_csv(np.eye(2), path, labels=[label, "c"])
        assert not path.exists()

    def test_labels_that_do_not_match_the_rows_are_refused(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError) as info:
            write_matrix_csv(np.eye(3), path, labels=["a", "b"])
        assert str(info.value) == "2 labels for 3 rows"
        assert not path.exists()

    def test_a_file_whose_labels_do_not_match_the_rows_is_refused(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# c\n# labels: a,b\n1,0,0\n0,1,0\n0,0,1\n")
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}, line 2: 2 labels for 3 rows"

    def test_labels_round_trip(self, tmp_path):
        labels = ["", "a b", "x#1", "labels: y", "\u00e9"]
        path = tmp_path / "m.csv"
        write_matrix_csv(np.eye(5), path, labels=labels)
        assert read_matrix_csv(path)[1] == labels

    def test_labels_come_from_the_labels_line_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.eye(4), path, labels="FFGG")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("# old labels: G,G,F,F\n#labels: x,y,z,w\n")
        back, labels = read_matrix_csv(path)
        assert np.array_equal(back, np.eye(4)) and labels == ["F", "F", "G", "G"]

    @pytest.mark.parametrize("text, message", [
        ("# labels: a,b\n1,0\n# labels: b,a\n0,1\n", "line 3: a second '# labels:' line"),
        ("# c\n1,0\n\n0,1,2\n", "line 4: 3 values, but the first row has 2"),
        ("1,0,0\n0,1\n", "line 2: 2 values, but the first row has 3"),
        ("1,0\n0,x\n", "line 2: could not convert string to float: 'x'"),
    ], ids=["second-labels-line", "wider-row", "narrower-row", "not-a-number"])
    def test_malformed_matrix_is_refused_with_its_line(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}, {message}"

    def test_labels_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("a\n\nb\n")
        assert read_labels(path) == ["a", "b"]


class TestManifest:
    def test_labelled_with_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# graphs\n\n g0.edges , a\n# more\ndir,x/g1.edges,b\n\n")
        assert read_manifest(path) == (["g0.edges", "dir,x/g1.edges"], ["a", "b"])

    def test_unlabelled(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# graphs\ng0.edges\n\ng1.edges\n")
        assert read_manifest(path) == (["g0.edges", "g1.edges"], None)

    @pytest.mark.parametrize(
        "text, line",
        [("g0.edges,a\n# c\ng1.edges\n", 3), ("\ng0.edges\ng1.edges,b\ng2.edges,c\n", 3)],
    )
    def test_labels_on_some_lines_rejected(self, tmp_path, text, line):
        path = tmp_path / "manifest.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: label every graph or none"):
            read_manifest(path)


class TestParseDistribution:
    def test_point_mass(self):
        dist = parse_distribution(
            {"kind": "point_mass_mixture", "atoms": "0.5 0.2 ; 0.1 0.6", "weights": "0.3 0.7"}
        )
        assert isinstance(dist, PointMassMixture)
        assert dist.atoms.shape == (2, 2)

    def test_dirichlet(self):
        dist = parse_distribution({"kind": "dirichlet", "concentration": "1 2 3"})
        assert isinstance(dist, DirichletLatent) and dist.d == 3

    def test_uniform_box(self):
        dist = parse_distribution({"kind": "uniform_box", "lower": "0 0", "upper": "0.5 0.5"})
        assert isinstance(dist, UniformBox)

    def test_logit_normal(self):
        dist = parse_distribution(
            {
                "kind": "logit_normal_mixture",
                "means": "0 0 ; 4 4",
                "covs": "1 0 ; 0 1 | 1 0 ; 0 1",
                "weights": "0.4 0.6",
            }
        )
        assert isinstance(dist, LogitNormalMixture)
        assert dist.covs.shape == (2, 2, 2)

    def test_degree_corrected(self):
        dist = parse_distribution(
            {
                "kind": "degree_corrected",
                "atoms": "0.7 0 ; 0 0.7",
                "weights": "0.5 0.5",
                "theta_low": "0.3",
                "theta_high": "0.9",
            }
        )
        assert isinstance(dist, DegreeCorrected)

    @pytest.mark.parametrize(
        "section, message",
        [
            (
                {"kind": "degree_corrected", "atoms": "0.7 0 ; 0 0.7", "weights": "0.5 0.5",
                 "theta_lo": "0.2"},
                "unknown key 'theta_lo'",
            ),
            ({"kind": "dirichlet", "concentration": "1 1", "scale": "0.5"}, "unknown key 'scale'"),
            ({"kind": "point_mass_mixture", "atoms": "0.5 ; 0.2"}, "missing key 'weights'"),
            ({"kind": "logit_normal_mixture", "means": "0 0", "weights": "1"}, "missing key 'covs'"),
        ],
        ids=["theta_lo", "scale", "weights", "covs"],
    )
    def test_keys_checked_against_kind(self, section, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_distribution(section)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            parse_distribution({"kind": "mystery"})


POWER_INI = """
[experiment]
family = two_block
sweep = 0 0.1
n = 20 30
replicates = 2
seed = 7
oracle_arm = true

[test]
variant = identity
d = 2
kernel = gaussian
sigma = 0.5
B = 15
alpha_level = 0.05
"""

WCOMP_INI = """
[experiment]
family = custom
n = 25
replicates = 3
seed = 5
output = out.csv

[test]
d = 2
kernel = gaussian
sigma = 0.5

[F]
kind = point_mass_mixture
atoms = 0.7 0.1 ; 0.1 0.7
weights = 0.45 0.55

[G]
kind = point_mass_mixture
atoms = 0.7 0.1 ; 0.1 0.7
weights = 0.45 0.55
"""


class TestConfigFiles:
    def test_power_config(self, tmp_path):
        path = tmp_path / "power.ini"
        path.write_text(POWER_INI)
        config = load_power_config(path)
        assert [p[0] for p in config.pairs] == [0.0, 0.1]
        assert config.n_grid == (20, 30)
        assert config.replicates == 2
        assert config.oracle_arm is True
        assert config.test.permutations == 15
        assert config.master_seed == 7

    @pytest.mark.parametrize(
        "value, align",
        [("no", False), ("0", False), ("off", False), ("Yes", True), ("1", True), ("on", True)],
    )
    def test_booleans(self, tmp_path, value, align):
        path = tmp_path / "power.ini"
        path.write_text(
            POWER_INI.replace("oracle_arm = true", f"oracle_arm = {value}")
            + f"align_reflections = {value}\n"
        )
        config = load_power_config(path)
        assert config.test.align_reflections is align and config.oracle_arm is align

    @pytest.mark.parametrize(
        "section, key", [("experiment", "oracle_arm"), ("test", "align_reflections")]
    )
    def test_other_boolean_spellings_rejected(self, tmp_path, section, key):
        path = tmp_path / "power.ini"
        text = POWER_INI.replace("oracle_arm = true\n", "")
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = maybe\n"))
        with pytest.raises(ValueError, match="'maybe'"):
            load_power_config(path)

    def test_family_keys(self, tmp_path):
        path = tmp_path / "power.ini"
        head = "[experiment]\nn = 20\nsweep = 0.1\n"
        path.write_text(head + "family = two_block\nbase = 0.6\nweights = 0.5 0.5\n")
        [(eps, f, g)] = load_power_config(path).pairs
        expected = two_block_pair(0.1, base=0.6, weights=(0.5, 0.5))
        assert eps == 0.1
        for got, want in zip((f, g), expected):
            assert np.array_equal(got.atoms, want.atoms)
            assert np.array_equal(got.weights, want.weights)
        path.write_text(head + "family = uniform_box\nf_upper = 0.5\ndim = 3\n")
        [(eps, f, g)] = load_power_config(path).pairs
        expected = uniform_box_pair(0.1, f_upper=0.5, dim=3)
        assert np.array_equal(f.upper, expected[0].upper) and np.array_equal(g.upper, expected[1].upper)

    @pytest.mark.parametrize(
        "section, line",
        [
            ("experiment", "replicats = 3"),
            ("experiment", "epsilon = 0.1"),
            ("experiment", "f_upper = 0.5"),
            ("test", "alpha = 0.01"),
            ("test", "kernal = energy"),
            ("test", "seed = 3"),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, section, line):
        path = tmp_path / "power.ini"
        path.write_text(POWER_INI.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=re.escape(f"unknown key '{key}' in [{section}]")):
            load_power_config(path)

    @pytest.mark.parametrize("line", ["sweep = 0 0.1", "sparsity = 0.5", "base = 0.6"])
    def test_unknown_wcompare_keys_rejected(self, tmp_path, line):
        path = tmp_path / "w.ini"
        path.write_text(WCOMP_INI.replace("[experiment]\n", f"[experiment]\n{line}\n"))
        with pytest.raises(ValueError, match=re.escape(f"unknown key '{line.split()[0]}'")):
            load_wcompare_config(path)

    @pytest.mark.parametrize(
        "load, line",
        [(load_power_config, "sweep = 0 0.1 0.2"), (load_wcompare_config, "epsilon = 0.1")],
    )
    def test_custom_family_takes_no_sweep(self, tmp_path, load, line):
        path = tmp_path / "custom.ini"
        path.write_text(WCOMP_INI)
        assert [p[0] for p in load_power_config(path).pairs] == ["custom"]
        path.write_text(WCOMP_INI.replace("[experiment]\n", f"[experiment]\n{line}\n"))
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=re.escape(f"unknown key '{key}' in [experiment]")):
            load(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "[F]\nkind = point_mass_mixture\natoms = 0.7 0.1 ; 0.1 0.7\n",
                "[F]\nkind = degree_corrected\natoms = 0.7 0.1 ; 0.1 0.7\ntheta_lo = 0.2\n",
                "unknown key 'theta_lo' in [F]",
            ),
            ("weights = 0.45 0.55\n\n[G]", "\n[G]", "missing key 'weights' in [F]"),
            ("[F]", "[H]", "missing section 'F'"),
            ("[test]", "[tset]", "unknown section 'tset'"),
            ("[experiment]", "[experimint]", "missing section 'experiment'"),
            ("family = custom\n", "family = two_block\n", "unknown section 'F'"),
        ],
        ids=["unknown-key", "missing-key", "missing-F", "unknown-section", "missing-experiment",
             "F-without-custom"],
    )
    def test_sections_checked(self, tmp_path, old, new, message):
        path = tmp_path / "custom.ini"
        path.write_text(WCOMP_INI.replace(old, new, 1))
        for load in (load_power_config, load_wcompare_config):
            with pytest.raises(ValueError, match=re.escape(message)):
                load(path)

    def test_two_block_family_takes_no_distribution_sections(self, tmp_path):
        path = tmp_path / "power.ini"
        path.write_text(POWER_INI + "\n[F]\nkind = nonsense\n")
        with pytest.raises(ValueError, match=re.escape("unknown section 'F'")):
            load_power_config(path)

    def test_sparse_variant_takes_the_experiment_sparsity(self, tmp_path):
        path = tmp_path / "power.ini"
        text = POWER_INI.replace("oracle_arm = true", "sparsity = 0.5").replace("n = 20 30", "n = 20")
        path.write_text(text.replace("variant = identity", "variant = sparse"))
        config = load_power_config(path)
        assert (config.test.sparsity_x, config.test.sparsity_y) == (0.5, 0.5)
        assert [cell.replicates for cell in run_power_experiment(config).cells] == [2, 2]
        path.write_text(text.replace("variant = identity", "variant = sparse\nsparsity_y = 0.25"))
        config = load_power_config(path)
        assert (config.test.sparsity_x, config.test.sparsity_y) == (0.5, 0.25)

    @pytest.mark.parametrize("load", [load_power_config, load_wcompare_config])
    def test_n_is_required(self, tmp_path, load):
        path = tmp_path / "custom.ini"
        path.write_text(WCOMP_INI.replace("n = 25\n", ""))
        with pytest.raises(ValueError, match=re.escape("missing key 'n' in [experiment]")):
            load(path)

    def test_wcompare_config(self, tmp_path):
        path = tmp_path / "w.ini"
        path.write_text(WCOMP_INI)
        cfg = load_wcompare_config(path)
        assert cfg["n"] == 25 and cfg["m"] == 25
        assert cfg["replicates"] == 3
        assert cfg["output"] == "out.csv"
        assert isinstance(cfg["f_dist"], PointMassMixture)

    def test_readme_examples_load(self, tmp_path):
        blocks = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        assert len(blocks) == 2
        for index, block in enumerate(blocks):
            parser = configparser.ConfigParser()
            parser.read_string(block)
            if parser.has_section("experiment"):
                path = tmp_path / f"readme{index}.ini"
                path.write_text(block)
                config = load_power_config(path)
                assert config.test.kernel == GaussianKernel(0.5)
                assert config.oracle_arm is False
            else:
                f = parse_distribution(parser["F"])
                assert isinstance(f, PointMassMixture) and f.atoms.shape == (2, 2)

    def test_demo_configs_load(self):
        power = load_power_config(ROOT / "demos" / "power_two_block.ini")
        assert [p[0] for p in power.pairs] == [0.0, 0.05, 0.1]
        wcompare = load_wcompare_config(ROOT / "demos" / "w_compare_null.ini")
        assert wcompare["n"] == 300 and wcompare["spec"] == GaussianKernel(0.5)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_power_config("/nonexistent/path.ini")
