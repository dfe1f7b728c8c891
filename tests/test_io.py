import re

import pytest

from ncbench.graphs import Cpdag, Dag, GraphError
from ncbench.io import ParseError, align_to, parse_graph, write_graph
from ncbench.random_graphs import RngSeed, max_edges, sample_er_cpdag, sample_er_dag

from conftest import DATA_DIR


def _write(tmp_path, text, name="g.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestEdgeList:
    def test_parse_bundled_truth(self):
        g = parse_graph(f"{DATA_DIR}/five_node_truth.csv")
        assert isinstance(g, Dag)
        assert g.d == 5 and g.m == 8

    def test_round_trip(self, tmp_path, five_node_truth):
        out = str(tmp_path / "rt.csv")
        write_graph(five_node_truth, out)
        # parsing indexes labels by first appearance, so align before comparing
        back = align_to(five_node_truth, parse_graph(out))
        assert back.edges == five_node_truth.edges
        assert back.labels == five_node_truth.labels

    def test_cpdag_round_trip(self, tmp_path):
        g = Cpdag(4, frozenset({(0, 1)}), frozenset({(2, 3)}))
        out = str(tmp_path / "cp.csv")
        write_graph(g, out)
        back = parse_graph(out, kind="cpdag")
        assert back.directed == g.directed and back.undirected == g.undirected

    @pytest.mark.parametrize(
        "g",
        [
            Dag(5, frozenset({(3, 1)}), labels=tuple("ABCDE")),
            Cpdag(5, frozenset({(4, 2)}), frozenset({(0, 2)}), labels=tuple("ABCDE")),
            Dag(3),
        ],
        ids=["dag", "cpdag", "no-edges"],
    )
    def test_round_trip_keeps_isolated_nodes(self, tmp_path, g):
        out = str(tmp_path / "iso.csv")
        write_graph(g, out)
        back = align_to(g, parse_graph(out, kind=g.kind))
        assert back == g

    def test_node_row(self, tmp_path):
        path = _write(tmp_path, "from,to,type\nA,B,directed\nC,,node\n")
        g = parse_graph(path)
        assert g.labels == ("A", "B", "C") and g.edges == frozenset({(0, 1)})
        path = _write(tmp_path, "from,to,type\nA,B,node\n")
        with pytest.raises(ParseError, match="empty 'to' cell"):
            parse_graph(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "source,target\nA,B\n")
        with pytest.raises(ParseError, match="header"):
            parse_graph(path)

    def test_self_loop(self, tmp_path):
        path = _write(tmp_path, "from,to,type\nA,A,directed\n")
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph(path)

    def test_duplicate_edge(self, tmp_path):
        path = _write(tmp_path, "from,to,type\nA,B,directed\nB,A,directed\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph(path)

    def test_unknown_type(self, tmp_path):
        path = _write(tmp_path, "from,to,type\nA,B,bidirected\n")
        with pytest.raises(ParseError, match="edge type"):
            parse_graph(path)

    def test_cycle_in_declared_dag(self, tmp_path):
        path = _write(
            tmp_path, "from,to,type\nA,B,directed\nB,C,directed\nC,A,directed\n"
        )
        with pytest.raises(ParseError, match="cycle"):
            parse_graph(path)
        # the same file is a fine cpdag
        g = parse_graph(path, kind="cpdag")
        assert len(g.directed) == 3

    def test_undirected_rejected_for_dag(self, tmp_path):
        path = _write(tmp_path, "from,to,type\nA,B,undirected\n")
        with pytest.raises(ParseError, match="undirected"):
            parse_graph(path)

    @pytest.mark.parametrize(
        "row, cell",
        [(",X1,directed", "from"), ("X1,,undirected", "to"), (",,node", "from")],
    )
    def test_empty_label_rejected(self, tmp_path, row, cell):
        path = _write(tmp_path, f"from,to,type\nX2,X3,directed\n{row}\n")
        with pytest.raises(ParseError, match=f":3: empty node label in the '{cell}' cell$"):
            parse_graph(path, kind="cpdag")

    def test_writes_every_node_in_index_order(self, tmp_path):
        g = Dag(3, frozenset({(2, 0)}), labels=("b", "c", "a"))
        out = tmp_path / "g.csv"
        write_graph(g, str(out))
        rows = ["from,to,type", "b,,node", "c,,node", "a,,node", "a,b,directed"]
        assert out.read_text().splitlines() == rows

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "from,to,type\n\nA,B,directed\n\n")
        assert parse_graph(path).m == 1


class TestAdjacencyMatrix:
    def test_round_trip(self, tmp_path, five_node_estimate):
        out = str(tmp_path / "m.csv")
        write_graph(five_node_estimate, out, "adjacency-matrix")
        back = parse_graph(out, "adjacency-matrix")
        assert back.edges == five_node_estimate.edges

    def test_symmetric_ones_are_undirected(self, tmp_path):
        path = _write(tmp_path, ",A,B\nA,0,1\nB,1,0\n")
        g = parse_graph(path, "adjacency-matrix", "cpdag")
        assert g.undirected == frozenset({(0, 1)}) and not g.directed

    def test_bad_entry(self, tmp_path):
        path = _write(tmp_path, ",A,B\nA,0,2\nB,0,0\n")
        with pytest.raises(ParseError, match="0 or 1"):
            parse_graph(path, "adjacency-matrix")

    def test_row_label_mismatch(self, tmp_path):
        path = _write(tmp_path, ",A,B\nB,0,0\nA,0,0\n")
        with pytest.raises(ParseError, match="header order"):
            parse_graph(path, "adjacency-matrix")

    def test_wrong_row_count(self, tmp_path):
        path = _write(tmp_path, ",A,B\nA,0,0\n")
        with pytest.raises(ParseError, match="matrix rows"):
            parse_graph(path, "adjacency-matrix")

    def test_diagonal_self_loop(self, tmp_path):
        path = _write(tmp_path, ",A,B\nA,1,0\nB,0,0\n")
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph(path, "adjacency-matrix")

    @pytest.mark.parametrize(
        "header, column",
        [(",A,,B", 3), ("A,,B", 2), (",A,B,", 4)],
        ids=["corner", "no-corner", "last"],
    )
    def test_empty_label_rejected(self, tmp_path, header, column):
        rows = "".join(f"{lab},0,0,0\n" for lab in ("A", "", "B"))
        path = _write(tmp_path, f"{header}\n{rows}")
        with pytest.raises(ParseError, match=f"empty node label in header column {column}$"):
            parse_graph(path, "adjacency-matrix")


@pytest.mark.parametrize("fmt", ["edge-list", "adjacency-matrix"])
def test_write_then_parse_is_the_identity(tmp_path, fmt):
    # Labels X1..Xd: past d = 9 their sorted order is not their index order.
    gen = RngSeed(13).generator().numpy()
    for d in range(1, 31):
        for sample in (sample_er_dag, sample_er_cpdag):
            g = sample(d, int(gen.integers(0, max_edges(d) + 1)), gen)
            path = str(tmp_path / f"{g.kind}{d}.csv")
            write_graph(g, path, fmt)
            back = parse_graph(path, fmt, g.kind)
            assert back == g and back.labels == g.labels, (fmt, d)


@pytest.mark.parametrize("fmt", ["edge-list", "adjacency-matrix"])
@pytest.mark.parametrize(
    "labels, bad",
    [
        ((" a", "a", "b"), " a"),  # the edge-list reader would merge " a" into "a"
        (("a", "b "), "b "),
        (("a", "\tb"), "\tb"),
        (("a", ""), ""),
    ],
    ids=repr,
)
def test_writer_refuses_labels_a_file_cannot_carry(tmp_path, fmt, labels, bad):
    # Refused before the file is opened: an existing file is left intact.
    g = Dag(len(labels), frozenset({(0, 1)}), labels)
    path = tmp_path / "g.csv"
    path.write_text("kept\n")
    with pytest.raises(GraphError, match=f"^node label {re.escape(repr(bad))} cannot be written"):
        write_graph(g, str(path), fmt)
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("fmt", ["edge-list", "adjacency-matrix"])
def test_written_labels_come_back_as_written(tmp_path, fmt):
    # Inner spaces, commas and quotes are quoted by the writer and kept.
    labels = ("a b", "c,d", 'e"f', "g")
    g = Cpdag(4, frozenset({(0, 1)}), frozenset({(2, 3)}), labels)
    path = str(tmp_path / "g.csv")
    write_graph(g, path, fmt)
    back = parse_graph(path, fmt, "cpdag")
    assert back == g and back.labels == labels


@pytest.mark.parametrize("fmt", ["edge-list", "adjacency-matrix"])
def test_a_byte_order_mark_is_skipped(tmp_path, fmt):
    # Spreadsheet CSV exports start with a UTF-8 byte-order mark.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_graph(parse_graph(f"{DATA_DIR}/sachs_pc_estimate.csv", kind="cpdag"), str(plain), fmt)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_graph(str(marked), fmt, "cpdag") == parse_graph(str(plain), fmt, "cpdag")


class TestParseGraphArguments:
    def test_bad_format(self):
        with pytest.raises(ParseError, match="^unknown format 'graphml'$"):
            parse_graph("x.csv", fmt="graphml")

    def test_bad_kind(self):
        with pytest.raises(ParseError, match="^unknown graph kind 'pag'$"):
            parse_graph("x.csv", kind="pag")


class TestAlignTo:
    def test_reorders_by_label(self):
        ref = Dag(3, frozenset({(0, 1)}), labels=("A", "B", "C"))
        other = Dag(3, frozenset({(2, 0)}), labels=("B", "C", "A"))
        aligned = align_to(ref, other)
        assert aligned.edges == frozenset({(0, 1)})
        assert aligned.labels == ref.labels

    def test_cpdag(self):
        ref = Cpdag(3, labels=("A", "B", "C"))
        other = Cpdag(3, undirected=frozenset({(0, 2)}), labels=("C", "B", "A"))
        aligned = align_to(ref, other)
        assert aligned.undirected == frozenset({(0, 2)})

    def test_differing_labels_reported(self):
        ref = Dag(2, labels=("A", "B"))
        other = Dag(2, labels=("A", "X"))
        with pytest.raises(GraphError, match="X"):
            align_to(ref, other)


class TestBundledData:
    def test_sachs_truth(self):
        g = parse_graph(f"{DATA_DIR}/sachs_truth.csv")
        assert g.d == 11 and g.m == 20
        assert "PKA" in g.labels

    def test_sachs_estimate_aligns(self):
        truth = parse_graph(f"{DATA_DIR}/sachs_truth.csv")
        est = parse_graph(f"{DATA_DIR}/sachs_pc_estimate.csv", kind="cpdag")
        aligned = align_to(truth, est)
        assert aligned.labels == truth.labels
        assert aligned.m == 24
