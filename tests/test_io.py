import pytest

from ncbench.graphs import Cpdag, Dag, GraphError
from ncbench.io import ParseError, align_to, parse_graph, write_graph

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
