import json

import numpy as np
import pytest

from relex.graphs import (GraphFormatError, RelationalGraph, adjacency, load_graph,
                          make_graph, normalize_edge, remove_edges, save_graph,
                          split_nodes)


def path_graph(n=3, labels=None, classes=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    return make_graph(n, edges, labels=labels or [i % classes for i in range(n)],
                      class_count=classes)


def write_bundle(path, n, edges):
    path.write_text(json.dumps({"n": n, "edges": edges, "labels": [0] * n,
                                "features": None, "classes": 1}))
    return path


class TestLoadGraph:
    def test_reversed_duplicate_edges_dedup(self, tmp_path):
        g = load_graph(write_bundle(tmp_path / "g.json", 2, [[0, 1], [1, 0], [0, 1]]))
        assert g.edges == {(0, 1)}

    def test_self_loop_rejected_with_path(self, tmp_path):
        path = write_bundle(tmp_path / "g.json", 6, [[0, 1], [5, 5]])
        with pytest.raises(GraphFormatError, match=r"g\.json: self-loop \(5, 5\)"):
            load_graph(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        blob = '{"n": 2, "edges": [[0, 1]], "labels": [0, 7], "features": null, "classes": 2}'
        (tmp_path / "g.json").write_text(blob)
        with pytest.raises(GraphFormatError):
            load_graph(tmp_path / "g.json")

    def test_json_bundle_roundtrip(self, tmp_path):
        g = path_graph(4)
        save_graph(g, tmp_path / "g.json")
        g2 = load_graph(tmp_path / "g.json")
        assert g2.edges == g.edges
        assert g2.class_count == g.class_count
        np.testing.assert_array_equal(g2.labels, g.labels)
        np.testing.assert_allclose(g2.features, g.features)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="no such file"):
            load_graph(tmp_path / "absent.json")


class TestAdjacency:
    def test_empty_edge_set(self):
        g = make_graph(3, [])
        np.testing.assert_array_equal(adjacency(g), np.zeros((3, 3)))

    def test_single_edge(self):
        g = make_graph(2, [(0, 1)])
        np.testing.assert_array_equal(adjacency(g), [[0, 1], [1, 0]])

    def test_triangle_all_ones_off_diagonal(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        a = adjacency(g)
        np.testing.assert_array_equal(a, np.ones((3, 3)) - np.eye(3))

    def test_symmetric_zero_diagonal(self):
        g = path_graph(6)
        a = adjacency(g)
        np.testing.assert_array_equal(a, a.T)
        assert a.trace() == 0


class TestRemoveEdges:
    def test_empty_victims(self):
        g = path_graph(4)
        g2, ignored = remove_edges(g, [])
        assert g2.edges == g.edges
        assert ignored == 0

    def test_triangle_minus_edge_is_path(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        g2, ignored = remove_edges(g, [(0, 2)])
        assert g2.edges == {(0, 1), (1, 2)}
        assert ignored == 0

    def test_missing_victim_counted(self):
        g = path_graph(3)
        g2, ignored = remove_edges(g, [(0, 2)])
        assert g2.edges == g.edges
        assert ignored == 1

    def test_reversed_victim_matches(self):
        g = path_graph(3)
        g2, _ = remove_edges(g, [(1, 0)])
        assert g2.edges == {(1, 2)}

    def test_remove_all_edges(self):
        g = path_graph(5)
        g2, _ = remove_edges(g, g.edges)
        assert g2.edges == frozenset()
        assert g2.node_count == g.node_count


class TestInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            RelationalGraph(node_count=2, edges=frozenset({(1, 1)}),
                            features=np.ones((2, 1)), labels=np.zeros(2, dtype=int),
                            class_count=1)

    def test_out_of_range_edge(self):
        with pytest.raises(GraphFormatError):
            make_graph(2, [(0, 5)])

    def test_fractional_edge_end_rejected(self):
        with pytest.raises(GraphFormatError, match="edge end 0.5 is not an integer"):
            make_graph(3, [(0.5, 1)])

    def test_float_edge_ends_rejected_before_saving(self):
        # a whole float would be written as 0.0, which load_graph rejects
        with pytest.raises(GraphFormatError, match="edge end 0.0 is not an integer"):
            make_graph(3, [(0.0, 1.0)])

    def test_numpy_edge_ends_saved_as_ints(self, tmp_path):
        g = make_graph(3, np.array([[0, 1], [2, 1]]))
        assert all(type(x) is int for edge in g.edges for x in edge)
        save_graph(g, tmp_path / "g.json")
        assert json.loads((tmp_path / "g.json").read_text())["edges"] == [[0, 1], [1, 2]]
        assert load_graph(tmp_path / "g.json").edges == g.edges

    def test_normalize_edge(self):
        assert normalize_edge(3, 1) == (1, 3)
        assert normalize_edge(1, 3) == (1, 3)

    def test_features_read_only(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.features[0, 0] = 99.0


class TestSplitNodes:
    def test_disjoint_and_stratified(self):
        g = make_graph(40, [], labels=[i % 4 for i in range(40)], class_count=4)
        split = split_nodes(g, seed=3)
        all_nodes = set(split.train) | set(split.validation) | set(split.test)
        assert len(split.train) + len(split.validation) + len(split.test) == 40
        assert all_nodes == set(range(40))
        for cls in range(4):
            train_cls = [n for n in split.train if g.labels[n] == cls]
            assert len(train_cls) >= 1

    def test_deterministic(self):
        g = make_graph(30, [], labels=[i % 3 for i in range(30)], class_count=3)
        assert split_nodes(g, 7) == split_nodes(g, 7)
        assert split_nodes(g, 7) != split_nodes(g, 8)

    def test_fractions_outside_unit_interval_rejected(self):
        g = make_graph(30, [], labels=[i % 3 for i in range(30)], class_count=3)
        for fractions in ((1.0, 0.1, -0.1), (-0.05, 0.1, 0.95), (1.2, -0.2, 0.0),
                          (0.0, 0.0, 1.5)):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                split_nodes(g, 0, fractions)

    def test_fractions_must_sum_to_one(self):
        g = make_graph(30, [], labels=[i % 3 for i in range(30)], class_count=3)
        with pytest.raises(ValueError, match="sum to 1"):
            split_nodes(g, 0, (0.5, 0.1, 0.1))

    def test_no_training_share_keeps_one_node_per_class(self):
        g = make_graph(30, [], labels=[i % 3 for i in range(30)], class_count=3)
        split = split_nodes(g, 0, (0.0, 0.1, 0.9))
        assert sorted(g.labels[list(split.train)]) == [0, 1, 2]

    def test_zero_test_fraction_empty_test_set(self):
        g = make_graph(30, [], labels=[i % 3 for i in range(30)], class_count=3)
        split = split_nodes(g, 0, (0.9, 0.1, 0.0))
        assert split.test == ()
        assert len(split.train) + len(split.validation) == 30
