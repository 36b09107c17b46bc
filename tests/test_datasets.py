import collections

import pytest

from relex.datasets import (generate_ba_community, generate_ba_shapes,
                            generate_tree_motif)


class TestBaShapes:
    def test_class_histogram(self):
        g = generate_ba_shapes(20, 2, seed=7)
        assert g.node_count == 30
        hist = collections.Counter(g.labels.tolist())
        assert hist == {0: 20, 1: 2, 2: 4, 3: 4}

    def test_minimum_size(self):
        g = generate_ba_shapes(5, 1, seed=0)
        assert g.node_count == 10

    def test_deterministic(self):
        a = generate_ba_shapes(25, 5, seed=11)
        b = generate_ba_shapes(25, 5, seed=11)
        assert a.edges == b.edges
        c = generate_ba_shapes(25, 5, seed=12)
        assert a.edges != c.edges

    def test_features_constant_ones(self):
        g = generate_ba_shapes(10, 1, seed=0)
        assert g.features.shape == (15, 10)
        assert (g.features == 1.0).all()

    def test_house_attached_to_base(self):
        g = generate_ba_shapes(10, 3, seed=2)
        # each house must reach the base through at least one anchor edge
        base = set(range(10))
        for m in range(3):
            house = set(range(10 + 5 * m, 15 + 5 * m))
            anchors = [e for e in g.edges
                       if (e[0] in house) != (e[1] in house)]
            assert any(e[0] in base or e[1] in base for e in anchors)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_ba_shapes(4, 1, seed=0)
        with pytest.raises(ValueError):
            generate_ba_shapes(10, 0, seed=0)


class TestTreeMotif:
    def test_cycle_node_count(self):
        g = generate_tree_motif(3, "cycle", 1, seed=0)
        assert g.node_count == 13  # 7-node tree + 6-cycle
        assert int((g.labels == 1).sum()) == 6

    def test_grid_node_count(self):
        g = generate_tree_motif(2, "grid", 1, seed=0)
        assert g.node_count == 12  # 3-node tree + 3x3 grid

    def test_no_motifs_pure_tree(self):
        g = generate_tree_motif(4, "cycle", 0, seed=5)
        assert g.node_count == 15
        assert (g.labels == 0).all()
        assert g.edge_count == 14

    def test_deterministic(self):
        a = generate_tree_motif(4, "grid", 2, seed=3)
        b = generate_tree_motif(4, "grid", 2, seed=3)
        assert a.edges == b.edges

    def test_two_classes(self):
        g = generate_tree_motif(3, "cycle", 2, seed=0)
        assert g.class_count == 2
        assert set(g.labels.tolist()) == {0, 1}


class TestBaCommunity:
    def test_two_communities_eight_classes(self):
        g = generate_ba_community(10, 1, seed=0)
        assert g.node_count == 30
        assert g.class_count == 8
        assert set(g.labels.tolist()) == set(range(8))

    def test_inter_community_edges_exist(self):
        for base, motifs in ((10, 1), (25, 5), (40, 12)):
            g = generate_ba_community(base, motifs, seed=0)
            half = g.node_count // 2
            crossing = [e for e in g.edges if (e[0] < half) != (e[1] < half)]
            assert len(crossing) == max(1, g.node_count // 20)
