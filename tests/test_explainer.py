import numpy as np
import pytest

from relex.explainer import (ExplainConfig, Explanation, SingleNodeExplanation,
                             _masked_loss, _masked_loss_and_grad,
                             computation_subgraph, deletion_impact, explain,
                             explanation_from_dict, explanation_to_dict,
                             is_scores, load_explanation, save_explanation,
                             soft_adjacency)
from relex.gcn import TrainConfig, gcn_forward, normalize_adjacency, train_gcn
from relex.graphs import NodeSplit, adjacency, make_graph


@pytest.fixture(scope="module")
def bridge_setup():
    """Clique A (class 0), clique B (class 1), neutral node 4 hanging off A
    by a single bridge edge; the bridge is the only reason node 4 gets
    class 0."""
    clique_a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    clique_b = [(i, j) for i in range(5, 9) for j in range(i + 1, 9)]
    edges = clique_a + clique_b + [(3, 4)]
    feats = np.zeros((9, 2))
    feats[0:4] = [1.0, 0.0]
    feats[5:9] = [0.0, 1.0]
    labels = [0, 0, 0, 0, 0, 1, 1, 1, 1]
    g = make_graph(9, edges, features=feats, labels=labels)
    split = NodeSplit(train=tuple(range(9)), validation=(), test=())
    model = train_gcn(g, split, TrainConfig(hidden_dim=8, max_epochs=400,
                                            seed=0, restarts=1))
    return g, model


class TestComputationSubgraph:
    def test_isolated_node_empty(self):
        g = make_graph(3, [(1, 2)])
        assert computation_subgraph(g, 0, 2) == []

    def test_star_center_one_hop(self):
        g = make_graph(5, [(0, i) for i in range(1, 5)])
        assert computation_subgraph(g, 0, 1) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_path_two_hops(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert computation_subgraph(g, 0, 2) == [(0, 1), (1, 2)]

    def test_edges_within_radius(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert computation_subgraph(g, 2, 1) == [(1, 2), (2, 3)]


class TestSoftAdjacency:
    def test_weights_one_reproduce_unmasked(self, bridge_setup):
        g, model = bridge_setup
        edges = computation_subgraph(g, 4, 2)
        a_soft = soft_adjacency(g, edges, np.ones(len(edges)))
        np.testing.assert_array_equal(a_soft, adjacency(g).astype(float))
        np.testing.assert_allclose(normalize_adjacency(a_soft),
                                   normalize_adjacency(adjacency(g)))

    def test_forward_identical_at_unit_weights(self, bridge_setup):
        g, model = bridge_setup
        edges = computation_subgraph(g, 4, 2)
        a_hat = normalize_adjacency(soft_adjacency(g, edges, np.ones(len(edges))))
        p1 = gcn_forward(model, g.features, a_hat=a_hat)
        p2 = gcn_forward(model, g.features,
                         a_hat=normalize_adjacency(adjacency(g)))
        np.testing.assert_array_equal(p1, p2)


class TestMaskGradient:
    def test_matches_finite_differences(self, bridge_setup):
        g, model = bridge_setup
        edges = computation_subgraph(g, 4, 2)
        rng = np.random.default_rng(3)
        mask = rng.normal(scale=0.8, size=len(edges))
        _, grad = _masked_loss_and_grad(g, model, 4, 0, edges, mask, 0.05, 0.1)
        h = 1e-6
        fd = np.zeros_like(mask)
        for i in range(len(mask)):
            up, dn = mask.copy(), mask.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (_masked_loss(g, model, 4, 0, edges, up, 0.05, 0.1)
                     - _masked_loss(g, model, 4, 0, edges, dn, 0.05, 0.1)) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4


class TestExplain:
    def test_zero_steps_confidences_near_half(self, bridge_setup):
        g, model = bridge_setup
        e = explain(model, g, 4, ExplainConfig(mask_steps=0, top_k=50, seed=1))
        for _, gc in e.relations:
            assert 0.45 < gc < 0.55

    def test_bridge_edge_ranked_first_across_seeds(self, bridge_setup):
        g, model = bridge_setup
        oracle = deletion_impact(model, g, 4)
        oracle_top = max(oracle, key=lambda e: (oracle[e], e))
        assert oracle_top == (3, 4)
        for seed in range(5):
            e = explain(model, g, 4, ExplainConfig(mask_steps=200, top_k=4,
                                                   seed=seed))
            top = max(e.relations, key=lambda r: r[1])[0]
            assert top == oracle_top, f"seed {seed} picked {top}"

    def test_deterministic(self, bridge_setup):
        g, model = bridge_setup
        cfg = ExplainConfig(mask_steps=50, seed=9)
        assert explain(model, g, 4, cfg) == explain(model, g, 4, cfg)

    def test_empty_subgraph_raises(self, bridge_setup):
        _, model = bridge_setup
        g = make_graph(9, [(0, 1)], features=np.zeros((9, 2)),
                       labels=[0] * 9, class_count=2)
        with pytest.raises(SingleNodeExplanation):
            explain(model, g, 5, ExplainConfig())

    def test_confidences_strictly_inside_unit_interval(self, bridge_setup):
        g, model = bridge_setup
        e = explain(model, g, 4, ExplainConfig(mask_steps=300,
                                               entropy_penalty=0.5, seed=0))
        for _, gc in e.relations:
            assert 0.0 < gc < 1.0

    def test_relations_within_hop_radius(self, bridge_setup):
        g, model = bridge_setup
        e = explain(model, g, 4, ExplainConfig(hops=1, mask_steps=20, seed=0))
        allowed = set(computation_subgraph(g, 4, 1))
        assert set(e.edges()) <= allowed

    def test_objective_nonincreasing_over_accepted_steps(self, bridge_setup):
        g, model = bridge_setup
        edges = computation_subgraph(g, 4, 2)
        cfg = ExplainConfig(mask_steps=40, seed=2)
        rng = np.random.default_rng(cfg.seed)
        mask = rng.uniform(-0.1, 0.1, size=len(edges))
        losses = [_masked_loss(g, model, 4, 0, edges, mask, cfg.size_penalty,
                               cfg.entropy_penalty)]
        for _ in range(cfg.mask_steps):
            loss, grad = _masked_loss_and_grad(g, model, 4, 0, edges, mask,
                                               cfg.size_penalty, cfg.entropy_penalty)
            step = cfg.mask_lr
            accepted = False
            for _ in range(20):
                cand = mask - step * grad
                cl = _masked_loss(g, model, 4, 0, edges, cand,
                                  cfg.size_penalty, cfg.entropy_penalty)
                if cl < loss:
                    mask, accepted = cand, True
                    losses.append(cl)
                    break
                step *= 0.5
            if not accepted:
                break
        assert all(b < a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestIsScores:
    def test_identity_map(self):
        e = Explanation(target=0, predicted_class=1,
                        relations=(((0, 1), 0.9), ((1, 2), 0.2)), hop_radius=2)
        assert is_scores(e) == {(0, 1): 0.9, (1, 2): 0.2}

    def test_empty(self):
        e = Explanation(target=0, predicted_class=0, relations=(), hop_radius=2)
        assert is_scores(e) == {}

    def test_ranking_matches_confidences(self):
        e = Explanation(target=0, predicted_class=0,
                        relations=(((0, 1), 0.3), ((1, 2), 0.7), ((2, 3), 0.5)),
                        hop_radius=2)
        ranked = sorted(is_scores(e).items(), key=lambda kv: -kv[1])
        assert [edge for edge, _ in ranked] == [(1, 2), (2, 3), (0, 1)]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        e = Explanation(target=4, predicted_class=2,
                        relations=(((1, 3), 0.75), ((3, 4), 0.95)), hop_radius=2)
        save_explanation(e, tmp_path / "e.json")
        assert load_explanation(tmp_path / "e.json") == e

    def test_wire_format(self):
        e = Explanation(target=4, predicted_class=2,
                        relations=(((1, 3), 0.75),), hop_radius=2)
        blob = explanation_to_dict(e)
        assert blob == {"target": 4, "class": 2,
                        "relations": [{"u": 1, "v": 3, "gc": 0.75}], "hops": 2}
        assert explanation_from_dict(blob) == e
