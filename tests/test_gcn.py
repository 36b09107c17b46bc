import json
import math

import numpy as np
import pytest

from relex.gcn import (GcnModel, TrainConfig, gcn_forward, init_weights,
                       load_model, loss_and_grads, normalize_adjacency,
                       predict, save_model, train_gcn)
from relex.graphs import NodeSplit, adjacency, make_graph, split_nodes


def two_cliques(k=4):
    """Two disconnected k-cliques with distinct constant features."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, j) for i in range(k, 2 * k) for j in range(i + 1, 2 * k)]
    feats = np.zeros((2 * k, 2))
    feats[:k] = [1.0, 0.0]
    feats[k:] = [0.0, 1.0]
    labels = [0] * k + [1] * k
    return make_graph(2 * k, edges, features=feats, labels=labels)


class TestNormalizeAdjacency:
    def test_single_node(self):
        np.testing.assert_allclose(normalize_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_two_nodes_one_edge(self):
        a_hat = normalize_adjacency(np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(a_hat, 0.5 * np.ones((2, 2)))

    def test_three_node_path(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        a_hat = normalize_adjacency(adjacency(g))
        assert a_hat[0, 0] == pytest.approx(1 / 2)
        assert a_hat[0, 1] == pytest.approx(1 / math.sqrt(6))
        assert a_hat[1, 1] == pytest.approx(1 / 3)

    def test_symmetric_and_spectral_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
            a_hat = normalize_adjacency(a + a.T)
            np.testing.assert_allclose(a_hat, a_hat.T)
            radius = np.abs(np.linalg.eigvalsh(a_hat)).max()
            assert radius <= 1 + 1e-9

    def test_entries_in_unit_interval(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        a_hat = normalize_adjacency(adjacency(g))
        assert (a_hat >= 0).all() and (a_hat <= 1).all()


class TestForward:
    def test_zero_weights_uniform(self):
        g = make_graph(3, [(0, 1)], features=np.ones((3, 2)),
                       labels=[0, 1, 0], class_count=2)
        m = GcnModel(w0=np.zeros((2, 4)), w1=np.zeros((4, 2)),
                     b0=np.zeros(4), b1=np.zeros(2), seed=0)
        probs = gcn_forward(m, g.features, normalize_adjacency(adjacency(g)))
        np.testing.assert_allclose(probs, 0.5 * np.ones((3, 2)))

    def test_rows_sum_to_one(self):
        g = two_cliques()
        w0, w1, b0, b1 = init_weights(2, 6, 2, seed=4)
        m = GcnModel(w0=w0, w1=w1, b0=b0, b1=b1, seed=4)
        probs = gcn_forward(m, g.features, normalize_adjacency(adjacency(g)))
        assert probs.shape == (8, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_single_node_scalar_oracle(self):
        # one isolated node: A_hat = [[1]]; verify against scalar arithmetic
        g = make_graph(1, [], features=np.array([[2.0, -1.0]]), labels=[0],
                       class_count=2)
        w0 = np.array([[0.3], [0.5]])
        w1 = np.array([[0.7, -0.2]])
        b0 = np.array([0.1])
        b1 = np.array([0.05, -0.05])
        m = GcnModel(w0=w0, w1=w1, b0=b0, b1=b1, seed=0)
        h = max(2.0 * 0.3 + (-1.0) * 0.5 + 0.1, 0.0)
        z = (h * 0.7 + 0.05, h * (-0.2) - 0.05)
        denom = math.exp(z[0]) + math.exp(z[1])
        expected = (math.exp(z[0]) / denom, math.exp(z[1]) / denom)
        np.testing.assert_allclose(gcn_forward(m, g.features, np.array([[1.0]]))[0],
                                   expected, atol=1e-12)

    def test_dimension_mismatch(self):
        g = two_cliques()
        w0, w1, b0, b1 = init_weights(2, 4, 2, seed=0)
        m = GcnModel(w0=w0, w1=w1, b0=b0, b1=b1, seed=0)
        with pytest.raises(ValueError, match="feature dim"):
            gcn_forward(m, np.ones((8, 5)), normalize_adjacency(adjacency(g)))


class TestGradients:
    def test_gradient_check_6_nodes_h4(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)],
                       features=np.random.default_rng(1).normal(size=(6, 3)),
                       labels=[0, 1, 2, 0, 1, 2], class_count=3)
        a_hat = normalize_adjacency(adjacency(g))
        train_idx = np.array([0, 1, 2, 3, 4, 5])
        w0, w1, b0, b1 = init_weights(3, 4, 3, seed=9)
        params = [w0, w1, b0, b1]
        _, *grads = loss_and_grads(a_hat, g.features, g.labels, train_idx, *params)
        h = 1e-5
        for pi, p in enumerate(params):
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp = loss_and_grads(a_hat, g.features, g.labels, train_idx, *params)[0]
                p[idx] = orig - h
                lm = loss_and_grads(a_hat, g.features, g.labels, train_idx, *params)[0]
                p[idx] = orig
                fd[idx] = (lp - lm) / (2 * h)
                it.iternext()
            denom = np.maximum(np.abs(fd), 1e-8)
            rel = np.abs(grads[pi] - fd) / denom
            assert rel.max() < 1e-4, f"param {pi}: max rel err {rel.max()}"


class TestTraining:
    def test_two_cliques_100pct_within_500_epochs(self):
        g = two_cliques()
        split = NodeSplit(train=tuple(range(8)), validation=(), test=())
        m = train_gcn(g, split, TrainConfig(hidden_dim=8, max_epochs=500,
                                            seed=0, restarts=1))
        pred = predict(m, g)
        assert (pred == g.labels).all()

    def test_zero_learning_rate_keeps_init(self):
        g = two_cliques()
        split = NodeSplit(train=tuple(range(8)), validation=(), test=())
        cfg = TrainConfig(hidden_dim=4, max_epochs=50, learning_rate=0.0,
                          seed=12, restarts=1)
        m = train_gcn(g, split, cfg)
        w0, w1, b0, b1 = init_weights(2, 4, 2, seed=12)
        np.testing.assert_array_equal(m.w0, w0)
        np.testing.assert_array_equal(m.w1, w1)
        np.testing.assert_array_equal(m.b0, b0)
        np.testing.assert_array_equal(m.b1, b1)

    def test_deterministic(self):
        g = two_cliques()
        split = split_nodes(g, 0)
        cfg = TrainConfig(hidden_dim=4, max_epochs=100, seed=5)
        m1 = train_gcn(g, split, cfg)
        m2 = train_gcn(g, split, cfg)
        np.testing.assert_array_equal(m1.w0, m2.w0)
        np.testing.assert_array_equal(m1.w1, m2.w1)

    def test_empty_train_split_rejected(self):
        g = two_cliques()
        split = NodeSplit(train=(), validation=(0,), test=(1,))
        with pytest.raises(ValueError, match="empty"):
            train_gcn(g, split, TrainConfig(max_epochs=1))


class TestPredict:
    def test_uniform_ties_break_low(self):
        g = make_graph(3, [(0, 1)], features=np.ones((3, 2)),
                       labels=[0, 1, 0], class_count=2)
        m = GcnModel(w0=np.zeros((2, 4)), w1=np.zeros((4, 2)),
                     b0=np.zeros(4), b1=np.zeros(2), seed=0)
        np.testing.assert_array_equal(predict(m, g), [0, 0, 0])

    def test_same_graph_same_predictions(self):
        from relex.graphs import remove_edges
        g = two_cliques()
        split = NodeSplit(train=tuple(range(8)), validation=(), test=())
        m = train_gcn(g, split, TrainConfig(hidden_dim=8, max_epochs=300, seed=0,
                                            restarts=1))
        g_same, _ = remove_edges(g, [])
        np.testing.assert_array_equal(predict(m, g), predict(m, g_same))

    def test_pure_function(self):
        g = two_cliques()
        split = NodeSplit(train=tuple(range(8)), validation=(), test=())
        m = train_gcn(g, split, TrainConfig(hidden_dim=8, max_epochs=200, seed=0,
                                            restarts=1))
        np.testing.assert_array_equal(predict(m, g), predict(m, g))


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        g = two_cliques()
        split = NodeSplit(train=tuple(range(8)), validation=(), test=())
        m = train_gcn(g, split, TrainConfig(hidden_dim=8, max_epochs=100, seed=3,
                                            restarts=1))
        save_model(m, tmp_path / "m.json")
        m2 = load_model(tmp_path / "m.json")
        np.testing.assert_array_equal(m.w0, m2.w0)
        np.testing.assert_array_equal(m.w1, m2.w1)
        np.testing.assert_array_equal(m.b0, m2.b0)
        np.testing.assert_array_equal(m.b1, m2.b1)
        np.testing.assert_array_equal(predict(m, g), predict(m2, g))

    def test_json_fields(self, tmp_path):
        g = two_cliques()
        split = NodeSplit(train=tuple(range(8)), validation=(), test=())
        m = train_gcn(g, split, TrainConfig(hidden_dim=4, max_epochs=10, seed=0,
                                            restarts=1))
        save_model(m, tmp_path / "m.json")
        blob = json.loads((tmp_path / "m.json").read_text())
        assert blob["hidden_dim"] == 4
        assert blob["seed"] == 0
        assert len(blob["w0"]) == 2
        assert blob["class_count"] == 2

    def test_stored_dims_must_match_weights(self, tmp_path):
        w0, w1, b0, b1 = init_weights(2, 4, 3, seed=0)
        save_model(GcnModel(w0=w0, w1=w1, b0=b0, b1=b1, seed=0), tmp_path / "m.json")
        blob = json.loads((tmp_path / "m.json").read_text())
        assert (blob["input_dim"], blob["hidden_dim"], blob["class_count"]) == (2, 4, 3)
        for key in ("input_dim", "hidden_dim", "class_count"):
            bad = dict(blob, **{key: blob[key] + 1})
            (tmp_path / "bad.json").write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=key):
                load_model(tmp_path / "bad.json")


class TestModelDims:
    def test_dims_read_from_weight_shapes(self):
        w0, w1, b0, b1 = init_weights(5, 7, 3, seed=1)
        m = GcnModel(w0=w0, w1=w1, b0=b0, b1=b1, seed=1)
        assert (m.input_dim, m.hidden_dim, m.class_count) == (5, 7, 3)

    def test_unchained_shapes_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            GcnModel(w0=np.zeros((2, 4)), w1=np.zeros((3, 2)),
                     b0=np.zeros(4), b1=np.zeros(2), seed=0)
        with pytest.raises(ValueError, match="bias"):
            GcnModel(w0=np.zeros((2, 4)), w1=np.zeros((4, 2)),
                     b0=np.zeros(3), b1=np.zeros(2), seed=0)
