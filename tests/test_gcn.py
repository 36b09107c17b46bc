import json
import math
import os
import pickle
import signal
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from relex.datasets import generate_ba_shapes, generate_tree_motif
import relex.gcn
import relex.workers
from relex.gcn import (GcnModel, TrainConfig, TrainingDiverged, _backward_pass, _class_sum,
                       _forward, _forward_pass, _layouts, _model_size, _one_model, _product,
                       _slots, _targets, _train_in_parts, _train_restarts, _with_ones,
                       gcn_forward,
                       init_weights, load_model, loss_and_grads, normalize_adjacency,
                       predict, save_model, sparse_a_hat, train_gcn, train_gcns)
from relex.graphs import NodeSplit, adjacency, make_graph, remove_edges, split_nodes
from relex.pipeline import GENERATORS, DatasetSpec
from relex.workers import grid_parts


def two_cliques(k=4):
    """Two disconnected k-cliques with distinct constant features."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, j) for i in range(k, 2 * k) for j in range(i + 1, 2 * k)]
    feats = np.zeros((2 * k, 2))
    feats[:k] = [1.0, 0.0]
    feats[k:] = [0.0, 1.0]
    labels = [0] * k + [1] * k
    return make_graph(2 * k, edges, features=feats, labels=labels)


def reference_loss_and_grads(a_hat, x, y, train_idx, w0, w1, b0, b1):
    """The one-model forward pass, loss and gradients as written before
    training ran its restarts in lockstep, with layer 2 multiplied by W1
    before it propagates, as the training loop does."""
    z1 = a_hat @ x @ w0 + b0
    h1 = np.maximum(z1, 0.0)
    z2 = a_hat @ (h1 @ w1) + b1
    return reference_loss_and_grads_from(a_hat, x, y, train_idx, w1, z1, h1, z2)


def dense_reference_loss_and_grads(a_hat, x, y, train_idx, w0, w1, b0, b1):
    """The same with layer 2 propagated before it multiplies by W1: the
    formulas of the GCN that trained on a dense A_hat."""
    z1 = a_hat @ x @ w0 + b0
    h1 = np.maximum(z1, 0.0)
    z2 = a_hat @ h1 @ w1 + b1
    return reference_loss_and_grads_from(a_hat, x, y, train_idx, w1, z1, h1, z2)


def reference_loss_and_grads_from(a_hat, x, y, train_idx, w1, z1, h1, z2):
    """Probabilities, loss and gradients from layer 1's z1 and h1 and the
    logits z2."""
    z2 = z2 - z2.max(axis=1, keepdims=True)
    exp = np.exp(z2)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(probs[train_idx, y[train_idx]] + 1e-12))

    g2 = np.zeros_like(probs)
    g2[train_idx] = probs[train_idx]
    g2[train_idx, y[train_idx]] -= 1.0
    g2 /= len(train_idx)

    grad_b1 = g2.sum(axis=0)
    ah_g2 = a_hat @ g2
    grad_w1 = h1.T @ ah_g2
    g1 = (ah_g2 @ w1.T) * (z1 > 0)
    grad_b0 = g1.sum(axis=0)
    grad_w0 = (a_hat @ x).T @ g1
    return loss, probs, [grad_w0, grad_w1, grad_b0, grad_b1]


def reference_accuracy(probs, y, idx):
    return float((probs[idx].argmax(axis=1) == y[idx]).mean())


def reference_adam_run(a_hat, x, y, class_count, train_idx, monitor_idx, cfg, seed):
    """One seeded Adam run, one epoch after another; returns its best
    weights, best (monitored, train) accuracy and last epoch."""
    params = list(init_weights(x.shape[1], cfg.hidden_dim, class_count, seed))
    mom = [np.zeros_like(p) for p in params]
    vel = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best = [p.copy() for p in params]
    best_acc = (-1.0, -1.0)
    best_loss = math.inf
    stale = 0
    for t in range(1, cfg.max_epochs + 1):
        loss, _, grads = reference_loss_and_grads(a_hat, x, y, train_idx, *params)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss {loss} at epoch {t}")
        for j, grad in enumerate(grads):
            mom[j] = beta1 * mom[j] + (1 - beta1) * grad
            vel[j] = beta2 * vel[j] + (1 - beta2) * grad * grad
            m_hat = mom[j] / (1 - beta1 ** t)
            v_hat = vel[j] / (1 - beta2 ** t)
            params[j] = params[j] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        probs = reference_loss_and_grads(a_hat, x, y, train_idx, *params)[1]
        acc = (reference_accuracy(probs, y, monitor_idx),
               reference_accuracy(probs, y, train_idx))
        improved = False
        if acc > best_acc:
            best_acc = acc
            best = [p.copy() for p in params]
            improved = True
        if loss < best_loss - 1e-6:
            best_loss = loss
            improved = True
        if improved:
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best, best_acc, t


def reference_train(g, split, cfg):
    """The restarts run one after another on the CSR A_hat; returns each
    restart's (best weights, best accuracy, last epoch) and the winning
    model."""
    a_hat = sparse_a_hat(g)
    train_idx = np.asarray(split.train)
    monitor_idx = np.asarray(split.validation if split.validation else split.train)
    runs = [reference_adam_run(a_hat, g.features, g.labels, g.class_count, train_idx,
                               monitor_idx, cfg, cfg.seed + r)
            for r in range(cfg.restarts)]
    best_params = None
    best_acc = (-1.0, -1.0)
    for params, acc, _ in runs:
        if acc > best_acc:
            best_acc = acc
            best_params = params
    w0, w1, b0, b1 = best_params
    return runs, GcnModel(w0=w0, w1=w1, b0=b0, b1=b1, seed=cfg.seed)


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
        train_idx = np.array([0, 1, 2, 3, 4, 5])
        w0, w1, b0, b1 = init_weights(3, 4, 3, seed=9)
        params = [w0, w1, b0, b1]
        for a_hat in (normalize_adjacency(adjacency(g)), sparse_a_hat(g)):
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


class TestSparsePath:
    """Training and prediction run on a CSR A_hat built from the edge list,
    with layer 2 multiplied by W1 before it propagates."""

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_csr_a_hat_equals_dense_bit_for_bit(self, kind):
        g = DatasetSpec(kind=kind).build(1)
        dense = normalize_adjacency(adjacency(g))
        for a_hat in (sparse_a_hat(g), normalize_adjacency(sp.csr_array(adjacency(g)))):
            assert sp.issparse(a_hat) and a_hat.format == "csr"
            assert a_hat.nnz == np.count_nonzero(dense) == 2 * g.edge_count + g.node_count
            assert (a_hat.toarray() == dense).all()

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_forward_and_gradients_match_the_dense_formulas(self, kind):
        """Within 1e-12 of each array's largest entry: CSR sums and the
        reordered layer 2 round differently from dense products."""
        g = DatasetSpec(kind=kind).build(1)
        train_idx = np.asarray(split_nodes(g, 1).train)
        model = train_gcn(g, split_nodes(g, 1),
                          TrainConfig(max_epochs=30, restarts=1, seed=2))
        params = [model.w0, model.w1, model.b0, model.b1]
        loss, probs, grads = dense_reference_loss_and_grads(
            normalize_adjacency(adjacency(g)), g.features, g.labels, train_idx, *params)
        a_hat = sparse_a_hat(g)
        got_loss, *got_grads = loss_and_grads(a_hat, g.features, g.labels, train_idx,
                                              *params)
        pairs = [(gcn_forward(model, g.features, a_hat), probs), (got_loss, loss),
                 *zip(got_grads, grads)]
        for got, want in pairs:
            scale = np.abs(want).max()
            assert scale > 0
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_train_and_predict_hold_no_n_by_n_array(self):
        """At 3,000 nodes a dense A_hat alone takes n^2 * 8 bytes (72 MB)."""
        g = generate_ba_shapes(1500, 300, 1)
        split = split_nodes(g, 1)
        limit = g.node_count ** 2 * 8 // 4
        tracemalloc.start()
        try:
            model = train_gcn(g, split, TrainConfig(max_epochs=3))
            train_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            predict(model, g)
            predict_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.node_count == 3000
        assert train_peak < limit, train_peak
        assert predict_peak < limit, predict_peak


class TestEpochArrays:
    """Training runs ``_forward`` and the backward pass on arrays it
    allocates once, and writes every result into them."""

    @staticmethod
    def rerun_equals_fresh(a_rows, ax, weights, change):
        """A pass bound to ``ax`` and ``weights`` gives, after ``change``
        rewrites its inputs in place, what a fresh ``_forward`` gives on
        them, bit for bit, in the same three arrays as its first run."""
        bound = _forward_pass(a_rows, ax, *weights)
        first = bound()
        change()
        again = bound()
        assert all(a is b for a, b in zip(first, again))
        for got, want in zip(again, _forward(a_rows, ax, *weights), strict=True):
            assert got.shape == want.shape and (got == want).all()

    def test_block_diagonal_models(self):
        """K = 3 graphs with R = 2 models each, through the block-diagonal
        CSR matrix of their scored rows, with every weight redrawn."""
        g = generate_ba_shapes(25, 5, 1)
        graphs = [g, *(remove_edges(g, sorted(g.edges)[j::5])[0] for j in range(2))]
        a_hats = [sparse_a_hat(x) for x in graphs]
        split = split_nodes(g, 1, (0.5, 0.1, 0.4))
        t = _targets(a_hats, g.labels, g.class_count, np.asarray(split.train),
                     np.asarray(split.validation))
        d, h, c = g.features.shape[1], 8, g.class_count
        rng = np.random.default_rng(0)
        flat = rng.uniform(-1, 1, 3 * 2 * _model_size(d, h, c))
        ax = _with_ones(np.stack([a @ g.features for a in a_hats]))

        def change():
            flat[:] = rng.uniform(-1, 1, flat.size)
        self.rerun_equals_fresh(t.a_scored, ax, _layouts(flat, 3, 2, d, h, c), change)

    def test_dense_stack_of_balls(self):
        """The explainer's layout: one model over a (P, b, b) stack, whose
        A_hat and A_hat . X change between runs, as a mask loop's do."""
        rng = np.random.default_rng(1)
        a_hat = rng.random((4, 9, 9))
        ax = _with_ones(rng.normal(size=(4, 9, 3)))
        weights = _one_model(*init_weights(3, 5, 8, seed=2))

        def change():
            a_hat[...] = rng.random(a_hat.shape)
            ax[..., :-1] = rng.normal(size=(4, 9, 3))
        self.rerun_equals_fresh(a_hat, ax, weights, change)

    @pytest.mark.parametrize("dense", [False, True])
    def test_one_model(self, dense):
        g = two_cliques()
        a_hat = normalize_adjacency(adjacency(g)) if dense else sparse_a_hat(g)
        weights = _one_model(*init_weights(2, 6, 2, seed=4))

        def change():
            for w in weights:
                w *= -1.5
        self.rerun_equals_fresh(a_hat, _with_ones(a_hat @ g.features)[None], weights, change)

    def test_class_sum_is_a_contiguous_sum(self):
        """The class-major denominator equals np.add.reduce over a
        node-major copy at every class count from 2 to 130; numpy's order
        changes at 8 and above 128 terms."""
        rng = np.random.default_rng(5)
        for classes in range(2, 131):
            p = rng.random((3, classes, 17)) * 10.0 ** rng.integers(-8, 8, (3, classes, 17))
            want = np.add.reduce(np.ascontiguousarray(p.transpose(0, 2, 1)), axis=-1)
            got = _class_sum(p, np.full((3, 1, 17), np.nan))
            assert (got[:, 0] == want).all(), classes

    def test_csr_product_is_scipys(self):
        """The CSR product calls scipy's csr_matvecs kernel itself, into an
        array that already holds values; it equals ``a @ x``, so a scipy
        that moves the kernel fails here."""
        rng = np.random.default_rng(3)
        for n, cols, density in ((40, 7, 0.1), (120, 12, 0.03), (5, 1, 0.5)):
            a = sp.csr_array(rng.normal(size=(n, n)) * (rng.random((n, n)) < density))
            a = sp.block_diag([a, a[::-1]], format="csr")
            x = rng.normal(size=(2 * n, cols))
            out = np.full((2 * n, cols), np.nan)
            _product(a, x, out)()
            assert (out == a @ x).all()

    def test_an_epoch_allocates_no_layer_sized_array(self, monkeypatch):
        """From the first backward pass on, every epoch of a two-graph
        run together allocates less than half of one (K, R, n, h) array."""
        g = generate_ba_shapes(150, 30, 1)
        split = split_nodes(g, 1, (0.5, 0.1, 0.4))
        graphs = [g, remove_edges(g, sorted(g.edges)[::9])[0]]
        real, start = relex.gcn._backward_pass, []

        def traced(*args):
            run = real(*args)

            def first_resets_the_peak():
                if not start:
                    tracemalloc.reset_peak()
                    start.append(tracemalloc.get_traced_memory()[0])
                return run()
            return first_resets_the_peak
        monkeypatch.setattr(relex.gcn, "_backward_pass", traced)
        cfg = TrainConfig(hidden_dim=32, max_epochs=20, restarts=3)
        tracemalloc.start()
        try:
            train_gcns(graphs, split, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start[0]
        finally:
            tracemalloc.stop()
        assert peak < len(graphs) * g.node_count * 3 * 32 * 8 // 2, peak


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


ORACLE_GRAPHS = {
    "ba-shapes": lambda: generate_ba_shapes(25, 5, 1),
    "tree-cycles": lambda: generate_tree_motif(4, "cycle", 3, 1),
    "two-cliques": two_cliques,
}

# (graph, restarts, patience, max_epochs, empty validation split).  On
# ba-shapes (3, 5) the restarts stop at epochs 21, 21 and 19 and tie; on
# tree-cycles (3, 20) restart 0 stops at epoch 23 and the others run on.
ORACLE_CASES = [
    ("ba-shapes", 3, 5, 300, False),
    ("ba-shapes", 2, 1, 50, True),
    ("ba-shapes", 1, 200, 300, True),
    ("tree-cycles", 3, 20, 300, True),
    ("tree-cycles", 2, 1, 50, False),
    ("tree-cycles", 1, 200, 300, False),
    ("two-cliques", 3, 5, 300, True),
    ("two-cliques", 2, 1, 50, False),
    ("two-cliques", 1, 200, 300, True),
]


def oracle_case(name, restarts, patience, epochs, empty_validation):
    g = ORACLE_GRAPHS[name]()
    split = split_nodes(g, 1, (0.6, 0.2, 0.2))
    if empty_validation:
        split = NodeSplit(train=split.train, validation=(), test=split.test)
    cfg = TrainConfig(hidden_dim=8, max_epochs=epochs, patience=patience,
                      restarts=restarts, seed=3)
    return g, split, cfg


def lockstep_restarts(g, split, cfg):
    """_train_restarts on g's CSR A_hat alone, as train_gcn calls it; the
    stacked weights and accuracy pairs of g's restarts."""
    train_idx = np.asarray(split.train)
    monitor_idx = np.asarray(split.validation if split.validation else split.train)
    stacked, best_acc = _train_restarts([sparse_a_hat(g)], g.features, g.labels,
                                        g.class_count, train_idx, monitor_idx, cfg)
    return [w[0] for w in stacked], best_acc[0]


def assert_lockstep_matches_reference(g, split, cfg):
    """Each restart's best weights and accuracy pair, and the model, equal
    reference_train's, with ==; returns reference_train's runs."""
    runs, expected = reference_train(g, split, cfg)
    stacked, best_acc = lockstep_restarts(g, split, cfg)
    for r, (params, acc, _) in enumerate(runs):
        assert tuple(best_acc[r]) == acc, f"restart {r}"
        for got, want in zip(stacked, params):
            assert (got[r].reshape(want.shape) == want).all(), f"restart {r}"
    model = train_gcn(g, split, cfg)
    for key in ("w0", "w1", "b0", "b1"):
        got, want = getattr(model, key), getattr(expected, key)
        assert got.shape == want.shape and (got == want).all(), key
    return runs


def shuffled_split(g, seed, empty_validation):
    """A hand-built split of g whose train and validation tuples are not
    sorted: half the nodes train, a fifth validate, in a seeded order."""
    order = np.random.default_rng(seed).permutation(g.node_count).tolist()
    half, fifth = g.node_count // 2, g.node_count // 5
    train, validation = tuple(order[:half]), tuple(order[half:half + fifth])
    assert list(train) != sorted(train) and list(validation) != sorted(validation)
    if empty_validation:
        return NodeSplit(train=train, validation=(), test=tuple(order[half:]))
    return NodeSplit(train=train, validation=validation, test=tuple(order[half + fifth:]))


class TestLockstepTrainingOracle:
    """The lockstep restarts against the restarts run one by one, with ==."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_each_restart_and_the_model_match(self, case):
        assert_lockstep_matches_reference(*oracle_case(*case))

    @pytest.mark.parametrize("epochs, patience", [(200, 200), (80, 5)])
    def test_benchmark_shaped_case(self, epochs, patience):
        """ba-shapes(150, 30) split (0.5, 0.1, 0.4) at h = 32, as the
        benchmark trains it, so 40 % of the rows are never scored.  In 200
        epochs two restarts leave the class-prior plateau; at patience 5
        the restarts stop at different epochs on it."""
        g = generate_ba_shapes(150, 30, 1)
        split = split_nodes(g, 1, (0.5, 0.1, 0.4))
        assert len(split.test) >= 0.35 * g.node_count
        cfg = TrainConfig(hidden_dim=32, max_epochs=epochs, patience=patience,
                          restarts=3, seed=3)
        runs = assert_lockstep_matches_reference(g, split, cfg)
        last = [t for _, _, t in runs]
        if patience < epochs:
            assert len(set(last)) > 1 and max(last) < epochs, last
        else:
            assert max(acc for _, acc, _ in runs) > (0.5, 0.5)

    @pytest.mark.parametrize("empty_validation", [False, True])
    def test_unsorted_split(self, empty_validation):
        """The loss sums over the train nodes in split order, while the
        scored rows hold them sorted."""
        g = generate_ba_shapes(25, 5, 1)
        split = shuffled_split(g, 7, empty_validation)
        cfg = TrainConfig(hidden_dim=8, max_epochs=200, patience=10, restarts=3, seed=3)
        assert_lockstep_matches_reference(g, split, cfg)

    @pytest.mark.parametrize("patience, last", [
        (200, [[300, 300, 300]] * 4),
        (5, [[14, 300, 15], [14, 300, 16], [14, 13, 15], [14, 300, 15]]),
    ])
    def test_reduced_graphs_match_training_each_alone(self, patience, last):
        """ba-shapes(25, 5) split (0.5, 0.1, 0.4) at h = 32, as a verify-bp
        run trains it, and four reduced graphs without 4, 6, 6 and 6 of its
        edges, as that run retrains on them.  At patience 200 no restart
        stops; at patience 5 every restart of graph 2 stops, and so does
        restart 0 of every graph, while graph 2's restart 1 and graph 0's
        restart 2 each stop while their graph and their restart index still
        train."""
        g = generate_ba_shapes(25, 5, 1)
        split = split_nodes(g, 1, (0.5, 0.1, 0.4))
        edges = sorted(g.edges)
        rng = np.random.default_rng(0)
        graphs = [remove_edges(g, [edges[j] for j in
                                   rng.choice(len(edges), size, replace=False)])[0]
                  for size in (4, 6, 6, 6)]
        cfg = TrainConfig(hidden_dim=32, max_epochs=300, patience=patience,
                          restarts=3, seed=3)
        for graph, model in zip(graphs, train_gcns(graphs, split, cfg), strict=True):
            alone = train_gcn(graph, split, cfg)
            for key in ("w0", "w1", "b0", "b1"):
                assert (getattr(model, key) == getattr(alone, key)).all(), key
        assert [[t for _, _, t in reference_train(graph, split, cfg)[0]]
                for graph in graphs] == last

    def test_a_lone_models_loss_is_its_lockstep_loss(self, monkeypatch):
        """Each model's loss sums its train nodes in train order, also when
        it trains alone, as ``loss_and_grads`` and a one-restart part run
        it: on tree-cycles(4, 5) at h = 32, numpy's pairwise sum of a lone
        model's column gives restart 1 another first-epoch loss."""
        g = generate_tree_motif(4, "cycle", 5, 1)
        split = split_nodes(g, 1, (0.5, 0.1, 0.4))
        train_idx = np.asarray(split.train)
        args = ([sparse_a_hat(g)], g.features, g.labels, g.class_count, train_idx,
                np.asarray(split.validation))
        real, first = relex.gcn._backward_pass, []

        def recorded(*pass_args):
            run = real(*pass_args)

            def record():
                loss = run()
                first.append(loss.copy())
                return loss
            return record
        monkeypatch.setattr(relex.gcn, "_backward_pass", recorded)
        cfg = TrainConfig(hidden_dim=32, max_epochs=1, restarts=3, seed=3)
        _train_restarts(*args, cfg)
        lockstep = first.pop().tolist()
        for r in range(cfg.restarts):
            _train_restarts(*args, replace(cfg, seed=cfg.seed + r, restarts=1))
            assert first.pop().tolist() == [lockstep[r]], r
            weights = init_weights(g.features.shape[1], 32, g.class_count, cfg.seed + r)
            loss = loss_and_grads(args[0][0], g.features, g.labels, train_idx, *weights)[0]
            assert loss == lockstep[r], r

    def test_cases_stop_apart_and_tie(self):
        """The grid holds restarts that stop at different epochs before
        max_epochs, and restarts whose best accuracies tie, so an early
        stop that is not honoured or a tie that goes to a later restart
        changes a result above."""
        stops, ties = set(), set()
        for case in ORACLE_CASES:
            runs, _ = reference_train(*oracle_case(*case))
            last = [t for _, _, t in runs]
            if len(set(last)) > 1 and min(last) < case[3]:
                stops.add(case[0])
            accs = [acc for _, acc, _ in runs]
            if len(set(accs)) < len(accs):
                ties.add(case[0])
        assert stops >= {"ba-shapes", "tree-cycles"}
        assert ties >= {"ba-shapes", "two-cliques"}


class TestUnscoredLabels:
    """Training reads the labels of the train and validation nodes only."""

    @pytest.mark.parametrize("graph", ["ba-shapes", "tree-cycles"])
    def test_test_labels_are_never_read(self, graph):
        g = ORACLE_GRAPHS[graph]()
        split = split_nodes(g, 1, (0.5, 0.1, 0.4))
        labels = g.labels.copy()
        labels[list(split.test)] = (labels[list(split.test)] + 1) % g.class_count
        relabelled = make_graph(g.node_count, g.edges, features=g.features,
                                labels=labels, class_count=g.class_count)
        assert (relabelled.labels != g.labels).sum() == len(split.test) > 0
        cfg = TrainConfig(hidden_dim=8, max_epochs=120, patience=10, restarts=3, seed=3)
        stacked, best_acc = lockstep_restarts(g, split, cfg)
        stacked_relabelled, best_acc_relabelled = lockstep_restarts(relabelled, split, cfg)
        assert best_acc_relabelled == best_acc
        for got, want in zip(stacked_relabelled, stacked):
            assert (got == want).all()
        model, model_relabelled = train_gcn(g, split, cfg), train_gcn(relabelled, split, cfg)
        for key in ("w0", "w1", "b0", "b1"):
            assert (getattr(model_relabelled, key) == getattr(model, key)).all(), key


class TestDivergence:
    def test_huge_learning_rate_raises(self):
        g = ORACLE_GRAPHS["ba-shapes"]()
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDiverged, match="non-finite loss nan at epoch 2"):
            train_gcn(g, split_nodes(g, 1), TrainConfig(learning_rate=1e300))

    @staticmethod
    def check_stops_and_divergence(graph, split, cfg, last, restart, epoch):
        """reference_train's restarts on graph stop at epochs ``last``, and
        ``restart`` would have raised at ``epoch`` had it gone on; returns
        reference_train's model."""
        train_idx = np.asarray(split.train)
        runs, model = reference_train(graph, split, cfg)
        assert [t for _, _, t in runs] == last
        with pytest.raises(TrainingDiverged, match=f"at epoch {epoch}$"):
            reference_adam_run(sparse_a_hat(graph), graph.features, graph.labels,
                               graph.class_count, train_idx, train_idx,
                               replace(cfg, patience=cfg.max_epochs),
                               seed=cfg.seed + restart)
        return model

    @staticmethod
    def assert_same_models(got, want):
        for model, expected in zip(got, want, strict=True):
            for key in ("w0", "w1", "b0", "b1"):
                assert (getattr(model, key) == getattr(expected, key)).all(), key

    def test_stopped_restart_never_raises(self):
        """On two-cliques at this rate the three restarts stop at epochs 5,
        5 and 9; restart 0's loss would turn non-finite at epoch 8 had it
        gone on.  At seed 1, graph 0, two-cliques without every other edge,
        stops its restart 2 at epoch 5, which would turn non-finite at epoch
        7; its restart 1 trains to epoch 9, and graph 1's (two-cliques and
        edge (3, 4)) restart 2 to epoch 8, so in one lockstep run the
        stopped model stays while its loss turns non-finite."""
        g, split, _ = oracle_case("two-cliques", 3, 3, 60, True)
        cfg = TrainConfig(hidden_dim=8, max_epochs=60, patience=3, restarts=3,
                          learning_rate=2e153, seed=0)
        half, _ = remove_edges(g, sorted(g.edges)[::2])
        bridged = make_graph(g.node_count, [*g.edges, (3, 4)], features=g.features,
                             labels=g.labels)
        with np.errstate(all="ignore"):
            expected = self.check_stops_and_divergence(g, split, cfg, [5, 5, 9], 0, 8)
            self.assert_same_models([train_gcn(g, split, cfg)], [expected])
            cfg = replace(cfg, seed=1)
            runs, bridged_model = reference_train(bridged, split, cfg)
            assert [t for _, _, t in runs] == [4, 10, 8]
            expected = [self.check_stops_and_divergence(half, split, cfg, [5, 9, 5], 2, 7),
                        bridged_model]
            self.assert_same_models(train_gcns([half, bridged], split, cfg), expected)

    def test_divergence_names_the_graph(self):
        """At patience 10 a restart's loss turns non-finite at epoch 8 on
        two-cliques and at epoch 7 on it without every other edge."""
        g, split, _ = oracle_case("two-cliques", 3, 10, 60, True)
        half, _ = remove_edges(g, sorted(g.edges)[::2])
        cfg = TrainConfig(hidden_dim=8, max_epochs=60, patience=10, restarts=3,
                          learning_rate=2e153, seed=0)
        for graphs, graph, epoch in (([g], 0, 8), ([g, half], 1, 7), ([half, g], 0, 7)):
            with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
                train_gcns(graphs, split, cfg)
            assert str(exc.value) == f"non-finite loss nan at epoch {epoch} on graph {graph}"
            assert exc.value.graph == graph


CPU_COUNTS = [1, 2, 3, 4]


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(params=CPU_COUNTS)
def cpus(request, monkeypatch):
    """Training split as if the affinity mask held 1 to 4 CPUs; no child
    outlives the test."""
    monkeypatch.setattr(relex.workers, "cpu_count", lambda: request.param)
    yield request.param
    assert no_child_left()


class TestDivergenceAtEveryCpuCount(TestDivergence):
    """TestDivergence's tests, unedited, with training split in 1 to 4
    parts."""

    @pytest.fixture(autouse=True)
    def split_training(self, cpus):
        return cpus


def reduced_graphs(count):
    """ba-shapes(25, 5) without 4 to 7 random edges each, as verify-bp
    retrains it, and its split."""
    g = generate_ba_shapes(25, 5, 1)
    edges = sorted(g.edges)
    rng = np.random.default_rng(0)
    graphs = [remove_edges(g, [edges[j] for j in rng.choice(len(edges), 4 + i % 4,
                                                            replace=False)])[0]
              for i in range(count)]
    return graphs, split_nodes(g, 1, (0.5, 0.1, 0.4))


def wide_graphs(count):
    """``reduced_graphs`` with 400 seeded random features per node, past
    one OpenBLAS k-block."""
    graphs, split = reduced_graphs(count)
    x = np.random.default_rng(4).normal(size=(graphs[0].node_count, 400))
    return [make_graph(g.node_count, g.edges, features=x, labels=g.labels,
                       class_count=g.class_count) for g in graphs], split


class TestTrainingInParts:
    """Training split across processes against the in-process lockstep
    run, with ==, and the clean-up of the children."""

    def test_parts_follow_model_order(self):
        assert grid_parts(1, 3, 2) == [(range(1), range(2)), (range(1), range(2, 3))]
        assert grid_parts(3, 3, 2) == [(range(2), range(3)), (range(2, 3), range(3))]
        assert grid_parts(3, 3, 4) == [(range(1), range(2)), (range(1), range(2, 3)),
                                   (range(1, 2), range(3)), (range(2, 3), range(3))]
        for k in range(1, 6):
            for r in range(1, 5):
                for p in range(1, k * r + 1):
                    parts = grid_parts(k, r, p)
                    models = [g * r + i for graphs, restarts in parts
                              for g in graphs for i in restarts]
                    assert len(parts) == p and models == list(range(k * r)), (k, r, p)

    @pytest.mark.parametrize("count", [1, 3, 4])
    def test_models_and_accuracies_match_in_process(self, cpus, count):
        """K = 1 splits by restarts, K = 3 by graphs unevenly at 2 CPUs,
        and K = 4 by graphs; at patience 5 restarts stop apart."""
        graphs, split = reduced_graphs(count)
        g = graphs[0]
        cfg = TrainConfig(hidden_dim=8, max_epochs=150, patience=5, restarts=3, seed=3)
        args = ([sparse_a_hat(graph) for graph in graphs], g.features, g.labels,
                g.class_count, np.asarray(split.train), np.asarray(split.validation), cfg)
        want_stacked, want_accs = _train_restarts(*args)
        stacked, accs = _train_in_parts(*args)
        assert accs == want_accs
        for got, want in zip(stacked, want_stacked, strict=True):
            assert got.shape == want.shape and (got == want).all()
        w0, w1, b0, b1 = want_stacked
        for k, model in enumerate(train_gcns(graphs, split, cfg)):
            win = max(range(cfg.restarts), key=want_accs[k].__getitem__)
            for got, want in ((model.w0, w0[k, win]), (model.w1, w1[k, win]),
                              (model.b0, b0[k, win, 0]), (model.b1, b1[k, win, 0])):
                assert (got == want).all()

    @staticmethod
    def fail_in_part(monkeypatch, part_seed, fail):
        """Make the part whose first restart's seed is ``part_seed`` call
        ``fail()`` instead of training."""
        real = relex.gcn._train_restarts

        def train(a_hats, x, y, class_count, train_idx, monitor_idx, cfg):
            if cfg.seed == part_seed:
                fail()
            return real(a_hats, x, y, class_count, train_idx, monitor_idx, cfg)
        monkeypatch.setattr(relex.gcn, "_train_restarts", train)

    def check_raises(self, monkeypatch, tmp_path, part_seed, fail, expected, match):
        """Training with part ``part_seed`` failing raises ``expected``;
        only this process runs the caller's ``finally``, and no child is
        left."""
        self.fail_in_part(monkeypatch, part_seed, fail)
        graphs, split = reduced_graphs(1)
        ran = tmp_path / "finally"
        try:
            with pytest.raises(expected, match=match) as raised:
                train_gcns(graphs, split, TrainConfig(hidden_dim=8, max_epochs=100,
                                                      restarts=3, seed=3))
        finally:
            with ran.open("a") as f:
                f.write(f"{os.getpid()}\n")
        assert ran.read_text().split() == [str(os.getpid())]
        assert no_child_left()
        return raised.value

    class PartFailed(Exception):
        pass

    class TwoArguments(Exception):
        """An exception pickle cannot rebuild: it pickles its message
        alone, and its constructor takes two arguments."""

        def __init__(self, part, reason):
            super().__init__(f"part {part}: {reason}")

    @pytest.mark.parametrize("kind", [ValueError, PartFailed, SystemExit])
    def test_a_childs_exception_is_raised_in_the_parent(self, monkeypatch, tmp_path, kind):
        """At 2 CPUs restart 2 trains in a child."""
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)

        def fail():
            raise kind("part 2\nfailed")
        self.check_raises(monkeypatch, tmp_path, 5, fail, kind, "^part 2\nfailed$")

    @pytest.mark.parametrize("exc", [
        KeyError("missing"), OSError(2, "No such file", "x.json"),
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "part 2")], ids=lambda e: type(e).__name__)
    def test_a_childs_exception_arrives_whole(self, monkeypatch, tmp_path, exc):
        """A child's exception reaches the parent with its type, its args
        and its attributes."""
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)

        def fail():
            raise exc
        got = self.check_raises(monkeypatch, tmp_path, 5, fail, type(exc), None)
        assert (type(got), got.args, vars(got)) == (type(exc), exc.args, vars(exc))
        for name in ("errno", "filename"):
            assert getattr(got, name, None) == getattr(exc, name, None), name

    def test_an_exception_that_takes_no_message(self, monkeypatch, tmp_path):
        """A child's exception whose type pickle cannot rebuild comes back
        as a RuntimeError that names the type."""
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)

        def fail():
            raise self.TwoArguments(2, "failed")
        self.check_raises(monkeypatch, tmp_path, 5, fail, RuntimeError,
                          r"^[\w.]*\bTestTrainingInParts\.TwoArguments: part 2: failed$")

    def test_a_payload_cut_short(self, monkeypatch):
        """A child whose pickle ends early is reported as one that sent
        nothing."""
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)

        def cut_short(run, write, reads, mask):
            try:
                os.write(write, pickle.dumps(run())[:-1])
            finally:
                os._exit(0)
        monkeypatch.setattr(relex.workers, "_run_child", cut_short)
        graphs, split = reduced_graphs(1)
        with pytest.raises(RuntimeError, match="ended without sending its result"):
            train_gcns(graphs, split, TrainConfig(hidden_dim=8, max_epochs=100,
                                                  restarts=3, seed=3))
        assert no_child_left()

    def test_the_parents_exception_ends_the_children(self, monkeypatch, tmp_path):
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 3)

        def fail():
            raise KeyError("part 0")
        self.check_raises(monkeypatch, tmp_path, 3, fail, KeyError, "part 0")

    def test_a_child_killed_by_sigterm(self, monkeypatch, tmp_path):
        """A child ends at SIGTERM even where the parent's handler raises
        SystemExit, and the parent reports it."""
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)

        def terminate(signum, frame):
            raise SystemExit(128 + signum)
        previous = signal.signal(signal.SIGTERM, terminate)
        try:
            self.check_raises(monkeypatch, tmp_path, 5,
                              lambda: os.kill(os.getpid(), signal.SIGTERM),
                              RuntimeError, "ended without sending its result")
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestRunParts:
    def test_expecting_nothing(self):
        """With ``expected`` (), a child's ValueError is raised here rather
        than returned, and no child is left."""
        parent = os.getpid()

        def run(part):
            if os.getpid() != parent:
                raise ValueError(f"part {part}")
            return part

        with pytest.raises(ValueError, match="^part 1$"):
            relex.workers.run_parts(run, [0, 1], ())
        assert no_child_left()
        assert relex.workers.run_parts(lambda part: 2 * part, [0, 1, 2], ()) == [0, 2, 4]
        assert no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs an affinity mask of two or more CPUs")
    def test_each_part_on_its_own_cpu(self):
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)[:4]
        seen = relex.workers.run_parts(lambda part: os.sched_getaffinity(0),
                                       list(range(len(cpus))), ())
        assert seen == [{cpu} for cpu in cpus]
        assert os.sched_getaffinity(0) == mask

        def fail(part, failing):
            if part == failing:
                raise KeyError(f"part {part}")
            return part
        for failing in (0, 1):  # in this process, then in the child
            with pytest.raises(KeyError, match=f"part {failing}"):
                relex.workers.run_parts(partial(fail, failing=failing), [0, 1], ())
            assert os.sched_getaffinity(0) == mask
        assert no_child_left()


class TestBiasFold:
    """Layer 1 multiplies [A_hat . X, 1] by the W0|b0 block, so b0 is
    added inside the product."""

    @staticmethod
    def pre_activations(a_rows, ax, weights):
        """Layer 1 before its ReLU: h1 at the weights minus h1 at the
        negated weights, exact, since negating W0|b0 negates every
        product and one of the two ReLUs is 0."""
        w0, w1, b1 = weights
        return _forward(a_rows, ax, w0, w1, b1)[0] - _forward(a_rows, ax, -w0, w1, b1)[0]

    @pytest.mark.parametrize("d", [1, 10, 383])
    def test_folded_product_is_ax_w0_plus_b0(self, d):
        """Bit for bit while d + 1 fits in one OpenBLAS k-block: K = 2
        graphs of R = 3 models each in ``_layouts``'s views, and one model
        over the explainer's (P, b, d + 1) stack, at verify-bp's n and h.
        At d = 384 it differs from ax @ w0 + b0 in the last bit on
        OpenBLAS 0.3.31's SkylakeX kernel."""
        rng = np.random.default_rng(d)
        k, r, n, h, c = 2, 3, 50, 32, 4
        ax = rng.normal(size=(k, n, d))
        weights = _layouts(rng.uniform(-1, 1, k * r * _model_size(d, h, c)), k, r, d, h, c)
        z = self.pre_activations(rng.random((k, 5, n)), _with_ones(ax), weights)
        for graph in range(k):
            for model in range(r):
                w0, _, b0, _ = _slots(weights, graph, model)
                assert (z[graph, model] == ax[graph] @ w0 + b0).all()
        w0, w1, b0, b1 = init_weights(d, h, c, seed=d)
        z = self.pre_activations(rng.random((k, n, n)), _with_ones(ax),
                                 _one_model(w0, w1, b0, b1))
        assert (z[:, 0] == ax @ w0 + b0).all()

    @pytest.mark.parametrize("k, r", [(1, 1), (1, 3), (2, 3)])
    @pytest.mark.parametrize("n", [5, 50, 300, 1231])
    @pytest.mark.parametrize("h", [2, 32])
    def test_folded_gradient_is_ax_t_g1_and_its_node_sum(self, h, n, k, r):
        """The backward pass writes each model's W0|b0 gradient with one
        product, [A_hat . X, 1]^T dL/dH1, whose ones row sums dL/dH1 over
        the nodes: bit for bit, its first d rows are (A_hat . X)^T dL/dH1
        and its last row np.add.reduce of dL/dH1 over the nodes, at d = 10
        (every generator's) up to n = 1,231 nodes (the largest generator
        graph the paper uses).  Measured with random operands on OpenBLAS
        0.3.31's SkylakeX kernel, the identity does not hold at h = 1,
        where numpy runs gemv: the b0 row differed in 10 of 15 cases (n =
        5, 20, 50, 300 and 1,231 at these K and R).  Nor past OpenBLAS's
        small-matrix size, where the b0 row rounds otherwise: at d = 10,
        h = 32 from n = 2,841 on, tested to 10,000 (at 2,841, 3,000 and
        3,125 the W0 rows differ too), and at d = 50 or 383 with n =
        1,231.  Every point measured fits one bound, (d + 1) h n <= 100^3:
        it held at (d, h, n) = (10, 32, 2,840), (50, 32, 612), (10, 2,
        45,454) and (383, 2, 1,302), and failed one node further on."""
        d, c = 10, 4
        rng = np.random.default_rng(n)
        ends = rng.integers(0, n, size=(2, 2 * n))
        ends = ends[:, ends[0] != ends[1]]
        a = sp.csr_array((np.ones(ends.shape[1]), tuple(ends)), shape=(n, n))
        a_hat = normalize_adjacency((a + a.T > 0).astype(float))
        ax = rng.normal(size=(k, n, d))
        train = rng.permutation(n)[:max(1, n // 2)]
        t = _targets([a_hat] * k, rng.integers(0, c, n), c, train, train)
        size = k * r * _model_size(d, h, c)
        weights = _layouts(rng.uniform(-1, 1, size), k, r, d, h, c)
        grads = _layouts(np.empty(size), k, r, d, h, c)
        ax_ones = _with_ones(ax)
        h1, probs, _ = _forward(t.a_scored, ax_ones, *weights)
        backward = _backward_pass(ax_ones, t, h1, probs, weights[1], grads)
        backward()
        # the pass's own dL/dH1 buffer, ReLU mask applied, as its last product read it
        cells = dict(zip(backward.__code__.co_freevars, backward.__closure__))
        g1 = cells["g1"].cell_contents
        assert (g1 != 0).any()
        for graph in range(k):
            for model in range(r):
                block = grads[0][graph, model]
                assert (block[:-1] == ax[graph].T @ g1[graph, model]).all(), (graph, model)
                assert (block[-1] == np.add.reduce(g1[graph, model], axis=0)).all(), (graph, model)

    def test_training_past_one_k_block_is_deterministic(self, monkeypatch):
        """At d = 400 the folded product rounds unlike A_hat . X . W0 + b0
        (OpenBLAS 0.3.31, SkylakeX kernel), yet training K = 2 graphs at 1
        and 2 CPUs gives each restart the weights and accuracy pair it
        gets trained alone, and the same models at both counts: every
        model's products have the same shapes alone and in lockstep."""
        graphs, split = wide_graphs(2)
        g = graphs[0]
        cfg = TrainConfig(hidden_dim=32, max_epochs=40, patience=5, restarts=3, seed=3)
        a_hats = [sparse_a_hat(graph) for graph in graphs]
        rows = (g.features, g.labels, g.class_count, np.asarray(split.train),
                np.asarray(split.validation))
        alone = [[_train_restarts([a], *rows, replace(cfg, seed=cfg.seed + r, restarts=1))
                  for r in range(cfg.restarts)] for a in a_hats]
        models = {}
        for cpus in (1, 2):
            monkeypatch.setattr(relex.workers, "cpu_count", lambda: cpus)
            stacked, accs = _train_in_parts(a_hats, *rows, cfg)
            for k, restarts in enumerate(alone):
                for r, (want, want_accs) in enumerate(restarts):
                    assert accs[k][r] == want_accs[0][0], (cpus, k, r)
                    for got, one in zip(stacked, want, strict=True):
                        assert (got[k, r] == one[0, 0]).all(), (cpus, k, r)
            models[cpus] = train_gcns(graphs, split, cfg)
            assert no_child_left()
        for one, two in zip(models[1], models[2], strict=True):
            for key in ("w0", "w1", "b0", "b1"):
                assert (getattr(one, key) == getattr(two, key)).all(), key

    @staticmethod
    def assert_same_at_every_cpu_count(monkeypatch, g, split, cfg):
        """train_gcn's restarts, split 3, 2 + 1 and 1 + 1 + 1 across 1, 2
        and 3 CPUs, come out the same, and so does the model."""
        args = ([sparse_a_hat(g)], g.features, g.labels, g.class_count,
                np.asarray(split.train), np.asarray(split.validation), cfg)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(relex.workers, "cpu_count", lambda: cpus)
            runs.append((_train_in_parts(*args), train_gcn(g, split, cfg)))
            assert no_child_left()
        ((want_stacked, want_accs), want_model), *rest = runs
        for (stacked, accs), model in rest:
            assert accs == want_accs
            for got, want in zip(stacked, want_stacked, strict=True):
                assert (got == want).all()
            for key in ("w0", "w1", "b0", "b1"):
                assert (getattr(model, key) == getattr(want_model, key)).all(), key

    def test_train_gcn_past_one_k_block_at_every_cpu_count(self, monkeypatch):
        (g,), split = wide_graphs(1)
        self.assert_same_at_every_cpu_count(
            monkeypatch, g, split, TrainConfig(hidden_dim=32, max_epochs=40, restarts=3, seed=3))

    def test_hidden_width_one_at_every_cpu_count(self, monkeypatch):
        """At h = 1 numpy runs a model's W1-gradient product as gemv, whose
        bits follow the row stride of A_hat dL/dZ2; that operand has one
        layout in every part, so the restarts agree at any CPU count (when
        it was read in the rows of all R models, restart 1 came out
        otherwise at 3 CPUs here)."""
        g = generate_tree_motif(4, "cycle", 5, 1)
        split = split_nodes(g, 1, (0.5, 0.1, 0.4))
        cfg = TrainConfig(hidden_dim=1, max_epochs=40, patience=5, restarts=3, seed=3)
        self.assert_same_at_every_cpu_count(monkeypatch, g, split, cfg)


class TestTrainGcnsChecks:
    def test_graphs_must_share_nodes_features_and_labels(self):
        g = two_cliques()
        split = NodeSplit(train=tuple(range(8)), validation=(), test=())
        others = {
            "node count": make_graph(9, g.edges, features=np.vstack([g.features, [0, 1]]),
                                     labels=[*g.labels, 1]),
            "features": make_graph(8, g.edges, features=g.features[::-1], labels=g.labels),
            "labels": make_graph(8, g.edges, features=g.features, labels=g.labels[::-1]),
        }
        others["class count"] = make_graph(8, g.edges, features=g.features,
                                           labels=g.labels, class_count=3)
        cfg = TrainConfig(hidden_dim=4, max_epochs=2, restarts=1)
        for what, other in others.items():
            with pytest.raises(ValueError,
                               match=f"graph 2 differs from graph 0 in its "
                                     f"{'labels' if what == 'class count' else what}"):
                train_gcns([g, g, other], split, cfg)

    def test_no_graph_rejected(self):
        with pytest.raises(ValueError, match="no graph"):
            train_gcns([], NodeSplit(train=(0,), validation=(), test=()), TrainConfig())


class TestTrainConfigChecks:
    @pytest.mark.parametrize("patience", [0, -1])
    def test_patience_below_one_rejected(self, patience):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=patience)

    @pytest.mark.parametrize("lr", [-0.1, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_zero_learning_rate_and_patience_one_allowed(self):
        cfg = TrainConfig(learning_rate=0.0, patience=1)
        assert (cfg.learning_rate, cfg.patience) == (0.0, 1)


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
