import os

import numpy as np
import pytest

import relex.explainer
import relex.workers
from relex.boolfact import RankSearchConfig, rank_ladder
from relex.explainer import (ENTROPY_PENALTY, MASK_LR, PROBLEM_COST, ROUND_COST,
                             SIZE_PENALTY, ExplainConfig, Explanation,
                             SingleNodeExplanation, _balanced_parts, _ball, _descend,
                             _mask_problem, _masked_forward, _masked_grad, _sigmoid,
                             _stack_cost,
                             explain, explain_all, explanation_from_dict,
                             explanation_to_dict, is_scores, load_explanation,
                             save_explanation)
from relex.gcn import (GcnModel, TrainConfig, _forward, _one_model, _with_ones,
                       gcn_forward, normalize_adjacency, predict, train_gcn)
from relex.graphs import NodeSplit, adjacency, make_graph, remove_edges, split_nodes
from relex.pipeline import GENERATORS, DatasetSpec, eligible_targets


def one_problem(g, model, target, cfg):
    """The stacked mask problem of one target."""
    return _mask_problem(model, [(g, _ball(g, target, cfg.hops))])


def ball_positions(p):
    """Problem 0's target and masked edges as ball positions, read back
    from the flat positions of a stack's (b, b) and (C, b) arrays, after
    checking that each edge's (v, u) entry mirrors its (u, v) entry."""
    b = p.a_tilde.shape[-1]
    rows, cols = np.divmod(p.pairs[0][0], b)
    np.testing.assert_array_equal(p.pairs[1][0], cols * b + rows)
    return int(p.target_column[0][0]), list(zip(rows.tolist(), cols.tolist()))


def masked_loss(p, mask):
    return _masked_forward(p, mask[None])[0][0]


def masked_loss_and_grad(p, mask):
    fwd = _masked_forward(p, mask[None])
    return fwd[0][0], _masked_grad(p, mask[None], fwd)[0]


def deletion_impact(model, g, target, hops=2):
    """Exhaustive single-edge-removal oracle.

    For every computation-subgraph edge, the drop in the predicted class
    probability at the target when that edge alone is removed.
    """
    a_hat = normalize_adjacency(adjacency(g))
    probs = gcn_forward(model, g.features, a_hat=a_hat)
    predicted = int(probs[target].argmax())
    base = probs[target, predicted]
    impact = {}
    for edge in _ball(g, target, hops).edges:
        reduced, _ = remove_edges(g, [edge])
        a_red = normalize_adjacency(adjacency(reduced))
        p = gcn_forward(model, g.features, a_hat=a_red)[target, predicted]
        impact[edge] = float(base - p)
    return impact


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
        assert _ball(g, 0, 2).edges == []

    def test_star_center_one_hop(self):
        g = make_graph(5, [(0, i) for i in range(1, 5)])
        assert _ball(g, 0, 1).edges == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_path_two_hops(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert _ball(g, 0, 2).edges == [(0, 1), (1, 2)]

    def test_edges_within_radius(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert _ball(g, 2, 1).edges == [(1, 2), (2, 3)]


def brute_force_distances(g, target, radius):
    """BFS distances within ``radius`` of target, one sweep over every
    edge per step."""
    dist = {target: 0}
    for step in range(1, radius + 1):
        frontier = [node for node, d in dist.items() if d == step - 1]
        for (u, v) in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in frontier and b not in dist:
                    dist[b] = step
    return dist


BALL_GRAPHS = {kind: DatasetSpec(kind, base_nodes=12, motif_count=3, height=3).build(4)
               for kind in GENERATORS}
# node 6 has no edges
BALL_GRAPHS["isolated-node"] = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])


class TestBall:
    """One BFS builds the computation subgraph, the ball, and the mask
    problem's adjacency and outside degrees; each against a brute-force
    reference."""

    @pytest.mark.parametrize("hops", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(BALL_GRAPHS))
    def test_matches_brute_force_bfs(self, name, hops):
        g = BALL_GRAPHS[name]
        a = adjacency(g).astype(np.float64)
        model = GcnModel(w0=np.zeros((g.features.shape[1], 2)), w1=np.zeros((2, 2)),
                         b0=np.zeros(2), b1=np.zeros(2), seed=0)
        cfg = ExplainConfig(hops=hops)
        for target in range(g.node_count):
            dist = brute_force_distances(g, target, max(hops, 2))
            ball = sorted(dist)
            edges = sorted(e for e in g.edges
                           if dist.get(e[0], hops + 1) <= hops
                           and dist.get(e[1], hops + 1) <= hops)
            assert _ball(g, target, hops).edges == edges, (name, target)
            p = one_problem(g, model, target, cfg)
            inner = a[np.ix_(ball, ball)]
            np.testing.assert_array_equal(p.a_tilde[0], inner + np.eye(len(ball)))
            np.testing.assert_array_equal(p.outside[0], a[ball].sum(axis=1) - inner.sum(axis=1))
            np.testing.assert_array_equal(p.features[0], g.features[ball])
            at, masked = ball_positions(p)
            assert ball[at] == target
            assert [(ball[i], ball[j]) for i, j in masked] == edges

    def test_isolated_node_is_a_ball_of_one(self):
        b = _ball(BALL_GRAPHS["isolated-node"], 6, 2)
        assert b.nodes.tolist() == [6] and b.edges == [] and b.target == 0
        np.testing.assert_array_equal(b.adjacency, [[0.0]])
        np.testing.assert_array_equal(b.outside, [0.0])


def flat_pairs(edges, n):
    """The flat (u, v) and (v, u) positions of ``edges`` in an n x n array."""
    rows, cols = np.array(edges).T
    return np.stack([rows * n + cols, cols * n + rows])


def unit_soft_adjacency(g, edges):
    a = adjacency(g).astype(float)
    np.put(a, flat_pairs(edges, g.node_count), np.ones(len(edges)))
    return a


class TestSoftAdjacency:
    def test_weights_one_reproduce_unmasked(self, bridge_setup):
        g, model = bridge_setup
        edges = _ball(g, 4, 2).edges
        a_soft = unit_soft_adjacency(g, edges)
        np.testing.assert_array_equal(a_soft, adjacency(g).astype(float))
        np.testing.assert_allclose(normalize_adjacency(a_soft),
                                   normalize_adjacency(adjacency(g)))

    def test_forward_identical_at_unit_weights(self, bridge_setup):
        g, model = bridge_setup
        edges = _ball(g, 4, 2).edges
        a_hat = normalize_adjacency(unit_soft_adjacency(g, edges))
        p1 = gcn_forward(model, g.features, a_hat=a_hat)
        p2 = gcn_forward(model, g.features,
                         a_hat=normalize_adjacency(adjacency(g)))
        np.testing.assert_array_equal(p1, p2)


def reference_loss_and_grad(g, model, target, predicted, masked_edges, mask):
    """The mask gradient as derived before the explainer shared the GCN's
    forward pass: its own normalization and forward pass, and the degree
    terms through d^-1/2 edge by edge."""
    s = _sigmoid(mask)
    a_soft = adjacency(g).astype(np.float64)
    for (u, v), w in zip(masked_edges, s):
        a_soft[u, v] = w
        a_soft[v, u] = w
    n = a_soft.shape[0]
    a_tilde = a_soft + np.eye(n)
    d = a_tilde.sum(axis=1)
    w_deg = 1.0 / np.sqrt(d)
    a_hat = a_tilde * w_deg[:, None] * w_deg[None, :]

    xw0 = g.features @ model.w0
    z1 = a_hat @ xw0 + model.b0
    h1 = np.maximum(z1, 0.0)
    h1w1 = h1 @ model.w1
    z2 = a_hat @ h1w1 + model.b1
    z2s = z2 - z2.max(axis=1, keepdims=True)
    exp = np.exp(z2s)
    probs = exp / exp.sum(axis=1, keepdims=True)
    pred_loss = -np.log(probs[target, predicted] + 1e-12)

    g2 = np.zeros_like(probs)
    g2[target] = probs[target]
    g2[target, predicted] -= 1.0
    m_hat = g2 @ h1w1.T
    g1 = (a_hat @ g2 @ model.w1.T) * (z1 > 0)
    m_hat += g1 @ xw0.T

    b = m_hat * a_tilde
    row_b = b @ w_deg
    col_b = b.T @ w_deg
    t = 0.5 * d ** (-1.5) * (row_b + col_b)
    grad_s = np.empty(len(masked_edges))
    for idx, (u, v) in enumerate(masked_edges):
        grad_s[idx] = (m_hat[u, v] + m_hat[v, u]) * w_deg[u] * w_deg[v] - t[u] - t[v]

    ds_dm = s * (1.0 - s)
    grad = grad_s * ds_dm + SIZE_PENALTY * ds_dm + ENTROPY_PENALTY * (-mask) * ds_dm
    ent = -(s * np.log(s + 1e-12) + (1 - s) * np.log(1 - s + 1e-12))
    loss = pred_loss + SIZE_PENALTY * s.sum() + ENTROPY_PENALTY * ent.sum()
    return loss, grad


@pytest.fixture(scope="module")
def generator_problems():
    """Three targets, with the model's predicted class, on a briefly
    trained model for a small graph from each of the four generators."""
    cfg = ExplainConfig()
    problems = []
    for kind in GENERATORS:
        g = DatasetSpec(kind, base_nodes=12, motif_count=3, height=3).build(4)
        model = train_gcn(g, split_nodes(g, 4),
                          TrainConfig(hidden_dim=8, max_epochs=60, seed=4, restarts=1))
        pred = predict(model, g)
        for target in eligible_targets(g, True)[::4][:3]:
            edges = _ball(g, target, cfg.hops).edges
            problems.append((kind, g, model, target, int(pred[target]), edges))
    return problems


class TestMaskGradient:
    def test_matches_finite_differences(self, bridge_setup):
        g, model = bridge_setup
        edges = _ball(g, 4, 2).edges
        p = one_problem(g, model, 4, ExplainConfig())
        rng = np.random.default_rng(3)
        mask = rng.normal(scale=0.8, size=len(edges))
        _, grad = masked_loss_and_grad(p, mask)
        h = 1e-6
        fd = np.zeros_like(mask)
        for i in range(len(mask)):
            up, dn = mask.copy(), mask.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (masked_loss(p, up) - masked_loss(p, dn)) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4

    def test_matches_reference_on_all_generators(self, generator_problems):
        assert {kind for (kind, *_) in generator_problems} == set(GENERATORS)
        cfg = ExplainConfig()
        rng = np.random.default_rng(17)
        for (kind, g, model, target, predicted, edges) in generator_problems:
            p = one_problem(g, model, target, cfg)
            for scale in (0.1, 1.0, 4.0):
                mask = rng.normal(scale=scale, size=len(edges))
                ref_loss, ref_grad = reference_loss_and_grad(
                    g, model, target, predicted, edges, mask)
                loss, grad = masked_loss_and_grad(p, mask)
                worst = np.abs(grad - ref_grad).max() / np.abs(ref_grad).max()
                assert worst < 1e-10, (kind, target, scale, worst)
                assert loss == pytest.approx(ref_loss, rel=1e-12)

    def test_step_loss_equals_masked_loss(self, generator_problems):
        cfg = ExplainConfig()
        rng = np.random.default_rng(18)
        for (kind, g, model, target, predicted, edges) in generator_problems:
            p = one_problem(g, model, target, cfg)
            for scale in (0.1, 1.0, 4.0):
                mask = rng.normal(scale=scale, size=len(edges))
                assert masked_loss_and_grad(p, mask)[0] == masked_loss(p, mask)


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

    def test_class_is_the_full_graph_prediction(self, generator_problems):
        """The unmasked ball's argmax is predict's class at every eligible
        target on all four generators."""
        cfg = ExplainConfig(mask_steps=0)
        seen = set()
        for (kind, g, model, *_) in generator_problems:
            if kind in seen:
                continue
            seen.add(kind)
            pred = predict(model, g)
            for target in eligible_targets(g, True):
                if _ball(g, target, cfg.hops).edges:
                    e = explain(model, g, target, cfg)
                    assert e.predicted_class == pred[target], (kind, target)
        assert seen == set(GENERATORS)

    def test_wrong_input_dim_raises(self, bridge_setup):
        g, model = bridge_setup
        g3 = make_graph(g.node_count, g.edges, features=np.ones((g.node_count, 3)),
                        labels=g.labels)
        with pytest.raises(ValueError, match="feature dim"):
            explain(model, g3, 4, ExplainConfig(mask_steps=0))

    def test_confidences_strictly_inside_unit_interval(self, bridge_setup):
        g, model = bridge_setup
        e = explain(model, g, 4, ExplainConfig(mask_steps=300, seed=0))
        for _, gc in e.relations:
            assert 0.0 < gc < 1.0

    def test_relations_within_hop_radius(self, bridge_setup):
        g, model = bridge_setup
        e = explain(model, g, 4, ExplainConfig(hops=1, mask_steps=20, seed=0))
        allowed = set(_ball(g, 4, 1).edges)
        assert set(e.edges()) <= allowed

    def test_objective_nonincreasing_over_accepted_steps(self, bridge_setup):
        g, model = bridge_setup
        edges = _ball(g, 4, 2).edges
        cfg = ExplainConfig(mask_steps=40, seed=2)
        p = one_problem(g, model, 4, cfg)
        rng = np.random.default_rng(cfg.seed)
        mask = rng.uniform(-0.1, 0.1, size=len(edges))
        _, losses, _ = line_search(mask, cfg.mask_steps,
                                   lambda m: masked_loss_and_grad(p, m),
                                   lambda m: masked_loss(p, m))
        losses = [masked_loss(p, mask)] + losses
        assert all(b < a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_one_forward_pass_per_evaluation(self, generator_problems,
                                             monkeypatch):
        """explain backpropagates from the accepted candidate's forward
        pass instead of running it again, and ends where a descent that
        recomputes every step's forward pass ends, bit for bit."""
        calls = []
        real = relex.explainer._masked_forward

        def counting(p, mask):
            calls.append(1)
            return real(p, mask)

        monkeypatch.setattr(relex.explainer, "_masked_forward", counting)
        for (kind, g, model, target, predicted, edges) in generator_problems:
            cfg = ExplainConfig(mask_steps=60, top_k=len(edges), seed=3)
            calls.clear()
            e = explain(model, g, target, cfg)
            forwards = len(calls)

            p = one_problem(g, model, target, cfg)
            mask = np.random.default_rng(cfg.seed).uniform(-0.1, 0.1, size=len(edges))
            mask, _, evaluations = line_search(
                mask, cfg.mask_steps, lambda m: masked_loss_and_grad(p, m),
                lambda m: masked_loss(p, m))
            assert forwards == evaluations + 1, (kind, target)
            confidences = np.clip(_sigmoid(mask), 1e-12, 1.0 - 1e-12)
            assert e.relations == tuple(zip(edges, confidences.tolist())), (kind, target)


def line_search(mask, steps, loss_and_grad, loss):
    """explain's mask descent, with a fresh loss-and-gradient evaluation
    at every step; returns the final mask, the loss of each accepted step
    and the number of line-search loss evaluations."""
    losses, evaluations = [], 0
    for _ in range(steps):
        current, grad = loss_and_grad(mask)
        step = MASK_LR
        for _ in range(20):
            candidate = mask - step * grad
            evaluations += 1
            cand_loss = loss(candidate)
            if cand_loss < current:
                mask = candidate
                losses.append(cand_loss)
                break
            step *= 0.5
        else:
            break
    return mask, losses, evaluations


def dense_reference_explain(model, g, target, cfg):
    """explain on the whole graph: every evaluation writes the mask into
    the full n x n adjacency, normalizes it with normalize_adjacency and
    runs the full-graph forward pass, and the gradient is
    reference_loss_and_grad's.  The line search is explain's."""
    edges = _ball(g, target, cfg.hops).edges
    predicted = int(predict(model, g)[target])
    pairs = flat_pairs(edges, g.node_count)
    a_soft = adjacency(g).astype(np.float64)

    def loss(mask):
        s = _sigmoid(mask)
        np.put(a_soft, pairs, s)
        a_hat = normalize_adjacency(a_soft)
        probs = gcn_forward(model, g.features, a_hat)
        ent = -(s * np.log(s + 1e-12) + (1 - s) * np.log(1 - s + 1e-12))
        return (-np.log(probs[target, predicted] + 1e-12)
                + SIZE_PENALTY * s.sum() + ENTROPY_PENALTY * ent.sum())

    def loss_and_grad(mask):
        return reference_loss_and_grad(g, model, target, predicted, edges, mask)

    mask = np.random.default_rng(cfg.seed).uniform(-0.1, 0.1, size=len(edges))
    mask, _, _ = line_search(mask, cfg.mask_steps, loss_and_grad, loss)
    confidences = np.clip(_sigmoid(mask), 1e-12, 1.0 - 1e-12)
    order = sorted(range(len(edges)), key=lambda i: (-confidences[i], edges[i]))
    return predicted, {edges[i]: float(confidences[i]) for i in order[:cfg.top_k]}


class TestLocalProblem:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_dense_explainer(self, generator_problems, hops):
        """The ball of max(hops, 2) steps gives the dense explainer's
        relations; at hops 1 the masked edges lie within 1 step, but the
        logits still read the 2-step nodes."""
        assert {kind for (kind, *_) in generator_problems} == set(GENERATORS)
        cfg = ExplainConfig(hops=hops, seed=5)
        for (kind, g, model, target, *_) in generator_problems:
            predicted, ref = dense_reference_explain(model, g, target, cfg)
            e = explain(model, g, target, cfg)
            assert e.predicted_class == predicted
            assert e.edges() == sorted(ref), (kind, target, hops)
            for edge, gc in e.relations:
                assert gc == pytest.approx(ref[edge], abs=1e-9), (kind, target, edge)

    def test_outside_counts_edges_leaving_the_ball(self):
        # target 3 at hops 1: the ball is {0, 1, 3, 5, 6}, and the 2-step
        # nodes 1 and 6 have neighbours 2, 4 and 7 beyond it
        g = make_graph(8, [(0, 3), (0, 1), (1, 2), (1, 4), (3, 5), (5, 6), (6, 7)],
                       features=np.arange(16.0).reshape(8, 2))
        edges = _ball(g, 3, 1).edges
        model = GcnModel(w0=np.zeros((2, 3)), w1=np.zeros((3, 2)), b0=np.zeros(3),
                         b1=np.zeros(2), seed=0)
        p = one_problem(g, model, 3, ExplainConfig(hops=1))
        ball = [0, 1, 3, 5, 6]
        degree = adjacency(g).sum(axis=1)
        inner = adjacency(g)[np.ix_(ball, ball)]
        np.testing.assert_array_equal(p.outside[0], [0, 2, 0, 0, 1])
        np.testing.assert_array_equal(p.outside[0], degree[ball] - inner.sum(axis=1))
        np.testing.assert_array_equal(p.a_tilde[0], inner + np.eye(len(ball)))
        np.testing.assert_array_equal(p.features[0], g.features[ball])
        at, masked = ball_positions(p)
        assert at == 2
        assert [(ball[i], ball[j]) for i, j in masked] == edges


def reference_explain(model, g, target, cfg):
    """explain as it ran before the lockstep stack, one problem at a time
    on its ball's 2-D arrays: the mask weights written into the ball's
    adjacency, one forward pass per evaluation, each gradient taken from
    the forward pass that accepted its mask, and the backtracking line
    search.  Returns the explanation, or None for an empty computation
    subgraph, with the number of steps taken, whether the line search
    gave up, and the most halvings any step needed."""
    ball = _ball(g, target, cfg.hops)
    if not ball.edges:
        return None, 0, False, 0
    u, v, t = ball.rows, ball.cols, ball.target
    features = g.features[ball.nodes]
    features_w0 = features @ model.w0
    weights = _one_model(model.w0, model.w1, model.b0, model.b1)
    a_soft = ball.adjacency.copy()
    predicted = int(gcn_forward(model, features,
                                normalize_adjacency(a_soft, ball.outside))[t].argmax())

    def forward(mask):
        s = _sigmoid(mask)
        a_soft[u, v] = s
        a_soft[v, u] = s
        a_hat = normalize_adjacency(a_soft, ball.outside)
        h1, probs, _ = _forward(a_hat, _with_ones(a_hat @ features)[None], *weights)
        probs = probs[0].T
        ent = -(s * np.log(s + 1e-12) + (1 - s) * np.log(1 - s + 1e-12))
        loss = (-np.log(probs[t, predicted] + 1e-12) + SIZE_PENALTY * s.sum()
                + ENTROPY_PENALTY * ent.sum())
        return loss, s, a_hat, h1[0, 0], probs

    def gradient(mask, fwd):
        _, s, a_hat, h1, probs = fwd
        g2 = probs[t].copy()
        g2[predicted] -= 1.0
        g1 = (np.outer(a_hat[:, t], g2) @ model.w1.T) * (h1 > 0)
        m_hat = g1 @ features_w0.T
        m_hat[t] += g2 @ (h1 @ model.w1).T
        inv_d = a_hat.diagonal()
        tt = 0.5 * inv_d * (np.einsum("ij,ij->i", m_hat, a_hat)
                            + np.einsum("ij,ij->j", m_hat, a_hat))
        grad_s = (m_hat[u, v] + m_hat[v, u]) * np.sqrt(inv_d[u] * inv_d[v]) - tt[u] - tt[v]
        ds_dm = s * (1.0 - s)
        grad = grad_s * ds_dm
        grad += SIZE_PENALTY * ds_dm
        grad += ENTROPY_PENALTY * (-mask) * ds_dm
        return grad

    mask = np.random.default_rng(cfg.seed).uniform(-0.1, 0.1, size=len(ball.edges))
    fwd = forward(mask)
    steps, gave_up, most = 0, False, 0
    for _ in range(cfg.mask_steps):
        grad = gradient(mask, fwd)
        step = MASK_LR
        for halvings in range(20):
            candidate = mask - step * grad
            cand_fwd = forward(candidate)
            if cand_fwd[0] < fwd[0]:
                mask, fwd = candidate, cand_fwd
                most = max(most, halvings)
                break
            step *= 0.5
        else:
            gave_up = True
            break
        steps += 1
    confidences = np.clip(_sigmoid(mask), 1e-12, 1.0 - 1e-12)
    edges = ball.edges
    order = sorted(range(len(edges)), key=lambda i: (-confidences[i], edges[i]))
    relations = tuple((edges[i], float(confidences[i])) for i in sorted(order[:cfg.top_k]))
    return (Explanation(target=target, predicted_class=predicted, relations=relations,
                        hop_radius=cfg.hops), steps, gave_up, most)


@pytest.fixture(scope="module")
def trained_generators():
    """A graph from each generator, with a model trained on it as verify
    trains, at verify's split."""
    setups = {}
    for kind in GENERATORS:
        g = DatasetSpec(kind, base_nodes=12, motif_count=3, height=3).build(4)
        model = train_gcn(g, split_nodes(g, 4, (0.5, 0.1, 0.4)), TrainConfig(seed=4))
        setups[kind] = (g, model)
    return setups


def seeded_problems(graphs, targets, **cfg):
    """(graph, target, config) for every graph and target, each with its
    own seed."""
    return [(g, t, ExplainConfig(seed=100 * i + t, **cfg))
            for i, g in enumerate(graphs) for t in targets]


class TestExplainAllOracle:
    """explain_all against reference_explain, problem by problem, with ==."""

    @staticmethod
    def check(model, problems, monkeypatch=None):
        """explain_all on ``problems`` in one call equals reference_explain
        on each; returns the reference's (explanation, steps, gave up,
        halvings) per problem and the stack sizes explain_all made."""
        stacks = []
        if monkeypatch is not None:
            real = relex.explainer._mask_problem

            def recording(model, members):
                stacks.append(len(members))
                return real(model, members)

            monkeypatch.setattr(relex.explainer, "_mask_problem", recording)
        got = explain_all(model, problems)
        refs = [reference_explain(model, g, t, cfg) for (g, t, cfg) in problems]
        for i, (e, ref) in enumerate(zip(got, refs)):
            assert e == ref[0], (i, problems[i][1])
        return refs, stacks

    def test_every_eligible_target_of_each_generator(self, trained_generators, monkeypatch):
        shapes_seen = halved = 0
        for kind, (g, model) in trained_generators.items():
            targets = eligible_targets(g, True)
            refs, stacks = self.check(model, seeded_problems([g], targets), monkeypatch)
            balls = [_ball(g, t, 2) for t in targets]
            shapes = {(len(b.nodes), len(b.edges)) for b in balls if b.edges}
            assert len(stacks) == len(shapes) and sum(stacks) == len(targets), kind
            shapes_seen += len(shapes) > 1 and max(stacks) > 1
            halved += sum(most > 0 for (_, _, _, most) in refs)
        assert shapes_seen == len(GENERATORS)  # every call mixed shapes and stacked
        assert halved > 0  # some line search halved its step

    def test_targets_on_a_ladders_reconstructions(self, trained_generators):
        for kind, (g, model) in trained_generators.items():
            ladder = rank_ladder(adjacency(g), g.edge_count, RankSearchConfig(stop_fraction=0.1))
            graphs = [make_graph(g.node_count, np.argwhere(f.reconstruction).tolist(),
                                 g.features, g.labels, g.class_count) for f in ladder]
            self.check(model, seeded_problems(graphs, eligible_targets(g, True),
                                              mask_steps=60))

    def test_empty_subgraph_zero_steps_and_problems_that_stop_apart(self, bridge_setup,
                                                                    monkeypatch):
        g, model = bridge_setup
        lone = make_graph(10, g.edges, features=np.vstack([g.features, [[1.0, 0.0]]]),
                          labels=[*g.labels, 0])  # node 9 has no edges
        problems = [(lone, 4, ExplainConfig(mask_steps=steps, seed=steps))
                    for steps in (0, 1, 7, 60, 300)]
        problems.insert(2, (lone, 9, ExplainConfig()))
        problems.append((lone, 0, ExplainConfig(mask_steps=0, seed=1)))
        refs, stacks = self.check(model, problems, monkeypatch)
        assert refs[2][0] is None
        assert stacks == [6]  # node 0's ball has node 4's shape
        assert [steps for (_, steps, _, _) in refs] == [0, 1, 0, 7, 60, 300, 0]

    def test_a_problem_that_gives_up_while_the_others_go_on(self, bridge_setup):
        g, model = bridge_setup
        # at 1000 times the weights the softmax saturates to exactly one-hot,
        # so the prediction's gradient is exactly 0; at the mask
        # SIZE_PENALTY / ENTROPY_PENALTY the penalties' gradient is exactly 0
        # too, so no halving lowers the loss, and the line search gives up
        # at the first step
        saturated = GcnModel(w0=model.w0 * 1e3, w1=model.w1 * 1e3, b0=model.b0 * 1e3,
                             b1=model.b1 * 1e3, seed=0)
        ball = _ball(g, 4, 2)
        size = len(ball.edges)
        starts = np.stack([np.random.default_rng(1).uniform(-0.1, 0.1, size=size),
                           np.full(size, SIZE_PENALTY / ENTROPY_PENALTY),
                           np.random.default_rng(3).uniform(-0.1, 0.1, size=size)])
        steps = [300, 300, 40]
        p = _mask_problem(saturated, [(g, ball)] * 3)
        final = _descend(p, starts.copy(), steps)
        alone = one_problem(g, saturated, 4, ExplainConfig())
        taken = []
        for k in range(3):
            mask, losses, _ = line_search(starts[k], steps[k],
                                          lambda m: masked_loss_and_grad(alone, m),
                                          lambda m: masked_loss(alone, m))
            assert final[k].tolist() == mask.tolist(), k
            taken.append(len(losses))
        assert taken == [300, 0, 40]

    def test_a_repeated_problem_is_optimised_once(self, bridge_setup, monkeypatch):
        """Node 4's ball does not reach clique B, so removing a clique-B
        edge leaves its problem as it was: explain_all optimises it once,
        and every repeat gets its explanation.  Another seed, or a feature
        changed inside the ball, makes another problem."""
        g, model = bridge_setup
        far, _ = remove_edges(g, [(5, 6)])
        features = g.features.copy()
        features[0, 1] = 0.5
        moved = make_graph(9, g.edges, features=features, labels=g.labels)
        cfg = ExplainConfig(mask_steps=30)
        problems = [(g, 4, cfg), (far, 4, cfg), (g, 6, cfg), (far, 6, cfg), (g, 4, cfg),
                    (g, 4, ExplainConfig(mask_steps=30, seed=1)), (moved, 4, cfg)]
        seen, real = [], relex.explainer._descend

        def descend(p, mask, steps):
            seen.append(len(steps))
            return real(p, mask, steps)

        monkeypatch.setattr(relex.explainer, "_descend", descend)
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 1)
        refs, stacks = self.check(model, problems, monkeypatch)
        assert sum(seen) == sum(stacks) == 5
        got = [ref[0] for ref in refs]
        assert got[0] == got[1] == got[4]
        assert got[5] != got[0] and got[6] != got[0] and got[2] != got[3]

    def test_explain_is_explain_all_with_one_problem(self, trained_generators):
        g, model = trained_generators["tree-cycles"]
        for target in eligible_targets(g, True)[:4]:
            cfg = ExplainConfig(seed=target)
            assert explain(model, g, target, cfg) == reference_explain(model, g, target, cfg)[0]


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestExplainingInParts:
    """explain_all's stacks split across processes against the
    in-process call, with ==."""

    def test_every_cpu_count_gives_the_in_process_result(self, trained_generators,
                                                         monkeypatch):
        """Tree-cycles' eligible targets, last first, so the shapes come
        out of order, with a target that has no edge (None) and one that
        takes no step."""
        g, model = trained_generators["tree-cycles"]
        n = g.node_count
        lone = make_graph(n + 1, g.edges, features=np.vstack([g.features, g.features[:1]]),
                          labels=[*g.labels, 0], class_count=g.class_count)
        targets = eligible_targets(g, True)[::-1]
        problems = seeded_problems([lone], targets, mask_steps=40)
        problems.insert(3, (lone, n, ExplainConfig()))
        problems.insert(5, (lone, targets[0], ExplainConfig(mask_steps=0, seed=2)))
        shapes = [(len(b.nodes), len(b.edges))
                  for b in (_ball(lone, t, cfg.hops) for _, t, cfg in problems) if b.edges]
        stacks = len(set(shapes))
        assert stacks >= 3 and shapes != sorted(shapes)

        real = relex.workers.run_parts
        parts = []

        def recording(run, members, expected):
            parts.append(len(members))
            return real(run, members, expected)

        monkeypatch.setattr(relex.workers, "run_parts", recording)
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 1)
        want = explain_all(model, problems)
        assert want[3] is None and sum(e is None for e in want) == 1
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(relex.workers, "cpu_count", lambda: cpus)
            parts.clear()
            assert explain_all(model, problems) == want, cpus
            assert parts == [min(cpus, stacks)]
            assert no_child_left()

    def test_a_childs_exception_is_raised_here(self, bridge_setup, monkeypatch):
        """Nodes 4 and 6 have balls of two shapes, so at 2 CPUs one stack
        runs in a child; it fails there, its exception is raised in this
        process, and no child is left."""
        g, model = bridge_setup
        problems = [(g, 6, ExplainConfig(mask_steps=5)), (g, 4, ExplainConfig(mask_steps=5))]
        parent, real = os.getpid(), relex.explainer._descend

        def descend(p, mask, steps):
            if os.getpid() != parent:
                raise ValueError("stack failed")
            return real(p, mask, steps)

        monkeypatch.setattr(relex.explainer, "_descend", descend)
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)
        with pytest.raises(ValueError, match="^stack failed$"):
            explain_all(model, problems)
        assert no_child_left()

    def test_parts_balance_the_estimated_cost(self):
        # costliest first, each to the lightest part so far
        assert _balanced_parts([5, 1, 4, 3, 2], 2) == [[0, 1, 4], [2, 3]]
        assert _balanced_parts([3, 3, 3], 2) == [[0, 2], [1]]  # ties go to the lower
        assert _balanced_parts([1, 9, 1, 1], 4) == [[1], [0], [2], [3]]
        assert _balanced_parts([0, 0], 1) == [[0, 1]]
        for count in range(1, 8):
            for p in range(1, count + 1):
                costs = [(7 * i) % 5 for i in range(count)]
                parts = _balanced_parts(costs, p)
                assert sorted(i for part in parts for i in part) == list(range(count))
                assert all(parts) and len(parts) == p
                loads = [sum(costs[i] for i in part) for part in parts]
                assert max(loads) - min(loads) <= max(costs), (count, p)

    def test_a_stacks_cost_is_its_rounds_times_a_rounds(self, bridge_setup):
        g, model = bridge_setup
        ball = _ball(g, 4, 2)
        p = _mask_problem(model, [(g, ball)] * 3)
        b = len(ball.nodes)
        assert _stack_cost(p, [0, 40, 7]) == 41 * (ROUND_COST + 3 * (PROBLEM_COST + b * b))
        assert _stack_cost(p, [0, 0, 0]) == ROUND_COST + 3 * (PROBLEM_COST + b * b)


class TestFeatureDimCheck:
    def test_every_problem_is_checked_before_any_ball(self, bridge_setup, monkeypatch):
        """An isolated target of a graph whose features do not fit the
        model raises the feature-dim error, not an empty subgraph, and
        no ball is built."""
        g, model = bridge_setup
        narrow = make_graph(3, [(0, 1)], features=np.ones((3, 3)), labels=[0, 1, 0])
        model = GcnModel(w0=np.zeros((5, 4)), w1=np.zeros((4, 2)), b0=np.zeros(4),
                         b1=np.zeros(2), seed=0)

        def no_ball(*args):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(relex.explainer, "_ball", no_ball)
        for call in (lambda: explain(model, narrow, 2, ExplainConfig()),
                     lambda: explain_all(model, [(narrow, 2, ExplainConfig())]),
                     lambda: explain_all(model, [(make_graph(3, [(0, 1)], features=np.ones((3, 5)),
                                                             labels=[0, 1, 0]),
                                                  0, ExplainConfig()),
                                                 (narrow, 2, ExplainConfig())])):
            with pytest.raises(ValueError, match="^feature dim 3 != model input dim 5$"):
                call()


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
