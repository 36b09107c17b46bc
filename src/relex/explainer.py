"""Edge-mask explainer for single-node GCN predictions.

For a target node, a real-valued mask over the 2-hop computation subgraph
is optimized so that the masked graph keeps the model's prediction while
the mask stays small and close to binary:

    L = -log P(predicted class | masked graph)
        + size_penalty * sum(sigmoid(mask))
        + entropy_penalty * sum(binary_entropy(sigmoid(mask)))

Masked edges carry weight sigmoid(mask) symmetrically in the adjacency;
the GCN normalization is recomputed every step.  Updates use gradient
descent with backtracking line search, so the objective is non-increasing
over accepted steps.  The top-k edges by final sigmoid(mask) form the
explanation; their sigmoid values are the per-relation confidences.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relex.gcn import GcnModel, _forward, gcn_forward, normalize_adjacency
from relex.graphs import (Edge, RelationalGraph, adjacency, normalize_edge,
                          remove_edges)


class SingleNodeExplanation(ValueError):
    """Target has an empty computation subgraph; callers filter these."""


@dataclass
class ExplainConfig:
    hops: int = 2
    mask_steps: int = 300
    mask_lr: float = 1.0
    size_penalty: float = 0.05
    entropy_penalty: float = 0.1
    top_k: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.size_penalty < 0 or self.entropy_penalty < 0:
            raise ValueError("penalties must be >= 0")


@dataclass(frozen=True)
class Explanation:
    """Scored relation subgraph for one target node."""

    target: int
    predicted_class: int
    relations: tuple[tuple[Edge, float], ...]  # ((u, v), confidence)
    hop_radius: int

    def edges(self) -> list[Edge]:
        return [e for (e, _) in self.relations]

    def confidence(self, edge: Edge) -> float:
        for (e, gc) in self.relations:
            if e == edge:
                return gc
        raise KeyError(edge)


def computation_subgraph(g: RelationalGraph, target: int, hops: int) -> list[Edge]:
    """Edges whose endpoints both lie within `hops` BFS steps of target."""
    dist = {target: 0}
    queue = deque([target])
    adj: dict[int, list[int]] = {}
    for (u, v) in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while queue:
        node = queue.popleft()
        if dist[node] == hops:
            continue
        for nb in adj.get(node, ()):
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    return sorted(e for e in g.edges if e[0] in dist and e[1] in dist)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def soft_adjacency(g: RelationalGraph, masked_edges: list[Edge],
                   weights: np.ndarray) -> np.ndarray:
    """Adjacency where each masked edge carries its weight symmetrically."""
    a = adjacency(g).astype(np.float64)
    for (u, v), w in zip(masked_edges, weights):
        a[u, v] = w
        a[v, u] = w
    return a


def _objective(pred_loss, s, size_penalty, entropy_penalty):
    """The prediction loss plus the mask's size and entropy penalties."""
    ent = -(s * np.log(s + 1e-12) + (1 - s) * np.log(1 - s + 1e-12))
    return pred_loss + size_penalty * s.sum() + entropy_penalty * ent.sum()


def _masked_loss(g, model, target, predicted, masked_edges, mask,
                 size_penalty, entropy_penalty):
    s = _sigmoid(mask)
    a_hat = normalize_adjacency(soft_adjacency(g, masked_edges, s))
    probs = _forward(a_hat, g.features, model.w0, model.w1, model.b0, model.b1)[2]
    pred_loss = -np.log(probs[target, predicted] + 1e-12)
    return _objective(pred_loss, s, size_penalty, entropy_penalty)


def _masked_loss_and_grad(g, model, target, predicted, masked_edges, mask,
                          size_penalty, entropy_penalty):
    """Loss and its analytic gradient wrt the mask values.

    Backpropagates through the two GCN layers into dL/dA_hat, then through
    the degree normalization into each symmetric edge weight.
    """
    s = _sigmoid(mask)
    a_soft = soft_adjacency(g, masked_edges, s)
    n = a_soft.shape[0]
    a_tilde = a_soft + np.eye(n)
    d = a_tilde.sum(axis=1)
    w_deg = 1.0 / np.sqrt(d)
    a_hat = a_tilde * w_deg[:, None] * w_deg[None, :]

    x = g.features
    xw0 = x @ model.w0
    z1 = a_hat @ xw0 + model.b0
    h1 = np.maximum(z1, 0.0)
    h1w1 = h1 @ model.w1
    z2 = a_hat @ h1w1 + model.b1
    z2s = z2 - z2.max(axis=1, keepdims=True)
    exp = np.exp(z2s)
    probs = exp / exp.sum(axis=1, keepdims=True)
    pred_loss = -np.log(probs[target, predicted] + 1e-12)

    # dL/dZ2 is nonzero only in the target row
    g2 = np.zeros_like(probs)
    g2[target] = probs[target]
    g2[target, predicted] -= 1.0

    m_hat = g2 @ h1w1.T                       # explicit A_hat in layer 2
    g1 = (a_hat @ g2 @ model.w1.T) * (z1 > 0)
    m_hat += g1 @ xw0.T                       # A_hat inside layer 1

    # through A_hat = w_i w_j * A_tilde: per-entry and per-degree parts
    b = m_hat * a_tilde
    row_b = b @ w_deg
    col_b = b.T @ w_deg
    t = 0.5 * d ** (-1.5) * (row_b + col_b)

    grad_s = np.empty(len(masked_edges))
    for idx, (u, v) in enumerate(masked_edges):
        grad_s[idx] = (m_hat[u, v] + m_hat[v, u]) * w_deg[u] * w_deg[v] - t[u] - t[v]

    ds_dm = s * (1.0 - s)
    grad = grad_s * ds_dm
    grad += size_penalty * ds_dm
    grad += entropy_penalty * (-mask) * ds_dm  # d binary_entropy(sigmoid(m))/dm
    return _objective(pred_loss, s, size_penalty, entropy_penalty), grad


def explain(model: GcnModel, g: RelationalGraph, target: int,
            cfg: ExplainConfig) -> Explanation:
    """Optimize an edge mask around the target and return the top-k edges.

    The predicted class is the model's prediction on the unmasked graph.
    Deterministic for a fixed config seed.
    """
    if not (0 <= target < g.node_count):
        raise ValueError(f"target {target} out of range")
    masked_edges = computation_subgraph(g, target, cfg.hops)
    if not masked_edges:
        raise SingleNodeExplanation(
            f"node {target} has an empty {cfg.hops}-hop computation subgraph")

    a_hat_full = normalize_adjacency(adjacency(g))
    predicted = int(gcn_forward(model, g.features, a_hat=a_hat_full)[target].argmax())

    rng = np.random.default_rng(cfg.seed)
    mask = rng.uniform(-0.1, 0.1, size=len(masked_edges))

    loss = _masked_loss(g, model, target, predicted, masked_edges, mask,
                        cfg.size_penalty, cfg.entropy_penalty)
    for _ in range(cfg.mask_steps):
        loss, grad = _masked_loss_and_grad(g, model, target, predicted,
                                           masked_edges, mask,
                                           cfg.size_penalty, cfg.entropy_penalty)
        step = cfg.mask_lr
        accepted = False
        for _ in range(20):
            candidate = mask - step * grad
            cand_loss = _masked_loss(g, model, target, predicted, masked_edges,
                                     candidate, cfg.size_penalty, cfg.entropy_penalty)
            if cand_loss < loss:
                mask = candidate
                loss = cand_loss
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

    confidences = np.clip(_sigmoid(mask), 1e-12, 1.0 - 1e-12)
    order = sorted(range(len(masked_edges)),
                   key=lambda i: (-confidences[i], masked_edges[i]))
    keep = order[:cfg.top_k]
    relations = tuple((masked_edges[i], float(confidences[i])) for i in sorted(keep))
    return Explanation(target=target, predicted_class=predicted,
                       relations=relations, hop_radius=cfg.hops)


def is_scores(e: Explanation) -> dict[Edge, float]:
    """The raw explainer confidences, used verbatim as the IS baseline."""
    return {edge: gc for (edge, gc) in e.relations}


def deletion_impact(model: GcnModel, g: RelationalGraph, target: int,
                    hops: int = 2) -> dict[Edge, float]:
    """Exhaustive single-edge-removal oracle.

    For every computation-subgraph edge, the drop in the predicted class
    probability at the target when that edge alone is removed.  Slow;
    intended for tests.
    """
    a_hat = normalize_adjacency(adjacency(g))
    probs = gcn_forward(model, g.features, a_hat=a_hat)
    predicted = int(probs[target].argmax())
    base = probs[target, predicted]
    impact: dict[Edge, float] = {}
    for edge in computation_subgraph(g, target, hops):
        reduced, _ = remove_edges(g, [edge])
        a_red = normalize_adjacency(adjacency(reduced))
        p = gcn_forward(model, g.features, a_hat=a_red)[target, predicted]
        impact[edge] = float(base - p)
    return impact


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def explanation_to_dict(e: Explanation) -> dict:
    return {
        "target": e.target,
        "class": e.predicted_class,
        "relations": [{"u": u, "v": v, "gc": gc} for ((u, v), gc) in e.relations],
        "hops": e.hop_radius,
    }


def explanation_from_dict(blob: dict) -> Explanation:
    relations = tuple((normalize_edge(int(r["u"]), int(r["v"])), float(r["gc"]))
                      for r in blob["relations"])
    return Explanation(target=int(blob["target"]),
                       predicted_class=int(blob["class"]),
                       relations=relations,
                       hop_radius=int(blob["hops"]))


def save_explanation(e: Explanation, path: str | Path) -> None:
    Path(path).write_text(json.dumps(explanation_to_dict(e)), encoding="utf-8")


def load_explanation(path: str | Path) -> Explanation:
    return explanation_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
