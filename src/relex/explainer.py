"""Edge-mask explainer for single-node GCN predictions.

For a target node, a real-valued mask over the 2-hop computation subgraph
is optimized so that the masked graph keeps the model's prediction while
the mask stays small and close to binary:

    L = -log P(predicted class | masked graph)
        + size_penalty * sum(sigmoid(mask))
        + entropy_penalty * sum(binary_entropy(sigmoid(mask)))

Masked edges carry weight sigmoid(mask) symmetrically in the adjacency.
The GCN has two layers, so the target's logits read only the nodes
within two BFS steps of it and those nodes' full-graph degrees.  Each
call therefore works on the ball of nodes within max(hops, 2) steps: the
adjacency among them, plus each one's count of edges that leave the
ball, a degree offset that no mask weight touches.  An evaluation
normalizes and forwards that ball alone, O(|ball|^2) rather than O(n^2)
in the graph's node count n, and equals the full-graph computation up
to rounding; the predicted class is the unmasked ball's argmax.
Updates use gradient descent with backtracking line search, so the
objective is non-increasing over accepted steps.  Each step's gradient
backpropagates from the forward pass that accepted its mask, so each
evaluation runs one forward pass.  The top-k edges by final
sigmoid(mask) form the explanation; their sigmoid values are the
per-relation confidences.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relex.gcn import GcnModel, _forward, gcn_forward, normalize_adjacency
from relex.graphs import Edge, RelationalGraph, normalize_edge


class SingleNodeExplanation(ValueError):
    """Target has an empty computation subgraph; callers filter these."""


MASK_LR = 1.0  # each mask step's line search starts here, halving up to 20 times


@dataclass
class ExplainConfig:
    hops: int = 2
    mask_steps: int = 300
    size_penalty: float = 0.05
    entropy_penalty: float = 0.1
    top_k: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.mask_steps < 0:
            raise ValueError("mask_steps must be >= 0")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
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


def _distances(g: RelationalGraph, target: int, radius: int) -> dict[int, int]:
    """BFS distance from target of every node within ``radius`` steps."""
    dist = {target: 0}
    queue = deque([target])
    adj: dict[int, list[int]] = {}
    for (u, v) in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    while queue:
        node = queue.popleft()
        if dist[node] == radius:
            continue
        for nb in adj.get(node, ()):
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    return dist


def computation_subgraph(g: RelationalGraph, target: int, hops: int) -> list[Edge]:
    """Edges whose endpoints both lie within `hops` BFS steps of target."""
    dist = _distances(g, target, hops)
    return sorted(e for e in g.edges if e[0] in dist and e[1] in dist)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class _MaskProblem:
    """Everything one target's mask optimisation holds fixed, on the ball
    of nodes within max(hops, 2) steps of the target, in node order.

    ``a_soft`` is the adjacency among the ball's nodes, and ``outside``
    counts each one's edges to nodes beyond the ball, so that ``a_soft``'s
    row sums plus ``outside`` are the full-graph degrees.  Masked edge i
    sits at ball positions (rows[i], cols[i]) and (cols[i], rows[i]).
    Each evaluation writes its mask weights into those entries before it
    reads the matrix, so the one buffer always holds the current mask's
    adjacency.  ``target`` is the target's ball position, and ``predicted``
    the argmax of its unmasked logits.  ``explain`` builds the problem once
    per call.
    """

    a_soft: np.ndarray
    outside: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    features: np.ndarray
    model: GcnModel
    target: int
    predicted: int
    size_penalty: float
    entropy_penalty: float


def _mask_problem(g: RelationalGraph, model: GcnModel, target: int,
                  masked_edges: list[Edge], cfg: ExplainConfig) -> _MaskProblem:
    # two GCN layers: the logits read the nodes within 2 steps, even at hops 1
    ball = sorted(_distances(g, target, max(cfg.hops, 2)))
    pos = {node: i for i, node in enumerate(ball)}
    a_soft = np.zeros((len(ball), len(ball)))
    outside = np.zeros(len(ball))
    for (u, v) in g.edges:
        i, j = pos.get(u), pos.get(v)
        if i is not None and j is not None:
            a_soft[i, j] = a_soft[j, i] = 1.0
        elif i is not None:
            outside[i] += 1.0
        elif j is not None:
            outside[j] += 1.0
    idx = np.array([(pos[u], pos[v]) for (u, v) in masked_edges],
                   dtype=np.intp).reshape(-1, 2)
    features = g.features[ball]
    # before any mask is written, the ball's forward pass gives the target's
    # full-graph class probabilities; argmax ties go to the lower class
    probs = gcn_forward(model, features, normalize_adjacency(a_soft, outside))
    return _MaskProblem(a_soft, outside, idx[:, 0], idx[:, 1], features,
                        model, pos[target], int(probs[pos[target]].argmax()),
                        cfg.size_penalty, cfg.entropy_penalty)


def soft_adjacency(a: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Write each masked edge's weight into ``a`` symmetrically, in place;
    returns ``a``."""
    a[rows, cols] = weights
    a[cols, rows] = weights
    return a


def _objective(pred_loss, s, size_penalty, entropy_penalty):
    """The prediction loss plus the mask's size and entropy penalties."""
    ent = -(s * np.log(s + 1e-12) + (1 - s) * np.log(1 - s + 1e-12))
    return pred_loss + size_penalty * s.sum() + entropy_penalty * ent.sum()


def _masked_forward(p: _MaskProblem, mask: np.ndarray):
    """The GCN forward pass on the masked ball, and the loss it gives."""
    s = _sigmoid(mask)
    a_hat = normalize_adjacency(soft_adjacency(p.a_soft, p.rows, p.cols, s),
                                p.outside)
    m = p.model
    z1, h1, probs = _forward(a_hat, a_hat @ p.features, m.w0, m.w1, m.b0, m.b1)
    pred_loss = -np.log(probs[p.target, p.predicted] + 1e-12)
    loss = _objective(pred_loss, s, p.size_penalty, p.entropy_penalty)
    return loss, s, a_hat, z1, h1, probs


def _masked_grad(p: _MaskProblem, mask: np.ndarray, fwd) -> np.ndarray:
    """The loss's analytic gradient wrt the mask values, from the mask's
    ``_masked_forward`` outputs ``fwd``.

    Backpropagates through the two GCN layers into dL/dA_hat, then through
    the degree normalization into each symmetric edge weight.
    """
    _, s, a_hat, z1, h1, probs = fwd
    m = p.model

    # dL/dZ2 is nonzero only in the target row
    g2 = np.zeros_like(probs)
    g2[p.target] = probs[p.target]
    g2[p.target, p.predicted] -= 1.0

    g1 = (a_hat @ g2 @ m.w1.T) * (z1 > 0)
    m_hat = g1 @ (p.features @ m.w0).T                 # A_hat in layer 1
    m_hat[p.target] += g2[p.target] @ (h1 @ m.w1).T    # A_hat in layer 2

    # A_hat = w_i w_j (A + I) with w = d^-1/2, and A has a zero diagonal,
    # so diag(A_hat) = 1/d.  An edge weight enters A_hat directly at (u, v)
    # and (v, u), and through the degrees d_u and d_v.  m_hat is nonzero
    # only in the rows of the target and its neighbours, whose A_hat
    # entries all lie inside the ball, so the sums below miss nothing.
    inv_d = np.diag(a_hat)
    t = 0.5 * inv_d * (np.einsum("ij,ij->i", m_hat, a_hat)
                       + np.einsum("ij,ij->j", m_hat, a_hat))
    u, v = p.rows, p.cols
    grad_s = (m_hat[u, v] + m_hat[v, u]) * np.sqrt(inv_d[u] * inv_d[v]) - t[u] - t[v]

    ds_dm = s * (1.0 - s)
    grad = grad_s * ds_dm
    grad += p.size_penalty * ds_dm
    grad += p.entropy_penalty * (-mask) * ds_dm  # d binary_entropy(sigmoid(m))/dm
    return grad


def explain(model: GcnModel, g: RelationalGraph, target: int,
            cfg: ExplainConfig) -> Explanation:
    """Optimize an edge mask around the target and return the top-k edges.

    The predicted class is the model's prediction on the unmasked graph,
    read off the target's ball.  A model whose input dim differs from the
    graph's feature dim raises ValueError.  Deterministic for a fixed
    config seed.
    """
    if not (0 <= target < g.node_count):
        raise ValueError(f"target {target} out of range")
    masked_edges = computation_subgraph(g, target, cfg.hops)
    if not masked_edges:
        raise SingleNodeExplanation(
            f"node {target} has an empty {cfg.hops}-hop computation subgraph")

    problem = _mask_problem(g, model, target, masked_edges, cfg)

    rng = np.random.default_rng(cfg.seed)
    mask = rng.uniform(-0.1, 0.1, size=len(masked_edges))

    fwd = _masked_forward(problem, mask)
    for _ in range(cfg.mask_steps):
        grad = _masked_grad(problem, mask, fwd)
        step = MASK_LR
        for _ in range(20):
            candidate = mask - step * grad
            cand_fwd = _masked_forward(problem, candidate)
            if cand_fwd[0] < fwd[0]:
                mask, fwd = candidate, cand_fwd
                break
            step *= 0.5
        else:
            break

    confidences = np.clip(_sigmoid(mask), 1e-12, 1.0 - 1e-12)
    order = sorted(range(len(masked_edges)),
                   key=lambda i: (-confidences[i], masked_edges[i]))
    keep = order[:cfg.top_k]
    relations = tuple((masked_edges[i], float(confidences[i])) for i in sorted(keep))
    return Explanation(target=target, predicted_class=problem.predicted,
                       relations=relations, hop_radius=cfg.hops)


def is_scores(e: Explanation) -> dict[Edge, float]:
    """The raw explainer confidences, used verbatim as the IS baseline."""
    return {edge: gc for (edge, gc) in e.relations}


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
