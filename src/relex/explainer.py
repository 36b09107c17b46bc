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
ball, a degree offset that no mask weight touches.  One BFS over the
edge list, read once per call, gives the ball, those counts and the
masked edges.  An evaluation
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
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from relex.gcn import GcnModel, _forward, _one_model, gcn_forward, normalize_adjacency
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


@dataclass(frozen=True, eq=False)
class _Ball:
    """A target's receptive field: the nodes within max(hops, 2) BFS steps
    of it, in node order.

    ``edges`` is the computation subgraph, the edges whose endpoints both
    lie within ``hops`` steps, sorted; edge i joins ball positions
    ``rows[i]`` and ``cols[i]``.  ``adjacency`` is the 0/1 adjacency among
    the ball's nodes, and ``outside`` counts each one's edges to nodes
    beyond the ball, so that the two add up to the full-graph degrees.
    ``target`` is the target's ball position.
    """

    nodes: np.ndarray
    edges: list[Edge]
    rows: np.ndarray
    cols: np.ndarray
    adjacency: np.ndarray
    outside: np.ndarray
    target: int


def _ball(g: RelationalGraph, target: int, hops: int) -> _Ball:
    """One BFS from target over g's edge list, read once into arrays."""
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp,
                       count=2 * g.edge_count).reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    # every edge in both directions: each node's neighbours, as pairs
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    # two GCN layers: the logits read the nodes within 2 steps, even at hops 1
    radius = max(hops, 2)
    dist = np.full(g.node_count, radius + 1)
    dist[target] = 0
    for step in range(1, radius + 1):
        reached = dst[dist[src] == step - 1]
        dist[reached[dist[reached] > step]] = step
    inside = dist <= radius
    nodes = np.flatnonzero(inside)
    pos = np.cumsum(inside) - 1
    both = inside[u] & inside[v]
    adjacency = np.zeros((len(nodes), len(nodes)))
    adjacency[pos[u[both]], pos[v[both]]] = 1.0
    adjacency[pos[v[both]], pos[u[both]]] = 1.0
    leaving = np.concatenate([u[inside[u] & ~inside[v]], v[inside[v] & ~inside[u]]])
    outside = np.bincount(pos[leaving], minlength=len(nodes)).astype(np.float64)
    within = both & (dist[u] <= hops) & (dist[v] <= hops)
    order = np.lexsort((v[within], u[within]))
    eu, ev = u[within][order], v[within][order]
    return _Ball(nodes, list(zip(eu.tolist(), ev.tolist())), pos[eu], pos[ev],
                 adjacency, outside, int(pos[target]))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no
    exponential overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


@dataclass(frozen=True)
class _MaskProblem:
    """Everything one target's mask optimisation holds fixed, on its
    ``_Ball``'s nodes, in node order.

    ``a_soft`` starts as the ball's adjacency and ``outside`` is the
    ball's; masked edge i, the ball's edge i, sits at ball positions
    (rows[i], cols[i]) and (cols[i], rows[i]).  Each evaluation writes its
    mask weights into those entries before it reads the matrix, so the
    one buffer always holds the current mask's adjacency.  ``weights`` are
    the model's in ``_forward``'s layouts, and ``features_w0`` is the
    ball's features times W0, which no mask changes.  ``target`` is the
    target's ball position, and ``predicted`` the argmax of its unmasked
    logits.  ``explain`` builds the problem once per call.
    """

    a_soft: np.ndarray
    outside: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    features: np.ndarray
    model: GcnModel
    weights: tuple
    features_w0: np.ndarray
    target: int
    predicted: int
    size_penalty: float
    entropy_penalty: float


def _mask_problem(g: RelationalGraph, model: GcnModel, ball: _Ball,
                  cfg: ExplainConfig) -> _MaskProblem:
    """The mask problem on ``ball``, the target's ``_Ball``; it takes over
    the ball's adjacency as its ``a_soft`` buffer."""
    features = g.features[ball.nodes]
    # before any mask is written, the ball's forward pass gives the target's
    # full-graph class probabilities; argmax ties go to the lower class
    probs = gcn_forward(model, features, normalize_adjacency(ball.adjacency, ball.outside))
    weights = _one_model(model.w0, model.w1, model.b0, model.b1)
    return _MaskProblem(ball.adjacency, ball.outside, ball.rows, ball.cols, features,
                        model, weights, features @ model.w0, ball.target,
                        int(probs[ball.target].argmax()),
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
    h1, probs = _forward(a_hat, (a_hat @ p.features)[None], *p.weights)
    probs = probs[0].T
    pred_loss = -np.log(probs[p.target, p.predicted] + 1e-12)
    loss = _objective(pred_loss, s, p.size_penalty, p.entropy_penalty)
    return loss, s, a_hat, h1[0], probs


def _masked_grad(p: _MaskProblem, mask: np.ndarray, fwd) -> np.ndarray:
    """The loss's analytic gradient wrt the mask values, from the mask's
    ``_masked_forward`` outputs ``fwd``.

    Backpropagates through the two GCN layers into dL/dA_hat, then through
    the degree normalization into each symmetric edge weight.
    """
    _, s, a_hat, h1, probs = fwd
    m = p.model

    # dL/dZ2 is nonzero only in the target row, g2, so A_hat . dL/dZ2 is
    # the outer product of A_hat's target column and g2
    g2 = probs[p.target].copy()
    g2[p.predicted] -= 1.0

    g1 = (np.outer(a_hat[:, p.target], g2) @ m.w1.T) * (h1 > 0)
    m_hat = g1 @ p.features_w0.T                       # A_hat in layer 1
    m_hat[p.target] += g2 @ (h1 @ m.w1).T              # A_hat in layer 2

    # A_hat = w_i w_j (A + I) with w = d^-1/2, and A has a zero diagonal,
    # so diag(A_hat) = 1/d.  An edge weight enters A_hat directly at (u, v)
    # and (v, u), and through the degrees d_u and d_v.  m_hat is nonzero
    # only in the rows of the target and its neighbours, whose A_hat
    # entries all lie inside the ball, so the sums below miss nothing.
    inv_d = a_hat.diagonal()
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
    ball = _ball(g, target, cfg.hops)
    masked_edges = ball.edges
    if not masked_edges:
        raise SingleNodeExplanation(
            f"node {target} has an empty {cfg.hops}-hop computation subgraph")

    problem = _mask_problem(g, model, ball, cfg)

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
    """The explanation that ``explanation_to_dict`` wrote; a confidence
    outside (0, 1], or not finite, raises ValueError."""
    relations = tuple((normalize_edge(int(r["u"]), int(r["v"])), float(r["gc"]))
                      for r in blob["relations"])
    for ((u, v), gc) in relations:
        if not 0.0 < gc <= 1.0:
            raise ValueError(f"relation ({u}, {v}) gc {gc!r} is not in (0, 1]")
    return Explanation(target=int(blob["target"]),
                       predicted_class=int(blob["class"]),
                       relations=relations,
                       hop_radius=int(blob["hops"]))


def save_explanation(e: Explanation, path: str | Path) -> None:
    Path(path).write_text(json.dumps(explanation_to_dict(e)), encoding="utf-8")


def load_explanation(path: str | Path) -> Explanation:
    return explanation_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
