"""Edge-mask explainer for single-node GCN predictions.

For a target node, a real-valued mask over the 2-hop computation subgraph
is optimized so that the masked graph keeps the model's prediction while
the mask stays small and close to binary:

    L = -log P(predicted class | masked graph)
        + SIZE_PENALTY * sum(sigmoid(mask))
        + ENTROPY_PENALTY * sum(binary_entropy(sigmoid(mask)))

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

``explain_all`` explains many (graph, target, config) problems in one
call, and ``explain`` is that call with one problem, so there is one
mask loop.  Problems whose balls share their node count and
masked-edge count are optimised in lockstep, as one (P, b, b) stack:
an evaluation writes, normalizes and forwards all P masked balls at
once.  Each problem keeps its own seed and step count, and its own
line search: the steps it has left, the halvings since its last accepted
step, and its step size.  Balls of other shapes never share a stack
and none is padded, and no sum or product mixes two problems, so every
explanation equals explaining its problem alone, bit for bit.

The stacks share nothing either, so ``explain_all`` spreads them over
the CPUs the process may use (``relex.workers``): P = min(CPUs in its
affinity mask, stacks) parts of about equal estimated cost, one
optimised in this process and each other in a forked child, which sends
back its explanations.  The split changes no bit.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from relex import workers
from relex.gcn import GcnModel, _forward, _one_model, normalize_self_looped
from relex.graphs import Edge, RelationalGraph, normalize_edge, read_float, read_int


class SingleNodeExplanation(ValueError):
    """Target has an empty computation subgraph; callers filter these."""


MASK_LR = 1.0  # each mask step's line search starts here, halving up to 20 times
SIZE_PENALTY = 0.05    # the loss's weight on sum(sigmoid(mask))
ENTROPY_PENALTY = 0.1  # and on the masks' summed binary entropy
# a lockstep round's cost, in units of one ball entry of one problem
# (about 10 ns on one core): a fixed part, and a part per problem
ROUND_COST, PROBLEM_COST = 7000, 250


@dataclass
class ExplainConfig:
    hops: int = 2
    mask_steps: int = 300
    top_k: int = 6
    seed: int = 0

    def __post_init__(self):
        if read_int(self.hops, "hops") < 1:
            raise ValueError("hops must be >= 1")
        if read_int(self.mask_steps, "mask_steps") < 0:
            raise ValueError("mask_steps must be >= 0")
        if read_int(self.top_k, "top_k") < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class Explanation:
    """Scored relation subgraph for one target node."""

    target: int
    predicted_class: int
    relations: tuple[tuple[Edge, float], ...]  # ((u, v), confidence)
    hop_radius: int

    def edges(self) -> list[Edge]:
        return [e for (e, _) in self.relations]


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


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no
    exponential overflows; written to ``out`` when given."""
    ex = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, ex), 1.0 + ex, out=out)


@dataclass(frozen=True, eq=False)
class _MaskProblem:
    """P mask problems whose balls share their node count b and masked-edge
    count E, stacked on a leading axis in the order given; everything
    their optimisation holds fixed.

    ``a_tilde`` (P, b, b) starts as the balls' adjacencies plus I, and
    ``outside`` (P, b) holds their outside counts.  Each evaluation writes
    its masks' weights into ``a_tilde`` before it reads it, so the one
    buffer always holds the current masks' A + I.  ``weights`` are the
    model's in ``_forward``'s layouts, ``features`` (P, b, d) the balls'
    features, and ``features_w0_t`` (P, h, b) those times W0, transposed,
    which no mask changes.  ``ax`` (P, b, d + 1) is ``_forward``'s input
    [A_hat . X, 1]: each evaluation writes A_hat . X into its first d
    columns, and the last column stays 1.  ``predicted`` holds the argmax
    of each target's unmasked logits, and ``onehot`` (P, C) that class as
    a one-hot row.

    The rest are flat positions, built once, so that an evaluation reads
    and writes every problem's entries with one ``take`` or ``put``.
    Problem k's masked edge i is its ball's edge i, joining ball positions
    u and v.  In a (P, b, b) array: ``pairs`` (2, P, E), each masked
    edge's (u, v) entry, then its (v, u) entry; ``diagonal`` (P, b); and
    each target's row and column, ``target_row`` and ``target_column``
    (P, b).  In a (P, b) array: ``ends`` (2, P, E), each masked edge's u,
    then its v.  In the (P, C, b) class probabilities: each target's,
    ``target_probs`` (P, C), and its predicted class's, ``predicted_prob``
    (P,).
    """

    a_tilde: np.ndarray
    outside: np.ndarray
    features: np.ndarray
    features_w0_t: np.ndarray
    ax: np.ndarray
    w1: np.ndarray
    weights: tuple
    predicted: np.ndarray
    onehot: np.ndarray
    pairs: np.ndarray
    diagonal: np.ndarray
    target_row: np.ndarray
    target_column: np.ndarray
    ends: np.ndarray
    target_probs: np.ndarray
    predicted_prob: np.ndarray


def _mask_problem(model: GcnModel,
                  problems: Sequence[tuple[RelationalGraph, _Ball]]) -> _MaskProblem:
    """The stacked mask problem of (graph, ball) pairs whose balls share
    their node and masked-edge counts."""
    graphs, balls = zip(*problems)
    count, b, c, d = len(balls), len(balls[0].nodes), model.class_count, model.input_dim
    features = np.stack([g.features[ball.nodes] for g, ball in zip(graphs, balls)])
    a_tilde = np.stack([ball.adjacency for ball in balls])
    a_tilde.reshape(count, b * b)[:, ::b + 1] = 1.0
    outside = np.stack([ball.outside for ball in balls])
    rows = np.stack([ball.rows for ball in balls])
    cols = np.stack([ball.cols for ball in balls])
    target = np.array([ball.target for ball in balls])
    weights = _one_model(model.w0, model.w1, model.b0, model.b1)
    # before any mask is written, the balls' forward pass gives each target's
    # full-graph class probabilities; argmax ties go to the lower class
    a_hat = normalize_self_looped(a_tilde.copy(), outside)
    ax = np.ones((count, b, d + 1))
    np.matmul(a_hat, features, out=ax[..., :d])
    k = np.arange(count)
    predicted = _forward(a_hat, ax, *weights)[1][k, :, target].argmax(axis=1)
    onehot = np.zeros((count, c))
    onehot[k, predicted] = 1.0
    cells, nodes = (k * b * b)[:, None], (k * b)[:, None]
    line = np.arange(b)
    return _MaskProblem(
        a_tilde=a_tilde, outside=outside, features=features,
        features_w0_t=(features @ model.w0).transpose(0, 2, 1), ax=ax, w1=model.w1,
        weights=weights, predicted=predicted, onehot=onehot,
        pairs=np.stack([cells + rows * b + cols, cells + cols * b + rows]),
        diagonal=cells + line * (b + 1),
        target_row=cells + target[:, None] * b + line,
        target_column=cells + line * b + target[:, None],
        ends=np.stack([nodes + rows, nodes + cols]),
        target_probs=(k[:, None] * c + np.arange(c)) * b + target[:, None],
        predicted_prob=(k * c + predicted) * b + target)


def _masked_forward(p: _MaskProblem, mask: np.ndarray):
    """The GCN forward pass on each problem's masked ball, one mask per row
    of ``mask``, and the loss each gives.

    A loss is -log P(predicted) + SIZE_PENALTY * sum(s) + ENTROPY_PENALTY
    * sum(H(s)), with s = sigmoid(mask) and H(s) = -(s log s + (1 - s)
    log(1 - s)).  Negation is exact in floating point, so the two minus
    signs come out of the sums as subtractions, and each loss is that
    sum's value bit for bit.
    """
    s_r = np.empty((2, *mask.shape))  # s and 1 - s, whose logs are taken together
    s, r = s_r
    _sigmoid(mask, out=s)
    np.subtract(1, s, out=r)
    # put repeats s, so each weight lands at both its (u, v) and (v, u) entry
    np.put(p.a_tilde, p.pairs, s)
    a_hat = normalize_self_looped(p.a_tilde.copy(), p.outside)
    np.matmul(a_hat, p.features, out=p.ax[..., :-1])
    h1, probs, hw = _forward(a_hat, p.ax, *p.weights)
    s_log_s, r_log_r = s_r * np.log(s_r + 1e-12)
    xlogx = s_log_s + r_log_r
    loss = (SIZE_PENALTY * np.add.reduce(s, axis=-1)
            - np.log(probs.take(p.predicted_prob) + 1e-12)
            - ENTROPY_PENALTY * np.add.reduce(xlogx, axis=-1))
    return loss, s, r, a_hat, h1, probs, hw


def _masked_grad(p: _MaskProblem, mask: np.ndarray, fwd) -> np.ndarray:
    """Each problem's loss gradient wrt its mask values, analytic, from the
    masks' ``_masked_forward`` outputs ``fwd``.

    Backpropagates through the two GCN layers into dL/dA_hat, then through
    the degree normalization into each symmetric edge weight.
    """
    _, s, r, a_hat, h1, probs, hw = fwd

    # dL/dZ2 is nonzero only in the target row, g2, so A_hat . dL/dZ2 is
    # the outer product of A_hat's target column and g2
    g2 = probs.take(p.target_probs)
    g2 -= p.onehot

    g1 = ((a_hat.take(p.target_column)[:, :, None] * g2[:, None, :]) @ p.w1.T) * (h1[:, 0] > 0)
    m_hat = g1 @ p.features_w0_t                                   # A_hat in layer 1
    layer2 = (g2[:, None, :] @ hw.transpose(0, 2, 1))[:, 0]
    m_hat.put(p.target_row, m_hat.take(p.target_row) + layer2)    # A_hat in layer 2

    # A_hat = w_i w_j (A + I) with w = d^-1/2, and A has a zero diagonal,
    # so diag(A_hat) = 1/d.  An edge weight enters A_hat directly at (u, v)
    # and (v, u), and through the degrees d_u and d_v.  m_hat is nonzero
    # only in the rows of the target and its neighbours, whose A_hat
    # entries all lie inside the ball, so the sums below miss nothing.
    inv_d = a_hat.take(p.diagonal)
    t = 0.5 * inv_d * (np.einsum("kij,kij->ki", m_hat, a_hat)
                       + np.einsum("kij,kij->kj", m_hat, a_hat))
    m_pairs, d_ends, t_ends = m_hat.take(p.pairs), inv_d.take(p.ends), t.take(p.ends)
    grad_s = ((m_pairs[0] + m_pairs[1]) * np.sqrt(d_ends[0] * d_ends[1])
              - t_ends[0] - t_ends[1])

    ds_dm = s * r
    grad = grad_s * ds_dm
    grad += SIZE_PENALTY * ds_dm
    grad += ENTROPY_PENALTY * (-mask) * ds_dm  # d binary_entropy(sigmoid(m))/dm
    return grad


def _descend(p: _MaskProblem, mask: np.ndarray, steps: Sequence[int]) -> np.ndarray:
    """Gradient descent with a backtracking line search on every problem
    of ``p`` in lockstep, from the masks ``mask``; returns the final masks.

    Problem k takes up to ``steps[k]`` steps.  Each step starts at MASK_LR
    and halves until the problem's loss falls, and a problem whose 20th
    halving still fails stops there, so the loss never rises.  A round
    evaluates one gradient and one forward pass for the whole stack, and
    each problem keeps its steps left, its halvings since its last
    accepted step and its step size.  A rejected candidate is retried at
    half the step from the same mask, whose gradient the round recomputes
    bit for bit; each gradient backpropagates from the forward pass that
    accepted its mask.  A stopped problem stays in the stack with step
    size 0: its candidate is computed, but nothing reads it.  The problems
    share no sum, so each ends where it would end alone.
    """
    final = mask.copy()
    live = [k for k, n in enumerate(steps) if n > 0]
    left = list(steps)
    halvings = [0] * len(steps)
    lr = np.array([[MASK_LR if n > 0 else 0.0] for n in steps])
    fwd = _masked_forward(p, mask)
    loss = fwd[0].tolist()
    while live:
        candidate = mask - lr * _masked_grad(p, mask, fwd)
        cand = _masked_forward(p, candidate)
        cand_loss = cand[0].tolist()
        accepted = [k for k in live if cand_loss[k] < loss[k]]
        if len(accepted) == len(live):  # every live problem moves on: take the stack
            mask, fwd = candidate, cand
        elif accepted:
            mask[accepted] = candidate[accepted]
            for old, new in zip(fwd[1:], cand[1:]):
                old[accepted] = new[accepted]
        moved = set(accepted)
        for k in live:
            if k in moved:
                loss[k] = cand_loss[k]
                left[k] -= 1
                halvings[k] = 0
                lr[k] = MASK_LR
            else:  # rejected: half the step, from the same mask
                halvings[k] += 1
                lr[k] *= 0.5
            if not left[k] or halvings[k] == 20:
                final[k] = mask[k]
                lr[k] = 0.0
        live = [k for k in live if lr[k, 0] > 0]  # a stopped problem's step is 0
    return final


def _stack_cost(p: _MaskProblem, steps: Sequence[int]) -> int:
    """A stack's estimated optimisation cost: its rounds, 1 + the most
    steps any of its problems takes, times a round's cost, ROUND_COST +
    (PROBLEM_COST + b^2) per problem.  A round's numpy work on a (P, b, b)
    stack grows with P b^2; below a few dozen nodes its fixed cost and
    the per-problem bookkeeping of the line search dominate."""
    count, b, _ = p.a_tilde.shape
    return (1 + max(steps)) * (ROUND_COST + count * (PROBLEM_COST + b * b))


def _balanced_parts(costs: Sequence[int], parts: int) -> list[list[int]]:
    """The indices of ``costs`` in ``parts`` lists of about equal summed
    cost: each index, costliest first (ties to the lower index), joins
    the list whose sum is lowest so far (ties to the shorter, then the
    lower list), so no list is empty; each list is sorted."""
    loads, members = [0] * parts, [[] for _ in range(parts)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        part = min(range(parts), key=lambda j: (loads[j], len(members[j])))
        loads[part] += costs[i]
        members[part].append(i)
    return [sorted(part) for part in members]


def _explain_stack(members: list[int], p: _MaskProblem, balls: list[_Ball],
                   problems: Sequence[tuple[RelationalGraph, int, ExplainConfig]]
                   ) -> list[tuple[int, Explanation]]:
    """The explanation of each problem ``members[k]`` that the stack ``p``
    holds at k, optimised from its seed's mask, with its position."""
    cfgs = [problems[i][2] for i in members]
    masks = np.stack([np.random.default_rng(cfg.seed).uniform(-0.1, 0.1,
                                                              size=len(balls[i].edges))
                      for i, cfg in zip(members, cfgs)])
    masks = _descend(p, masks, [cfg.mask_steps for cfg in cfgs])
    confidences = np.clip(_sigmoid(masks), 1e-12, 1.0 - 1e-12)
    out = []
    for k, (i, cfg) in enumerate(zip(members, cfgs)):
        edges = balls[i].edges
        order = sorted(range(len(edges)), key=lambda j: (-confidences[k, j], edges[j]))
        relations = tuple((edges[j], float(confidences[k, j]))
                          for j in sorted(order[:cfg.top_k]))
        out.append((i, Explanation(target=problems[i][1], predicted_class=int(p.predicted[k]),
                                   relations=relations, hop_radius=cfg.hops)))
    return out


def explain_all(model: GcnModel,
                problems: Sequence[tuple[RelationalGraph, int, ExplainConfig]]
                ) -> list[Explanation | None]:
    """``explain`` on each (graph, target, config) problem, in order; None
    where the target's computation subgraph is empty.

    The problems whose balls share their node and masked-edge counts are
    optimised as one stack (``_descend``); balls of different shapes never
    share one, and none is padded.  Each explanation therefore equals
    explaining its problem alone, bit for bit, whatever else the call
    holds, and a problem that repeats an earlier one's target, config,
    ball and ball features is optimised once, with it.  The stacks are
    built here, then optimised in
    ``_balanced_parts`` of their ``_stack_cost`` on every CPU the process
    may use (``workers.run_parts``); a child's exception is raised here.
    A target out of range, or a model whose input dim differs from a
    graph's feature dim, raises ValueError before any ball is built.
    """
    for g, target, cfg in problems:
        if not (0 <= target < g.node_count):
            raise ValueError(f"target {target} out of range")
        if g.features.shape[1] != model.input_dim:
            raise ValueError(f"feature dim {g.features.shape[1]} != "
                             f"model input dim {model.input_dim}")
    balls = [_ball(g, target, cfg.hops) for g, target, cfg in problems]
    # a problem whose target, config, ball and ball features repeat an
    # earlier one's would be optimised to its bits: it takes that one's
    first: dict[tuple, int] = {}
    origin = [first.setdefault((target, astuple(cfg), ball.nodes.tobytes(), tuple(ball.edges),
                                ball.adjacency.tobytes(), ball.outside.tobytes(),
                                g.features[ball.nodes].tobytes()), i)
              for i, ((g, target, cfg), ball) in enumerate(zip(problems, balls))]
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, ball in enumerate(balls):
        if ball.edges and origin[i] == i:
            shapes.setdefault((len(ball.nodes), len(ball.edges)), []).append(i)
    stacks = [(members, _mask_problem(model, [(problems[i][0], balls[i]) for i in members]))
              for members in shapes.values()]

    out: list[Explanation | None] = [None] * len(problems)
    if not stacks:
        return out
    costs = [_stack_cost(p, [problems[i][2].mask_steps for i in members])
             for members, p in stacks]
    parts = _balanced_parts(costs, min(workers.cpu_count(), len(stacks)))

    def explain_part(part: list[int]) -> list[tuple[int, Explanation]]:
        return [pair for s in part for pair in _explain_stack(*stacks[s], balls, problems)]

    for pairs in workers.run_parts(explain_part, parts, ()):
        for i, e in pairs:
            out[i] = e
    return [out[i] for i in origin]


def explain(model: GcnModel, g: RelationalGraph, target: int,
            cfg: ExplainConfig) -> Explanation:
    """Optimize an edge mask around the target and return the top-k edges.

    The predicted class is the model's prediction on the unmasked graph,
    read off the target's ball.  A model whose input dim differs from the
    graph's feature dim raises ValueError.  Deterministic for a fixed
    config seed.  ``explain_all`` with this one problem.
    """
    e = explain_all(model, [(g, target, cfg)])[0]
    if e is None:
        raise SingleNodeExplanation(
            f"node {target} has an empty {cfg.hops}-hop computation subgraph")
    return e


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
    """The explanation that ``explanation_to_dict`` wrote; a node id,
    class or hop count that is not a JSON integer, a confidence that is
    not a JSON number, or outside (0, 1], or not finite, a negative node
    id, a self-loop or a relation listed twice raises ValueError."""
    relations = tuple((normalize_edge(read_int(r["u"], "relation u"),
                                      read_int(r["v"], "relation v")),
                       read_float(r["gc"], "relation gc"))
                      for r in blob["relations"])
    seen: set[Edge] = set()
    for ((u, v), gc) in relations:
        if u < 0:
            raise ValueError(f"relation ({u}, {v}) has a negative node id")
        if u == v:
            raise ValueError(f"relation ({u}, {v}) is a self-loop")
        if (u, v) in seen:
            raise ValueError(f"relation ({u}, {v}) is listed twice")
        seen.add((u, v))
        if not 0.0 < gc <= 1.0:
            raise ValueError(f"relation ({u}, {v}) gc {gc!r} is not in (0, 1]")
    return Explanation(target=read_int(blob["target"], "target"),
                       predicted_class=read_int(blob["class"], "class"),
                       relations=relations,
                       hop_radius=read_int(blob["hops"], "hops"))


def save_explanation(e: Explanation, path: str | Path) -> None:
    Path(path).write_text(json.dumps(explanation_to_dict(e)), encoding="utf-8")


def load_explanation(path: str | Path) -> Explanation:
    return explanation_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
