"""Two-layer GCN for node classification, trained and run on a sparse A_hat.

Forward pass: softmax(A_hat . (relu(A_hat . X . W0 + b0) . W1) + b1) where
A_hat is the symmetrically normalized adjacency with self-loops.  Training
and prediction hold A_hat as a scipy.sparse CSR matrix built from the edge
list, so a propagation costs O(nnz(A_hat)) per column and no n x n array
is made; layer 2 multiplies by W1 before it propagates, so it moves C
columns rather than h.  The explainer runs the same forward pass on a
dense A_hat of the target's ball.  Training is full-batch Adam with
manually derived gradients, which keeps runs deterministic and makes the
finite-difference gradient check simple.  Plain gradient descent cannot
escape the class-prior plateau on the structure-only benchmarks (constant
features leave only a normalized degree scalar as input, and the layer-1
gradients are orders of magnitude below layer-2's); Adam's per-parameter
scaling fixes that.  The seeded restarts train in lockstep, stacked on a
leading axis, and the restart with the best monitored accuracy wins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from relex.graphs import NodeSplit, RelationalGraph


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass
class TrainConfig:
    hidden_dim: int = 32
    max_epochs: int = 2000
    learning_rate: float = 0.02
    seed: int = 0
    patience: int = 200
    restarts: int = 3

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")


@dataclass(eq=False)
class GcnModel:
    """Trained weights.

    Bias vectors are required: with constant node features (the synthetic
    benchmarks) a bias-free two-layer GCN has rank-one logits and predicts
    a single class everywhere.
    """

    w0: np.ndarray  # (d, h)
    w1: np.ndarray  # (h, C)
    b0: np.ndarray  # (h,)
    b1: np.ndarray  # (C,)
    seed: int

    def __post_init__(self):
        for arr in (self.w0, self.w1, self.b0, self.b1):
            if not np.isfinite(arr).all():
                raise ValueError("model weights must be finite")
        if self.w0.shape[1] != self.w1.shape[0]:
            raise ValueError("weight shapes must chain d -> h -> C")
        if self.b0.shape != (self.hidden_dim,) or self.b1.shape != (self.class_count,):
            raise ValueError("bias shapes must match layer widths")

    @property
    def input_dim(self) -> int:
        return self.w0.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w0.shape[1]

    @property
    def class_count(self) -> int:
        return self.w1.shape[1]


def normalize_adjacency(a, degree_offset: np.ndarray | None = None):
    """D^{-1/2} (A + I) D^{-1/2} for a 0/1 or weighted symmetric matrix.

    ``a`` is a dense array, or a scipy.sparse 0/1 matrix with a zero
    diagonal, whose result is CSR and equals the dense result entry for
    entry.  ``degree_offset``, one value per node, is added to D: the
    weight of edges that ``a`` leaves out, such as a subgraph's edges to
    nodes outside it.
    """
    sparse = sp.issparse(a)
    a = sp.csr_array(a, dtype=np.float64) if sparse else np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("adjacency must be square")
    a_tilde = a + (sp.eye_array(n, format="csr") if sparse else np.eye(n))
    d = a_tilde.sum(axis=1)
    if degree_offset is not None:
        d += degree_offset
    inv_sqrt = 1.0 / np.sqrt(d)
    if sparse:
        rows = np.repeat(np.arange(n), np.diff(a_tilde.indptr))
        a_tilde.data *= inv_sqrt[rows]
        a_tilde.data *= inv_sqrt[a_tilde.indices]
        return a_tilde
    # scaled in place: at a few hundred nodes, allocating a fresh n x n
    # product costs several times the multiply itself
    a_tilde *= inv_sqrt[:, None]
    a_tilde *= inv_sqrt[None, :]
    return a_tilde


def sparse_a_hat(g: RelationalGraph) -> sp.csr_array:
    """g's normalized adjacency as CSR, built from its edge list."""
    edges = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    a = sp.csr_array((np.ones(len(rows)), (rows, cols)),
                     shape=(g.node_count, g.node_count))
    return normalize_adjacency(a)


def _propagate(a_hat, h: np.ndarray) -> np.ndarray:
    """A_hat . h for one (n, k) matrix h, or for each of R stacked on a
    leading axis, (R, n, k), as one product with an (n, R k) matrix.

    A CSR product sums each output column over its row's entries in
    index order whatever the column count, so a stacked matrix's result
    equals its matrices' results one by one, bit for bit.
    """
    if h.ndim == 2:
        return a_hat @ h
    r, n, k = h.shape
    out = a_hat @ h.transpose(1, 0, 2).reshape(n, r * k)
    return out.reshape(n, r, k).transpose(1, 0, 2)


def _forward(a_hat, ax: np.ndarray, w0: np.ndarray, w1: np.ndarray,
             b0: np.ndarray, b1: np.ndarray):
    """Layer 1's pre-activations z1 and activations h1, and the class
    probabilities.

    ``a_hat`` is dense or CSR, and ``ax`` is A_hat . X, which no weight
    changes.  The weights are one model's, shaped (d, h), (h, C), (h,),
    (C,), or R models' stacked on a leading axis, shaped (R, d, h),
    (R, h, C), (R, 1, h), (R, 1, C); the outputs stack the same way.
    """
    z1 = ax @ w0 + b0
    h1 = np.maximum(z1, 0.0)
    z2 = _propagate(a_hat, h1 @ w1) + b1
    z2 = z2 - z2.max(axis=-1, keepdims=True)
    exp = np.exp(z2)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    return z1, h1, probs


def gcn_forward(m: GcnModel, features: np.ndarray, a_hat) -> np.ndarray:
    """Class-probability matrix (n, C) on the normalized adjacency a_hat,
    dense or CSR; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != m.input_dim:
        raise ValueError(f"feature dim {features.shape[1]} != model input dim {m.input_dim}")
    return _forward(a_hat, a_hat @ features, m.w0, m.w1, m.b0, m.b1)[2]


def predict(m: GcnModel, g: RelationalGraph) -> np.ndarray:
    """Argmax labels on g; ties break toward the lower class index."""
    probs = gcn_forward(m, g.features, a_hat=sparse_a_hat(g))
    return probs.argmax(axis=1)


def _train_targets(y: np.ndarray, class_count: int, train_idx: np.ndarray):
    """What the loss reads of the labels, built once per training: the
    positions (node * C + label) of the train nodes' labels in a flat
    (n, C) probability matrix, a mask (n, 1) of the train rows, and the
    one-hot labels (n, C) of the train nodes, zero in the other rows."""
    picks = train_idx * class_count + y[train_idx]
    rows = np.zeros((len(y), 1), dtype=bool)
    rows[train_idx] = True
    onehot = np.zeros((len(y), class_count))
    onehot.ravel()[picks] = 1.0
    return picks, rows, onehot


def _loss_and_grads(a_hat, ax, targets, w1, z1, h1, probs):
    """Mean cross-entropy over the train nodes of each of R stacked models,
    shape (R,), and its gradients, from those models' forward pass and
    the ``_train_targets`` of their labels."""
    picks, rows, onehot = targets
    eps = 1e-12
    loss = -np.log(probs.reshape(len(probs), -1)[:, picks] + eps).sum(axis=-1) / len(picks)

    g2 = np.where(rows, probs - onehot, 0.0)
    g2 /= len(picks)

    grad_b1 = g2.sum(axis=1, keepdims=True)
    ah_g2 = _propagate(a_hat, g2)         # A_hat symmetric, so A^T = A
    grad_w1 = h1.transpose(0, 2, 1) @ ah_g2
    g1 = (ah_g2 @ w1.transpose(0, 2, 1)) * (z1 > 0)
    grad_b0 = g1.sum(axis=1, keepdims=True)
    grad_w0 = ax.T @ g1
    return loss, grad_w0, grad_w1, grad_b0, grad_b1


def loss_and_grads(a_hat, x: np.ndarray, y: np.ndarray,
                   train_idx: np.ndarray, w0: np.ndarray, w1: np.ndarray,
                   b0: np.ndarray, b1: np.ndarray):
    """Mean cross-entropy over train nodes and its gradients, for one model
    on a dense or CSR ``a_hat``: the training loop's computation with a
    single restart."""
    ax = a_hat @ x
    params = (w0, w1, b0, b1)
    stacked = (w0[None], w1[None], b0[None, None], b1[None, None])
    targets = _train_targets(y, w1.shape[1], train_idx)
    loss, *grads = _loss_and_grads(a_hat, ax, targets, stacked[1],
                                   *_forward(a_hat, ax, *stacked))
    return (loss[0], *(grad.reshape(p.shape) for grad, p in zip(grads, params)))


def init_weights(d: int, hidden: int, classes: int, seed: int):
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-0.1, 0.1, size=(d, hidden))
    w1 = rng.uniform(-0.1, 0.1, size=(hidden, classes))
    b0 = rng.uniform(-0.1, 0.1, size=hidden)
    b1 = rng.uniform(-0.1, 0.1, size=classes)
    return w0, w1, b0, b1


def _unstack(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the rows of ``flat``, one row per model, as stacked
    (R, *shape) arrays, one array per shape, in order."""
    views, start = [], 0
    for rows, cols in shapes:
        views.append(flat[:, start:start + rows * cols].reshape(len(flat), rows, cols))
        start += rows * cols
    return views


def _train_restarts(a_hat, x, y, class_count, train_idx, monitor_idx,
                    cfg: TrainConfig):
    """cfg.restarts seeded full-batch Adam runs in lockstep; returns each
    restart's best weights, stacked as w0, w1, b0, b1 of shapes
    (R, d, h), (R, h, C), (R, 1, h), (R, 1, C), and its best (monitored,
    train) accuracy pair.

    An epoch is one forward pass, one backward pass and one Adam update
    for all live restarts: the forward pass that scores an update is the
    next epoch's loss forward.  A restart that stops leaves the stack.
    """
    ax = a_hat @ x
    targets = _train_targets(y, class_count, train_idx)
    # one column per accuracy, (monitored, train): a 1 in each row it scores
    scored = np.zeros((len(y), 2))
    scored[monitor_idx, 0] = 1.0
    scored[train_idx, 1] = 1.0
    sizes = np.array([len(monitor_idx), len(train_idx)])
    h = cfg.hidden_dim
    shapes = ((x.shape[1], h), (h, class_count), (1, h), (1, class_count))
    # one row of w0, w1, b0, b1 per restart; the stacked weights are views
    flat = np.stack([np.concatenate([p.ravel() for p in
                                     init_weights(x.shape[1], h, class_count, cfg.seed + r)])
                     for r in range(cfg.restarts)])
    mom = np.zeros_like(flat)
    vel = np.zeros_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    live = list(range(cfg.restarts))              # restarts still training
    best = flat.copy()
    best_acc = [(-1.0, -1.0)] * cfg.restarts      # (monitored, train) accuracy
    best_loss = [math.inf] * cfg.restarts
    stale = [0] * cfg.restarts
    params = _unstack(flat, shapes)
    fwd = _forward(a_hat, ax, *params)
    for t in range(1, cfg.max_epochs + 1):
        loss, *grads = _loss_and_grads(a_hat, ax, targets, params[1], *fwd)
        losses = loss.tolist()
        for value in losses:
            if not math.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {value} at epoch {t}")
        grad = np.concatenate([part.reshape(len(live), -1) for part in grads], axis=1)
        mom *= beta1
        mom += (1 - beta1) * grad
        vel *= beta2
        vel += (1 - beta2) * grad * grad
        m_hat = mom / (1 - beta1 ** t)
        v_hat = vel / (1 - beta2 ** t)
        flat -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        fwd = _forward(a_hat, ax, *params)
        hits = fwd[2].argmax(axis=-1) == y
        accs = map(tuple, ((hits @ scored) / sizes).tolist())
        going = []
        for i, (r, acc) in enumerate(zip(live, accs)):
            improved = False
            if acc > best_acc[r]:
                best_acc[r] = acc
                best[r] = flat[i]
                improved = True
            # patience also resets while the train loss improves; tiny
            # validation sets saturate long before the optimizer is done
            if losses[i] < best_loss[r] - 1e-6:
                best_loss[r] = losses[i]
                improved = True
            stale[r] = 0 if improved else stale[r] + 1
            going.append(stale[r] < cfg.patience)
        if not all(going):
            live = [r for r, keep in zip(live, going) if keep]
            if not live:
                break
            flat, mom, vel = flat[going], mom[going], vel[going]
            params = _unstack(flat, shapes)
            fwd = tuple(a[going] for a in fwd)
    return _unstack(best, shapes), best_acc


def train_gcn(g: RelationalGraph, split: NodeSplit, cfg: TrainConfig) -> GcnModel:
    """Full-batch training; returns the model with the best monitored
    accuracy seen across cfg.restarts seeded restarts.

    Deterministic for a fixed seed (restart r uses seed + r).  Each
    restart keeps the weights of its best (monitored, train) accuracy
    pair, where the monitored accuracy is validation accuracy (training
    accuracy when the validation set is empty), and stops once neither
    that pair nor its train loss has improved for cfg.patience epochs.
    Of restarts that tie, the first wins.
    """
    if len(split.train) == 0:
        raise ValueError("training split is empty")
    a_hat = sparse_a_hat(g)
    train_idx = np.asarray(split.train)
    monitor_idx = np.asarray(split.validation if split.validation else split.train)
    (w0, w1, b0, b1), best_acc = _train_restarts(a_hat, g.features, g.labels,
                                                 g.class_count, train_idx,
                                                 monitor_idx, cfg)
    win = 0
    for r in range(1, cfg.restarts):
        if best_acc[r] > best_acc[win]:
            win = r
    return GcnModel(w0=w0[win], w1=w1[win], b0=b0[win, 0], b1=b1[win, 0],
                    seed=cfg.seed)


# ---------------------------------------------------------------------------
# Serialization: JSON with dims, seed and row-major weight arrays.  Python's
# float repr round-trips exactly, so plain json keeps full precision.
# ---------------------------------------------------------------------------

def save_model(m: GcnModel, path: str | Path) -> None:
    blob = {
        "input_dim": m.input_dim,
        "hidden_dim": m.hidden_dim,
        "class_count": m.class_count,
        "seed": m.seed,
        "w0": m.w0.tolist(),
        "w1": m.w1.tolist(),
        "b0": m.b0.tolist(),
        "b1": m.b1.tolist(),
    }
    Path(path).write_text(json.dumps(blob), encoding="utf-8")


def load_model(path: str | Path) -> GcnModel:
    """Read a model; its stored dims must match its weight shapes."""
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    m = GcnModel(w0=np.asarray(blob["w0"], dtype=np.float64),
                 w1=np.asarray(blob["w1"], dtype=np.float64),
                 b0=np.asarray(blob["b0"], dtype=np.float64),
                 b1=np.asarray(blob["b1"], dtype=np.float64),
                 seed=int(blob["seed"]))
    for key in ("input_dim", "hidden_dim", "class_count"):
        if int(blob[key]) != getattr(m, key):
            raise ValueError(f"stored {key} {blob[key]} disagrees with the weights")
    return m
