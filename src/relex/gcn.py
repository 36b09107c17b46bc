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
scaling fixes that.  The seeded restarts train in lockstep and the
restart with the best monitored accuracy wins.  ``train_gcns`` trains
K graphs that differ only in their edges, as ``verify``'s reduced graphs
do, in the same lockstep run: K R models advance in one Adam loop,
all of them until the last one stops.

``train_gcns`` splits those K R models across the CPUs the process may
use (``relex.workers``): P = min(CPUs in its affinity mask, K R) parts
in model order, by graphs when K >= P and otherwise by restarts, each
part one lockstep run on a slice of the graphs and a range of restart
seeds.  The models share no sum and every product is one model's, so
the split changes no bit.

The loss reads only the train rows and the early stop only the train
and monitored rows, so an epoch runs layer 2, the softmax and the
accuracies on those scored rows alone, through A_hat[scored], and
carries only the train rows' gradient back, through A_hat[:, train];
with K graphs each is one CSR product through the block-diagonal of
the graphs' matrices.  Layer 1 runs on every node and is model-major:
each model's hidden units are one (n, h) matrix, stacked to (K, R, n,
h), and each model is one product of its own, whose shapes are the same
whether it trains alone, in lockstep or in any part.  Its bias rides in
the product: A_hat . X carries a ones column, (K, n, d + 1), and each
model's W0 rows are followed by its b0 row in one (d + 1, h) block, so
A_hat . X . W0 + b0 is one product, then the ReLU.  OpenBLAS adds the
ones column's term last, so the product equals A_hat . X . W0 + b0 bit
for bit while d + 1 fits in one of its k-blocks: up to 383 features on
OpenBLAS 0.3.31's SkylakeX kernel, and not where h = 1, for which numpy
calls gemv.  The probabilities are class-major, (K R, C, rows), so the
softmax's max reduces over C rows, and its denominator is summed over
the class rows in the order numpy sums a contiguous row, with no
node-major copy.

An epoch allocates nothing the size of a layer.  The weights, their
gradients and Adam's two moments are rows of one buffer, each row viewed
in the layouts the forward pass reads, so no weight is copied into a
layout and no gradient out of one.  The forward and backward passes are
bound once per training to arrays they write in place, the CSR products
call scipy's own kernel into them, and Adam updates the rows in place;
a model's weights are copied out only when its accuracy pair improves.
Every weight stays bit-identical to training each graph's restarts one
by one on every row.

scipy.sparse is imported inside the functions that build, combine or
multiply CSR matrices (normalize_adjacency, sparse_a_hat, _block_diag,
_product), not with the module: its import takes longer than the rest of
relex's, and the commands that only explain or calibrate never make a
CSR matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from relex import workers
from relex.graphs import NodeSplit, RelationalGraph, read_floats, read_int


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite; ``graph`` is the
    position of the graph whose model diverged in ``train_gcns``'s list,
    and ``epoch`` the epoch whose loss was non-finite."""

    def __init__(self, message: str, graph: int = 0, epoch: int = 0):
        super().__init__(message)
        self.graph = graph
        self.epoch = epoch


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
    import scipy.sparse as sp

    sparse = sp.issparse(a)
    a = sp.csr_array(a, dtype=np.float64) if sparse else np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("adjacency must be square")
    if not sparse:
        a_tilde = a.copy()
        a_tilde.flat[::n + 1] += 1.0  # A + I, with no n x n identity made
        return normalize_self_looped(a_tilde, degree_offset)
    a_tilde = a + sp.eye_array(n, format="csr")
    d = a_tilde.sum(axis=1)
    if degree_offset is not None:
        d += degree_offset
    inv_sqrt = 1.0 / np.sqrt(d)
    rows = np.repeat(np.arange(n), np.diff(a_tilde.indptr))
    a_tilde.data *= inv_sqrt[rows]
    a_tilde.data *= inv_sqrt[a_tilde.indices]
    return a_tilde


def normalize_self_looped(a_tilde: np.ndarray,
                          degree_offset: np.ndarray | None = None) -> np.ndarray:
    """``normalize_adjacency``'s dense result, computed in place from
    A + I itself, a float array or a stack of them (..., n, n) normalized
    matrix by matrix, with ``degree_offset`` (..., n) added to D."""
    d = np.add.reduce(a_tilde, axis=-1)
    if degree_offset is not None:
        d += degree_offset
    inv_sqrt = 1.0 / np.sqrt(d)
    # scaled in place: at a few hundred nodes, allocating a fresh n x n
    # product costs several times the multiply itself
    a_tilde *= inv_sqrt[..., :, None]
    a_tilde *= inv_sqrt[..., None, :]
    return a_tilde


def sparse_a_hat(g: RelationalGraph) -> sp.csr_array:
    """g's normalized adjacency as CSR, built from its edge list."""
    import scipy.sparse as sp

    edges = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    a = sp.csr_array((np.ones(len(rows)), (rows, cols)),
                     shape=(g.node_count, g.node_count))
    return normalize_adjacency(a)


def _product(a, x: np.ndarray, out: np.ndarray):
    """A function that writes a @ x to ``out``, from what ``x`` holds
    when it runs; ``x`` and ``out`` are C-contiguous.  For a CSR ``a`` it
    runs csr_matvecs, the kernel of scipy's ``a @ x``, on a zeroed
    ``out``, so the result is the same bit for bit."""
    if isinstance(a, np.ndarray):
        return partial(np.matmul, a, x, out=out)
    from scipy.sparse._sparsetools import csr_matvecs

    kernel = partial(csr_matvecs, *a.shape, x.shape[-1], a.indptr, a.indices, a.data,
                     x.ravel(), out.ravel())

    def run():
        out.fill(0.0)
        kernel()
    return run


def _class_sum(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of ``p`` (M, C, S) over its C class rows, written to
    ``out`` (M, 1, S) in the order np.add.reduce adds a contiguous axis:
    one by one below 8 terms; up to 128 terms in 8 interleaved partial
    sums, added pairwise, then the rest one by one; above 128 terms, the
    sums of two halves split at a multiple of 8.  So a class-major softmax
    divides by the denominator an (n, C) softmax computes."""
    c = p.shape[1]
    if c < 8:
        return np.add.reduce(p, axis=1, keepdims=True, out=out)
    if c > 128:
        half = c // 2 - c // 2 % 8
        _class_sum(p[:, :half], out)
        out += _class_sum(p[:, half:], np.empty_like(out))
        return out
    acc = p[:, :8].copy()
    for i in range(8, c - c % 8, 8):
        acc += p[:, i:i + 8]
    acc[:, ::2] += acc[:, 1::2]
    acc[:, ::4] += acc[:, 2::4]
    np.add(acc[:, :1], acc[:, 4:5], out=out)
    for i in range(c - c % 8, c):
        out += p[:, i:i + 1]
    return out


def _with_ones(ax: np.ndarray) -> np.ndarray:
    """``ax`` (..., n, d) with a ones column appended, (..., n, d + 1):
    the input that ``_forward`` multiplies by its W0|b0 block."""
    out = np.ones((*ax.shape[:-1], ax.shape[-1] + 1))
    out[..., :-1] = ax
    return out


def _forward(a_rows, ax: np.ndarray, w0: np.ndarray, w1: np.ndarray, b1: np.ndarray):
    """Layer 1's activations h1 on every node of K graphs, the class
    probabilities of the rows of their A_hat that ``a_rows`` holds, and
    h1 . W1, which layer 2 propagates.

    ``ax`` (K, n, d + 1) holds each graph's A_hat . X, which no weight
    changes, and a ones column (``_with_ones``).  ``a_rows`` is A_hat or
    a subset of its rows, dense or CSR, for K = 1; the block-diagonal CSR
    matrix of the K graphs' row subsets for K > 1; or a dense (K, rows,
    n) stack of the K graphs' rows.  The weights are R models per graph
    in ``_layouts``'s layouts, W0 with b0 as its last row, or one
    graph's, which every graph then shares.  h1 is model-major, (K, R,
    n, h); the probabilities are class-major, (K R, C, rows), with graph
    k's model r at k R + r, so the softmax's max reduces over C rows.
    h1 . W1 is (K, n, R C) for a dense stack, else (K n, R C).
    """
    return _forward_pass(a_rows, ax, w0, w1, b1)()


def _forward_pass(a_rows, ax: np.ndarray, w0: np.ndarray, w1: np.ndarray, b1: np.ndarray):
    """``_forward`` on arrays allocated once: a function that runs the
    pass on what its arguments hold when it is called, writes every
    result in place, and returns the same three arrays each time.
    Training calls it once per epoch, on weights it updates in place."""
    k, n, _ = ax.shape
    _, r, h, c = w1.shape
    # a dense stack multiplies graph by graph, one matrix all graphs at once
    dense_stack = a_rows.ndim == 3
    rows = a_rows.shape[-2] if dense_stack else a_rows.shape[0] // k
    stack = (k, -1, r * c) if dense_stack else (-1, r * c)
    h1, hw = np.empty((k, r, n, h)), np.empty((k, n, r, c))
    z2, probs = np.empty((k, rows, r, c)), np.empty((k * r, c, rows))
    top = np.empty((k * r, 1, rows))  # each column's max, then its denominator
    hw_by_model = hw.transpose(0, 2, 1, 3)
    hw = hw.reshape(stack)
    propagate = _product(a_rows, hw, z2.reshape(stack))
    logits, probs_by_model = z2.transpose(0, 2, 3, 1), probs.reshape(k, r, c, rows)
    ax_by_model = ax[:, None]

    def run():
        np.matmul(ax_by_model, w0, out=h1)  # the ones column adds b0
        np.maximum(h1, 0.0, out=h1)
        # layer 2 multiplies by W1 before it propagates, so it moves C columns
        np.matmul(h1, w1, out=hw_by_model)
        propagate()
        np.add(logits, b1, out=probs_by_model)
        np.subtract(probs, np.maximum.reduce(probs, axis=1, keepdims=True, out=top), out=probs)
        np.exp(probs, out=probs)
        np.divide(probs, _class_sum(probs, top), out=probs)
        return h1, probs, hw
    return run


def _layouts(flat: np.ndarray, k: int, r: int, d: int, h: int, c: int):
    """Views of ``flat``, which holds K R models' w0 and b0, w1 and b1 in
    turn, in ``_forward``'s layouts: each model's W0 rows then its b0 row
    as one block (K, R, d + 1, h), so layer 1 is one product per model
    with its bias, then w1 (K, R, h, C) and b1 (K, R, C, 1), which
    broadcasts over the class-major logits."""
    w0, w1, b1 = np.split(flat, np.cumsum([d + 1, c]) * (k * r * h))
    return w0.reshape(k, r, d + 1, h), w1.reshape(k, r, h, c), b1.reshape(k, r, c, 1)


def _slots(layouts, k, r: int):
    """Graph k's restart r's w0, w1, b0 and b1 in ``_layouts``'s views,
    as views shaped (d, h), (h, C), (h,) and (C,); k may be a slice."""
    w0, w1, b1 = layouts
    return w0[k, r, :-1], w1[k, r], w0[k, r, -1], b1[k, r, :, 0]


def _one_model(w0: np.ndarray, w1: np.ndarray, b0: np.ndarray, b1: np.ndarray):
    """One model's weights, shaped (d, h), (h, C), (h,), (C,), as
    ``_forward`` takes K = R = 1 models."""
    return np.vstack([w0, b0])[None, None], w1[None, None], b1.reshape(1, 1, -1, 1)


def gcn_forward(m: GcnModel, features: np.ndarray, a_hat) -> np.ndarray:
    """Class-probability matrix (n, C) on the normalized adjacency a_hat,
    dense or CSR; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != m.input_dim:
        raise ValueError(f"feature dim {features.shape[1]} != model input dim {m.input_dim}")
    return _forward(a_hat, _with_ones(a_hat @ features)[None],
                    *_one_model(m.w0, m.w1, m.b0, m.b1))[1][0].T


def predict(m: GcnModel, g: RelationalGraph) -> np.ndarray:
    """Argmax labels on g; ties break toward the lower class index."""
    probs = gcn_forward(m, g.features, a_hat=sparse_a_hat(g))
    return probs.argmax(axis=1)


@dataclass(frozen=True, eq=False)
class _Targets:
    """What training reads of K graphs' A_hat and of their shared labels,
    built once per training.  The scored rows S are the train nodes,
    sorted, then the monitored nodes that are not train nodes.

    ``a_scored`` holds each graph's A_hat[S], the rows that layer 2
    computes, and ``a_train`` each graph's A_hat[:, sorted train nodes],
    which carries their dL/dZ2 back, block-diagonally for K > 1.
    ``picks`` holds the positions (label * |S| + row) of the train labels,
    in train order, in one model's flat (C, |S|) probabilities; ``onehot``
    (|train|, 1, C) the sorted train nodes' one-hot labels.  ``labels``
    are S's labels, and ``scored`` (|S|, 2) has a 1 in each row that the
    (monitored, train) accuracy counts, out of ``sizes``.
    """

    a_scored: sp.csr_array | np.ndarray
    a_train: sp.csr_array | np.ndarray
    picks: np.ndarray
    onehot: np.ndarray
    count: int
    labels: np.ndarray
    scored: np.ndarray
    sizes: np.ndarray


def _block_diag(blocks: list):
    """The block-diagonal CSR matrix of ``blocks``, or the one block."""
    import scipy.sparse as sp

    return blocks[0] if len(blocks) == 1 else sp.block_diag(blocks, format="csr")


def _targets(a_hats: list, y: np.ndarray, class_count: int, train_idx: np.ndarray,
             monitor_idx: np.ndarray) -> _Targets:
    train = np.unique(train_idx)
    rows = np.concatenate([train, np.setdiff1d(monitor_idx, train)])
    pos = np.empty(len(y), dtype=np.intp)
    pos[rows] = np.arange(len(rows))
    onehot = np.zeros((len(train), 1, class_count))
    onehot[np.arange(len(train)), 0, y[train]] = 1.0
    scored = np.zeros((len(rows), 2))
    scored[pos[monitor_idx], 0] = 1.0
    scored[:len(train), 1] = 1.0
    return _Targets(a_scored=_block_diag([a[rows] for a in a_hats]),
                    a_train=_block_diag([a[:, train] for a in a_hats]),
                    picks=y[train_idx] * len(rows) + pos[train_idx], onehot=onehot,
                    count=len(train_idx), labels=y[rows], scored=scored,
                    sizes=np.array([len(monitor_idx), len(train_idx)]))


def _backward_pass(ax: np.ndarray, t: _Targets, h1: np.ndarray, probs: np.ndarray,
                   w1: np.ndarray, grads: tuple):
    """The mean cross-entropy over the train nodes of each of K R models
    and its gradients, from the forward pass that writes ``h1`` and
    ``probs`` on ``t``'s scored rows, on arrays allocated once: a function
    that returns the losses, shape (K R,), and writes the gradients into
    ``grads``, views in ``_layouts``'s layouts, from what the inputs hold
    when it is called."""
    k, r, n, h = h1.shape
    c = w1.shape[-1]
    grad_w0b0, grad_w1, grad_b1 = grads
    grad_w0, grad_b0 = grad_w0b0[:, :, :-1], grad_w0b0[:, :, -1]
    rows, models = len(t.onehot), k * r
    picks = t.picks[:, None] + np.arange(models) * probs[0].size
    picked, flat = np.empty(picks.shape), probs.reshape(-1)
    loss = picked[-1]  # the running sums' last row, once they are summed
    # dL/dZ2 is nonzero only in the train rows, which lead the scored rows
    train_probs = probs.reshape(k, r, c, -1)[..., :rows].transpose(0, 3, 1, 2)
    g2, ah_g2, g1 = np.empty((k, rows, r, c)), np.empty((k, n, r, c)), np.empty(h1.shape)
    active = np.empty(h1.shape, dtype=bool)  # the ReLU's open units
    propagate = _product(t.a_train, g2.reshape(k * rows, r * c),  # A_hat = A_hat^T
                         ah_g2.reshape(k * n, r * c))
    g2_by_row, grad_b1 = g2.reshape(k, rows, r * c), grad_b1.reshape(k, r * c)
    # a model's products read a copy of its (n, C) block of A_hat dL/dZ2,
    # whose layout, unlike the R C stride of the rows that hold all R
    # models' blocks side by side, is the same in any part
    by_row, ah_g2 = ah_g2.transpose(0, 2, 1, 3), np.empty((k, r, n, c))
    h1_t, w1_t = h1.transpose(0, 1, 3, 2), w1.transpose(0, 1, 3, 2)
    ax_t = ax[:, None, :, :-1].transpose(0, 1, 3, 2)  # the ones column's gradient is grad_b0

    def run():
        flat.take(picks, out=picked, mode="clip")
        np.add(picked, 1e-12, out=picked)
        np.log(picked, out=picked)
        # each model's loss sums its train nodes one by one, in train order,
        # which np.add.reduce does not do for a lone model's contiguous column
        np.add.accumulate(picked, axis=0, out=picked)
        np.negative(loss, out=loss)
        np.divide(loss, t.count, out=loss)
        np.subtract(train_probs, t.onehot, out=g2)
        np.divide(g2, t.count, out=g2)
        np.add.reduce(g2_by_row, axis=1, out=grad_b1)
        propagate()
        np.copyto(ah_g2, by_row)
        np.matmul(h1_t, ah_g2, out=grad_w1)
        np.matmul(ah_g2, w1_t, out=g1)
        np.multiply(g1, np.greater(h1, 0.0, out=active), out=g1)
        np.add.reduce(g1, axis=2, out=grad_b0)
        np.matmul(ax_t, g1, out=grad_w0)
        return loss
    return run


def _model_size(d: int, h: int, c: int) -> int:
    """The number of weights of one model."""
    return d * h + h + h * c + c


def loss_and_grads(a_hat, x: np.ndarray, y: np.ndarray,
                   train_idx: np.ndarray, w0: np.ndarray, w1: np.ndarray,
                   b0: np.ndarray, b1: np.ndarray):
    """Mean cross-entropy over train nodes and its gradients, for one model
    on a dense or CSR ``a_hat``: the training loop's computation with a
    single graph and restart."""
    ax = _with_ones(a_hat @ x)[None]
    (d, h), c = w0.shape, w1.shape[1]
    t = _targets([a_hat], y, c, train_idx, train_idx)
    weights = _one_model(w0, w1, b0, b1)
    grads = _layouts(np.empty(_model_size(d, h, c)), 1, 1, d, h, c)
    h1, probs, _ = _forward(t.a_scored, ax, *weights)
    loss = _backward_pass(ax, t, h1, probs, weights[1], grads)()
    return loss[0], *_slots(grads, 0, 0)


def init_weights(d: int, hidden: int, classes: int, seed: int):
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-0.1, 0.1, size=(d, hidden))
    w1 = rng.uniform(-0.1, 0.1, size=(hidden, classes))
    b0 = rng.uniform(-0.1, 0.1, size=hidden)
    b1 = rng.uniform(-0.1, 0.1, size=classes)
    return w0, w1, b0, b1


def _train_restarts(a_hats: list, x, y, class_count, train_idx, monitor_idx,
                    cfg: TrainConfig):
    """cfg.restarts seeded full-batch Adam runs on each of K graphs, all in
    lockstep; the graphs share x, y and the split and differ only in their
    A_hat.  Returns each model's best weights, stacked as w0, w1, b0, b1 of
    shapes (K, R, d, h), (K, R, h, C), (K, R, 1, h), (K, R, 1, C), and its
    best (monitored, train) accuracy pair, as K lists of R pairs.

    An epoch is one forward pass, one backward pass and one Adam update
    for all K R models.  The forward pass that scores an update is the
    next epoch's loss forward.  Every model stays in the run until the
    last one stops or cfg.max_epochs is reached; a model that stopped is
    still updated, but nothing reads its loss, its accuracy or its
    weights again.  The models share no sum, so one that stopped, even
    with non-finite weights, changes no other model's result.  Every
    array an epoch writes is allocated before the first epoch.  A live
    model's non-finite loss raises TrainingDiverged with its graph's
    position in ``a_hats`` and the epoch.
    """
    n_graphs, n_restarts = len(a_hats), cfg.restarts
    ax = _with_ones(np.stack([a @ x for a in a_hats]))
    d, h = x.shape[1], cfg.hidden_dim
    t = _targets(a_hats, y, class_count, train_idx, monitor_idx)
    # the weights, their gradients, Adam's two moments and scratch, each in _layouts
    state = np.zeros((5, n_graphs * n_restarts * _model_size(d, h, class_count)))
    weights, grad, mom, vel, scratch = state
    params, grads = (_layouts(row, n_graphs, n_restarts, d, h, class_count)
                     for row in (weights, grad))
    for r in range(n_restarts):
        for slot, value in zip(_slots(params, slice(None), r),
                               init_weights(d, h, class_count, cfg.seed + r)):
            slot[...] = value
    best = _layouts(weights.copy(), n_graphs, n_restarts, d, h, class_count)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # model m is graph m // R's restart m % R
    models = n_graphs * n_restarts
    live = list(range(models))                    # models still training
    best_acc = [(-1.0, -1.0)] * models            # (monitored, train) accuracy
    best_loss = [math.inf] * models
    stale = [0] * models
    forward = _forward_pass(t.a_scored, ax, *params)
    h1, probs, _ = forward()
    backward = _backward_pass(ax, t, h1, probs, params[1], grads)
    for step in range(1, cfg.max_epochs + 1):
        losses = backward().tolist()
        for m in live:
            if not math.isfinite(losses[m]):
                raise TrainingDiverged(f"non-finite loss {losses[m]} at epoch {step}",
                                       m // n_restarts, step)
        # Adam, in place, in the reference's order of operations
        mom *= beta1
        mom += np.multiply(grad, 1 - beta1, out=scratch)
        vel *= beta2
        np.multiply(grad, 1 - beta2, out=scratch)
        vel += np.multiply(scratch, grad, out=scratch)
        np.divide(mom, 1 - beta1 ** step, out=scratch)
        scratch *= cfg.learning_rate
        np.divide(vel, 1 - beta2 ** step, out=grad)
        np.sqrt(grad, out=grad)
        grad += eps
        weights -= np.divide(scratch, grad, out=scratch)
        forward()
        hits = probs.argmax(axis=1) == t.labels
        accs = ((hits @ t.scored) / t.sizes).tolist()
        for m in live:
            acc = tuple(accs[m])
            improved = False
            if acc > best_acc[m]:
                best_acc[m] = acc
                for slot, value in zip(_slots(best, *divmod(m, n_restarts)),
                                       _slots(params, *divmod(m, n_restarts))):
                    slot[...] = value
                improved = True
            # patience also resets while the train loss improves; tiny
            # validation sets saturate long before the optimizer is done
            if losses[m] < best_loss[m] - 1e-6:
                best_loss[m] = losses[m]
                improved = True
            stale[m] = 0 if improved else stale[m] + 1
        live = [m for m in live if stale[m] < cfg.patience]
        if not live:
            break
    w0, w1, b1 = best
    stacked = w0[:, :, :-1], w1, w0[:, :, -1:], b1.reshape(n_graphs, n_restarts, 1, -1)
    return stacked, [best_acc[k * n_restarts:(k + 1) * n_restarts] for k in range(n_graphs)]


def _train_in_parts(a_hats: list, x, y, class_count, train_idx, monitor_idx,
                    cfg: TrainConfig):
    """``_train_restarts``'s result, with the K R models split into
    ``workers.grid_parts`` on every CPU the process may use, each part
    one ``_train_restarts`` call on its graphs with its restarts' seeds.
    The parts hold the models in order, so their results are joined end
    to end along the model axis.  The models share no sum, and each
    model's products have the same shapes in any part, so each is
    bit-identical to lockstep's.  A divergence raises the
    TrainingDiverged that lockstep raises first: the earliest epoch's,
    then the lowest model's.
    """
    k, r = len(a_hats), cfg.restarts
    parts = workers.grid_parts(k, r, min(workers.cpu_count(), k * r))

    def train(part):
        graphs, restarts = part
        return _train_restarts(
            a_hats[graphs.start:graphs.stop], x, y, class_count, train_idx, monitor_idx,
            replace(cfg, seed=cfg.seed + restarts.start, restarts=len(restarts)))

    results = workers.run_parts(train, parts, TrainingDiverged)
    diverged = [(exc.epoch, i, graphs.start + exc.graph, str(exc))
                for i, ((graphs, _), exc) in enumerate(zip(parts, results))
                if isinstance(exc, TrainingDiverged)]
    if diverged:
        epoch, _, graph, message = min(diverged)
        raise TrainingDiverged(f"{message} on graph {graph}", graph, epoch)
    models = [np.concatenate([a.reshape(-1, *a.shape[2:]) for a in arrays])
              for arrays in zip(*(stacked for stacked, _ in results))]
    pairs = [pair for _, accs in results for row in accs for pair in row]
    return ([a.reshape(k, r, *a.shape[1:]) for a in models],
            [pairs[m:m + r] for m in range(0, k * r, r)])


def train_gcns(graphs: list[RelationalGraph], split: NodeSplit,
               cfg: TrainConfig) -> list[GcnModel]:
    """One model per graph, each as ``train_gcn`` trains it alone; the
    graphs must share their nodes, features and labels, and may differ
    in their edges.

    All graphs' restarts train in lockstep, split across the CPUs the
    process may use (``_train_in_parts``), and every model is
    bit-identical to training its graph alone, at any CPU count: no
    product or sum mixes two models.  A non-finite loss raises
    TrainingDiverged, whose ``graph`` is that graph's position in
    ``graphs``.
    """
    if not graphs:
        raise ValueError("no graph to train on")
    if len(split.train) == 0:
        raise ValueError("training split is empty")
    first = graphs[0]
    for k, g in enumerate(graphs[1:], start=1):
        for what, same in (("node count", g.node_count == first.node_count),
                           ("features", np.array_equal(g.features, first.features)),
                           ("labels", g.class_count == first.class_count
                            and np.array_equal(g.labels, first.labels))):
            if not same:
                raise ValueError(f"graph {k} differs from graph 0 in its {what}")
    train_idx = np.asarray(split.train)
    monitor_idx = np.asarray(split.validation if split.validation else split.train)
    (w0, w1, b0, b1), best_acc = _train_in_parts(
        [sparse_a_hat(g) for g in graphs], first.features, first.labels,
        first.class_count, train_idx, monitor_idx, cfg)
    models = []
    for k, accs in enumerate(best_acc):
        win = max(range(cfg.restarts), key=accs.__getitem__)  # ties go to the first
        models.append(GcnModel(w0=w0[k, win], w1=w1[k, win], b0=b0[k, win, 0],
                               b1=b1[k, win, 0], seed=cfg.seed))
    return models


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
    return train_gcns([g], split, cfg)[0]


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
    """Read a model; its weights must be JSON numbers, its seed and stored
    dims JSON integers, and the dims must match its weight shapes."""
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    m = GcnModel(**{key: read_floats(blob[key], key) for key in ("w0", "w1", "b0", "b1")},
                 seed=read_int(blob["seed"], "seed"))
    for key in ("input_dim", "hidden_dim", "class_count"):
        if read_int(blob[key], key) != getattr(m, key):
            raise ValueError(f"stored {key} {blob[key]} disagrees with the weights")
    return m
