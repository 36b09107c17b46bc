"""Graph data model, file I/O and editing utilities.

Graphs are undirected, node-attributed and labelled.  Edges are stored as
a frozenset of (u, v) tuples with u < v; the adjacency matrix is therefore
symmetric with a zero diagonal by construction.  Self-loops are forbidden
here -- the GCN adds them internally during normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Raised when a graph file is malformed or violates an invariant."""


def normalize_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class RelationalGraph:
    """Undirected node-attributed graph with integer class labels.

    Immutable after construction.
    """

    node_count: int
    edges: frozenset[Edge]
    features: np.ndarray  # (node_count, d) float
    labels: np.ndarray    # (node_count,) int
    class_count: int

    def __post_init__(self):
        if self.node_count <= 0:
            raise GraphFormatError("node_count must be positive")
        if self.class_count <= 0:
            raise GraphFormatError("class_count must be positive")
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if feats.shape[0] != self.node_count or feats.ndim != 2:
            raise GraphFormatError(
                f"features must be (node_count, d); got {feats.shape}"
            )
        nonfinite = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if nonfinite.size:
            raise GraphFormatError(f"node {nonfinite[0]} has a non-finite feature")
        if labs.shape != (self.node_count,):
            raise GraphFormatError(f"labels must be ({self.node_count},); got {labs.shape}")
        if labs.min(initial=0) < 0 or (labs.size and labs.max() >= self.class_count):
            raise GraphFormatError("every label must satisfy 0 <= label < class_count")
        for (u, v) in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise GraphFormatError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise GraphFormatError(f"edge ({u}, {v}) not in canonical (min, max) form")
        feats.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class NodeSplit:
    """Disjoint train/validation/test node index sets."""

    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self):
        tr, va, te = set(self.train), set(self.validation), set(self.test)
        if (tr & va) or (tr & te) or (va & te):
            raise ValueError("split sets must be pairwise disjoint")


def _edge_end(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise GraphFormatError(f"edge end {x!r} is not an integer")
    return int(x)


def make_graph(node_count: int,
               edges: Iterable[tuple[int, int]],
               features: np.ndarray | None = None,
               labels: Sequence[int] | np.ndarray | None = None,
               class_count: int | None = None) -> RelationalGraph:
    """Build a graph, canonicalizing and deduplicating the edge list.
    Numpy integer edge ends are stored as Python ints; any other
    non-integer end (0.5, even 1.0) is a GraphFormatError.

    Defaults: constant ones features (d=10), all-zero labels, inferred
    class count (max label + 1).
    """
    canon = frozenset(normalize_edge(_edge_end(u), _edge_end(v)) for (u, v) in edges)
    if labels is None:
        labels = np.zeros(node_count, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if features is None:
        features = np.ones((node_count, 10), dtype=np.float64)
    if class_count is None:
        class_count = int(labels.max(initial=0)) + 1
    return RelationalGraph(node_count=node_count, edges=canon,
                           features=np.asarray(features, dtype=np.float64),
                           labels=labels, class_count=class_count)


# ---------------------------------------------------------------------------
# Adjacency conversions
# ---------------------------------------------------------------------------

def adjacency(g: RelationalGraph) -> np.ndarray:
    """n x n symmetric 0/1 matrix with zero diagonal."""
    a = np.zeros((g.node_count, g.node_count), dtype=np.int8)
    for (u, v) in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


def validate_boolean_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isin(a, (0, 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return a.astype(np.int8)


def remove_edges(g: RelationalGraph,
                 victims: Iterable[tuple[int, int]]) -> tuple[RelationalGraph, int]:
    """Drop edges from the graph; returns (new graph, ignored count).

    Victims not present in the graph are ignored silently but counted.
    """
    canon = {normalize_edge(u, v) for (u, v) in victims}
    ignored = len(canon - g.edges)
    out = RelationalGraph(node_count=g.node_count, edges=g.edges - canon,
                          features=g.features, labels=g.labels,
                          class_count=g.class_count)
    return out, ignored


# ---------------------------------------------------------------------------
# Node splits
# ---------------------------------------------------------------------------

SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, validation, test


def check_split_fractions(fractions: Sequence[float]) -> None:
    """Reject train/validation/test fractions outside [0, 1] or not summing
    to 1."""
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError(f"split fractions must lie in [0, 1], got {tuple(fractions)}")
    if not np.isclose(sum(fractions), 1.0):
        raise ValueError("split fractions must sum to 1")


def split_nodes(g: RelationalGraph, seed: int,
                fractions: tuple[float, float, float] = SPLIT_FRACTIONS) -> NodeSplit:
    """Stratified train/validation/test split by class, seeded.

    Every class with at least one node contributes at least one training
    node.  Fractions apply per class and are rounded down for the
    validation/test shares.
    """
    check_split_fractions(fractions)
    _, f_va, f_te = fractions
    rng = np.random.default_rng(seed)
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    for cls in range(g.class_count):
        members = np.flatnonzero(g.labels == cls)
        if members.size == 0:
            continue
        perm = rng.permutation(members)
        m = perm.size
        n_va = int(f_va * m)
        n_te = int(f_te * m)
        n_tr = m - n_va - n_te
        if n_tr < 1:  # tiny classes: keep at least one node trainable
            n_tr = 1
            n_va = (m - 1) // 2
            n_te = m - 1 - n_va
        train.extend(perm[:n_tr].tolist())
        val.extend(perm[n_tr:n_tr + n_va].tolist())
        test.extend(perm[n_tr + n_va:].tolist())
    return NodeSplit(train=tuple(sorted(train)),
                     validation=tuple(sorted(val)),
                     test=tuple(sorted(test)))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------
#
# JSON bundle:
#   {"n": int, "edges": [[i, j], ...], "labels": [...],
#    "features": [[...], ...], "classes": int}

def read_int(value, what: str) -> int:
    """``value``, a node id or a count read from a JSON file, if it is an
    integer; a float (0.7, even 1.0), a boolean or anything else raises
    ValueError naming ``what``, where ``int`` would truncate or convert it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def read_float(value, what: str) -> float:
    """``value``, a weight, confidence or score read from a JSON file, if it
    is a JSON number (an integer, a float, or the Infinity and NaN that
    ``json`` writes for non-finite floats); a boolean, a string or
    anything else raises ValueError naming ``what``, where ``float`` would
    convert it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {value!r} is not a number")
    return float(value)


def read_floats(values, what: str) -> np.ndarray:
    """``values``, an array of weights or features read from a JSON file as
    nested lists, as float64 if every entry is a JSON number (see
    ``read_float``); a boolean, a string or anything else raises
    ValueError naming ``what``, where numpy would convert it."""
    entries = np.array(values, dtype=object)
    for x in entries.flat:
        read_float(x, what)
    return entries.astype(np.float64)


def load_graph(path: str | Path) -> RelationalGraph:
    """Read the JSON bundle representation; a node count, edge end, label
    or class count that is not a JSON integer, or a feature that is not a
    finite JSON number, is a GraphFormatError."""
    path = Path(path)
    if not path.exists():
        raise GraphFormatError(f"no such file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        n = read_int(raw["n"], "n")
        edges = [(read_int(u, "edge node"), read_int(v, "edge node"))
                 for (u, v) in raw["edges"]]
        labels = np.array([read_int(x, "label") for x in raw["labels"]], dtype=np.int64)
        classes = read_int(raw["classes"], "classes")
        features = raw.get("features")
        feats = None if features is None else read_floats(features, "feature")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"{path}: malformed bundle ({exc})") from exc
    try:
        return make_graph(n, edges, features=feats, labels=labels, class_count=classes)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def save_graph(g: RelationalGraph, path: str | Path) -> None:
    """Write the JSON bundle representation."""
    bundle = {
        "n": g.node_count,
        "edges": sorted([u, v] for (u, v) in g.edges),
        "labels": g.labels.tolist(),
        "features": g.features.tolist(),
        "classes": g.class_count,
    }
    Path(path).write_text(json.dumps(bundle), encoding="utf-8")
