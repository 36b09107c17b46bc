"""Synthetic benchmark graphs with planted motifs.

All generators are bit-reproducible for a fixed seed.  Features are
constant ones-vectors (d=10) so that classification depends purely on
structure.
"""

from __future__ import annotations

import numpy as np

from relex.graphs import Edge, RelationalGraph, make_graph, normalize_edge

FEATURE_DIM = 10

# house motif on local nodes 0..4: 0=top, 1/2=middle, 3/4=bottom
_HOUSE_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]
_HOUSE_ROLES = [1, 2, 2, 3, 3]


def _ba_edges(n: int, m: int, rng: np.random.Generator) -> set[Edge]:
    """Barabasi-Albert preferential attachment; seeded and self-contained."""
    m = min(m, n - 1)
    edges: set[Edge] = set()
    degree = np.zeros(n, dtype=np.int64)
    core = min(m + 1, n)
    for u in range(core):
        for v in range(u + 1, core):
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    for u in range(core, n):
        weights = degree[:u].astype(np.float64)
        if weights.sum() == 0:
            weights[:] = 1.0
        targets: set[int] = set()
        while len(targets) < min(m, u):
            probs = weights / weights.sum()
            pick = int(rng.choice(u, p=probs))
            targets.add(pick)
        for v in targets:
            edges.add(normalize_edge(u, v))
            degree[u] += 1
            degree[v] += 1
    return edges


def generate_ba_shapes(base_nodes: int, motif_count: int, seed: int) -> RelationalGraph:
    """BA base graph with house motifs attached by one random edge each.

    Labels: 0 = base, 1 = house top, 2 = house middle, 3 = house bottom.
    """
    if base_nodes < 5:
        raise ValueError("base_nodes must be >= 5")
    if motif_count < 1:
        raise ValueError("motif_count must be >= 1")
    rng = np.random.default_rng(seed)
    edges = _ba_edges(base_nodes, 5, rng)
    labels = [0] * base_nodes
    n = base_nodes
    for _ in range(motif_count):
        offset = n
        for (a, b) in _HOUSE_EDGES:
            edges.add((offset + a, offset + b))
        labels.extend(_HOUSE_ROLES)
        anchor_house = offset + int(rng.integers(5))
        anchor_base = int(rng.integers(base_nodes))
        edges.add(normalize_edge(anchor_house, anchor_base))
        n += 5
    feats = np.ones((n, FEATURE_DIM))
    return make_graph(n, edges, features=feats, labels=labels, class_count=4)


def generate_ba_community(base_nodes: int, motif_count: int, seed: int) -> RelationalGraph:
    """Two BA-shapes communities joined by max(1, n // 20) random
    inter-community edges, n the total node count.

    Experimental approximation: labels of the second community are shifted
    by 4 (8 classes total).
    """
    g1 = generate_ba_shapes(base_nodes, motif_count, seed)
    g2 = generate_ba_shapes(base_nodes, motif_count, seed + 1)
    off = g1.node_count
    n = off + g2.node_count
    edges = set(g1.edges)
    edges.update((u + off, v + off) for (u, v) in g2.edges)
    labels = np.concatenate([g1.labels, g2.labels + 4])
    rng = np.random.default_rng(seed + 2)
    inter_edges = max(1, n // 20)
    added = 0
    while added < inter_edges:
        u = int(rng.integers(off))
        v = off + int(rng.integers(g2.node_count))
        e = normalize_edge(u, v)
        if e not in edges:
            edges.add(e)
            added += 1
    feats = np.ones((n, FEATURE_DIM))
    return make_graph(n, edges, features=feats, labels=labels, class_count=8)


def generate_tree_motif(height: int, motif: str, motif_count: int,
                        seed: int) -> RelationalGraph:
    """Perfect binary tree (class 0) with cycle or grid motifs (class 1).

    height counts tree levels, so the tree has 2**height - 1 nodes.
    motif: "cycle" = 6-cycle, "grid" = 3x3 grid.
    """
    if height < 2:
        raise ValueError("height must be >= 2")
    if motif not in ("cycle", "grid"):
        raise ValueError(f"motif must be 'cycle' or 'grid', got {motif!r}")
    rng = np.random.default_rng(seed)
    tree_n = 2 ** height - 1
    edges: set[Edge] = set()
    for u in range(tree_n):
        for child in (2 * u + 1, 2 * u + 2):
            if child < tree_n:
                edges.add((u, child))
    labels = [0] * tree_n
    n = tree_n
    for _ in range(motif_count):
        offset = n
        if motif == "cycle":
            size = 6
            for i in range(size):
                edges.add(normalize_edge(offset + i, offset + (i + 1) % size))
        else:
            size = 9
            for r in range(3):
                for c in range(3):
                    idx = offset + 3 * r + c
                    if c < 2:
                        edges.add((idx, idx + 1))
                    if r < 2:
                        edges.add((idx, idx + 3))
        labels.extend([1] * size)
        anchor_motif = offset + int(rng.integers(size))
        anchor_tree = int(rng.integers(tree_n))
        edges.add(normalize_edge(anchor_motif, anchor_tree))
        n += size
    feats = np.ones((n, FEATURE_DIM))
    return make_graph(n, edges, features=feats, labels=labels, class_count=2)
