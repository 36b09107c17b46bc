"""Sum-product message passing on cluster graphs.

A cluster graph has variables, each with a cardinality, and clusters,
each a potential table over a scope of variables.  propagate_all runs
damped loopy belief propagation on a flooding schedule over a stack of
such graphs in one loop (Murphy, Weiss & Jordan, UAI 1999): every
problem gets the floats of a run on its own, and the loop's array
operations per iteration do not grow with the number of problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class BpConfig:
    max_iters: int = 200
    tol: float = 1e-6
    damping: float = 0.5

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must be in [0, 1)")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and >= 0")


@dataclass
class Cluster:
    scope: tuple[int, ...]
    table: np.ndarray


def propagate_all(problems: list[tuple[dict[int, int], list[Cluster]]],
                  cfg: BpConfig | None = None) -> list[tuple]:
    """Damped flooding-schedule message passing on a stack of cluster graphs.

    Each problem is a (cards, clusters) pair and gets back what a run on
    it alone gives: (nu, mu, iterations, converged, residual), with
    nu[cid][slot] and mu[cid][slot] the messages on each cluster's scope
    slots.  Every iteration refreshes all variable-to-factor messages,
    then all factor-to-variable messages; each message is normalized and
    damped (new = (1 - damping) * computed + damping * old).  A problem's
    residual is the max-norm change of its own messages in the iteration.
    It stops at the first iteration whose residual is below tol, or
    unconverged at max_iters (reported, not raised), and its messages,
    iteration count, flag and residual are taken at that iteration; it
    stays in the stack, computed but never read again, until the last
    problem stops.

    The problems form one disjoint union.  Clusters of one table shape are
    grouped across problems, and each (group, slot) owns a contiguous run
    of rows in the pool of its cardinality; the pools are views of one
    flat buffer, all variable-to-factor messages first.  So an iteration
    is one gather and product for every variable-to-factor message, one
    broadcast product and reduction per group and slot for the
    factor-to-variable ones, one normalization per pool, one damping pass
    per phase, and one gather and maximum for every problem's residual:
    its array operations grow with the table shapes and cardinalities,
    not with the problems or clusters.  Within
    a phase no message reads another, and no sum or product mixes two
    problems, so every problem gets the floats of a run on its own.

    A variable-to-factor message is the product of the variable's other
    incoming messages in (cluster, slot) order, gathered through padded
    element indexes whose self and padding entries point at ones.
    """
    cfg = cfg or BpConfig()
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for p, (_, clusters) in enumerate(problems):
        for cid, cluster in enumerate(clusters):
            groups.setdefault(cluster.table.shape, []).append((p, cid))
    size: dict[int, int] = {}  # card -> rows in use
    # rows[p][cid][slot] is the (card, row) that holds that slot's messages
    rows: list[list[list[tuple[int, int]]]] = [[[] for _ in c] for _, c in problems]
    layout = []  # (stacked tables, (card, first row, end row) per slot)
    for shape, members in groups.items():
        runs = []
        for c in shape:
            lo = size.get(c, 0)
            for k, (p, cid) in enumerate(members):
                rows[p][cid].append((c, lo + k))
            runs.append((c, lo, lo + len(members)))
            size[c] = lo + len(members)
        layout.append((np.stack([problems[p][1][cid].table for p, cid in members]), runs))
    base, n = {}, 0  # card -> first element of its pool; elements per phase
    for c in sorted(size):
        base[c], n = n, n + size[c] * c

    # buf holds the variable-to-factor pools, the factor-to-variable pools
    # at offset n, and ones at offset 2n for the gather
    buf = np.ones(2 * n + max(size, default=0))
    raw, diff = np.empty(2 * n), np.zeros(2 * n + 1)
    pools = [(c, base[c], base[c] + size[c] * c) for c in base]
    for c, lo, hi in pools:
        buf[lo:hi] = buf[n + lo:n + hi] = 1.0 / c
    ats: list[int] = []  # every edge's row offset, by variable, each in (cluster, slot) order
    var_degree, var_card, var_problem = [], [], []  # per variable with edges
    spans = []  # spans[p][cid][slot]: the (first, end) elements of that slot's row
    for p, (cards, clusters) in enumerate(problems):
        ats_of: dict[int, list[int]] = {v: [] for v in cards}
        spans.append([[(base[c] + row * c, base[c] + row * c + c) for c, row in slots]
                      for slots in rows[p]])
        for cluster, slots in zip(clusters, spans[p]):
            for var, (a, _) in zip(cluster.scope, slots):
                ats_of[var].append(a)
        for var, var_ats in ats_of.items():
            if var_ats:
                ats += var_ats
                var_degree.append(len(var_ats))
                var_card.append(cards[var])
                var_problem.append(p)
    at, deg, var_card, var_problem = (np.array(x, dtype=np.intp) for x in
                                      (ats, var_degree, var_card, var_problem))
    first = np.repeat(np.cumsum(deg) - deg, deg)  # per edge, its variable's first edge
    d = np.repeat(deg, deg)  # per edge, its variable's degree
    pair = np.cumsum(d) - d  # per edge, its first (edge, position) pair
    i = np.repeat(np.arange(at.size), d)  # every (edge, position) pair
    k = np.arange(i.size) - pair[i]
    src = n + at[first[i] + k]  # the factor-to-variable row at that position
    src[pair + np.arange(at.size) - first] = 2 * n  # an edge's own position
    sources = np.full((max(var_degree, default=0), at.size), 2 * n)
    sources[k, i] = src
    c = np.repeat(var_card, deg)
    edge = np.empty(n, dtype=np.intp)  # per element, its edge
    edge[np.repeat(at - (np.cumsum(c) - c), c) + np.arange(n)] = np.repeat(
        np.arange(at.size), c)
    gather = sources[:, edge] + (np.arange(n) - at[edge])  # indexes into buf
    # per problem, its elements of both phases in diff, padded with a zero
    owner = np.repeat(var_problem, deg)[edge]
    mine = [np.flatnonzero(owner == p) for p in range(len(problems))]
    residual_at = np.full((len(problems), 2 * max(map(len, mine), default=0) + 1), 2 * n)
    for p, elements in enumerate(mine):
        residual_at[p, :2 * len(elements)] = np.concatenate([elements, n + elements])

    # the message computations, each writing one view of raw
    nu_pools = [raw[lo:hi].reshape(-1, c) for c, lo, hi in pools]
    mu_pools = [raw[n + lo:n + hi].reshape(-1, c) for c, lo, hi in pools]
    updates = []  # (stacked tables, output view, input views, summed axes)
    for tables, runs in layout:
        for slot, (c, lo, hi) in enumerate(runs):
            inputs = []
            for other, (co, lo_o, hi_o) in enumerate(runs):
                if other != slot:
                    shape = [len(tables)] + [1] * len(runs)
                    shape[other + 1] = co
                    inputs.append(buf[base[co] + lo_o * co:base[co] + hi_o * co].reshape(shape))
            out = raw[n + base[c] + lo * c:n + base[c] + hi * c].reshape(-1, c)
            updates.append((tables, out, inputs,
                            tuple(j + 1 for j in range(len(runs)) if j != slot)))
    phases = [(raw[lo:hi], buf[lo:hi], diff[lo:hi]) for lo, hi in ((0, n), (n, 2 * n))]

    def damp(phase):
        new, old, change = phase
        np.multiply(new, 1.0 - cfg.damping, out=new)
        np.multiply(old, cfg.damping, out=change)
        np.add(new, change, out=new)
        np.subtract(new, old, out=change)
        np.abs(change, out=change)
        old[...] = new

    results: list[tuple | None] = [None] * len(problems)
    active = list(range(len(problems)))
    iteration = 0
    while active:
        iteration += 1
        np.prod(buf[gather], axis=0, out=raw[:n])
        for msg in nu_pools:
            np.divide(msg, msg.sum(axis=1, keepdims=True), out=msg)
        damp(phases[0])
        for tables, out, inputs, axes in updates:
            prod = tables
            for m in inputs:
                prod = prod * m
            np.add.reduce(prod, axis=axes, out=out)
        for msg in mu_pools:
            np.divide(msg, msg.sum(axis=1, keepdims=True), out=msg)
        damp(phases[1])
        residual = diff[residual_at].max(axis=1).tolist()
        stop = [p for p in active
                if residual[p] < cfg.tol or iteration == cfg.max_iters]
        if stop:
            active = [p for p in active if p not in stop]
            snap = buf.copy() if active else buf
            for p in stop:
                results[p] = (snap, iteration, residual[p] < cfg.tol, residual[p])
    return [([[snap[a:b] for a, b in slots] for slots in spans[p]],
             [[snap[n + a:n + b] for a, b in slots] for slots in spans[p]],
             iteration, converged, res)
            for p, (snap, iteration, converged, res) in enumerate(results)]
