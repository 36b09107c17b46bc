"""Boolean low-rank factorization and counterfactual-explanation generation.

The adjacency matrix is approximated as the Boolean product of two 0/1
pattern matrices.  Each low-rank reconstruction yields a graph with more
repeated (symmetric) structure than the original; explaining the target on
those graphs produces the counterfactual explanation set that the factor
graph is later learned from.

The solver relaxes the factors to [0, 1], runs multiplicative updates on
the squared reconstruction error plus a growing penalty (lambda/2) *
sum((f * (1 - f))^2) that drives entries toward {0, 1}, and binarizes at a
fixed threshold.  Exact Boolean rank is NP-hard; this is a heuristic with
tests bounding its slack against exhaustive oracles on small instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relex.explainer import (Explanation, ExplainConfig, SingleNodeExplanation,
                             explain, explanation_from_dict, explanation_to_dict)
from relex.gcn import GcnModel
from relex.graphs import Edge, RelationalGraph, adjacency, graph_from_adjacency, validate_boolean_matrix


class CreGenerationFailed(RuntimeError):
    """No factorization rank satisfied the start criterion."""


class EmptyCreSet(RuntimeError):
    """No counterfactual explanation could be generated."""


START_FRACTION = 0.25  # start rank: the first with error < this * edge count
PENALTY_START = 0.1    # the solver's penalty weight at its first sweep
PENALTY_GROWTH = 1.01  # and its growth factor per sweep
THRESHOLD = 0.5        # the relaxed factors binarize at this value


@dataclass
class RankSearchConfig:
    """Rank search settings.  The start criterion and the solver schedule
    are fixed: START_FRACTION, PENALTY_START, PENALTY_GROWTH, THRESHOLD."""

    stop_fraction: float = 0.05
    max_rank: int = 64
    solver_iterations: int = 10000
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        if not (0 < self.stop_fraction < START_FRACTION):
            raise ValueError(f"need 0 < stop_fraction < {START_FRACTION}")
        if self.solver_iterations < 1:
            raise ValueError("solver_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class BooleanFactorization:
    q: np.ndarray      # (n, k) 0/1
    r: np.ndarray      # (k, m) 0/1
    rank: int
    error: int         # |P xor (Q boolean-product R)|

    @property
    def reconstruction(self) -> np.ndarray:
        return boolean_product(self.q, self.r)


def boolean_product(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """OR over l of (Q[i, l] AND R[l, j])."""
    q = validate_boolean_matrix(q)
    r = validate_boolean_matrix(r)
    if q.shape[1] != r.shape[0]:
        raise ValueError(f"inner dims mismatch: {q.shape} x {r.shape}")
    return (q.astype(np.int64) @ r.astype(np.int64) > 0).astype(np.int8)


def boolean_error(p: np.ndarray, p_hat: np.ndarray) -> int:
    """Number of cells where the matrices differ (XOR count)."""
    p = validate_boolean_matrix(p)
    p_hat = validate_boolean_matrix(p_hat)
    if p.shape != p_hat.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {p_hat.shape}")
    return int((p != p_hat).sum())


def _penalty_solve(p: np.ndarray, k: int, cfg: RankSearchConfig,
                   seed_parts: list[int]):
    """One seeded multiplicative-update run; returns (Q, R, error) binarized."""
    n, m = p.shape
    rng = np.random.default_rng(seed_parts)
    q = rng.uniform(0.0, 1.0, size=(n, k))
    r = rng.uniform(0.0, 1.0, size=(k, m))
    lam = PENALTY_START
    eps = 1e-10
    p_int = p.astype(np.int8)

    def binarized():
        qb = (q >= THRESHOLD).astype(np.int8)
        rb = (r >= THRESHOLD).astype(np.int8)
        return qb, rb, boolean_error(p_int, boolean_product(qb, rb))

    best_q, best_r, best_err = binarized()
    check_every = 50
    stable_checks = 0
    for sweep in range(cfg.solver_iterations):
        num_q = p @ r.T + 3.0 * lam * q ** 2
        den_q = q @ (r @ r.T) + 2.0 * lam * q ** 3 + lam * q + eps
        q = np.clip(q * num_q / den_q, 0.0, 1.0)
        num_r = q.T @ p + 3.0 * lam * r ** 2
        den_r = (q.T @ q) @ r + 2.0 * lam * r ** 3 + lam * r + eps
        r = np.clip(r * num_r / den_r, 0.0, 1.0)
        lam *= PENALTY_GROWTH
        if (sweep + 1) % check_every == 0:
            qb, rb, err = binarized()
            if err < best_err:
                best_q, best_r, best_err = qb, rb, err
            if best_err == 0:
                break
            # fully binary factors are a fixed point of the update
            saturated = (np.minimum(q, 1.0 - q).max(initial=0.0) < 1e-6
                         and np.minimum(r, 1.0 - r).max(initial=0.0) < 1e-6)
            stable_checks = stable_checks + 1 if saturated else 0
            if stable_checks >= 3:
                break
    qb, rb, err = binarized()
    if err < best_err:
        best_q, best_r, best_err = qb, rb, err
    return best_q, best_r, best_err


def bmf_factorize(p: np.ndarray, k: int, cfg: RankSearchConfig) -> BooleanFactorization:
    """Penalty-driven multiplicative-update Boolean factorization at rank k.

    Splits the gradient of ||P - QR||_F^2 + (lambda/2) sum((f(1-f))^2) into
    positive and negative parts; lambda starts at PENALTY_START and grows
    by PENALTY_GROWTH each sweep, pushing the relaxed factors toward
    {0, 1}.  Factors are binarized at THRESHOLD; the best binarized
    factorization over cfg.restarts seeded runs is returned.  When k reaches the number of
    distinct rows of P the exact row-indicator factorization is also a
    candidate, so the error is then 0.  Deterministic for a fixed seed.
    """
    p = validate_boolean_matrix(p).astype(np.float64)
    if k < 1:
        raise ValueError("rank must be >= 1")
    best_q = best_r = None
    best_err = None
    for restart in range(cfg.restarts):
        q, r, err = _penalty_solve(p, k, cfg, [cfg.seed, k, restart])
        if best_err is None or err < best_err:
            best_q, best_r, best_err = q, r, err
        if best_err == 0:
            break
    p_int = p.astype(np.int8)
    distinct, inverse = np.unique(p_int, axis=0, return_inverse=True)
    if best_err > 0 and distinct.shape[0] <= k:
        q = np.zeros((p_int.shape[0], k), dtype=np.int8)
        q[np.arange(p_int.shape[0]), inverse] = 1
        r = np.zeros((k, p_int.shape[1]), dtype=np.int8)
        r[:distinct.shape[0]] = distinct
        best_q, best_r, best_err = q, r, 0
    return BooleanFactorization(q=best_q, r=best_r, rank=k, error=best_err)


def rank_ladder(p: np.ndarray, edge_count: int,
                cfg: RankSearchConfig) -> list[BooleanFactorization]:
    """Factorizations from the start rank until the stop criterion.

    Start rank: the smallest rank whose error is below START_FRACTION *
    edge_count, found by doubling then bisection.  From there the rank is
    incremented by 1 until the error drops below cfg.stop_fraction *
    edge_count, fails to strictly decrease for 2 consecutive ranks, or the
    rank exceeds max_rank.  Independent of any explanation target, so one
    ladder can be shared across targets.
    """
    start_err = START_FRACTION * edge_count
    stop_err = cfg.stop_fraction * edge_count

    solved: dict[int, BooleanFactorization] = {}

    def solve(rank: int) -> BooleanFactorization:
        if rank not in solved:
            solved[rank] = bmf_factorize(p, rank, cfg)
        return solved[rank]

    # doubling phase
    hi = 1
    while hi <= cfg.max_rank and solve(hi).error >= start_err:
        hi *= 2
    if hi > cfg.max_rank:
        if cfg.max_rank < 1 or solve(cfg.max_rank).error >= start_err:
            raise CreGenerationFailed(
                f"no rank <= {cfg.max_rank} reaches error < {start_err:.1f}")
        hi = cfg.max_rank
    # bisection: smallest rank with error < start_err in (hi//2, hi]
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if solve(mid).error < start_err:
            hi = mid
        else:
            lo = mid + 1
    start_rank = hi

    ladder: list[BooleanFactorization] = []
    prev_err = None
    no_decrease = 0
    rank = start_rank
    while rank <= cfg.max_rank:
        fact = solve(rank)
        ladder.append(fact)
        if fact.error < stop_err:
            break
        if prev_err is not None and fact.error >= prev_err:
            no_decrease += 1
            if no_decrease >= 2:
                break
        else:
            no_decrease = 0
        prev_err = fact.error
        rank += 1
    return ladder


@dataclass
class CreSet:
    """Counterfactual explanations for one target, one per accepted rank."""

    target: int
    class_count: int
    explanations: list[Explanation]
    ranks_used: list[int]
    errors_per_rank: list[int]
    relation_index: dict[Edge, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.relation_index:
            self.relation_index = _index_relations(self.explanations)

    @property
    def relations(self) -> list[Edge]:
        return sorted(self.relation_index, key=self.relation_index.get)


def _index_relations(explanations: list[Explanation]) -> dict[Edge, int]:
    union = sorted({e for expl in explanations for e in expl.edges()})
    return {edge: i for i, edge in enumerate(union)}


def generate_cres(g: RelationalGraph, model: GcnModel, target: int,
                  ecfg: ExplainConfig, rcfg: RankSearchConfig,
                  ladder: list[BooleanFactorization] | None = None) -> CreSet:
    """Explain the target on each accepted low-rank reconstruction.

    Reconstructions identical to the original graph are skipped (a
    counterfactual must differ in at least one relation), as are ranks
    where the target's computation subgraph is empty.  A precomputed
    ladder may be passed to share factorization work across targets.
    """
    p = adjacency(g)
    if ladder is None:
        ladder = rank_ladder(p, g.edge_count, rcfg)

    explanations: list[Explanation] = []
    ranks: list[int] = []
    errors: list[int] = []
    for fact in ladder:
        approx = graph_from_adjacency(fact.reconstruction, g)
        if approx.edges == g.edges:
            continue
        try:
            expl = explain(model, approx, target, ecfg)
        except SingleNodeExplanation:
            continue
        explanations.append(expl)
        ranks.append(fact.rank)
        errors.append(fact.error)
    if not explanations:
        raise EmptyCreSet(
            f"no counterfactual explanation for target {target} "
            f"(ranks tried: {[f.rank for f in ladder]})")
    return CreSet(target=target, class_count=g.class_count,
                  explanations=explanations, ranks_used=ranks,
                  errors_per_rank=errors)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def creset_to_dict(s: CreSet) -> dict:
    return {
        "target": s.target,
        "class_count": s.class_count,
        "explanations": [explanation_to_dict(e) for e in s.explanations],
        "ranks": s.ranks_used,
        "errors": s.errors_per_rank,
    }


def creset_from_dict(blob: dict) -> CreSet:
    return CreSet(target=int(blob["target"]),
                  class_count=int(blob["class_count"]),
                  explanations=[explanation_from_dict(e) for e in blob["explanations"]],
                  ranks_used=[int(r) for r in blob["ranks"]],
                  errors_per_rank=[int(e) for e in blob["errors"]])


def save_creset(s: CreSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(creset_to_dict(s)), encoding="utf-8")


def load_creset(path: str | Path) -> CreSet:
    return creset_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
