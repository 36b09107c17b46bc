"""Boolean low-rank factorization and counterfactual-explanation generation.

The adjacency matrix P is approximated by a union of k blocks, each the
outer product u·bᵀ of a 0/1 usage vector u and a 0/1 basis vector b; for
a symmetric P each block also covers its transpose b·uᵀ.  A block never
covers a zero of P (below), so a rank's reconstruction is the input
graph less the edges its blocks leave uncovered, its error is twice
their count, and that edge subset is the graph `generate_cres` explains.
Each low-rank reconstruction has more repeated structure than the
original; explaining the target on those graphs produces the
counterfactual explanation set that the factor graph is later learned
from.  `generate_cre_sets` does this for many targets at once: it builds
each rank's graph once and explains every (target, rank) pair in one
lockstep `explain_all` call; `generate_cres` is its one-target case.

The factorization grows greedily, one block per rank, in the manner of
Asso (Miettinen et al., The Discrete Basis Problem, IEEE TKDE 2008): the
candidate bases are P's rows and the still-uncovered part of each row,
each block's usage is every row that contains its basis, so a block never
covers a zero of P, and rank k + 1 adds to rank k's blocks the candidate
that covers the most uncovered cells.  The error therefore never rises
with rank, and falls strictly until it reaches 0.  One walk serves
`bmf_factorize` and `rank_ladder`: a rank costs one block search, O(n³),
plus O(n² + nk) bookkeeping.  Exact Boolean rank is NP-hard; tests
bound this heuristic's slack against exhaustive oracles on small instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from relex.explainer import (Explanation, ExplainConfig, explain_all,
                             explanation_from_dict, explanation_to_dict)
from relex.gcn import GcnModel
from relex.graphs import (Edge, RelationalGraph, adjacency, read_int, remove_edges,
                          validate_boolean_matrix)


class CreGenerationFailed(RuntimeError):
    """No factorization rank satisfied the start criterion."""


class EmptyCreSet(RuntimeError):
    """No counterfactual explanation could be generated."""


START_FRACTION = 0.25  # start rank: the first with error < this * edge count


@dataclass
class RankSearchConfig:
    """Rank search settings.  The start criterion is fixed (START_FRACTION).

    ``seed`` is not read: the greedy walk is deterministic.  It stays so
    that every stage config takes its sub-seed the same way
    (``pipeline.seeded``).
    """

    stop_fraction: float = 0.05
    max_rank: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.stop_fraction < START_FRACTION):
            raise ValueError(f"need 0 < stop_fraction < {START_FRACTION}")
        if read_int(self.max_rank, "max_rank") < 1:
            raise ValueError("max_rank must be >= 1")


@dataclass
class BooleanFactorization:
    q: np.ndarray      # (n, l) 0/1: the usages, then for a symmetric P the bases
    r: np.ndarray      # (l, m) 0/1: the bases, then for a symmetric P the usages
    rank: int          # blocks; l is 2 * rank for a symmetric P, else rank
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


def _best_block(p: np.ndarray, own: np.ndarray, residual: np.ndarray,
                symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """(usage, basis) of the candidate block that covers the most residual
    cells, as int8 copies that let the (2n, n) candidate arrays go; ties
    go to the first candidate (P's rows, then the residual's).

    A usage holds every row of P that contains the basis; ``own`` holds
    the usages of P's rows (``_own_usages``).  The gains are matrix
    products over the 2n candidates, so no candidate block is ever
    materialised.
    """
    gain, usages, bases = _block_gains(p, own, residual, symmetric)
    best = int(np.argmax(gain))
    return usages[best].astype(np.int8), bases[best].astype(np.int8)


def _own_usages(p: np.ndarray) -> np.ndarray:
    """The usages of the candidates that are P's own rows, which depend on
    P alone: row i marks every row of P that contains row i."""
    rows = p.astype(np.float64)
    return (rows @ rows.T == rows.sum(axis=1, keepdims=True)).astype(np.float64)


def _block_gains(p: np.ndarray, own: np.ndarray, residual: np.ndarray, symmetric: bool):
    """The residual cells each candidate block covers, and the candidates'
    usages and bases, one row each; ``own`` is ``_own_usages(p)``.  The
    products run in float64, which BLAS multiplies and numpy's integer
    matmul does not; every count is an integer below n^2, far below
    2^53, so each is exact."""
    bases = np.vstack([p, residual]).astype(np.float64)
    left = bases[len(p):]
    usages = np.vstack([own, left @ bases[:len(p)].T == left.sum(axis=1, keepdims=True)])
    gain = ((usages @ left) * bases).sum(axis=1)
    if symmetric:
        # u·bᵀ and b·uᵀ each cover `gain` cells; they share the cells of
        # w·wᵀ with w = u AND b
        shared = usages * bases
        gain = 2 * gain - ((shared @ left) * shared).sum(axis=1)
    return gain, usages, bases


def _walk(p: np.ndarray) -> Iterator[BooleanFactorization]:
    """Every rank of the greedy walk, from rank 1 on, without end.  P is
    validated, its symmetry tested and its own rows' usages found once;
    the uncovered cells, usages and bases carry over from rank to rank."""
    p = validate_boolean_matrix(p)
    symmetric = p.shape[0] == p.shape[1] and bool((p == p.T).all())
    residual = p.copy()  # P's ones that no block covers yet
    own = _own_usages(p)
    usages, bases = [], []
    for rank in itertools.count(1):
        u, b = _best_block(p, own, residual, symmetric)
        usages.append(u)
        bases.append(b)
        block = np.outer(u, b) > 0
        residual[(block | block.T) if symmetric else block] = 0
        u, b = np.array(usages).T, np.array(bases)
        q, r = (np.hstack([u, b.T]), np.vstack([b, u.T])) if symmetric else (u, b)
        yield BooleanFactorization(q=q, r=r, rank=rank, error=int(np.count_nonzero(residual)))


def bmf_factorize(p: np.ndarray, k: int) -> BooleanFactorization:
    """Greedy Boolean factorization at rank k: the k-th rank of the walk,
    so its error is at most that of any lower rank.  Deterministic."""
    if k < 1:
        raise ValueError("rank must be >= 1")
    return next(itertools.islice(_walk(p), k - 1, None))


def rank_ladder(p: np.ndarray, edge_count: int,
                cfg: RankSearchConfig) -> list[BooleanFactorization]:
    """Factorizations from the start rank until the stop criterion.

    One upward walk from rank 1, one block per rank, so the error never
    rises.  The ladder keeps every rank whose error is below
    START_FRACTION * edge_count and ends at the first error below
    cfg.stop_fraction * edge_count, or at cfg.max_rank.  Independent of
    any explanation target, so one ladder can be shared across targets.
    """
    start_err = START_FRACTION * edge_count
    stop_err = cfg.stop_fraction * edge_count
    ladder: list[BooleanFactorization] = []
    for fact in itertools.islice(_walk(p), cfg.max_rank):
        if fact.error < start_err:
            ladder.append(fact)
            if fact.error < stop_err:
                break
    if not ladder:
        raise CreGenerationFailed(
            f"no rank <= {cfg.max_rank} reaches error < {start_err:.1f}")
    return ladder


@dataclass
class CreSet:
    """Counterfactual explanations for one target, one per accepted rank."""

    target: int
    class_count: int
    explanations: list[Explanation]
    ranks_used: list[int]
    errors_per_rank: list[int]

    @property
    def relations(self) -> list[Edge]:
        """The union of the explained edges, sorted."""
        return sorted({e for expl in self.explanations for e in expl.edges()})


def generate_cre_sets(g: RelationalGraph, model: GcnModel,
                      targets: Sequence[tuple[int, ExplainConfig]],
                      rcfg: RankSearchConfig,
                      ladder: list[BooleanFactorization] | None = None
                      ) -> list[CreSet | EmptyCreSet]:
    """``generate_cres`` for each (target, explain config) pair, in order:
    the target's CreSet, or the EmptyCreSet that ``generate_cres`` would
    raise for it, returned rather than raised.

    Each accepted rank's graph is built once, for every target, and all
    (target, rank) pairs are explained in one ``explain_all`` call, so
    each set equals the one ``generate_cres`` makes for its target alone.
    """
    if ladder is None:
        ladder = rank_ladder(adjacency(g), g.edge_count, rcfg)
    # a rank's graph is g less the edges its blocks leave uncovered, read at
    # g's edge ends; at error 0 it is g itself, and a counterfactual must
    # differ in at least one relation, so that rank is skipped
    us, vs = np.array(sorted(g.edges), dtype=np.intp).reshape(-1, 2).T
    approx = []
    for fact in ladder:
        if fact.error:
            left = ~(fact.q[us] & fact.r[:, vs].T).any(axis=1)
            uncovered = zip(us[left].tolist(), vs[left].tolist())
            approx.append((fact, remove_edges(g, uncovered)[0]))
    explained = iter(explain_all(model, [(graph, target, ecfg) for target, ecfg in targets
                                         for _, graph in approx]))
    sets: list[CreSet | EmptyCreSet] = []
    for target, _ in targets:
        # ranks where the target's computation subgraph is empty are skipped
        kept = [(fact, e) for (fact, _), e in zip(approx, explained) if e is not None]
        if not kept:
            sets.append(EmptyCreSet(
                f"no counterfactual explanation for target {target} "
                f"(ranks tried: {[f.rank for f in ladder]})"))
            continue
        sets.append(CreSet(target=target, class_count=g.class_count,
                           explanations=[e for _, e in kept],
                           ranks_used=[fact.rank for fact, _ in kept],
                           errors_per_rank=[fact.error for fact, _ in kept]))
    return sets


def generate_cres(g: RelationalGraph, model: GcnModel, target: int,
                  ecfg: ExplainConfig, rcfg: RankSearchConfig,
                  ladder: list[BooleanFactorization] | None = None) -> CreSet:
    """Explain the target on each accepted low-rank reconstruction.

    Ranks with error 0, whose graph is the original, are skipped (a
    counterfactual must differ in at least one relation), as are ranks
    where the target's computation subgraph is empty; EmptyCreSet is
    raised when no rank is left.  A precomputed ladder may be passed to
    share factorization work across targets.  ``generate_cre_sets`` with
    this one target.
    """
    cres = generate_cre_sets(g, model, [(target, ecfg)], rcfg, ladder)[0]
    if isinstance(cres, EmptyCreSet):
        raise cres
    return cres


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
    """The set that ``creset_to_dict`` wrote; a class count below 1, no
    explanation at all, an explanation of another target or of a class
    outside 0..class_count-1, or ranks or errors that do not pair one to
    one with the explanations raise ValueError."""
    s = CreSet(target=read_int(blob["target"], "target"),
               class_count=read_int(blob["class_count"], "class_count"),
               explanations=[explanation_from_dict(e) for e in blob["explanations"]],
               ranks_used=[read_int(r, "rank") for r in blob["ranks"]],
               errors_per_rank=[read_int(e, "error") for e in blob["errors"]])
    if s.class_count < 1:
        raise ValueError(f"class_count {s.class_count} is below 1")
    if not s.explanations:
        raise ValueError("the set holds no explanation")
    for e in s.explanations:
        if e.target != s.target:
            raise ValueError(f"explanation target {e.target} is not the set's target {s.target}")
        if not 0 <= e.predicted_class < s.class_count:
            raise ValueError(f"explanation class {e.predicted_class} is outside "
                             f"0..{s.class_count - 1}")
    if not len(s.ranks_used) == len(s.errors_per_rank) == len(s.explanations):
        raise ValueError(f"{len(s.explanations)} explanations, but {len(s.ranks_used)} "
                         f"ranks and {len(s.errors_per_rank)} errors")
    return s


def save_creset(s: CreSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(creset_to_dict(s)), encoding="utf-8")


def load_creset(path: str | Path) -> CreSet:
    return creset_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
