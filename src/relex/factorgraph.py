"""Factor graph over counterfactual explanations.

One binary variable per entity that appears in any explanation relation,
plus one target variable T (two states for binary classification, C states
otherwise).  Each relation (u, v) carries clause-style factors over
(x_u, x_v, T) whose potential is exp(weight) on the satisfying assignment
and 1 elsewhere; a binary target yields one factor per relation
(satisfying state 1), a C-class target yields C parallel factors.

Weights are learned by a voted-perceptron-style rule: the gradient of the
log-likelihood is approximated by replacing the intractable expected
clause count with a count under the current MAP assignment, found exactly
by max-sum bucket elimination; a tie goes to entity state 0 and the lowest
T state.  The plan (order, tables, buckets) depends on the factors' scopes
alone, so a learning run builds it once (MapPlan) and solves it per epoch.
Calibration runs damped sum-product message passing on a flooding
schedule, over a stack of cluster graphs in one loop
(relex.bp.propagate_all).

The uncertainty of an explained relation is the drop in its
clause-satisfying joint belief when the explanation is injected.
Injection is evidence multiplied into the model (Pearl 1988): each
explained relation's scope table is multiplied at (x_u = 1, x_v = 1,
T = state) by the explainer confidence GC, floored at 1e-9, where state
is the explanation's predicted class, or 1 for a binary target.  So
GC = 1 leaves the graph unchanged and a low GC questions the relation.
A relation with no factor in the graph gets a ones table first; one
whose endpoints lie outside the entity set is skipped.
quantify_uncertainty calibrates the graph's clusters before and after
injection as one two-problem stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from relex.boolfact import CreSet, EmptyCreSet
from relex.bp import BpConfig, Cluster, propagate_all
from relex.explainer import Explanation
from relex.graphs import Edge, normalize_edge, read_float, read_int

TARGET = -1  # variable id of the target node T


@dataclass
class Factor:
    u: int
    v: int
    target_state: int
    weight: float
    kind: str  # "learned" | "injected"

    @property
    def relation(self) -> Edge:
        return (self.u, self.v)


@dataclass
class FactorGraph:
    entities: tuple[int, ...]      # sorted entity variable ids
    target_card: int               # 2 for binary targets, C otherwise
    factors: list[Factor]

    def __post_init__(self):
        if self.target_card < 2:
            raise ValueError("target_card must be >= 2")
        ents = set(self.entities)
        for f in self.factors:
            if f.u not in ents or f.v not in ents:
                raise ValueError(f"factor scope ({f.u}, {f.v}) outside entity set")
            if not 0 <= f.target_state < self.target_card:
                raise ValueError(f"factor target state {f.target_state} outside "
                                 f"0..{self.target_card - 1}")

    @property
    def variables(self) -> list[int]:
        return list(self.entities) + [TARGET]

    def card(self, var: int) -> int:
        return self.target_card if var == TARGET else 2

    def learned_by_relation(self) -> dict[Edge, list[int]]:
        """Each relation's learned factor ids, ascending, from one pass
        over the factors."""
        by_relation: dict[Edge, list[int]] = {}
        for i, f in enumerate(self.factors):
            if f.kind == "learned":
                by_relation.setdefault((f.u, f.v), []).append(i)
        return by_relation


def build_factor_graph(s: CreSet) -> FactorGraph:
    """Variables and zero-weight learned factors for a CRE set."""
    if not s.explanations:
        raise EmptyCreSet("cannot build a factor graph from an empty CRE set")
    entities = tuple(sorted({node for (u, v) in s.relations for node in (u, v)}))
    target_card = max(2, s.class_count)
    factors: list[Factor] = []
    for (u, v) in s.relations:
        if s.class_count <= 2:
            factors.append(Factor(u=u, v=v, target_state=1, weight=0.0, kind="learned"))
        else:
            for c in range(s.class_count):
                factors.append(Factor(u=u, v=v, target_state=c, weight=0.0, kind="learned"))
    return FactorGraph(entities=entities, target_card=target_card, factors=factors)


# ---------------------------------------------------------------------------
# MAP inference
# ---------------------------------------------------------------------------

class MapPlan:
    """The weight-free half of max-sum bucket elimination over one graph:
    built once from its factors' scopes and target states, and solved at
    any weights those factors carry.

    Entities are eliminated in greedy min-degree order.  Tables are over
    (entities..., T), T last, with their entities in elimination order,
    so an entity leads every table it is in.  The factor tables lie end
    to end in one buffer, and each factor's weight goes to cell (1, ...,
    1, target_state) of its table.  Each bucket lists its input tables,
    each with the shape that broadcasts it onto (entity, rest..., T), and
    its output table over rest, the max over the entity (state 0 on a tie).
    """

    def __init__(self, fg: FactorGraph):
        n, card = len(fg.entities), fg.target_card
        self.entities, self.card = fg.entities, card
        pos = {ent: i for i, ent in enumerate(fg.entities)}
        scopes = [{pos[f.u], pos[f.v]} for f in fg.factors]
        nbrs: dict[int, set[int]] = {i: set() for i in range(n)}
        for scope in scopes:
            for i in scope:
                nbrs[i] |= scope
        order = []
        while nbrs:
            i = min(nbrs, key=lambda v: (len(nbrs[v]), v))
            order.append(i)
            rest = nbrs.pop(i) - {i}
            for v in rest:
                nbrs[v] = (nbrs[v] | rest) - {i}
        step = {i: k for k, i in enumerate(order)}.get
        keys: dict[tuple[int, ...], int] = {}
        cells = []
        for f, scope in zip(fg.factors, scopes):
            key = tuple(sorted(scope, key=step))
            cells.append((keys.setdefault(key, len(keys)), ((1 << len(key)) - 1) * card
                          + f.target_state))
        starts = [0]
        for key in keys:
            starts.append(starts[-1] + (card << len(key)))
        self.size = starts[-1]
        self.cells = np.array([starts[t] + cell for t, cell in cells], dtype=np.intp)
        self.layout = [(a, b, (2,) * len(key) + (card,))
                       for a, b, key in zip(starts, starts[1:], keys)]
        live = list(keys.items())  # (key, table) of the tables not yet in a bucket
        self.buckets = []  # (entity, inputs and their shapes, rest, summed shape)
        for i in order:
            bucket = [t for t in live if t[0][:1] == (i,)]
            live = [t for t in live if t[0][:1] != (i,)]
            rest = tuple(sorted({v for key, _ in bucket for v in key[1:]}, key=step))
            inputs = [(t, (2,) + tuple(2 if v in key else 1 for v in rest) + (card,))
                      for key, t in bucket]
            live.append((rest, len(self.layout) + len(self.buckets)))
            self.buckets.append((i, inputs, rest, (2,) * (1 + len(rest)) + (card,)))
        self.final = [t for _, t in live]

    def solve(self, fg: FactorGraph) -> dict[int, int]:
        """The MAP assignment of fg, whose factors are the plan's own, in
        order, at any weights; see map_assignment."""
        # bincount adds in factor order, each cell's sum starting at 0.0
        weights = np.fromiter((f.weight for f in fg.factors), float, len(self.cells))
        flat = np.bincount(self.cells, weights, self.size)
        scores = [flat[a:b].reshape(shape) for a, b, shape in self.layout]
        traceback = []
        for i, inputs, rest, summed in self.buckets:
            score = np.zeros(summed)
            for t, shape in inputs:
                score = score + scores[t].reshape(shape)
            take = score[1] > score[0]  # a tie keeps the entity at 0
            scores.append(np.where(take, score[1], score[0]))
            traceback.append((i, rest, take))
        score = sum((scores[t] for t in self.final), np.zeros(self.card))
        state = int(np.argmax(score))  # the lowest T state of the highest score
        bits: dict[int, int] = {}
        for i, rest, take in reversed(traceback):
            bits[i] = int(take[tuple(bits[v] for v in rest) + (state,)])
        return {**{ent: bits[i] for i, ent in enumerate(self.entities)}, TARGET: state}


def map_assignment(fg: FactorGraph) -> dict[int, int]:
    """Most probable assignment, exact, by max-sum bucket elimination:
    a MapPlan built for fg and solved once.  learn_weights builds one
    plan and solves it at every epoch's weights.

    An entity's bucket is summed and maximised into one table over its
    neighbours, and a traceback reads off the maximising states.  At
    elimination width w (the most neighbours an entity has when
    eliminated) the cost is about entities * target_card * 2^(w + 1),
    against 2^n * target_card for exhaustive search.

    It returns an assignment of the highest score (the sum of satisfied
    factor weights).  Among tied maximisers, T takes its lowest state of
    the highest score, and each entity, read back in reverse elimination
    order, is 0 unless 1 scores strictly more given the states already
    read.  Scores are summed in elimination order, so sums that tie in
    decimal arithmetic (0.1 + 0.2 against 0.3) can round apart and pick
    another maximiser than sums in factor order would.
    """
    return MapPlan(fg).solve(fg)


# ---------------------------------------------------------------------------
# Weight learning
# ---------------------------------------------------------------------------

LEARN_RATE = 0.02
LEARN_EPOCHS = 30
WEIGHT_BOUND = 10.0  # learn_weights clips |weight| to it; loading rejects more


def learn_weights(fg: FactorGraph, s: CreSet, learning_rate: float = LEARN_RATE,
                  epochs: int = LEARN_EPOCHS) -> FactorGraph:
    """MAP-approximate likelihood gradient steps on the relation weights.

    Weights start at the mean explainer confidence of each relation over
    the explanations containing it.  Per epoch, the expected clause count
    is |S| times an indicator of the relation's clause holding under the
    current MAP assignment; the gradient is (observed - expected) and
    weights move up it.  Weights are shared across a relation's parallel
    class factors and clipped to [-WEIGHT_BOUND, WEIGHT_BOUND].  Returns a
    new graph; fg is not modified.
    """
    if not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError("learning_rate must be finite and >= 0")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    n_expl = len(s.explanations)
    relations = s.relations
    gcs: dict[Edge, list[float]] = {rel: [] for rel in relations}
    for e in s.explanations:
        for edge, gc in e.relations:
            gcs[edge].append(gc)
    weights = {rel: float(np.mean(gcs[rel])) for rel in relations}

    # one copy of fg's factors, whose learned weights each epoch rewrites
    factors = [replace(f, weight=weights[f.relation]) if f.kind == "learned" else replace(f)
               for f in fg.factors]
    current = FactorGraph(entities=fg.entities, target_card=fg.target_card,
                          factors=factors)
    by_relation = fg.learned_by_relation()
    clauses = []  # each relation's observed count, learned factors and their states
    for rel in relations:
        ids = by_relation.get(rel, [])
        clauses.append((rel, len(gcs[rel]), ids, {factors[i].target_state for i in ids}))
    plan = MapPlan(current)
    for _ in range(epochs):
        assignment = plan.solve(current)
        state = assignment[TARGET]
        moved = False
        for rel, observed, ids, states in clauses:
            sat = state in states and assignment[rel[0]] == 1 and assignment[rel[1]] == 1
            step = learning_rate * (observed - n_expl * sat)
            if step != 0.0:
                moved = True
            weights[rel] = w = min(max(weights[rel] + step, -WEIGHT_BOUND), WEIGHT_BOUND)
            for i in ids:  # the MAP assignment above stays fixed
                factors[i].weight = w
        if not moved:
            break
    return current


# ---------------------------------------------------------------------------
# Sum-product message passing
# ---------------------------------------------------------------------------

# Message passing (relex.bp) works on "clusters": factor nodes with an
# arbitrary scope and potential table.  Factors sharing an identical scope
# (a relation's parallel class clauses, or an injected twin of a learned
# clause) are merged into one cluster by multiplying their potentials --
# the joint distribution is unchanged and the message graph has fewer
# cycles, so e.g. injecting onto a single-factor graph stays exact.

@dataclass
class MessageState:
    clusters: list[Cluster]
    factor_cluster: dict[int, int]       # factor index -> cluster index
    cards: dict[int, int]
    nu: list[list[np.ndarray]]           # [cluster][slot] variable -> factor
    mu: list[list[np.ndarray]]           # [cluster][slot] factor -> variable
    iterations: int
    converged: bool
    residual: float


def propagate(cards: dict[int, int], clusters: list[Cluster],
              cfg: BpConfig | None = None):
    """Damped flooding-schedule message passing on one cluster graph: the
    one-problem stack of relex.bp.propagate_all, which documents the
    schedule.  Returns (nu, mu, iterations, converged, residual)."""
    return propagate_all([(cards, clusters)], cfg)[0]


def _build_clusters(fg: FactorGraph) -> tuple[list[Cluster], dict[int, int]]:
    grouped: dict[tuple[int, int], list[int]] = {}
    for fid, f in enumerate(fg.factors):
        grouped.setdefault((f.u, f.v), []).append(fid)
    clusters: list[Cluster] = []
    factor_cluster: dict[int, int] = {}
    for cid, (key, fids) in enumerate(grouped.items()):
        table = np.ones((2, 2, fg.target_card))
        for fid in fids:
            f = fg.factors[fid]
            table[1, 1, f.target_state] *= math.exp(f.weight)
            factor_cluster[fid] = cid
        clusters.append(Cluster(scope=(key[0], key[1], TARGET), table=table))
    return clusters, factor_cluster


def run_bp(fg: FactorGraph, cfg: BpConfig | None = None) -> MessageState:
    """Calibrate the factor graph; see propagate_all for the schedule."""
    clusters, factor_cluster = _build_clusters(fg)
    cards = {v: fg.card(v) for v in fg.variables}
    nu, mu, iterations, converged, residual = propagate(cards, clusters, cfg)
    return MessageState(clusters=clusters, factor_cluster=factor_cluster, cards=cards,
                        nu=nu, mu=mu, iterations=iterations, converged=converged,
                        residual=residual)


def marginal(fg: FactorGraph, ms: MessageState, var: int) -> np.ndarray:
    """Normalized product of converged factor-to-variable messages."""
    if var not in ms.cards:
        raise KeyError(f"unknown variable {var}")
    belief = np.ones(ms.cards[var])
    for cid, cluster in enumerate(ms.clusters):
        for slot, v in enumerate(cluster.scope):
            if v == var:
                belief = belief * ms.mu[cid][slot]
    return belief / belief.sum()


def joint_distribution(fg: FactorGraph, ms: MessageState, fid: int) -> np.ndarray:
    """Scope belief at a factor, a (2, 2, target_card) table summing to 1:
    all potentials sharing the factor's scope times the incoming variable
    messages, normalized."""
    if fid not in ms.factor_cluster:
        raise KeyError(f"unknown factor {fid}")
    cid = ms.factor_cluster[fid]
    return _scope_belief(ms.clusters[cid], ms.nu[cid])


def _scope_belief(cluster: Cluster, nu: list[np.ndarray]) -> np.ndarray:
    """The cluster's table times its incoming variable messages, normalized."""
    belief = cluster.table
    for slot, m in enumerate(nu):
        shape = [1] * belief.ndim
        shape[slot] = m.shape[0]
        belief = belief * m.reshape(shape)
    return belief / belief.sum()


# ---------------------------------------------------------------------------
# Explanation injection and uncertainty
# ---------------------------------------------------------------------------

_MIN_CONFIDENCE = 1e-9


@dataclass
class RelationUncertainty:
    edge: Edge
    gc: float
    delta: float
    neg_log_delta: float


@dataclass
class UncertaintyReport:
    """Per-relation drop in clause-satisfying belief after injection.

    delta is the raw drop p - p_hat; the removal score is the
    uncertainty-reduction measure -log|delta| (a higher score means lower
    uncertainty that the relation is part of the explanation, so relations
    whose beliefs barely move under the injected confidence rank first).
    """

    target: int
    entries: list[RelationUncertainty]
    converged: bool
    skipped: list[Edge] = field(default_factory=list)

    def ranked(self) -> list[RelationUncertainty]:
        """Descending by the neg-log score; ties break on (u, v) order."""
        return sorted(self.entries, key=lambda r: (-r.neg_log_delta, r.edge))

    def ranking(self) -> list[tuple[Edge, float]]:
        return [(r.edge, r.neg_log_delta) for r in self.ranked()]


def quantify_uncertainty(fg: FactorGraph, e: Explanation,
                         bp: BpConfig | None = None) -> UncertaintyReport:
    """Calibrate fg's clusters before and after injecting the explanation,
    as one two-problem propagate_all stack, and report deltas.

    Injection multiplies a copy of each explained relation's scope table
    at [1, 1, state] by GC, floored at 1e-9 (as exp(log(GC)), the
    potential of a factor of weight log(GC)); state is the predicted
    class, or 1 for a binary target.  A relation with no cluster in fg
    starts from a ones table, appended after fg's clusters in explanation
    order; one with an endpoint outside the entity set is skipped.  A
    predicted class outside 0..target_card - 1 of a multi-class graph
    raises ValueError.  fg is not modified.

    delta for a relation is the mean over its learned factors' target
    states (or the injected state, when it has no learned factor) of the
    satisfying-assignment belief before injection minus after.
    neg_log_delta is -log|delta| with delta = 0 mapped to +inf.
    """
    if fg.target_card > 2 and not 0 <= e.predicted_class < fg.target_card:
        raise ValueError(f"predicted class {e.predicted_class} outside "
                         f"0..{fg.target_card - 1}")
    state = e.predicted_class if fg.target_card > 2 else 1
    before, _ = _build_clusters(fg)
    cluster_of = {c.scope[:2]: cid for cid, c in enumerate(before)}
    after = list(before)
    ents = set(fg.entities)
    scored: list[tuple[Edge, float, int]] = []
    skipped: list[Edge] = []
    for (edge, gc) in e.relations:
        if edge[0] not in ents or edge[1] not in ents:
            skipped.append(edge)
            continue
        if edge not in cluster_of:
            cluster_of[edge] = len(before)
            before.append(Cluster(scope=(*edge, TARGET),
                                  table=np.ones((2, 2, fg.target_card))))
            after.append(before[-1])
        cid = cluster_of[edge]
        if after[cid] is before[cid]:
            after[cid] = Cluster(scope=before[cid].scope, table=before[cid].table.copy())
        after[cid].table[1, 1, state] *= math.exp(math.log(max(gc, _MIN_CONFIDENCE)))
        scored.append((edge, gc, cid))
    cards = {v: fg.card(v) for v in fg.variables}
    (nu_pre, _, _, pre_converged, _), (nu_post, _, _, post_converged, _) = propagate_all(
        [(cards, before), (cards, after)], bp or BpConfig())

    learned = fg.learned_by_relation()
    entries: list[RelationUncertainty] = []
    for (edge, gc, cid) in scored:
        states = [fg.factors[fid].target_state for fid in learned.get(edge, [])] or [state]
        p = _scope_belief(before[cid], nu_pre[cid])[1, 1, states]
        p_hat = _scope_belief(after[cid], nu_post[cid])[1, 1, states]
        delta = float(np.mean(p) - np.mean(p_hat))
        neg_log = math.inf if delta == 0.0 else -math.log(abs(delta))
        entries.append(RelationUncertainty(edge=edge, gc=gc, delta=delta,
                                           neg_log_delta=neg_log))
    return UncertaintyReport(target=e.target, entries=entries,
                             converged=pre_converged and post_converged,
                             skipped=skipped)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def factorgraph_to_dict(fg: FactorGraph) -> dict:
    return {
        "entities": list(fg.entities),
        "target_card": fg.target_card,
        "factors": [{"u": f.u, "v": f.v, "t": f.target_state,
                     "weight": f.weight, "kind": f.kind} for f in fg.factors],
    }


def factorgraph_from_dict(blob: dict) -> FactorGraph:
    """The graph that ``factorgraph_to_dict`` wrote; an entity, target
    cardinality or factor u, v or t that is not a JSON integer, a negative
    or repeated entity, a factor whose u and v are one entity, a weight
    that is not a JSON number, or outside [-WEIGHT_BOUND, WEIGHT_BOUND],
    or not finite, or a kind other than "learned" and "injected" raises
    ValueError.  Each factor's ends are put in (min, max) order, as
    ``explanation_from_dict`` puts a relation's: the clause is symmetric
    in them."""
    entities = tuple(read_int(x, "entity") for x in blob["entities"])
    for x in entities:
        if x < 0:  # TARGET is -1
            raise ValueError(f"entity {x} is negative")
    if len(set(entities)) < len(entities):
        raise ValueError(f"entities {list(entities)} repeat an id")
    factors = [Factor(*normalize_edge(read_int(f["u"], "factor u"), read_int(f["v"], "factor v")),
                      target_state=read_int(f["t"], "factor t"),
                      weight=read_float(f["weight"], "factor weight"), kind=str(f["kind"]))
               for f in blob["factors"]]
    for f in factors:
        if f.u == f.v:
            raise ValueError(f"factor ({f.u}, {f.v}) joins an entity to itself")
        if not -WEIGHT_BOUND <= f.weight <= WEIGHT_BOUND:
            raise ValueError(f"factor ({f.u}, {f.v}) weight {f.weight!r} is not "
                             f"in [-{WEIGHT_BOUND:g}, {WEIGHT_BOUND:g}]")
        if f.kind not in ("learned", "injected"):
            raise ValueError(f"factor ({f.u}, {f.v}) kind {f.kind!r} is neither "
                             f"'learned' nor 'injected'")
    return FactorGraph(entities=entities,
                       target_card=read_int(blob["target_card"], "target_card"),
                       factors=factors)


def save_factorgraph(fg: FactorGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(factorgraph_to_dict(fg)), encoding="utf-8")


def load_factorgraph(path: str | Path) -> FactorGraph:
    return factorgraph_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def report_to_csv(report: UncertaintyReport, path: str | Path) -> None:
    lines = ["u,v,gc,delta,neg_log_delta,converged"]
    for r in report.entries:
        lines.append(f"{r.edge[0]},{r.edge[1]},{r.gc!r},{r.delta!r},"
                     f"{r.neg_log_delta!r},{report.converged}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
