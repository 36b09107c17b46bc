import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from relex import factorgraph
from relex.boolfact import CreSet, EmptyCreSet
from relex.explainer import Explanation
from relex.factorgraph import (TARGET, BpConfig, Cluster, Factor, FactorGraph,
                               MapPlan, _build_clusters, build_factor_graph,
                               factorgraph_from_dict, factorgraph_to_dict, joint_distribution,
                               learn_weights, map_assignment, marginal,
                               propagate, propagate_all, quantify_uncertainty,
                               report_to_csv, run_bp)

EXACT_BP = BpConfig(max_iters=400, tol=1e-14, damping=0.0)


# ---------------------------------------------------------------------------
# Independent oracle: brute-force enumeration of the joint distribution
# ---------------------------------------------------------------------------

def enumerate_states(fg):
    variables = fg.variables
    cards = [fg.card(v) for v in variables]
    idx = {v: i for i, v in enumerate(variables)}
    states = list(itertools.product(*(range(c) for c in cards)))
    weights = []
    for st in states:
        w = 1.0
        for f in fg.factors:
            if (st[idx[f.u]] == 1 and st[idx[f.v]] == 1
                    and st[idx[TARGET]] == f.target_state):
                w *= math.exp(f.weight)
        weights.append(w)
    z = sum(weights)
    return states, [w / z for w in weights], idx


def exact_marginal(fg, var):
    states, probs, idx = enumerate_states(fg)
    out = np.zeros(fg.card(var))
    for st, p in zip(states, probs):
        out[st[idx[var]]] += p
    return out


def exact_factor_joint(fg, fid):
    f = fg.factors[fid]
    states, probs, idx = enumerate_states(fg)
    table = np.zeros((2, 2, fg.target_card))
    for st, p in zip(states, probs):
        table[st[idx[f.u]], st[idx[f.v]], st[idx[TARGET]]] += p
    return table


def reference_inject(fg, e):
    """Reference injection: a new graph that appends to fg's factors one
    injected factor of weight log(max(GC, 1e-9)) per explained relation
    with known endpoints, at the predicted class (state 1 if binary)."""
    state = e.predicted_class if fg.target_card > 2 else 1
    ents = set(fg.entities)
    injected = [Factor(u=u, v=v, target_state=state, weight=math.log(max(gc, 1e-9)),
                       kind="injected")
                for (u, v), gc in e.relations if u in ents and v in ents]
    return FactorGraph(entities=fg.entities, target_card=fg.target_card,
                       factors=fg.factors + injected)


def loop_scope_belief(ms, fid):
    """The scope belief at a factor, one cluster at a time: its table
    times each incoming variable message in slot order, normalized."""
    cid = ms.factor_cluster[fid]
    belief = ms.clusters[cid].table
    for slot, m in enumerate(ms.nu[cid]):
        shape = [1] * belief.ndim
        shape[slot] = m.shape[0]
        belief = belief * m.reshape(shape)
    return belief / belief.sum()


def reference_deltas(fg, e):
    """Each scored relation's delta from run_bp on the reference-injected
    graphs, before (every GC at 1) and after: the mean over the relation's
    learned factors, or its injected factor when it has none, of the
    satisfying belief at the factor's own target state, each read off
    its own cluster (loop_scope_belief)."""
    ones = replace(e, relations=tuple((r, 1.0) for r, _ in e.relations))
    fg_pre, fg_post = reference_inject(fg, ones), reference_inject(fg, e)
    ms_pre, ms_post = run_bp(fg_pre), run_bp(fg_post)
    learned = fg.learned_by_relation()
    injected = {fg_pre.factors[fid].relation: fid
                for fid in range(len(fg.factors), len(fg_pre.factors))}
    deltas = []
    for edge, _ in e.relations:
        if edge not in injected:
            continue
        fids = learned.get(edge) or [injected[edge]]
        before = [float(loop_scope_belief(ms_pre, fid)
                        [1, 1, fg_pre.factors[fid].target_state]) for fid in fids]
        after = [float(loop_scope_belief(ms_post, fid)
                       [1, 1, fg_pre.factors[fid].target_state]) for fid in fids]
        deltas.append(float(np.mean(before) - np.mean(after)))
    return deltas


# ---------------------------------------------------------------------------
# Reference loops: a per-assignment MAP and the per-slot message passing
# that the array passes replaced.  Message passing makes the same float
# operations in the same order, so results must be equal, not close.
# Bucket elimination sums scores in another order, which can break a
# decimal tie (0.1 + 0.2 against 0.3) the other way; the seeded graphs
# below hold no such tie.
# ---------------------------------------------------------------------------

def loop_map(fg):
    variables = fg.variables
    cards = [fg.card(v) for v in variables]
    best = None
    best_score = -math.inf
    for combo in itertools.product(*(range(c) for c in cards)):
        assignment = dict(zip(variables, combo))
        score = sum(f.weight for f in fg.factors
                    if assignment[f.u] == 1 and assignment[f.v] == 1
                    and assignment[TARGET] == f.target_state)
        if score > best_score:  # strict: keeps the lexicographically-lowest tie
            best_score = score
            best = assignment
    return best


def satisfied(fg, assignment):
    """The factors of fg that ``assignment`` satisfies."""
    return [f for f in fg.factors if assignment[f.u] == 1 and assignment[f.v] == 1
            and assignment[TARGET] == f.target_state]


def assignment_score(fg, assignment):
    """The exact sum of the satisfied factors' weights, rounded once
    (math.fsum), so that no summation order moves it."""
    return math.fsum(f.weight for f in satisfied(fg, assignment))


def loop_state_maxima(fg):
    """Each T state's highest score, by enumeration over the entities."""
    best = [-math.inf] * fg.target_card
    for bits in itertools.product((0, 1), repeat=len(fg.entities)):
        for t in range(fg.target_card):
            best[t] = max(best[t], assignment_score(fg, {**dict(zip(fg.entities, bits)),
                                                        TARGET: t}))
    return best


def assert_tie_rule_maximum(fg, assignment, state_maxima):
    """``assignment`` is a maximiser of fg picked by map_assignment's tie
    rule: it scores the highest of ``state_maxima`` (each T state's best
    score), its T is the lowest state that reaches that score, and no
    entity at 1 can drop to 0 without lowering the score: the satisfied
    factors over it sum above 0.  The last holds in any elimination order:
    every factor over an entity is summed into its bucket, whose traceback
    leaves it at 0 unless 1 scores more."""
    assert set(assignment) == set(fg.variables)
    best = max(state_maxima)
    assert assignment_score(fg, assignment) == best
    assert assignment[TARGET] == state_maxima.index(best)
    for ent in fg.entities:
        if assignment[ent] == 1:
            lost = [f.weight for f in satisfied(fg, assignment) if ent in (f.u, f.v)]
            assert math.fsum(lost) > 0, ent


def blockwise_states(fg, size=4):
    """Each T state's highest score and one maximiser's entity bits, for a
    graph whose factors stay inside consecutive blocks of ``size``
    entities: loop_map per block and per T state."""
    blocks = [fg.entities[i:i + size] for i in range(0, len(fg.entities), size)]
    scores, bits = [0] * fg.target_card, [[] for _ in range(fg.target_card)]
    for block in blocks:
        factors = [f for f in fg.factors if f.u in block]
        assert all(f.v in block for f in factors)
        # a pinned entity whose clause outweighs the block holds T at t
        pin = max(block) + 1
        big = 1.0 + sum(abs(f.weight) for f in factors)
        for t in range(fg.target_card):
            pinned = FactorGraph(entities=tuple(block) + (pin,), target_card=fg.target_card,
                                 factors=factors + [Factor(u=pin, v=pin, target_state=t,
                                                           weight=big, kind="learned")])
            best = loop_map(pinned)
            assert best[pin] == 1 and best[TARGET] == t
            bits[t] += [best[ent] for ent in block]
            scores[t] += sum(f.weight for f in factors
                             if f.target_state == t and best[f.u] == best[f.v] == 1)
    return scores, bits


def blockwise_map(fg, size=4):
    """MAP of a graph whose factors stay inside consecutive blocks of
    ``size`` entities (see blockwise_states): the first maximiser in
    product order, compared on Python int ranks."""
    scores, bits = blockwise_states(fg, size)
    state = min(range(fg.target_card), key=lambda t: (
        -scores[t], int("".join(map(str, bits[t])) or "0", 2) * fg.target_card + t))
    return {**dict(zip(fg.entities, bits[state])), TARGET: state}


def loop_cluster_message(table, messages, slot):
    prod = table
    for j, m in enumerate(messages):
        if j != slot:
            shape = [1] * table.ndim
            shape[j] = m.shape[0]
            prod = prod * m.reshape(shape)
    axes = tuple(j for j in range(table.ndim) if j != slot)
    return prod.sum(axis=axes)


def loop_propagate(cards, clusters, cfg):
    nbrs = {v: [] for v in cards}
    for cid, cluster in enumerate(clusters):
        for slot, var in enumerate(cluster.scope):
            nbrs[var].append((cid, slot))
    nu = [[np.full(cards[v], 1.0 / cards[v]) for v in c.scope] for c in clusters]
    mu = [[np.full(cards[v], 1.0 / cards[v]) for v in c.scope] for c in clusters]
    iterations = 0
    residual = math.inf
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        residual = 0.0
        for var in sorted(cards):
            incoming = nbrs[var]
            for (cid, slot) in incoming:
                msg = np.ones(cards[var])
                for (ocid, oslot) in incoming:
                    if ocid != cid or oslot != slot:
                        msg = msg * mu[ocid][oslot]
                msg = msg / msg.sum()
                new = (1.0 - cfg.damping) * msg + cfg.damping * nu[cid][slot]
                residual = max(residual, float(np.abs(new - nu[cid][slot]).max()))
                nu[cid][slot] = new
        for cid, cluster in enumerate(clusters):
            for slot in range(len(cluster.scope)):
                msg = loop_cluster_message(cluster.table, nu[cid], slot)
                msg = msg / msg.sum()
                new = (1.0 - cfg.damping) * msg + cfg.damping * mu[cid][slot]
                residual = max(residual, float(np.abs(new - mu[cid][slot]).max()))
                mu[cid][slot] = new
        if residual < cfg.tol:
            converged = True
            break
    return nu, mu, iterations, converged, residual


# Weights with many exact ties and sums that depend on addition order
# (0.1 + 0.2 != 0.3).
TIE_WEIGHTS = (0.0, 0.0, 0.1, 0.2, 0.3, -0.1, 0.5, -0.5, 1.0, -1.0)


def random_factor_graph(rng, n_entities, target_card, n_factors, weights=None):
    """Random clause graph over mixed scopes: repeated and self pairs,
    parallel class factors and twin factors on one scope."""
    factors = []
    for _ in range(n_factors):
        u, v = sorted(int(x) for x in rng.integers(n_entities, size=2))
        w = (float(rng.choice(weights)) if weights is not None
             else float(rng.uniform(-3, 3)))
        factors.append(Factor(u=u, v=v, target_state=int(rng.integers(target_card)),
                              weight=w, kind=str(rng.choice(["learned", "injected"]))))
    return FactorGraph(entities=tuple(range(n_entities)), target_card=target_card,
                       factors=factors)


def random_cluster_graph(rng):
    """Loopy cluster graph with scopes of 1-3 slots over cardinalities 2-8;
    few cardinalities, so several clusters share a table shape."""
    n_vars = int(rng.integers(1, 7))
    cards = {v: int(rng.choice([2, 2, 3, 4, 5, 8])) for v in range(n_vars)}
    clusters = []
    for _ in range(int(rng.integers(0, 10))):
        size = int(rng.integers(1, 4))
        scope = tuple(int(v) for v in rng.choice(n_vars, size=size,
                                                 replace=bool(rng.integers(2))
                                                 or size > n_vars))
        shape = tuple(cards[v] for v in scope)
        table = (rng.choice([0.5, 1.0, 2.0], size=shape) if rng.integers(2)
                 else rng.uniform(0.05, 3.0, size=shape))
        clusters.append(Cluster(scope=scope, table=table))
    return cards, clusters


def assert_propagate_matches_loop(cards, clusters, cfg):
    nu, mu, iterations, converged, residual = propagate(cards, clusters, cfg)
    ref_nu, ref_mu, ref_iterations, ref_converged, ref_residual = loop_propagate(
        cards, clusters, cfg)
    assert (iterations, converged, residual) == \
           (ref_iterations, ref_converged, ref_residual)
    for got, ref in ((nu, ref_nu), (mu, ref_mu)):
        assert [len(m) for m in got] == [len(m) for m in ref]
        for got_c, ref_c in zip(got, ref):
            for a, b in zip(got_c, ref_c):
                assert np.array_equal(a, b), (a, b)


def assert_stack_matches_loop(problems, cfg):
    """propagate_all on the stack gives every problem the messages,
    iteration count, flag and residual of loop_propagate on it alone."""
    runs = propagate_all(problems, cfg)
    assert len(runs) == len(problems)
    for (cards, clusters), run in zip(problems, runs):
        nu, mu, iterations, converged, residual = run
        ref_nu, ref_mu, ref_iterations, ref_converged, ref_residual = loop_propagate(
            cards, clusters, cfg)
        assert (iterations, converged, residual) == \
               (ref_iterations, ref_converged, ref_residual)
        for got, ref in ((nu, ref_nu), (mu, ref_mu)):
            assert [len(m) for m in got] == [len(m) for m in ref]
            for got_c, ref_c in zip(got, ref):
                for a, b in zip(got_c, ref_c):
                    assert np.array_equal(a, b), (a, b)


def single_factor_graph(w, target_card=2):
    return FactorGraph(entities=(0, 1), target_card=target_card,
                       factors=[Factor(u=0, v=1, target_state=1, weight=w,
                                       kind="learned")])


def random_clause_graph(rng, n_vars):
    """Random clause factor graph: chain-ish entity structure.  Note every
    clause shares the target variable, so multi-factor graphs are loopy."""
    entities = list(range(n_vars))
    factors = []
    for new in range(1, n_vars):
        anchor = int(rng.integers(new))
        factors.append(Factor(u=min(anchor, new), v=max(anchor, new),
                              target_state=1,
                              weight=float(rng.uniform(-3, 3)), kind="learned"))
    if not factors:
        factors.append(Factor(u=0, v=0, target_state=1, weight=0.0,
                              kind="learned"))
    return FactorGraph(entities=tuple(entities), target_card=2, factors=factors)


def random_tree_clusters(rng, max_vars=12):
    """Random tree-structured cluster graph with clause-style potentials.

    Each new cluster attaches by exactly one already-used variable and
    introduces fresh variables, keeping the bipartite graph acyclic.
    """
    n_clusters = int(rng.integers(1, 5))
    cards = {0: int(rng.integers(2, 4))}
    clusters = []
    next_var = 1
    used = [0]
    for _ in range(n_clusters):
        if next_var >= max_vars - 2:
            break
        anchor = int(rng.choice(used))
        size = int(rng.integers(2, 4))
        scope = [anchor]
        for _ in range(size - 1):
            cards[next_var] = int(rng.integers(2, 4))
            scope.append(next_var)
            used.append(next_var)
            next_var += 1
        shape = tuple(cards[v] for v in scope)
        table = np.ones(shape)
        sat = tuple(int(rng.integers(c)) for c in shape)
        table[sat] = math.exp(rng.uniform(-3, 3))
        clusters.append(Cluster(scope=tuple(scope), table=table))
    return cards, clusters


def enumerate_clusters(cards, clusters):
    """Brute-force marginals and cluster beliefs for a cluster graph."""
    variables = sorted(cards)
    idx = {v: i for i, v in enumerate(variables)}
    states = list(itertools.product(*(range(cards[v]) for v in variables)))
    weights = []
    for st in states:
        w = 1.0
        for c in clusters:
            w *= c.table[tuple(st[idx[v]] for v in c.scope)]
        weights.append(w)
    z = sum(weights)
    probs = [w / z for w in weights]
    marginals = {v: np.zeros(cards[v]) for v in variables}
    beliefs = [np.zeros_like(c.table) for c in clusters]
    for st, p in zip(states, probs):
        for v in variables:
            marginals[v][st[idx[v]]] += p
        for ci, c in enumerate(clusters):
            beliefs[ci][tuple(st[idx[v]] for v in c.scope)] += p
    return marginals, beliefs


def make_creset(relations_per_expl, gcs=None, class_count=2, target=0):
    expls = []
    for i, rels in enumerate(relations_per_expl):
        rel_list = tuple((r, (gcs or {}).get(r, 0.8)) for r in rels)
        expls.append(Explanation(target=target, predicted_class=1,
                                 relations=rel_list, hop_radius=2))
    return CreSet(target=target, class_count=class_count, explanations=expls,
                  ranks_used=list(range(2, 2 + len(expls))),
                  errors_per_rank=[1] * len(expls))


class TestBuildFactorGraph:
    def test_single_relation_binary(self):
        s = make_creset([[(5, 9)]])
        fg = build_factor_graph(s)
        assert fg.entities == (5, 9)
        assert len(fg.variables) == 3
        assert len(fg.factors) == 1
        assert fg.factors[0].target_state == 1

    def test_shared_variable(self):
        s = make_creset([[(0, 1), (1, 2)]])
        fg = build_factor_graph(s)
        assert fg.entities == (0, 1, 2)
        assert len(fg.variables) == 4
        assert len(fg.factors) == 2

    def test_three_classes_three_factors(self):
        s = make_creset([[(0, 1)]], class_count=3)
        fg = build_factor_graph(s)
        assert len(fg.factors) == 3
        assert sorted(f.target_state for f in fg.factors) == [0, 1, 2]
        assert fg.target_card == 3

    def test_empty_creset(self):
        s = CreSet(target=0, class_count=2, explanations=[], ranks_used=[],
                   errors_per_rank=[])
        with pytest.raises(EmptyCreSet):
            build_factor_graph(s)

    def test_target_state_outside_card_rejected(self):
        for state in (-1, 2):
            with pytest.raises(ValueError):
                FactorGraph(entities=(0, 1), target_card=2, factors=[
                    Factor(u=0, v=1, target_state=state, weight=1.0, kind="learned")])

    def test_initial_weights_zero(self):
        s = make_creset([[(0, 1), (1, 2)]])
        fg = build_factor_graph(s)
        assert all(f.weight == 0.0 for f in fg.factors)


class TestMapAssignment:
    def test_single_positive_weight_all_ones(self):
        fg = single_factor_graph(1.5)
        assignment = map_assignment(fg)
        assert assignment == {0: 1, 1: 1, TARGET: 1}

    def test_single_negative_weight_all_zeros(self):
        fg = single_factor_graph(-1.5)
        assignment = map_assignment(fg)
        assert assignment == {0: 0, 1: 0, TARGET: 0}

    def test_two_factor_enumeration(self):
        fg = FactorGraph(entities=(0, 1, 2), target_card=2, factors=[
            Factor(u=0, v=1, target_state=1, weight=2.0, kind="learned"),
            Factor(u=1, v=2, target_state=1, weight=-3.0, kind="learned"),
        ])
        assignment = map_assignment(fg)
        assert assignment == {0: 1, 1: 1, 2: 0, TARGET: 1}

    @pytest.mark.parametrize("relabel_seed", [15, 2, 0])
    def test_matches_reference_loop(self, relabel_seed):
        # seed 0 keeps the drawn labels; the others permute the entity labels
        # of the same graphs, so min-degree ties and elimination order fall
        # on other positions.  Each graph's plan is then solved again at
        # tie-prone weights, as weight learning solves one plan per epoch
        rng = np.random.default_rng(21)
        relabel = np.random.default_rng(relabel_seed)
        reweight = np.random.default_rng(23)
        for trial in range(200):
            fg = random_factor_graph(rng, int(rng.integers(1, 8)),
                                     int(rng.choice([2, 3, 4, 5, 8])),
                                     int(rng.integers(0, 14)),
                                     TIE_WEIGHTS if trial % 2 else None)
            if relabel_seed:
                perm = [int(x) for x in relabel.permutation(len(fg.entities))]
                fg.factors = [replace(f, u=min(perm[f.u], perm[f.v]),
                                      v=max(perm[f.u], perm[f.v]))
                              for f in fg.factors]
            assert_tie_rule_maximum(fg, map_assignment(fg), loop_state_maxima(fg))
            plan = MapPlan(fg)
            for f in fg.factors:
                f.weight = float(reweight.choice(TIE_WEIGHTS))
            assert_tie_rule_maximum(fg, plan.solve(fg), loop_state_maxima(fg))

    def test_zero_and_equal_weights(self):
        for w in (0.0, 0.7, -0.7):
            for card in (2, 3, 5):
                fg = FactorGraph(entities=(0, 1, 2, 3), target_card=card, factors=[
                    Factor(u=u, v=v, target_state=t, weight=w, kind="learned")
                    for (u, v) in ((0, 1), (1, 2), (2, 3)) for t in range(card)])
                assignment = map_assignment(fg)
                assert assignment == loop_map(fg)
                if w <= 0.0:
                    assert set(assignment.values()) == {0}

    def test_no_factors_all_zeros(self):
        fg = FactorGraph(entities=(0, 1, 2), target_card=3, factors=[])
        assert map_assignment(fg) == loop_map(fg) == {0: 0, 1: 0, 2: 0, TARGET: 0}


class TestLearnWeights:
    def test_fixed_point_unchanged(self):
        # one relation present in every explanation; MAP satisfies it
        s = make_creset([[(0, 1)]] * 4, gcs={(0, 1): 0.7})
        fg = build_factor_graph(s)
        learned = learn_weights(fg, s, learning_rate=0.1, epochs=5)
        assert learned.factors[0].weight == pytest.approx(0.7)

    def test_zero_learning_rate_keeps_init(self):
        s = make_creset([[(0, 1), (1, 2)], [(0, 1)]],
                        gcs={(0, 1): 0.6, (1, 2): 0.9})
        fg = build_factor_graph(s)
        learned = learn_weights(fg, s, learning_rate=0.0, epochs=10)
        by_rel = {f.relation: f.weight for f in learned.factors}
        assert by_rel[(0, 1)] == pytest.approx(0.6)
        assert by_rel[(1, 2)] == pytest.approx(0.9)

    def test_epoch1_direction_matches_exact_gradient_sign(self):
        # 2-relation set with enumerable Z: R1=(0,1) in S1, R2=(1,2) in S2,
        # plus 4 empty explanations.  n_i = 1, |S| = 6.
        s = make_creset([[(0, 1)], [(1, 2)], [], [], [], []],
                        gcs={(0, 1): 0.95, (1, 2): 0.95})
        fg = build_factor_graph(s)
        init = {f.relation: f.weight for f in
                learn_weights(fg, s, learning_rate=0.0, epochs=0).factors}
        after = {f.relation: f.weight for f in
                 learn_weights(fg, s, learning_rate=0.01, epochs=1).factors}

        # exact gradient: n_i - |S| * P(clause_i satisfied) with brute-force Z
        probe = learn_weights(fg, s, learning_rate=0.0, epochs=0)
        for rel, fid in ((r, probe.learned_by_relation()[r][0]) for r in ((0, 1), (1, 2))):
            table = exact_factor_joint(probe, fid)
            p_sat = table[1, 1, 1]
            exact_grad = 1 - 6 * p_sat
            assert exact_grad < 0
            observed = after[rel] - init[rel]
            assert observed < 0, f"{rel}: update {observed} vs gradient {exact_grad}"

    def test_weights_match_reference_map(self, monkeypatch):
        # confidences from a few round values tie clause sums, so every
        # epoch's MAP is checked for the tie rule; continuous confidences
        # leave one satisfied clause set among the maximisers, so the
        # learned weights must match the loop reference's bit for bit
        rng = np.random.default_rng(22)
        tied, continuous = [], []
        for sets in (tied, continuous):
            for _ in range(6):
                n = int(rng.integers(3, 8))
                pool = sorted({tuple(sorted(int(x) for x in rng.choice(n, 2, replace=False)))
                               for _ in range(n + 2)})
                expls = [[pool[i] for i in sorted(rng.choice(len(pool), min(4, len(pool)),
                                                             replace=False))]
                         for _ in range(int(rng.integers(3, 9)))]
                gcs = {r: float(rng.choice([0.01, 0.2, 0.5, 0.95, 0.99]) if sets is tied
                                else rng.uniform(0.01, 0.99)) for r in pool}
                sets.append(make_creset(expls, gcs=gcs,
                                        class_count=int(rng.choice([2, 3, 8]))))
        solve = factorgraph.MapPlan.solve
        checked = []

        def checked_solve(plan, fg):
            assignment = solve(plan, fg)
            assert_tie_rule_maximum(fg, assignment, loop_state_maxima(fg))
            checked.append(assignment)
            return assignment

        monkeypatch.setattr(factorgraph.MapPlan, "solve", checked_solve)
        for s in tied:
            learn_weights(build_factor_graph(s), s)
        assert len(checked) > len(tied)
        monkeypatch.setattr(factorgraph.MapPlan, "solve", solve)
        learned = [learn_weights(build_factor_graph(s), s) for s in continuous]
        monkeypatch.setattr(factorgraph.MapPlan, "solve", lambda plan, fg: loop_map(fg))
        for s, fg in zip(continuous, learned):
            ref = learn_weights(build_factor_graph(s), s)
            assert [f.weight for f in fg.factors] == [f.weight for f in ref.factors]

    def test_input_graph_untouched(self):
        s = make_creset([[(0, 1), (1, 2)], [(0, 1)], []],
                        gcs={(0, 1): 0.6, (1, 2): 0.9}, class_count=3)
        fg = build_factor_graph(s)
        before = factorgraph_to_dict(fg)
        learned = learn_weights(fg, s, learning_rate=0.05, epochs=3)
        assert factorgraph_to_dict(fg) == before
        assert all(f.weight == 0.0 for f in fg.factors)
        assert not set(map(id, learned.factors)) & set(map(id, fg.factors))

    def test_weights_clipped(self):
        s = make_creset([[(0, 1)], [], [], [], [], [], [], []],
                        gcs={(0, 1): 0.5})
        fg = build_factor_graph(s)
        learned = learn_weights(fg, s, learning_rate=5.0, epochs=50)
        assert -10.0 <= learned.factors[0].weight <= 10.0


class TestTractability:
    """MAP and weight learning well past the old exhaustive limit of 20
    variables."""

    def test_map_at_twenty_variables(self):
        rng = np.random.default_rng(41)
        n = 19
        # integer weights make every sum exact in any order; entities 17
        # and 18 are in no factor, so every maximum ties with its twins
        factors = [Factor(u=u, v=v, target_state=int(rng.integers(2)),
                          weight=float(rng.integers(-2, 3)), kind="learned")
                   for u, v in (sorted(int(x) for x in rng.choice(17, 2, replace=False))
                                for _ in range(30))]
        fg = FactorGraph(entities=tuple(range(n)), target_card=2, factors=factors)
        rows = np.arange(1 << n)
        scores = np.zeros((rows.size, 2))
        for f in factors:
            held = ((rows >> (n - 1 - f.u)) & (rows >> (n - 1 - f.v)) & 1).astype(bool)
            scores[held, f.target_state] += f.weight
        assert (scores == scores.max()).sum() >= 4
        row, state = divmod(int(scores.argmax()), 2)  # first maximum, product order
        expected = {ent: (row >> (n - 1 - ent)) & 1 for ent in range(n)}
        expected[TARGET] = state
        assert expected[17] == expected[18] == 0
        assert map_assignment(fg) == expected

        for f in factors:
            f.weight = 0.0
        assert map_assignment(fg) == {**{ent: 0 for ent in range(n)}, TARGET: 0}

    def test_map_over_sixty_eight_entities(self):
        # 17 disjoint blocks of 4 entities.  Integer weights make every sum
        # exact.  Each block's T=1 clauses mirror its T=0 clauses with the
        # entities reversed, so T=0 and T=1 tie on score and the lower,
        # T=0, wins.  Block 0 (entities 0-3) holds only zero weights: every
        # one of its states ties, and all four stay 0.  Block 1 sets
        # entities 4 and 5 under T=0 and 6 and 7 under T=1.
        rng = np.random.default_rng(43)
        n, card = 68, 3
        factors = [Factor(u=u, v=v, target_state=t, weight=0.0, kind="learned")
                   for u, v in ((0, 1), (1, 2), (2, 3), (0, 3)) for t in range(card)]
        factors += [Factor(u=4, v=5, target_state=0, weight=1.0, kind="learned"),
                    Factor(u=6, v=7, target_state=1, weight=1.0, kind="learned")]
        for base in range(8, n, 4):
            for _ in range(int(rng.integers(2, 6))):
                u, v = sorted(int(x) for x in rng.integers(4, size=2))
                w = float(rng.integers(-2, 3))
                factors.append(Factor(u=base + u, v=base + v, target_state=0, weight=w,
                                      kind="learned"))
                factors.append(Factor(u=base + 3 - v, v=base + 3 - u, target_state=1,
                                      weight=w, kind="learned"))
        fg = FactorGraph(entities=tuple(range(n)), target_card=card, factors=factors)
        maxima, _ = blockwise_states(fg)
        assert maxima[0] == maxima[1] > maxima[2]
        assignment = map_assignment(fg)
        assert_tie_rule_maximum(fg, assignment, maxima)
        assert assignment[TARGET] == 0
        assert [assignment[ent] for ent in range(8)] == [0, 0, 0, 0, 1, 1, 0, 0]

    @pytest.mark.parametrize("n", [60, 61])
    def test_zero_weights_either_side_of_int64_ranks(self, n):
        # 8 * 2^n passes 2^63 between n = 60 and 61, so an int64 index of
        # the 8 * 2^n assignments would overflow; every one of them ties,
        # and the tie rule keeps every entity at 0 and T at 0
        fg = FactorGraph(entities=tuple(range(n)), target_card=8, factors=[
            Factor(u=u, v=u + 1, target_state=t, weight=0.0, kind="learned")
            for u in range(n - 1) for t in range(8)])
        assert map_assignment(fg) == {**{ent: 0 for ent in range(n)}, TARGET: 0}

    @pytest.mark.parametrize("n", [60, 61])
    def test_tie_goes_to_the_lower_rank(self, n):
        # on a zero-weight path, x0 = x1 = 1 under T = t and x(n-2) = x(n-1)
        # = 1 under T = 1 - t both score 1.  The tie goes to the lower T
        # state, 0, and every entity outside its clause stays 0
        for t in (0, 1):
            fg = FactorGraph(entities=tuple(range(n)), target_card=8, factors=[
                Factor(u=u, v=u + 1, target_state=0, weight=0.0, kind="learned")
                for u in range(n - 1)] + [
                Factor(u=0, v=1, target_state=t, weight=1.0, kind="learned"),
                Factor(u=n - 2, v=n - 1, target_state=1 - t, weight=1.0, kind="learned")])
            ones = (0, 1) if t == 0 else (n - 2, n - 1)
            expected = {**{ent: 0 for ent in range(n)}, **dict.fromkeys(ones, 1), TARGET: 0}
            assert map_assignment(fg) == expected

    def test_learn_weights_at_forty_entities(self, monkeypatch):
        # ten blocks of 4 entities whose relations stay in their block, so
        # the blockwise oracle gives every epoch's MAP exactly
        rng = np.random.default_rng(44)
        pool = sorted({(base + u, base + v) for base in range(0, 40, 4)
                       for u, v in ((0, 1), (1, 2), (2, 3), (0, 2))})
        expls = [[pool[j] for j in sorted(rng.choice(len(pool), 8, replace=False))]
                 for _ in range(12)]
        gcs = {r: float(rng.choice([0.01, 0.05, 0.4, 0.95, 0.99])) for r in pool}
        s = make_creset(expls, gcs=gcs)
        learned = learn_weights(build_factor_graph(s), s)
        assert len(learned.entities) == 40
        monkeypatch.setattr(factorgraph.MapPlan, "solve", lambda plan, fg: blockwise_map(fg))
        ref = learn_weights(build_factor_graph(s), s)
        assert [f.weight for f in learned.factors] == [f.weight for f in ref.factors]
        assert len({f.weight for f in learned.factors}) > 1

    def test_learn_weights_at_sixteen_entities(self):
        rng = np.random.default_rng(42)
        order = rng.permutation(16).tolist()
        pool = {tuple(sorted(p)) for p in zip(order, order[1:])}
        while len(pool) < 19:
            pool.add(tuple(sorted(int(x) for x in rng.choice(16, 2, replace=False))))
        pool = sorted(pool)
        shuffled = rng.permutation(19)
        expls = [[pool[j] for j in shuffled[i:i + 6]] for i in range(0, 19, 6)]
        expls += [[pool[j] for j in rng.choice(19, 6, replace=False)] for _ in range(15)]
        gcs = {r: float(rng.choice([0.01, 0.05, 0.4, 0.95, 0.99])) for r in pool}
        s = make_creset(expls, gcs=gcs, class_count=8)
        fg = learn_weights(build_factor_graph(s), s)
        assert len(fg.entities) == 16
        assert len(fg.factors) == 8 * 19
        assert all(-10.0 <= f.weight <= 10.0 for f in fg.factors)


class TestRunBp:
    def test_tree_clusters_match_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            cards, clusters = random_tree_clusters(rng)
            nu, mu, _, converged, _ = propagate(cards, clusters, EXACT_BP)
            assert converged
            marginals, beliefs = enumerate_clusters(cards, clusters)
            for var in cards:
                belief = np.ones(cards[var])
                for cid, c in enumerate(clusters):
                    for slot, v in enumerate(c.scope):
                        if v == var:
                            belief = belief * mu[cid][slot]
                np.testing.assert_allclose(belief / belief.sum(),
                                           marginals[var], atol=1e-9)

    def test_cluster_graphs_match_reference_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(80):
            cards, clusters = random_cluster_graph(rng)
            cfg = BpConfig(max_iters=int(rng.integers(1, 60)),
                           damping=float(rng.choice([0.0, 0.5, 0.9])))
            assert_propagate_matches_loop(cards, clusters, cfg)

    def test_factor_graphs_match_reference_loop(self):
        rng = np.random.default_rng(32)
        for trial in range(60):
            fg = random_factor_graph(rng, int(rng.integers(1, 7)),
                                     int(rng.choice([2, 3, 4, 5, 8])),
                                     int(rng.integers(0, 16)),
                                     TIE_WEIGHTS if trial % 2 else None)
            clusters, _ = _build_clusters(fg)
            cards = {v: fg.card(v) for v in fg.variables}
            assert_propagate_matches_loop(cards, clusters, BpConfig())

    def test_cluster_tables_are_products_of_factor_potentials(self):
        rng = np.random.default_rng(33)
        for trial in range(40):
            fg = random_factor_graph(rng, int(rng.integers(1, 7)),
                                     int(rng.choice([2, 3, 8])),
                                     int(rng.integers(1, 16)),
                                     TIE_WEIGHTS if trial % 2 else None)
            clusters, factor_cluster = _build_clusters(fg)
            expected = {}
            for fid, f in enumerate(fg.factors):
                potential = np.ones((2, 2, fg.target_card))
                potential[1, 1, f.target_state] = math.exp(f.weight)
                key = (f.u, f.v, TARGET)
                expected[key] = expected.get(key, np.ones_like(potential)) * potential
                assert clusters[factor_cluster[fid]].scope == key
            assert [c.scope for c in clusters] == list(expected)
            for c in clusters:
                assert np.array_equal(c.table, expected[c.scope])

    def test_no_clusters(self):
        nu, mu, iterations, converged, residual = propagate({0: 2, TARGET: 3}, [])
        assert (nu, mu, iterations, converged, residual) == ([], [], 1, True, 0.0)
        assert_propagate_matches_loop({0: 2, TARGET: 3}, [], BpConfig())

    def test_single_cluster_fg_matches_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            fg = single_factor_graph(float(rng.uniform(-3, 3)),
                                     target_card=int(rng.integers(2, 4)))
            state = run_bp(fg, EXACT_BP)
            assert state.converged
            for var in fg.variables:
                np.testing.assert_allclose(marginal(fg, state, var),
                                           exact_marginal(fg, var), atol=1e-9)

    def test_zero_weights_uniform_one_iteration(self):
        fg = FactorGraph(entities=(0, 1, 2), target_card=2, factors=[
            Factor(u=0, v=1, target_state=1, weight=0.0, kind="learned"),
            Factor(u=1, v=2, target_state=1, weight=0.0, kind="learned"),
        ])
        state = run_bp(fg, BpConfig(damping=0.0))
        assert state.converged
        assert state.iterations == 1
        for msgs in state.mu:
            for m in msgs:
                np.testing.assert_allclose(m, np.full(len(m), 1 / len(m)))

    def test_single_factor_closed_form(self):
        for w in (0.0, math.log(2), 3.0):
            fg = single_factor_graph(w)
            state = run_bp(fg, EXACT_BP)
            expected = (math.exp(w) + 3) / (math.exp(w) + 7)
            assert marginal(fg, state, 0)[1] == pytest.approx(expected, abs=1e-12)

    def test_non_convergence_reported_not_raised(self):
        fg = FactorGraph(entities=(0, 1, 2), target_card=2, factors=[
            Factor(u=0, v=1, target_state=1, weight=3.0, kind="learned"),
            Factor(u=1, v=2, target_state=1, weight=-3.0, kind="learned"),
            Factor(u=0, v=2, target_state=1, weight=2.0, kind="learned"),
        ])
        state = run_bp(fg, BpConfig(max_iters=1, damping=0.5))
        assert not state.converged
        assert state.residual > 0

    def test_messages_normalized_and_positive(self):
        rng = np.random.default_rng(4)
        fg = random_clause_graph(rng, 5)
        state = run_bp(fg, BpConfig())
        for group in (state.nu, state.mu):
            for msgs in group:
                for m in msgs:
                    assert m.sum() == pytest.approx(1.0)
                    assert (m > 0).all()


class TestPropagateAll:
    """The stacked loop against loop_propagate run on each problem alone."""

    def test_random_stacks_match_reference_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            problems = [random_cluster_graph(rng) for _ in range(int(rng.integers(1, 7)))]
            cfg = BpConfig(max_iters=int(rng.integers(1, 60)),
                           damping=float(rng.choice([0.0, 0.5, 0.9])))
            assert_stack_matches_loop(problems, cfg)

    @pytest.mark.parametrize("damping", [0.0, 0.9])
    def test_stacks_with_an_empty_problem(self, damping):
        rng = np.random.default_rng(42)
        for _ in range(10):
            problems = [random_cluster_graph(rng), ({0: 2, TARGET: 3}, []),
                        random_cluster_graph(rng)]
            assert_stack_matches_loop(problems, BpConfig(damping=damping))
            assert_stack_matches_loop(problems, BpConfig(tol=0.0, max_iters=7,
                                                         damping=damping))

    def test_empty_stack(self):
        assert propagate_all([]) == []

    def test_an_iteration_allocates_no_phase_sized_array(self):
        """From the first stop check on, the loop's iterations together
        allocate less than half of one phase's messages, on a stack where
        that half is larger than numpy's 8,192-element iterator buffer."""

        class PeakFromTheFirstCheck:
            """A config that resets the traced peak when the loop first reads
            max_iters and keeps the peak at every later read."""
            damping, tol = 0.5, 0.0
            start = peak = None

            @property
            def max_iters(self):
                if self.start is None:
                    tracemalloc.reset_peak()
                    self.start = tracemalloc.get_traced_memory()[0]
                self.peak = tracemalloc.get_traced_memory()[1] - self.start
                return 20

        rng = np.random.default_rng(44)
        problems = [random_cluster_graph(rng) for _ in range(800)]
        n = sum(sum(c.table.shape) for _, clusters in problems for c in clusters)
        cfg = PeakFromTheFirstCheck()
        tracemalloc.start()
        try:
            runs = propagate_all(problems, cfg)
        finally:
            tracemalloc.stop()
        assert {run[2] for run in runs} == {20}
        assert n > 2 * 8192
        assert cfg.peak < n * 8 // 2, (cfg.peak, n)

    @pytest.mark.parametrize("damping", [0.0, 0.9])
    def test_one_problem_stops_at_max_iters_while_another_converged(self, damping):
        loopy = FactorGraph(entities=(0, 1, 2), target_card=2, factors=[
            Factor(u=0, v=1, target_state=1, weight=3.0, kind="learned"),
            Factor(u=1, v=2, target_state=1, weight=-3.0, kind="learned"),
            Factor(u=0, v=2, target_state=1, weight=2.0, kind="learned")])
        problems = []
        for fg in (single_factor_graph(0.0, target_card=3), loopy,
                   single_factor_graph(-0.5)):
            clusters, _ = _build_clusters(fg)
            problems.append(({v: fg.card(v) for v in fg.variables}, clusters))
        cfg = BpConfig(max_iters=12, damping=damping)
        runs = [loop_propagate(cards, clusters, cfg) for cards, clusters in problems]
        assert [r[2:4] for r in runs[:2]] == [(1, True), (12, False)]
        assert_stack_matches_loop(problems, cfg)
        assert_stack_matches_loop(problems[::-1], cfg)

    def test_the_benchmarks_shape(self, monkeypatch):
        """A CRE set of the fg-learn-eval shape: 12 entities on a path plus
        3 chords, 19 explanations of 6 relations, 8 classes.  Each
        explanation is calibrated as one stack of two problems of 14 or 15
        clusters, and one more names a relation with no learned factor and
        one outside the entities."""
        rng = np.random.default_rng(12)
        nodes = sorted(rng.choice(60, size=12, replace=False).tolist())
        order = rng.permutation(nodes).tolist()
        pool = {tuple(sorted(p)) for p in zip(order, order[1:])}
        while len(pool) < 14:
            pool.add(tuple(sorted(rng.choice(nodes, size=2, replace=False).tolist())))
        pool = sorted(pool)
        expls = [Explanation(target=nodes[0], predicted_class=int(rng.integers(8)),
                             hop_radius=2, relations=tuple(
                                 (pool[i], float(rng.uniform(0.005, 1.0)))
                                 for i in sorted(rng.choice(len(pool), 6, replace=False))))
                 for _ in range(19)]
        s = CreSet(target=nodes[0], class_count=8, explanations=expls,
                   ranks_used=list(range(1, 20)), errors_per_rank=list(range(19, 0, -1)))
        fg = learn_weights(build_factor_graph(s), s)
        unlearned = next((u, v) for u, v in itertools.combinations(nodes, 2)
                         if (u, v) not in pool)
        expls.append(replace(expls[0], relations=expls[0].relations + (
            (unlearned, 0.3), ((nodes[-1], 99), 0.6))))
        clusters, _ = _build_clusters(fg)
        assert len(clusters) == 14
        assert_propagate_matches_loop({v: fg.card(v) for v in fg.variables}, clusters,
                                      BpConfig())
        calls = []

        def recording(problems, cfg=None):
            calls.append((problems, cfg))
            return propagate_all(problems, cfg)

        monkeypatch.setattr(factorgraph, "propagate_all", recording)
        for e in expls:
            calls.clear()
            report = quantify_uncertainty(fg, e)
            assert_stack_matches_loop(*calls[0])
            assert [r.delta for r in report.entries] == reference_deltas(fg, e)
        assert report.skipped == [(nodes[-1], 99)]
        assert [r.edge for r in report.entries][-1] == unlearned

    @pytest.mark.parametrize("target_card", [2, 8])
    def test_quantify_uncertainty_stacks_pre_and_post(self, monkeypatch, target_card):
        rng = np.random.default_rng(43 + target_card)
        calls = []

        def recording(problems, cfg=None):
            calls.append((problems, cfg))
            return propagate_all(problems, cfg)

        monkeypatch.setattr(factorgraph, "propagate_all", recording)
        for trial in range(12):
            fg = random_factor_graph(rng, int(rng.integers(2, 7)), target_card,
                                     int(rng.integers(1, 12)),
                                     TIE_WEIGHTS if trial % 2 else None)
            relations = sorted({f.relation for f in fg.factors if f.u != f.v})
            if not relations:
                continue
            e = Explanation(target=0, predicted_class=int(rng.integers(target_card)),
                            hop_radius=2,
                            relations=tuple((r, float(rng.uniform(0.05, 1.0)))
                                            for r in relations))
            calls.clear()
            report = quantify_uncertainty(fg, e)
            assert len(calls) == 1
            problems, cfg = calls[0]
            assert len(problems) == 2
            assert_stack_matches_loop(problems, cfg)
            assert report.converged == all(loop_propagate(cards, clusters, cfg)[3]
                                           for cards, clusters in problems)


class TestLoopyDiagnostic:
    def test_kl_reported_on_loopy_graphs(self):
        # clause graphs with >= 2 factors are loopy (every clause shares the
        # target variable); report KL(belief || exact) as a diagnostic --
        # loopy BP is approximate, so there is no hard bound
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(6):
            fg = random_clause_graph(rng, int(rng.integers(3, 7)))
            state = run_bp(fg, BpConfig(max_iters=500, tol=1e-10, damping=0.5))
            for var in fg.variables:
                belief = marginal(fg, state, var)
                exact = exact_marginal(fg, var)
                kl = float(np.sum(belief * np.log(belief / np.maximum(exact, 1e-300))))
                worst = max(worst, kl)
        print(f"loopy BP diagnostic: worst marginal KL(belief || exact) = {worst:.3e}")
        assert np.isfinite(worst)


class TestMarginal:
    def test_variable_with_no_factors_uniform(self):
        fg = FactorGraph(entities=(0, 1, 2), target_card=2, factors=[
            Factor(u=0, v=1, target_state=1, weight=1.0, kind="learned")])
        state = run_bp(fg, EXACT_BP)
        np.testing.assert_allclose(marginal(fg, state, 2), [0.5, 0.5])

    def test_unknown_variable(self):
        fg = single_factor_graph(1.0)
        state = run_bp(fg, EXACT_BP)
        with pytest.raises(KeyError):
            marginal(fg, state, 17)


class TestJointDistribution:
    def test_zero_weight_uniform_eighth(self):
        fg = single_factor_graph(0.0)
        state = run_bp(fg, EXACT_BP)
        table = joint_distribution(fg, state, 0)
        np.testing.assert_allclose(table, np.full((2, 2, 2), 1 / 8), atol=1e-12)

    def test_single_factor_ln2(self):
        fg = single_factor_graph(math.log(2))
        state = run_bp(fg, EXACT_BP)
        table = joint_distribution(fg, state, 0)
        assert table[1, 1, 1] == pytest.approx(2 / 9, abs=1e-12)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[1, 1, 1] = False
        np.testing.assert_allclose(table[mask], 1 / 9, atol=1e-12)

    def test_tree_cluster_beliefs_match_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cards, clusters = random_tree_clusters(rng)
            nu, mu, _, converged, _ = propagate(cards, clusters, EXACT_BP)
            assert converged
            _, beliefs = enumerate_clusters(cards, clusters)
            for cid, c in enumerate(clusters):
                table = c.table.copy()
                for slot, m in enumerate(nu[cid]):
                    shape = [1] * table.ndim
                    shape[slot] = m.shape[0]
                    table = table * m.reshape(shape)
                np.testing.assert_allclose(table / table.sum(), beliefs[cid],
                                           atol=1e-9)

    def test_every_factor_reads_its_cluster_loop(self):
        rng = np.random.default_rng(19)
        for target_card in (2, 3, 8):
            fg = random_factor_graph(rng, 5, target_card, 9)
            ms = run_bp(fg)
            for fid in range(len(fg.factors)):
                assert np.array_equal(joint_distribution(fg, ms, fid),
                                      loop_scope_belief(ms, fid)), fid

    def test_unknown_factor(self):
        fg = single_factor_graph(1.0)
        state = run_bp(fg, EXACT_BP)
        with pytest.raises(KeyError):
            joint_distribution(fg, state, 5)


class TestQuantifyUncertainty:
    def test_single_factor_enumeration_oracle(self):
        w = math.log(2)
        gc = 0.69
        fg = single_factor_graph(w)
        e = Explanation(target=0, predicted_class=1,
                        relations=(((0, 1), gc),), hop_radius=2)
        report = quantify_uncertainty(fg, e, EXACT_BP)
        # enumeration of both normalized distributions over 2^3 assignments
        p = math.exp(w) / (math.exp(w) + 7)
        p_hat = (math.exp(w) * gc) / (math.exp(w) * gc + 7)
        assert report.entries[0].delta == pytest.approx(p - p_hat, abs=1e-9)
        assert report.converged

    def test_confidence_one_gives_zero_delta(self):
        fg = single_factor_graph(1.2)
        e = Explanation(target=0, predicted_class=1,
                        relations=(((0, 1), 1.0),), hop_radius=2)
        report = quantify_uncertainty(fg, e, EXACT_BP)
        assert report.entries[0].delta == pytest.approx(0.0, abs=1e-12)
        assert report.entries[0].neg_log_delta > 20 or math.isinf(
            report.entries[0].neg_log_delta)

    def test_doubt_injection_never_raises_belief_exact(self):
        # GC in (0, 1) scales one potential entry down, which can only
        # shrink the satisfying assignment's share of the exact joint
        rng = np.random.default_rng(6)
        for _ in range(10):
            fg = random_clause_graph(rng, int(rng.integers(2, 5)))
            rel = fg.factors[0].relation
            gc = float(rng.uniform(0.05, 0.95))
            fid = 0
            before = exact_factor_joint(fg, fid)[1, 1, 1]
            injected = FactorGraph(
                entities=fg.entities, target_card=2,
                factors=fg.factors + [Factor(u=rel[0], v=rel[1], target_state=1,
                                             weight=math.log(gc), kind="injected")])
            after = exact_factor_joint(injected, fid)[1, 1, 1]
            assert after <= before + 1e-12

    def test_doubt_injection_never_raises_belief_bp(self):
        # single-cluster graphs: message passing is exact, property holds
        rng = np.random.default_rng(7)
        for _ in range(8):
            fg = single_factor_graph(float(rng.uniform(-2, 2)))
            gc = float(rng.uniform(0.05, 0.95))
            e = Explanation(target=0, predicted_class=1,
                            relations=(((0, 1), gc),), hop_radius=2)
            report = quantify_uncertainty(fg, e, EXACT_BP)
            assert report.entries[0].delta >= -1e-12

    def test_positive_weight_injection_amplifies(self):
        # adding a positive-weight factor never lowers the satisfying belief
        for w_inject in (0.3, 1.0, 2.5):
            fg = single_factor_graph(0.8)
            fg2 = FactorGraph(entities=fg.entities, target_card=2,
                              factors=fg.factors + [
                                  Factor(u=0, v=1, target_state=1,
                                         weight=w_inject, kind="injected")])
            s1 = run_bp(fg, EXACT_BP)
            s2 = run_bp(fg2, EXACT_BP)
            before = joint_distribution(fg, s1, 0)[1, 1, 1]
            after = joint_distribution(fg2, s2, 0)[1, 1, 1]
            assert after >= before - 1e-12

    def test_report_contains_only_known_relations(self):
        fg = single_factor_graph(0.5)
        e = Explanation(target=0, predicted_class=1,
                        relations=(((0, 1), 0.8), ((5, 6), 0.9)), hop_radius=2)
        report = quantify_uncertainty(fg, e, EXACT_BP)
        assert [r.edge for r in report.entries] == [(0, 1)]
        assert report.skipped == [(5, 6)]

    def test_relation_without_learned_factor_uses_injected_scope(self):
        fg = FactorGraph(entities=(0, 1, 2), target_card=2, factors=[
            Factor(u=0, v=1, target_state=1, weight=1.0, kind="learned")])
        e = Explanation(target=0, predicted_class=1,
                        relations=(((1, 2), 0.5),), hop_radius=2)
        report = quantify_uncertainty(fg, e, EXACT_BP)
        assert [r.edge for r in report.entries] == [(1, 2)]
        assert report.entries[0].delta > 0

    def test_fg_unchanged(self):
        rng = np.random.default_rng(44)
        fg = random_factor_graph(rng, 5, 3, 9)
        before = factorgraph_to_dict(fg)
        originals = list(fg.factors)
        e = Explanation(target=0, predicted_class=2, hop_radius=2,
                        relations=(((0, 1), 0.4), ((2, 4), 0.7), ((3, 9), 0.5)))
        report = quantify_uncertainty(fg, e)
        assert factorgraph_to_dict(fg) == before
        assert len(fg.factors) == len(originals)
        assert all(a is b for a, b in zip(fg.factors, originals))
        assert [r.edge for r in report.entries] == [(0, 1), (2, 4)]
        assert report.skipped == [(3, 9)]

    @pytest.mark.parametrize("target_card", [2, 3, 8])
    def test_full_confidence_moves_nothing_exactly(self, target_card):
        rng = np.random.default_rng(45 + target_card)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            fg = random_factor_graph(rng, n, target_card, int(rng.integers(1, 12)),
                                     TIE_WEIGHTS if trial % 2 else None)
            e = Explanation(target=0, predicted_class=int(rng.integers(target_card)),
                            hop_radius=2,
                            relations=tuple(((u, v), 1.0) for u, v in
                                            itertools.combinations(range(n), 2)))
            report = quantify_uncertainty(fg, e)
            assert len(report.entries) == n * (n - 1) // 2
            assert all(r.delta == 0.0 for r in report.entries)

    def test_confidence_below_floor_scores_as_floor(self):
        rng = np.random.default_rng(46)
        for target_card in (2, 8):
            fg = random_factor_graph(rng, 5, target_card, 10)
            relations = ((0, 1), (1, 3), (2, 4))
            reports = [quantify_uncertainty(fg, Explanation(
                target=0, predicted_class=1, hop_radius=2,
                relations=tuple((r, gc) for r in relations))) for gc in (1e-12, 1e-9)]
            assert [(r.edge, r.delta) for r in reports[0].entries] == \
                   [(r.edge, r.delta) for r in reports[1].entries]
            assert reports[0].entries[0].delta != 0.0

    @pytest.mark.parametrize("cls", [3, -1])
    def test_class_outside_target_states_raises(self, cls):
        fg = single_factor_graph(0.5, target_card=3)
        e = Explanation(target=0, predicted_class=cls,
                        relations=(((0, 1), 0.5),), hop_radius=2)
        with pytest.raises(ValueError, match="outside 0..2"):
            quantify_uncertainty(fg, e)

    def test_ranking_by_neg_log_descending(self):
        fg = FactorGraph(entities=(0, 1, 2), target_card=2, factors=[
            Factor(u=0, v=1, target_state=1, weight=1.0, kind="learned"),
            Factor(u=1, v=2, target_state=1, weight=1.0, kind="learned")])
        e = Explanation(target=0, predicted_class=1,
                        relations=(((0, 1), 0.3), ((1, 2), 0.95)), hop_radius=2)
        report = quantify_uncertainty(fg, e, EXACT_BP)
        ranking = report.ranking()
        assert [edge for edge, _ in ranking] == [(1, 2), (0, 1)]
        scores = [s for _, s in ranking]
        assert scores[0] >= scores[1]


class TestMulticlass:
    def test_parallel_class_tables(self):
        s = make_creset([[(0, 1)], [(0, 1)]], gcs={(0, 1): 0.9}, class_count=3)
        fg = build_factor_graph(s)
        fg = learn_weights(fg, s, learning_rate=0.0, epochs=0)
        e = Explanation(target=0, predicted_class=2,
                        relations=(((0, 1), 0.5),), hop_radius=2)
        report = quantify_uncertainty(fg, e, EXACT_BP)
        assert len(report.entries) == 1
        # injected doubt at class 2 lowers the mean satisfying belief
        assert report.entries[0].delta > 0

    def test_deltas_match_per_factor_beliefs(self):
        # reference: each parallel class factor reads its own scope belief
        rng = np.random.default_rng(9)
        pool = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        expls = [[pool[i] for i in sorted(rng.choice(5, 3, replace=False))]
                 for _ in range(6)]
        s = make_creset(expls, gcs={r: float(rng.uniform(0.05, 0.99)) for r in pool},
                        class_count=8)
        fg = learn_weights(build_factor_graph(s), s)
        e = Explanation(target=0, predicted_class=5, hop_radius=2,
                        relations=(((0, 1), 0.3), ((1, 2), 0.9), ((2, 4), 0.5)))
        report = quantify_uncertainty(fg, e)
        assert [r.delta for r in report.entries] == reference_deltas(fg, e)
        assert [r.edge for r in report.entries] == [(0, 1), (1, 2)]
        assert report.skipped == [(2, 4)]

    def test_deltas_match_with_injected_factors_in_the_graph(self):
        # a loaded factor graph may hold injected-kind factors: one beside
        # a relation's learned factors, one alone on a scope
        s = make_creset([[(0, 1), (1, 2)], [(1, 2), (2, 3)], [(0, 1)]],
                        gcs={(0, 1): 0.7, (1, 2): 0.2, (2, 3): 0.95}, class_count=4)
        learned = learn_weights(build_factor_graph(s), s)
        fg = FactorGraph(entities=learned.entities, target_card=4, factors=[
            *learned.factors,
            Factor(u=1, v=2, target_state=3, weight=-0.7, kind="injected"),
            Factor(u=0, v=3, target_state=1, weight=1.3, kind="injected")])
        e = Explanation(target=0, predicted_class=2, hop_radius=2,
                        relations=(((0, 3), 0.1), ((1, 2), 0.6), ((1, 3), 0.4),
                                   ((0, 1), 1e-12), ((3, 7), 0.5)))
        report = quantify_uncertainty(fg, e)
        assert [r.delta for r in report.entries] == reference_deltas(fg, e)
        assert [r.edge for r in report.entries] == [(0, 3), (1, 2), (1, 3), (0, 1)]
        assert report.skipped == [(3, 7)]

    @pytest.mark.parametrize("target_card", [2, 8])
    def test_deltas_match_on_random_graphs(self, target_card):
        rng = np.random.default_rng(47 + target_card)
        for trial in range(12):
            n = int(rng.integers(2, 7))
            fg = random_factor_graph(rng, n, target_card, int(rng.integers(1, 12)),
                                     TIE_WEIGHTS if trial % 2 else None)
            pairs = list(itertools.combinations(range(n + 1), 2))
            picks = rng.choice(len(pairs), size=min(len(pairs), 4), replace=False)
            e = Explanation(target=0, predicted_class=int(rng.integers(target_card)),
                            hop_radius=2,
                            relations=tuple((pairs[i], float(rng.uniform(0.0, 1.0)))
                                            for i in picks))
            report = quantify_uncertainty(fg, e)
            assert [r.delta for r in report.entries] == reference_deltas(fg, e)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        s = make_creset([[(0, 1), (1, 2)]], class_count=3)
        fg = build_factor_graph(s)
        fg = learn_weights(fg, s, learning_rate=0.05, epochs=3)
        blob = factorgraph_to_dict(fg)
        fg2 = factorgraph_from_dict(blob)
        assert fg2.entities == fg.entities
        assert fg2.target_card == fg.target_card
        assert len(fg2.factors) == len(fg.factors)
        for a, b in zip(fg.factors, fg2.factors):
            assert (a.u, a.v, a.target_state, a.weight, a.kind) == \
                   (b.u, b.v, b.target_state, b.weight, b.kind)

    def test_clipped_weights_load(self):
        """The loader's weight bound is the learning clip: weights learned
        up to the clip load back."""
        s = make_creset([[(0, 1)], [], [], [], [], [], [], []],
                        gcs={(0, 1): 0.5})
        fg = learn_weights(build_factor_graph(s), s, learning_rate=50.0, epochs=1)
        assert [f.weight for f in fg.factors] == [-factorgraph.WEIGHT_BOUND]
        fg2 = factorgraph_from_dict(factorgraph_to_dict(fg))
        assert [f.weight for f in fg2.factors] == [-factorgraph.WEIGHT_BOUND]

    def test_report_csv(self, tmp_path):
        fg = single_factor_graph(math.log(2))
        e = Explanation(target=0, predicted_class=1,
                        relations=(((0, 1), 0.69),), hop_radius=2)
        report = quantify_uncertainty(fg, e, EXACT_BP)
        out = tmp_path / "report.csv"
        report_to_csv(report, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "u,v,gc,delta,neg_log_delta,converged"
        assert lines[1].startswith("0,1,0.69,")
