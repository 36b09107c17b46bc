import itertools

import numpy as np
import pytest

import relex.boolfact
from relex.boolfact import (CreGenerationFailed, CreSet, EmptyCreSet,
                            RankSearchConfig, bmf_factorize, boolean_error,
                            boolean_product, creset_from_dict, creset_to_dict,
                            generate_cre_sets, generate_cres, rank_ladder)
from relex.explainer import ExplainConfig, Explanation
from relex.gcn import TrainConfig, train_gcn
from relex.graphs import NodeSplit, adjacency, make_graph, split_nodes
from relex.pipeline import GENERATORS, DatasetSpec, eligible_targets


def exhaustive_bmf_error(p: np.ndarray, k: int) -> int:
    """Independent oracle: minimum rank-k Boolean factorization error.

    Enumerates every union of k rectangles (row-subset x col-subset outer
    products).  Feasible for k <= 2 on matrices up to 6x6.
    """
    p = np.asarray(p, dtype=bool)
    n, m = p.shape
    rows = np.array(list(itertools.product([False, True], repeat=n)))
    cols = np.array(list(itertools.product([False, True], repeat=m)))
    rects = (rows[:, None, :, None] & cols[None, :, None, :]).reshape(-1, n * m)
    rects = np.unique(rects, axis=0)
    flat = p.reshape(-1)
    if k == 1:
        return int((rects ^ flat).sum(axis=1).min())
    if k == 2:
        best = n * m + 1
        chunk = 256
        for i in range(0, len(rects), chunk):
            union = rects[i:i + chunk, None, :] | rects[None, :, :]
            errs = (union ^ flat).sum(axis=2)
            best = min(best, int(errs.min()))
        return best
    raise ValueError("oracle supports k in {1, 2} only")


def blockdiag_j2() -> np.ndarray:
    p = np.zeros((4, 4), dtype=np.int8)
    p[:2, :2] = 1
    p[2:, 2:] = 1
    return p


class TestBooleanProduct:
    def test_rank_one_outer_product(self):
        q = np.array([[1], [1]])
        r = np.array([[1, 0]])
        np.testing.assert_array_equal(boolean_product(q, r), [[1, 0], [1, 0]])

    def test_identity_left(self):
        r = np.array([[1, 0, 1], [0, 1, 1]])
        np.testing.assert_array_equal(boolean_product(np.eye(2, dtype=int), r), r)

    def test_or_of_ands_cellwise(self):
        q = np.array([[1, 0], [1, 1]])
        r = np.array([[1, 0], [0, 1]])
        expected = np.zeros((2, 2), dtype=int)
        for i in range(2):
            for j in range(2):
                expected[i, j] = max(q[i, l] & r[l, j] for l in range(2))
        np.testing.assert_array_equal(boolean_product(q, r), expected)
        np.testing.assert_array_equal(expected, [[1, 0], [1, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            boolean_product(np.ones((2, 3), dtype=int), np.ones((2, 2), dtype=int))


class TestBooleanError:
    def test_equal_matrices(self):
        p = np.eye(3, dtype=int)
        assert boolean_error(p, p) == 0

    def test_all_ones_vs_all_zeros(self):
        assert boolean_error(np.ones((2, 2), dtype=int),
                             np.zeros((2, 2), dtype=int)) == 4

    def test_single_flip(self):
        p = np.array([[1, 0], [0, 1]])
        p_hat = np.array([[1, 1], [0, 1]])
        assert boolean_error(p, p_hat) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            boolean_error(np.ones((2, 2), dtype=int), np.ones((3, 3), dtype=int))


class TestBmfFactorize:
    def test_all_ones_rank_one_exact(self):
        p = np.ones((3, 3), dtype=np.int8)
        f = bmf_factorize(p, 1)
        assert f.error == 0
        np.testing.assert_array_equal(f.reconstruction, p)

    def test_blockdiag_rank_two_exact(self):
        f = bmf_factorize(blockdiag_j2(), 2)
        assert f.error == 0

    def test_blockdiag_rank_one_near_oracle(self):
        p = blockdiag_j2()
        oracle = exhaustive_bmf_error(p, 1)
        assert oracle == 4
        f = bmf_factorize(p, 1)
        assert f.error <= oracle + 4  # documented heuristic slack

    def test_error_field_consistent_with_parts(self):
        p = blockdiag_j2()
        f = bmf_factorize(p, 2)
        assert f.error == boolean_error(p, boolean_product(f.q, f.r))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        p = (rng.random((5, 5)) < 0.5).astype(np.int8)
        f1 = bmf_factorize(p, 2)
        f2 = bmf_factorize(p, 2)
        np.testing.assert_array_equal(f1.q, f2.q)
        np.testing.assert_array_equal(f1.r, f2.r)
        assert f1.error == f2.error

    def test_full_rank_exact(self):
        rng = np.random.default_rng(2)
        p = (rng.random((5, 5)) < 0.4).astype(np.int8)
        f = bmf_factorize(p, 5)
        assert f.error == 0

    def test_solver_within_oracle_slack_5x5(self):
        rng = np.random.default_rng(11)
        for trial in range(4):
            p = (rng.random((5, 5)) < 0.45).astype(np.int8)
            slack = int(p.size * 0.25)
            for k in (1, 2):
                oracle = exhaustive_bmf_error(p, k)
                f = bmf_factorize(p, k)
                assert f.error <= oracle + slack, (trial, k, f.error, oracle)

    def test_each_rank_adds_the_best_materialised_block(self):
        """Reference loop for the walk's matrix-product gains: every
        candidate block is built cell by cell and scored on what it newly
        covers, including the diagonal cells of a symmetric P."""
        rng = np.random.default_rng(4)
        for trial in range(6):
            p = (rng.random((6, 6)) < 0.5).astype(np.int8)
            if trial % 2:
                p = p | p.T
            symmetric = bool((p == p.T).all())
            prev = None
            for k, fact in zip(range(1, 7), relex.boolfact._walk(p)):
                assert fact.rank == k
                covered = (np.zeros_like(p) if prev is None
                           else prev.reconstruction).astype(bool)
                residual = p.astype(bool) & ~covered
                best = 0
                for basis in list(p.astype(bool)) + list(residual):
                    usage = np.array([bool(np.all(row[basis])) for row in p.astype(bool)])
                    block = np.outer(usage, basis)
                    if symmetric:
                        block |= block.T
                    assert not (block & ~p.astype(bool)).any()
                    best = max(best, int((block & residual).sum()))
                before = int(p.sum()) if prev is None else prev.error
                assert before - fact.error == best, (trial, k)
                prev = fact

    def test_float_gains_equal_integer_gains(self):
        """The float64 gains equal the gains as int64 products, and the
        chosen block is the first int64 argmax, on random symmetric and
        asymmetric matrices along their walks.  Distinct blocks tie at the
        top gain on both kinds, so a tie broken elsewhere changes a
        choice."""
        rng = np.random.default_rng(11)
        ties = set()
        for trial in range(12):
            n = int(rng.integers(4, 40))
            p = (rng.random((n, n)) < rng.uniform(0.1, 0.6)).astype(np.int8)
            if trial % 2:
                p = p | p.T
            symmetric = bool((p == p.T).all())
            covered = np.zeros(p.shape, dtype=bool)
            own = relex.boolfact._own_usages(p)
            for _ in range(4):
                residual = p & ~covered
                bases = np.vstack([p, residual]).astype(np.int64)
                usages = (bases @ p.T == bases.sum(axis=1, keepdims=True)).astype(np.int64)
                want = ((usages @ residual) * bases).sum(axis=1)
                if symmetric:
                    shared = usages * bases
                    want = 2 * want - ((shared @ residual) * shared).sum(axis=1)
                gain, _, _ = relex.boolfact._block_gains(p, own, residual, symmetric)
                assert gain.dtype == np.float64 and (gain == want).all()
                top = np.flatnonzero(want == want.max())
                if len({bases[i].tobytes() for i in top}) > 1:
                    ties.add(symmetric)
                usage, basis = relex.boolfact._best_block(p, own, residual, symmetric)
                # copies, not views that would keep the (2n, n) candidates alive
                assert usage.base is None and basis.base is None
                best = int(np.argmax(want))
                assert (usage == usages[best]).all() and (basis == bases[best]).all()
                block = np.outer(usage, basis) > 0
                covered |= (block | block.T) if symmetric else block
        assert ties == {False, True}

    def test_oracle_monotone_in_k(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            p = (rng.random((5, 5)) < 0.5).astype(np.int8)
            assert exhaustive_bmf_error(p, 2) <= exhaustive_bmf_error(p, 1)

    def test_solver_at_n_beats_n_minus_one(self):
        rng = np.random.default_rng(9)
        p = (rng.random((6, 6)) < 0.4).astype(np.int8)
        f_n = bmf_factorize(p, 6)
        f_n1 = bmf_factorize(p, 5)
        assert f_n.error <= f_n1.error
        assert f_n.error == 0  # the walk covers this P exactly by k = n


class TestSymmetryProxy:
    def test_low_rank_collapses_columns(self):
        # low-rank reconstructions of the benchmark adjacency repeat columns
        from relex.datasets import generate_ba_shapes
        g = generate_ba_shapes(8, 1, seed=0)
        p = adjacency(g)
        distinct_p = np.unique(p, axis=1).shape[1]
        for k in (2, 3):
            f = bmf_factorize(p, k)
            distinct_hat = np.unique(f.reconstruction, axis=1).shape[1]
            assert distinct_hat <= distinct_p


def k33_plus_pendant():
    """Complete bipartite K33 plus one pendant edge; Boolean structure is
    two rectangles with the pendant needing a third."""
    edges = [(a, b) for a in range(3) for b in range(3, 6)] + [(0, 6)]
    feats = np.zeros((7, 2))
    feats[:3] = [1.0, 0.0]
    feats[3:6] = [0.0, 1.0]
    feats[6] = [0.5, 0.5]
    labels = [0, 0, 0, 1, 1, 1, 0]
    return make_graph(7, edges, features=feats, labels=labels)


@pytest.fixture(scope="module")
def pendant_setup():
    g = k33_plus_pendant()
    split = NodeSplit(train=tuple(range(7)), validation=(), test=())
    model = train_gcn(g, split, TrainConfig(hidden_dim=6, max_epochs=300,
                                            seed=0, restarts=1))
    return g, model


def explained_rank_one_error(g) -> int:
    """Independent oracle: the least error of a graph that generate_cres
    could explain at rank 1, over every (u, b) pair of 0/1 vectors.

    The explained graph of the block u·bᵀ is the union u·bᵀ | b·uᵀ
    without its diagonal.  Feasible up to 7 nodes.
    """
    p = adjacency(g).astype(bool)
    n = g.node_count
    vecs = np.array(list(itertools.product([False, True], repeat=n)))
    block = vecs[:, None, :, None] & vecs[None, :, None, :]
    explained = (block | block.swapaxes(2, 3)) & ~np.eye(n, dtype=bool)
    return int((explained ^ p).sum(axis=(2, 3)).min())


def two_stars():
    """A 3-leaf star and a 2-leaf star: one block covers only one of them."""
    edges = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)]
    return make_graph(7, edges, features=np.eye(7)[:, :2], labels=[0] * 7)


class TestRankLadder:
    def test_start_rank_skips_infeasible_rank_one(self):
        g = two_stars()
        start_err = 0.25 * g.edge_count
        assert explained_rank_one_error(g) >= start_err  # rank 1 is infeasible
        ladder = rank_ladder(adjacency(g), g.edge_count, RankSearchConfig())
        assert ladder[0].rank == 2
        assert ladder[0].error < start_err

    def test_start_rank_matches_explained_graph_oracle(self, pendant_setup):
        g, _ = pendant_setup
        # one symmetric block covers K33 and leaves only the pendant:
        # error 2 < 2.5, so the smallest feasible rank is 1
        oracle_error = explained_rank_one_error(g)
        assert oracle_error == 2 < 0.25 * g.edge_count
        ladder = rank_ladder(adjacency(g), g.edge_count, RankSearchConfig())
        assert ladder[0].rank == 1
        assert ladder[0].error == oracle_error

    def test_max_rank_zero_fails(self, pendant_setup):
        g, _ = pendant_setup
        with pytest.raises(ValueError, match="max_rank"):
            rank_ladder(adjacency(g), g.edge_count,
                        RankSearchConfig(max_rank=0))

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_error_does_not_increase_with_rank(self, kind):
        g = DatasetSpec(kind=kind).build(1)
        ladder = rank_ladder(adjacency(g), g.edge_count,
                             RankSearchConfig(stop_fraction=0.01))
        ranks = [f.rank for f in ladder]
        assert ranks == list(range(ranks[0], ranks[0] + len(ranks)))
        errors = [f.error for f in ladder]
        assert all(b <= a for a, b in zip(errors, errors[1:])), errors

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_every_rung_is_the_walks_rank(self, kind):
        """Every rung's error is the XOR count of its Boolean product, and
        the rung equals bmf_factorize at its rank bit for bit, however the
        walk reaches it.  Seeds 0-3."""
        for seed in range(4):
            g = DatasetSpec(kind=kind).build(seed)
            p = adjacency(g)
            ladder = rank_ladder(p, g.edge_count, RankSearchConfig(stop_fraction=0.01))
            for rung in ladder:
                assert rung.error == boolean_error(p, boolean_product(rung.q, rung.r))
                fresh = bmf_factorize(p, rung.rank)
                assert (fresh.rank, fresh.error) == (rung.rank, rung.error)
                for a, b in ((fresh.q, rung.q), (fresh.r, rung.r)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_error_is_that_of_the_explained_graph(self, kind, monkeypatch):
        """generate_cre_sets explains each rank on the graph of its dense
        reconstruction, symmetrized, without its diagonal; the rank's error
        counts each input edge the reconstruction leaves out twice, and the
        rank is skipped exactly when its error is 0.  Seeds 0-3."""
        explained = []

        def record(model, problems):
            explained.extend(graph for graph, _, _ in problems)
            return [None] * len(problems)

        monkeypatch.setattr(relex.boolfact, "explain_all", record)
        for seed in range(4):
            g = DatasetSpec(kind=kind).build(seed)
            p = adjacency(g)
            # every rank of the walk up to the first with error 0, which
            # holds the ranks of any ladder
            walk = []
            for fact in itertools.islice(relex.boolfact._walk(p), 256):
                walk.append(fact)
                if not fact.error:
                    break
            explained.clear()
            generate_cre_sets(g, None, [(0, ExplainConfig())], RankSearchConfig(), walk)
            graphs = iter(explained)
            for fact in walk:
                dense = fact.reconstruction
                edges = {tuple(e) for e in np.argwhere(np.triu(dense | dense.T, k=1)).tolist()}
                uncovered = g.edges - edges
                assert fact.error == boolean_error(p, dense) == 2 * len(uncovered), fact.rank
                if fact.error:
                    assert next(graphs).edges == edges, (seed, fact.rank)
            assert next(graphs, None) is None, seed
            assert walk[-1].error == 0

    def test_no_worse_than_the_penalty_solver_on_ba_shapes(self):
        # the explained-graph errors of the former penalty solver's
        # factorizations at ranks 33-36 of ba-shapes(25, 5), seed 1
        g = DatasetSpec(kind="ba-shapes").build(1)
        before = {33: 24, 34: 22, 35: 20, 36: 26}
        for rank, fact in zip(range(1, 37), relex.boolfact._walk(adjacency(g))):
            if rank in before:
                assert fact.error <= before[rank], rank

    def test_unreachable_start_fails(self):
        rng = np.random.default_rng(0)
        p = (rng.random((8, 8)) < 0.5).astype(np.int8)
        p = np.triu(p, 1)
        p = p | p.T
        edge_count = int(p.sum()) // 2
        with pytest.raises(CreGenerationFailed):
            rank_ladder(p, edge_count, RankSearchConfig(max_rank=1))


class TestGenerateCres:
    def test_pendant_graph_trace(self, pendant_setup):
        g, model = pendant_setup
        s = generate_cres(g, model, 1, ExplainConfig(mask_steps=60, seed=0),
                          RankSearchConfig())
        assert s.ranks_used[0] == 1  # the oracle's start rank, as above
        assert len(s.explanations) >= 1
        # every accepted reconstruction differs from the original graph
        for expl, rank, err in zip(s.explanations, s.ranks_used, s.errors_per_rank):
            assert err > 0
        assert s.relations == sorted({r for ex in s.explanations for r in ex.edges()})

    def test_identical_reconstruction_skipped(self, pendant_setup):
        _, model = pendant_setup
        # pure K33 reconstructs exactly at rank 1: identical -> no CRE
        edges = [(a, b) for a in range(3) for b in range(3, 6)]
        feats = np.zeros((6, 2))
        feats[:3] = [1.0, 0.0]
        feats[3:] = [0.0, 1.0]
        g = make_graph(6, edges, features=feats, labels=[0, 0, 0, 1, 1, 1])
        with pytest.raises(EmptyCreSet):
            generate_cres(g, model, 1, ExplainConfig(mask_steps=30, seed=0),
                          RankSearchConfig())

    def test_max_rank_zero_degenerate(self, pendant_setup):
        g, model = pendant_setup
        with pytest.raises(ValueError, match="max_rank"):
            generate_cres(g, model, 1, ExplainConfig(mask_steps=10, seed=0),
                          RankSearchConfig(max_rank=0))

    def test_all_explanations_share_target(self, pendant_setup):
        g, model = pendant_setup
        s = generate_cres(g, model, 1, ExplainConfig(mask_steps=60, seed=0),
                          RankSearchConfig())
        assert all(e.target == 1 for e in s.explanations)


class TestGenerateCreSets:
    """Many targets in one call against generate_cres one target at a time."""

    @staticmethod
    def check(g, model, targets, rcfg, ladder=None):
        """generate_cre_sets equals generate_cres on every target, its
        EmptyCreSet included; returns the targets that got none."""
        problems = [(t, ExplainConfig(mask_steps=60, seed=t)) for t in targets]
        empty = []
        for (t, ecfg), got in zip(problems,
                                  generate_cre_sets(g, model, problems, rcfg, ladder)):
            try:
                want = generate_cres(g, model, t, ecfg, rcfg, ladder)
            except EmptyCreSet as exc:
                assert isinstance(got, EmptyCreSet) and str(got) == str(exc), t
                empty.append(t)
                continue
            assert got == want, t
        return empty

    def test_a_target_with_no_counterfactual(self, pendant_setup):
        g, model = pendant_setup
        # node 7 has no edges, so no reconstruction gives it a computation
        # subgraph; every accepted rank drops the pendant edge (0, 6)
        lone = make_graph(8, g.edges, features=np.vstack([g.features, [[0.5, 0.5]]]),
                          labels=[*g.labels, 0])
        assert self.check(lone, model, range(8), RankSearchConfig()) == [6, 7]

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_generator_targets_on_a_shared_ladder(self, kind):
        g = DatasetSpec(kind, base_nodes=12, motif_count=3, height=3).build(4)
        model = train_gcn(g, split_nodes(g, 4), TrainConfig(hidden_dim=8, max_epochs=100,
                                                            seed=4, restarts=1))
        rcfg = RankSearchConfig(stop_fraction=0.1)
        ladder = rank_ladder(adjacency(g), g.edge_count, rcfg)
        self.check(g, model, eligible_targets(g, True)[::2], rcfg, ladder)


class TestCreSetSerialization:
    def test_roundtrip(self):
        e1 = Explanation(target=2, predicted_class=1,
                         relations=(((0, 2), 0.8), ((1, 2), 0.4)), hop_radius=2)
        e2 = Explanation(target=2, predicted_class=1,
                         relations=(((1, 2), 0.6),), hop_radius=2)
        s = CreSet(target=2, class_count=2, explanations=[e1, e2],
                   ranks_used=[3, 4], errors_per_rank=[5, 2])
        blob = creset_to_dict(s)
        s2 = creset_from_dict(blob)
        assert s2.target == 2
        assert s2.explanations == [e1, e2]
        assert s2.ranks_used == [3, 4]
        assert s2.relations == s.relations == [(0, 2), (1, 2)]

    def test_relation_index_covers_union(self):
        e1 = Explanation(target=0, predicted_class=0,
                         relations=(((0, 1), 0.5),), hop_radius=2)
        s = CreSet(target=0, class_count=2, explanations=[e1],
                   ranks_used=[2], errors_per_rank=[1])
        assert s.relations == [(0, 1)]
