import json
import math

import pytest

from relex.boolfact import CreSet, RankSearchConfig
from relex.bp import BpConfig
from relex.explainer import ExplainConfig, Explanation
from relex.factorgraph import (RelationUncertainty, UncertaintyReport, build_factor_graph,
                               learn_weights)
from relex.gcn import TrainConfig
from relex.graphs import make_graph, remove_edges
from relex.pipeline import (DatasetSpec, PipelineConfig, VerificationBundle,
                            bundle_from_dict, derived_seed, edge_count_warnings,
                            eligible_targets, emit_report, seeded,
                            select_removal_edges)


def triangle_plus():
    return make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)],
                      labels=[0, 1, 0, 1], class_count=2)


class TestSelectRemovalEdges:
    def test_top1_selection(self):
        rankings = {7: [((0, 1), 0.4), ((1, 2), 0.9)]}
        assert select_removal_edges(rankings, 1) == {(1, 2)}
        assert select_removal_edges(rankings, 2) == {(0, 1)}

    def test_shared_edge_removed_once(self):
        rankings = {1: [((0, 1), 0.9)], 2: [((0, 1), 0.8)]}
        assert select_removal_edges(rankings, 1) == {(0, 1)}

    def test_i_exceeding_report_length(self):
        rankings = {1: [((0, 1), 0.9)]}
        assert select_removal_edges(rankings, 2) == set()

    def test_ties_break_lexicographic(self):
        rankings = {1: [((2, 3), 0.5), ((0, 1), 0.5)]}
        assert select_removal_edges(rankings, 1) == {(0, 1)}
        assert select_removal_edges(rankings, 2) == {(2, 3)}

    def test_i_must_be_positive(self):
        with pytest.raises(ValueError):
            select_removal_edges({}, 0)


class TestReducedGraph:
    """The graph `run_verification` retrains on at removal depth i."""

    @staticmethod
    def reduced(g, rankings, i):
        return remove_edges(g, select_removal_edges(rankings, i))[0]

    def test_removes_top_scored(self):
        g = triangle_plus()
        rankings = {0: [((0, 1), 0.4), ((1, 2), 0.9)]}
        g1 = self.reduced(g, rankings, 1)
        assert g1.edges == g.edges - {(1, 2)}

    def test_unchanged_when_i_too_large(self):
        g = triangle_plus()
        rankings = {0: [((0, 1), 0.4)]}
        g2 = self.reduced(g, rankings, 5)
        assert g2.edges == g.edges

    def test_union_across_targets(self):
        g = triangle_plus()
        rankings = {0: [((0, 1), 0.9)], 1: [((2, 3), 0.8)], 2: [((0, 1), 0.7)]}
        g1 = self.reduced(g, rankings, 1)
        assert g1.edges == g.edges - {(0, 1), (2, 3)}


class TestEdgeCountWarnings:
    def test_close_counts_silent(self):
        assert edge_count_warnings({"bp/1": 10, "is/1": 10}, 1) == []
        assert edge_count_warnings({"bp/1": 10, "is/1": 9}, 1) == []

    def test_divergent_counts_flagged(self):
        msgs = edge_count_warnings({"bp/1": 10, "is/1": 8}, 1)
        assert len(msgs) == 1
        assert "i=1" in msgs[0]

    def test_missing_scorer_ignored(self):
        assert edge_count_warnings({"bp/1": 10}, 1) == []


class TestRemovalAccounting:
    def test_selected_edges_equal_edge_count_drop(self):
        g = triangle_plus()
        rankings = {0: [((0, 1), 0.9)], 1: [((0, 2), 0.8)],
                    2: [((9, 9), 0.7)]}  # last selection is not a real edge
        selected = select_removal_edges(rankings, 1)
        reduced, ignored = remove_edges(g, selected)
        assert len(selected & g.edges) == g.edge_count - reduced.edge_count
        assert ignored == 1


class TestEligibleTargets:
    def test_synthetic_skips_class_zero(self):
        g = make_graph(5, [], labels=[0, 0, 1, 2, 1], class_count=3)
        assert eligible_targets(g, synthetic=True) == [2, 3, 4]

    def test_file_datasets_use_all_nodes(self):
        g = make_graph(3, [], labels=[0, 0, 1], class_count=2)
        assert eligible_targets(g, synthetic=False) == [0, 1, 2]


class TestDatasetSpec:
    def test_generator_kinds(self):
        for kind in ("ba-shapes", "tree-cycles", "tree-grids"):
            spec = DatasetSpec(kind=kind, base_nodes=8, motif_count=1, height=3)
            g = spec.build(0)
            assert g.node_count > 0
            assert spec.synthetic

    def test_file_kind(self, tmp_path):
        from relex.graphs import save_graph
        g = triangle_plus()
        save_graph(g, tmp_path / "g.json")
        spec = DatasetSpec(kind="file", path=str(tmp_path / "g.json"))
        assert not spec.synthetic
        g2 = spec.build(0)
        assert g2.edges == g.edges

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="nope").build(0)

    def test_deterministic_build(self):
        spec = DatasetSpec(kind="ba-shapes", base_nodes=10, motif_count=1)
        assert spec.build(4).edges == spec.build(4).edges


def pipeline_config(**count):
    return PipelineConfig(dataset=DatasetSpec(kind="ba-shapes"), **count)


def learn_weights_run(epochs):
    explanation = Explanation(target=0, predicted_class=1, hop_radius=2,
                              relations=(((0, 1), 0.8),))
    cres = CreSet(target=0, class_count=2, explanations=[explanation], ranks_used=[1],
                  errors_per_rank=[2])
    return learn_weights(build_factor_graph(cres), cres, epochs=epochs)


class TestConfigValidation:
    def test_bad_scorer(self):
        with pytest.raises(ValueError):
            PipelineConfig(dataset=DatasetSpec(kind="ba-shapes"), scorer="x")

    def test_bad_gmax(self):
        with pytest.raises(ValueError):
            PipelineConfig(dataset=DatasetSpec(kind="ba-shapes"), g_max=0)

    def test_bad_split_fractions(self):
        for fractions in ((1.0, 0.1, -0.1), (-0.05, 0.1, 0.95), (0.5, 0.1, 0.1)):
            with pytest.raises(ValueError, match="split fractions"):
                PipelineConfig(dataset=DatasetSpec(kind="ba-shapes"),
                               split_fractions=fractions)

    @pytest.mark.parametrize("config, field", [
        (BpConfig, "max_iters"), (ExplainConfig, "hops"), (ExplainConfig, "mask_steps"),
        (ExplainConfig, "top_k"), (TrainConfig, "hidden_dim"), (TrainConfig, "max_epochs"),
        (TrainConfig, "patience"), (TrainConfig, "restarts"), (RankSearchConfig, "max_rank"),
        (pipeline_config, "g_max"), (pipeline_config, "max_targets"),
        (pipeline_config, "min_class_count"), (learn_weights_run, "epochs")])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_a_count_that_is_not_an_integer(self, config, field, value):
        """A float count never ends a loop that counts down to it or up
        to it, and a bool passes for 0 or 1: both are refused up front."""
        with pytest.raises(ValueError, match=f"^{field} {value!r} is not an integer$"):
            config(**{field: value})
        config(**{field: 3})

    def test_scorers_tuple(self):
        cfg = PipelineConfig(dataset=DatasetSpec(kind="ba-shapes"), scorer="both")
        assert cfg.scorers == ("bp", "is")
        cfg = PipelineConfig(dataset=DatasetSpec(kind="ba-shapes"), scorer="is")
        assert cfg.scorers == ("is",)


class TestDerivedSeed:
    def test_stable(self):
        assert derived_seed(3, 1, 7) == derived_seed(3, 1, 7)
        assert derived_seed(3, 1, 7) != derived_seed(3, 1, 8)

    def test_seeded_stage_tags(self):
        assert seeded(TrainConfig(), 3).seed == derived_seed(3, 1)
        assert seeded(ExplainConfig(), 3, 7).seed == derived_seed(3, 3, 7)
        assert seeded(RankSearchConfig(), 3).seed == derived_seed(3, 4)
        with pytest.raises(ValueError):
            seeded(ExplainConfig(), 3)


def small_bundle():
    return VerificationBundle(
        dataset="ba-shapes", seed=0, targets=[5],
        base_predictions=[0, 1],
        results=[
            {"scorer": "bp", "i": 1, "class": 1, "b": 10, "c": 2,
             "statistic": 49 / 12, "p_value": 0.0433, "reported_statistic": 49 / 12},
            {"scorer": "is", "i": 1, "class": 1, "b": 3, "c": 3,
             "statistic": 1 / 6, "p_value": 0.68, "reported_statistic": 0.0},
            {"scorer": "bp", "i": 2, "class": 1, "b": 1, "c": 1,
             "statistic": 0.25, "p_value": 0.61, "reported_statistic": 0.0},
            {"scorer": "is", "i": 2, "class": 1, "b": 0, "c": 0,
             "statistic": 0.0, "p_value": 1.0, "reported_statistic": 0.0},
        ],
        removed_counts={"bp/1": 4, "is/1": 4, "bp/2": 3, "is/2": 3},
        warnings=[],
        reports={5: UncertaintyReport(
            target=5, converged=True, skipped=[(4, 5)],
            entries=[RelationUncertainty((0, 1), 0.9, 0.0821, 2.5),
                     RelationUncertainty((1, 2), 1.0, 0.0, math.inf)])},
        rankings={"bp": {5: [((0, 1), 2.5)]}, "is": {5: [((0, 1), 0.9)]}},
    )


class TestEmitReport:
    def test_empty_bundle_headers_only(self, tmp_path):
        bundle = VerificationBundle(dataset="x", seed=0)
        emit_report(bundle, tmp_path)
        results = (tmp_path / "results.csv").read_text()
        assert results == ("scorer,i,class,b,c,statistic,p_value,"
                           "reported_statistic\n")
        plot = (tmp_path / "plotdata.csv").read_text()
        assert plot == "class,i,scorer,reported_statistic\n"

    def test_single_result_row_matches_struct(self, tmp_path):
        bundle = VerificationBundle(dataset="x", seed=0, results=[
            {"scorer": "bp", "i": 1, "class": 2, "b": 10, "c": 2,
             "statistic": 49 / 12, "p_value": 0.0433,
             "reported_statistic": 49 / 12}])
        emit_report(bundle, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert lines[1] == f"bp,1,2,10,2,{49 / 12!r},0.0433,{49 / 12!r}"

    def test_plotdata_cartesian_shape(self, tmp_path):
        emit_report(small_bundle(), tmp_path)
        lines = (tmp_path / "plotdata.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # 2 scorers x 2 removal depths, one class
        assert lines[1].startswith("1,1,bp,")
        assert lines[2].startswith("1,1,is,")

    def test_deterministic_bytes(self, tmp_path):
        emit_report(small_bundle(), tmp_path / "a")
        emit_report(small_bundle(), tmp_path / "b")
        for name in ("results.csv", "plotdata.csv", "bundle.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_bundle_roundtrip(self, tmp_path):
        bundle = small_bundle()
        emit_report(bundle, tmp_path)
        blob = json.loads((tmp_path / "bundle.json").read_text())
        restored = bundle_from_dict(blob)
        assert restored.dataset == bundle.dataset
        assert restored.results == sorted(
            bundle.results, key=lambda r: (r["scorer"], r["i"], r["class"]))
        assert restored.rankings == bundle.rankings
        assert restored.reports == bundle.reports
