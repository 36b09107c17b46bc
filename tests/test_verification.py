"""Integration tests for the end-to-end verification pipeline.

Desk-tiny configuration so the whole suite stays fast; the acceptance
module runs the full-size protocol.
"""

import pytest

import relex.pipeline
import relex.workers
from relex.boolfact import RankSearchConfig
from relex.explainer import ExplainConfig
from relex.gcn import TrainConfig, TrainingDiverged
from relex.pipeline import (DatasetSpec, PipelineConfig, PipelineStageError,
                            emit_report, run_verification)


def tiny_config(scorer="both", seed=5, g_max=1):
    return PipelineConfig(
        dataset=DatasetSpec(kind="ba-shapes", base_nodes=12, motif_count=2),
        train=TrainConfig(hidden_dim=16, max_epochs=600, patience=150,
                          restarts=2),
        explain=ExplainConfig(mask_steps=60, top_k=6),
        rank_search=RankSearchConfig(max_rank=24),
        scorer=scorer,
        g_max=g_max,
        min_class_count=1,
        split_fractions=(0.6, 0.1, 0.3),
        seed=seed,
        max_targets=4,
    )


@pytest.fixture(scope="module")
def both_bundle():
    return run_verification(tiny_config())


class TestRunVerification:
    def test_emits_results_for_motif_classes_only(self, both_bundle):
        classes = {r["class"] for r in both_bundle.results}
        assert 0 not in classes
        assert classes <= {1, 2, 3}
        assert both_bundle.results  # at least one reported row

    def test_both_scorers_present(self, both_bundle):
        scorers = {r["scorer"] for r in both_bundle.results}
        assert scorers == {"bp", "is"}

    def test_reported_statistic_rule(self, both_bundle):
        for r in both_bundle.results:
            if r["p_value"] >= 0.05:
                assert r["reported_statistic"] == 0.0
            else:
                assert r["reported_statistic"] == r["statistic"]

    def test_removed_counts_recorded(self, both_bundle):
        assert "bp/1" in both_bundle.removed_counts
        assert "is/1" in both_bundle.removed_counts
        assert both_bundle.removed_counts["bp/1"] >= 1

    def test_bp_reports_have_rankings(self, both_bundle):
        assert both_bundle.reports
        for target, report in both_bundle.reports.items():
            assert report.ranking(), f"target {target} has empty ranking"

    def test_is_rankings_sorted_by_confidence(self, both_bundle):
        for target, ranking in both_bundle.rankings["is"].items():
            scores = [s for _, s in ranking]
            assert scores == sorted(scores, reverse=True)


class TestDeterminism:
    def test_identical_runs_byte_identical_results(self, tmp_path, both_bundle):
        emit_report(both_bundle, tmp_path / "a")
        second = run_verification(tiny_config())
        emit_report(second, tmp_path / "b")
        for name in ("results.csv", "plotdata.csv", "bundle.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_byte_identical_at_one_and_two_cpus(self, tmp_path, monkeypatch):
        """Training split across two processes changes no output byte."""
        for cpus in (1, 2):
            monkeypatch.setattr(relex.workers, "cpu_count", lambda: cpus)
            emit_report(run_verification(tiny_config()), tmp_path / str(cpus))
        for name in ("results.csv", "bundle.json"):
            assert (tmp_path / "1" / name).read_bytes() == \
                   (tmp_path / "2" / name).read_bytes(), name

    def test_per_target_uncertainty_csvs_written(self, tmp_path, both_bundle):
        files = emit_report(both_bundle, tmp_path)
        names = {f.name for f in files}
        for target in both_bundle.reports:
            assert f"uncertainty_t{target}.csv" in names

    def test_seed_changes_output(self):
        alt = run_verification(tiny_config(seed=6))
        base = run_verification(tiny_config(seed=5))
        assert alt.base_predictions != base.base_predictions or \
            alt.results != base.results


class TestIsOnlyRun:
    def test_is_scorer_skips_bp_machinery(self):
        bundle = run_verification(tiny_config(scorer="is"))
        assert bundle.reports == {}
        assert {r["scorer"] for r in bundle.results} == {"is"}
        assert "is/1" in bundle.removed_counts
        assert "bp/1" not in bundle.removed_counts

    def test_scorers_share_base_predictions(self, both_bundle):
        is_bundle = run_verification(tiny_config(scorer="is"))
        assert is_bundle.base_predictions == both_bundle.base_predictions


class TestDeskScaleExample:
    def test_bashapes_mini_reports_motif_classes(self, tmp_path):
        cfg = PipelineConfig(
            dataset=DatasetSpec(kind="ba-shapes", base_nodes=25, motif_count=5),
            train=TrainConfig(hidden_dim=16, max_epochs=1500, patience=200,
                              restarts=2),
            explain=ExplainConfig(mask_steps=80, top_k=6),
            scorer="is",
            g_max=1,
            min_class_count=1,
            split_fractions=(0.5, 0.1, 0.4),
            seed=1,
        )
        bundle = run_verification(cfg)
        classes = {r["class"] for r in bundle.results}
        assert classes == {1, 2, 3}
        emit_report(bundle, tmp_path)
        rows = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 3  # header + one row per motif class


class TestStageErrors:
    def test_dataset_failure_tagged(self):
        cfg = tiny_config()
        cfg.dataset = DatasetSpec(kind="file", path="/nonexistent/g.json")
        with pytest.raises(PipelineStageError) as exc:
            run_verification(cfg)
        assert exc.value.stage == "dataset"
        assert exc.value.partial is not None

    def test_cres_failure_tagged(self):
        cfg = tiny_config(scorer="bp")
        cfg.rank_search = RankSearchConfig(max_rank=1)
        with pytest.raises(PipelineStageError) as exc:
            run_verification(cfg)
        assert exc.value.stage == "cres"

    def test_retrain_divergence_names_scorer_and_depth(self, monkeypatch):
        """All reduced graphs retrain in one train_gcns call, in scorer and
        depth order; a divergence names its graph's scorer/i and leaves no
        McNemar rows."""
        calls = []

        def diverge(graphs, split, cfg):
            calls.append(len(graphs))
            raise TrainingDiverged("non-finite loss nan at epoch 3 on graph 2", 2)

        monkeypatch.setattr(relex.pipeline, "train_gcns", diverge)
        with pytest.raises(PipelineStageError) as exc:
            run_verification(tiny_config(g_max=2))
        assert calls == [4]
        assert exc.value.stage == "retrain"
        assert str(exc.value) == ("stage 'retrain' failed: is/1: non-finite loss nan "
                                  "at epoch 3 on graph 2")
        assert exc.value.cause.graph == 2
        assert exc.value.partial.results == []
        assert sorted(exc.value.partial.removed_counts) == ["bp/1", "bp/2", "is/1", "is/2"]
