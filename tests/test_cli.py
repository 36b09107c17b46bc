import json
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relex.explainer
import relex.workers
from relex.cli import build_parser, main


COMMANDS = ("generate", "train", "explain", "cres", "learn-fg", "evaluate", "verify", "report")


def run(args):
    return main(args)


def parsed_options(argv):
    """Every value ``relex <argv>`` parses to; a handler the command binds
    in the namespace is code, not an option, and is left out."""
    return {k: v for k, v in vars(build_parser().parse_args(argv)).items()
            if not callable(v)}


class TestInterface:
    """The commands' flags and defaults, pinned: each command parsed with
    only its required flags gives this whole namespace."""

    @pytest.mark.parametrize("argv, options", [
        (["generate", "--dataset", "ba-shapes", "--out", "graph.json"],
         {"command": "generate", "dataset": "ba-shapes", "base_nodes": 25,
          "motifs": 5, "height": 4, "seed": 0, "out": "graph.json"}),
        (["train", "--graph", "graph.json", "--out", "model.json"],
         {"command": "train", "graph": "graph.json", "seed": 0, "hidden_dim": 32,
          "epochs": 2000, "lr": 0.02, "patience": 200, "test_fraction": 0.1,
          "out": "model.json"}),
        (["explain", "--graph", "graph.json", "--model", "model.json",
          "--target", "3", "--out", "e.json"],
         {"command": "explain", "graph": "graph.json", "model": "model.json",
          "target": 3, "hops": 2, "steps": 300, "top_k": 6, "seed": 0,
          "out": "e.json"}),
        (["cres", "--graph", "graph.json", "--model", "model.json",
          "--target", "3", "--out", "c.json"],
         {"command": "cres", "graph": "graph.json", "model": "model.json",
          "target": 3, "hops": 2, "steps": 300, "top_k": 6, "max_rank": 64,
          "seed": 0, "out": "c.json"}),
        (["learn-fg", "--cres", "c.json", "--out", "fg.json"],
         {"command": "learn-fg", "cres": "c.json", "lr": 0.02, "epochs": 30,
          "out": "fg.json"}),
        (["evaluate", "--fg", "fg.json", "--explanation", "e.json", "--out", "u.csv"],
         {"command": "evaluate", "fg": "fg.json", "explanation": "e.json",
          "bp_iters": 200, "bp_tol": 1e-06, "bp_damping": 0.5, "out": "u.csv"}),
        (["verify", "--dataset", "ba-shapes", "--out", "run"],
         {"command": "verify", "dataset": "ba-shapes", "base_nodes": 25,
          "motifs": 5, "height": 4, "seed": 0, "hidden_dim": 32, "epochs": 2000,
          "hops": 2, "steps": 300, "top_k": 6, "scorer": "both", "g_max": 1,
          "max_targets": None, "min_class_count": 10, "test_fraction": 0.1,
          "out": "run"}),
        (["report", "--bundle", "run/bundle.json", "--out", "again"],
         {"command": "report", "bundle": "run/bundle.json", "out": "again"}),
    ], ids=lambda x: x[0] if isinstance(x, list) else "")
    def test_required_flags_only(self, argv, options):
        assert parsed_options(argv) == options

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0_with_a_usage_line(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: relex {command} ")

    def test_no_value_carries_over_between_parses(self):
        assert parsed_options(["train", "--graph", "g.json", "--epochs", "5",
                               "--seed", "7", "--out", "m.json"])["epochs"] == 5
        options = parsed_options(["verify", "--dataset", "ba-shapes", "--out", "run"])
        assert (options["epochs"], options["seed"]) == (2000, 0)
        assert parsed_options(["train", "--graph", "g.json",
                               "--out", "m.json"])["epochs"] == 2000


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared tiny end-to-end workspace: graph -> model -> explanation ->
    cres -> factor graph, built through the CLI itself."""
    ws = tmp_path_factory.mktemp("cli")
    assert run(["generate", "--dataset", "ba-shapes", "--base-nodes", "12",
                "--motifs", "2", "--seed", "3",
                "--out", str(ws / "graph.json")]) == 0
    assert run(["train", "--graph", str(ws / "graph.json"), "--seed", "1",
                "--hidden-dim", "16", "--epochs", "600",
                "--out", str(ws / "model.json")]) == 0
    return ws


@pytest.fixture
def cut_short(monkeypatch):
    """Two CPUs, and a forked worker whose pickle ends one byte early."""
    monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)

    def cut_short(run, write, reads, mask):
        try:
            os.write(write, pickle.dumps(run())[:-1])
        finally:
            os._exit(0)
    monkeypatch.setattr(relex.workers, "_run_child", cut_short)


class TestGenerate:
    def test_writes_loadable_graph(self, workspace):
        blob = json.loads((workspace / "graph.json").read_text())
        assert blob["n"] == 22
        assert blob["classes"] == 4

    def test_tree_dataset(self, tmp_path):
        out = tmp_path / "tree.json"
        assert run(["generate", "--dataset", "tree-cycles", "--height", "3",
                    "--motifs", "1", "--seed", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 13

    def test_bad_dataset_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--dataset", "nope", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_out_under_a_file_validation_error(self, tmp_path, capsys):
        (tmp_path / "graph.json").write_text("{}")
        out = tmp_path / "graph.json" / "x.json"
        assert run(["generate", "--dataset", "ba-shapes", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert (tmp_path / "graph.json").read_text() == "{}"


class TestTrain:
    def test_model_file_shape(self, workspace):
        blob = json.loads((workspace / "model.json").read_text())
        assert blob["hidden_dim"] == 16
        assert blob["class_count"] == 4

    def test_missing_graph_validation_error(self, tmp_path):
        assert run(["train", "--graph", str(tmp_path / "none.json"),
                    "--out", str(tmp_path / "m.json")]) == 2

    def test_edge_list_graph_validation_error(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n")
        assert run(["train", "--graph", str(tmp_path / "g.edges"),
                    "--out", str(tmp_path / "m.json")]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags", [["--patience", "0"], ["--lr", "-0.1"],
                                       ["--lr", "nan"]])
    def test_senseless_setting_validation_error(self, workspace, tmp_path, flags):
        assert run(["train", "--graph", str(workspace / "graph.json"), *flags,
                    "--out", str(tmp_path / "m.json")]) == 2
        assert not (tmp_path / "m.json").exists()

    def test_diverging_training_stage_failure(self, workspace, tmp_path):
        with np.errstate(all="ignore"):
            code = run(["train", "--graph", str(workspace / "graph.json"),
                        "--lr", "1e300", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert not (tmp_path / "m.json").exists()


    def test_a_worker_that_ends_without_its_result_stage_failure(
            self, workspace, tmp_path, capsys, cut_short):
        out = tmp_path / "m.json"
        assert run(["train", "--graph", str(workspace / "graph.json"), "--hidden-dim", "8",
                    "--epochs", "50", "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error: a worker process ended without sending its result\n"
        assert not out.exists()


class TestExplainStage:
    def test_explain_writes_relations(self, workspace, tmp_path):
        out = tmp_path / "expl.json"
        code = run(["explain", "--graph", str(workspace / "graph.json"),
                    "--model", str(workspace / "model.json"),
                    "--target", "13", "--steps", "80", "--seed", "0",
                    "--out", str(out)])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["target"] == 13
        assert blob["hops"] == 2
        assert len(blob["relations"]) >= 1

    @pytest.mark.parametrize("flags", [["--top-k", "0"], ["--steps", "-5"]])
    def test_senseless_setting_validation_error(self, workspace, tmp_path, flags):
        assert run(["explain", "--graph", str(workspace / "graph.json"),
                    "--model", str(workspace / "model.json"), "--target", "13",
                    *flags, "--out", str(tmp_path / "e.json")]) == 2
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", 0.9), ("hidden_dim", 16.0), ("class_count", 4.5), ("input_dim", True),
    ])
    def test_non_integer_model_field_validation_error(self, workspace, tmp_path, capsys,
                                                       key, value):
        blob = json.loads((workspace / "model.json").read_text())
        blob[key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(blob))
        assert run(["explain", "--graph", str(workspace / "graph.json"),
                    "--model", str(model), "--target", "13",
                    "--out", str(tmp_path / "e.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: {model}: {key} {value!r} is not an integer\n"
        assert not (tmp_path / "e.json").exists()

    def test_isolated_target_stage_failure(self, tmp_path):
        graph = {"n": 3, "edges": [[0, 1]], "labels": [0, 1, 0],
                 "features": [[1.0]] * 3, "classes": 2}
        (tmp_path / "g.json").write_text(json.dumps(graph))
        assert run(["train", "--graph", str(tmp_path / "g.json"),
                    "--epochs", "5", "--hidden-dim", "4",
                    "--out", str(tmp_path / "m.json")]) == 0
        code = run(["explain", "--graph", str(tmp_path / "g.json"),
                    "--model", str(tmp_path / "m.json"), "--target", "2",
                    "--out", str(tmp_path / "e.json")])
        assert code == 3

    def test_isolated_target_of_a_mismatched_model_validation_error(self, tmp_path, capsys):
        """The feature-dim check comes before the empty subgraph."""
        graph = {"n": 3, "edges": [[0, 1]], "labels": [0, 1, 0],
                 "features": [[1.0] * 3] * 3, "classes": 2}
        (tmp_path / "g.json").write_text(json.dumps(graph))
        model = {"input_dim": 5, "hidden_dim": 4, "class_count": 2, "seed": 0,
                 "w0": [[0.0] * 4] * 5, "w1": [[0.0] * 2] * 4, "b0": [0.0] * 4,
                 "b1": [0.0] * 2}
        (tmp_path / "m.json").write_text(json.dumps(model))
        code = run(["explain", "--graph", str(tmp_path / "g.json"),
                    "--model", str(tmp_path / "m.json"), "--target", "2",
                    "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: feature dim 3 != model input dim 5\n"
        assert not (tmp_path / "e.json").exists()


class TestCresLearnFgEvaluate:
    def test_full_single_target_chain(self, workspace, tmp_path):
        cres_out = tmp_path / "cres.json"
        code = run(["cres", "--graph", str(workspace / "graph.json"),
                    "--model", str(workspace / "model.json"),
                    "--target", "13", "--steps", "60", "--seed", "0",
                    "--out", str(cres_out)])
        assert code == 0
        blob = json.loads(cres_out.read_text())
        assert blob["target"] == 13
        assert len(blob["explanations"]) == len(blob["ranks"])

        fg_out = tmp_path / "fg.json"
        assert run(["learn-fg", "--cres", str(cres_out),
                    "--out", str(fg_out)]) == 0
        fg_blob = json.loads(fg_out.read_text())
        assert fg_blob["target_card"] == 4
        assert len(fg_blob["factors"]) >= 1

        expl_out = tmp_path / "expl.json"
        assert run(["explain", "--graph", str(workspace / "graph.json"),
                    "--model", str(workspace / "model.json"),
                    "--target", "13", "--steps", "80", "--seed", "0",
                    "--out", str(expl_out)]) == 0

        report_out = tmp_path / "uncertainty.csv"
        assert run(["evaluate", "--fg", str(fg_out),
                    "--explanation", str(expl_out),
                    "--out", str(report_out)]) == 0
        lines = report_out.read_text().strip().split("\n")
        assert lines[0] == "u,v,gc,delta,neg_log_delta,converged"
        assert len(lines) >= 2


    def test_a_worker_that_ends_without_its_result_stage_failure(
            self, workspace, tmp_path, capsys, cut_short):
        out = tmp_path / "cres.json"
        assert run(["cres", "--graph", str(workspace / "graph.json"),
                    "--model", str(workspace / "model.json"), "--target", "13",
                    "--steps", "20", "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error: a worker process ended without sending its result\n"
        assert not out.exists()

    def test_zero_max_rank_validation_error(self, workspace, tmp_path):
        assert run(["cres", "--graph", str(workspace / "graph.json"),
                    "--model", str(workspace / "model.json"), "--target", "13",
                    "--max-rank", "0", "--out", str(tmp_path / "cres.json")]) == 2
        assert not (tmp_path / "cres.json").exists()

    @pytest.mark.parametrize("flags", [["--epochs", "-3"], ["--lr", "nan"]])
    def test_senseless_learn_fg_setting_validation_error(self, tmp_path, flags):
        (tmp_path / "cres.json").write_text(json.dumps(
            {"target": 0, "class_count": 2, "ranks": [1], "errors": [1],
             "explanations": [{"target": 0, "class": 1, "hops": 2,
                               "relations": [{"u": 0, "v": 1, "gc": 0.8}]}]}))
        assert run(["learn-fg", "--cres", str(tmp_path / "cres.json"), *flags,
                    "--out", str(tmp_path / "fg.json")]) == 2
        assert not (tmp_path / "fg.json").exists()


class TestEvaluate:
    def test_skipped_relations_reported_on_stderr(self, tmp_path, capsys):
        """(1, 2) joins two entities but no factor, so it is scored after
        (0, 1); (1, 7) and (5, 6) leave the entities and are skipped."""
        (tmp_path / "fg.json").write_text(json.dumps(
            {"entities": [0, 1, 2], "target_card": 2,
             "factors": [{"u": 0, "v": 1, "t": 1, "weight": 0.5, "kind": "learned"}]}))
        (tmp_path / "expl.json").write_text(json.dumps(
            {"target": 0, "class": 1, "hops": 2,
             "relations": [{"u": 0, "v": 1, "gc": 0.8}, {"u": 1, "v": 7, "gc": 0.9},
                           {"u": 1, "v": 2, "gc": 0.3}, {"u": 5, "v": 6, "gc": 0.4}]}))
        assert run(["evaluate", "--fg", str(tmp_path / "fg.json"),
                    "--explanation", str(tmp_path / "expl.json"),
                    "--out", str(tmp_path / "u.csv")]) == 0
        err = capsys.readouterr().err
        assert "skipped relations outside the factor graph's entities: " \
               "(1, 7), (5, 6)" in err
        rows = (tmp_path / "u.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0", "1"], ["1", "2"]]

    def test_factor_ends_in_either_order_give_one_report(self, tmp_path):
        (tmp_path / "expl.json").write_text(json.dumps(
            {"target": 0, "class": 1, "hops": 2,
             "relations": [{"u": 0, "v": 1, "gc": 0.8}, {"u": 1, "v": 2, "gc": 0.3}]}))
        for name, ends in (("sorted", [(0, 1), (1, 2)]), ("reversed", [(1, 0), (2, 1)])):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"entities": [0, 1, 2], "target_card": 2,
                 "factors": [{"u": u, "v": v, "t": 1, "weight": w, "kind": "learned"}
                             for (u, v), w in zip(ends, (0.5, 1.5))]}))
            assert run(["evaluate", "--fg", str(tmp_path / f"{name}.json"),
                        "--explanation", str(tmp_path / "expl.json"),
                        "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "sorted.csv").read_bytes() == (tmp_path / "reversed.csv").read_bytes()

    @pytest.mark.parametrize("tol, code", [("-1", 2), ("nan", 2), ("inf", 2), ("0", 0)])
    def test_bp_tolerance_validated(self, tmp_path, tol, code):
        (tmp_path / "fg.json").write_text(json.dumps(
            {"entities": [0, 1], "target_card": 2,
             "factors": [{"u": 0, "v": 1, "t": 1, "weight": 0.5, "kind": "learned"}]}))
        (tmp_path / "expl.json").write_text(json.dumps(
            {"target": 0, "class": 1, "hops": 2,
             "relations": [{"u": 0, "v": 1, "gc": 0.8}]}))
        assert run(["evaluate", "--fg", str(tmp_path / "fg.json"),
                    "--explanation", str(tmp_path / "expl.json"), "--bp-tol", tol,
                    "--out", str(tmp_path / "u.csv")]) == code
        assert (tmp_path / "u.csv").exists() == (code == 0)


class TestMissingJsonKey:
    FG = {"entities": [0, 1], "target_card": 2,
          "factors": [{"u": 0, "v": 1, "t": 1, "weight": 0.5, "kind": "learned"}]}
    EXPLANATION = {"target": 0, "class": 1, "hops": 2,
                   "relations": [{"u": 0, "v": 1, "gc": 0.8}]}
    CRES = {"target": 0, "class_count": 2, "ranks": [1], "errors": [1],
            "explanations": [EXPLANATION]}

    @pytest.mark.parametrize("command, broken, key", [
        ("learn-fg", "cres.json", "explanations"),
        ("evaluate", "fg.json", "factors"),
        ("evaluate", "expl.json", "relations"),
    ])
    def test_error_names_the_key_and_the_file(self, tmp_path, capsys, command,
                                              broken, key):
        files = {"cres.json": self.CRES, "fg.json": self.FG,
                 "expl.json": self.EXPLANATION}
        for name, blob in files.items():
            if name == broken:
                blob = {k: v for k, v in blob.items() if k != key}
            (tmp_path / name).write_text(json.dumps(blob))
        flags = (["--cres", str(tmp_path / "cres.json")] if command == "learn-fg" else
                 ["--fg", str(tmp_path / "fg.json"),
                  "--explanation", str(tmp_path / "expl.json")])
        assert run([command, *flags, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / broken}: missing key '{key}'\n"
        assert not (tmp_path / "out").exists()


class TestOutOfRangeValue:
    """A confidence outside (0, 1] or a factor weight outside the learning
    clip, NaN and infinities included, a factor kind other than "learned"
    and "injected", or an explanation class outside the factor graph's
    target states exits 2 with the file's name and writes nothing."""

    FG = TestMissingJsonKey.FG
    EXPLANATION = TestMissingJsonKey.EXPLANATION

    def _evaluate(self, tmp_path, fg, explanation):
        (tmp_path / "fg.json").write_text(json.dumps(fg))
        (tmp_path / "expl.json").write_text(json.dumps(explanation))
        return run(["evaluate", "--fg", str(tmp_path / "fg.json"),
                    "--explanation", str(tmp_path / "expl.json"),
                    "--out", str(tmp_path / "u.csv")])

    @staticmethod
    def _with_gc(gc):
        return {**TestMissingJsonKey.EXPLANATION,
                "relations": [{"u": 0, "v": 1, "gc": gc}]}

    @staticmethod
    def _with_weight(weight):
        return {**TestMissingJsonKey.FG,
                "factors": [{"u": 0, "v": 1, "t": 1, "weight": weight,
                             "kind": "learned"}]}

    @pytest.mark.parametrize("gc", [float("nan"), float("inf"), 1.5, 0.0, -0.2])
    def test_evaluate_rejects_explanation_gc(self, tmp_path, capsys, gc):
        assert self._evaluate(tmp_path, self.FG, self._with_gc(gc)) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'expl.json'}: ")
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf"),
                                        1000.0, -1000.0, 10.5])
    def test_evaluate_rejects_factor_weight(self, tmp_path, capsys, weight):
        assert self._evaluate(tmp_path, self._with_weight(weight), self.EXPLANATION) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'fg.json'}: ")
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("gc, weight", [(1.0, 10.0), (1e-12, -10.0)])
    def test_evaluate_accepts_the_bounds(self, tmp_path, gc, weight):
        assert self._evaluate(tmp_path, self._with_weight(weight),
                              self._with_gc(gc)) == 0
        assert (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("kind", ["bogus", "", "Learned"])
    def test_evaluate_rejects_factor_kind(self, tmp_path, capsys, kind):
        fg = {**self.FG, "factors": [{**self.FG["factors"][0], "kind": kind}]}
        assert self._evaluate(tmp_path, fg, self.EXPLANATION) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'fg.json'}: ") and repr(kind) in err
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("target_card, cls", [(2, 2), (2, -1), (3, 7)])
    def test_evaluate_rejects_explanation_class(self, tmp_path, capsys, target_card,
                                                cls):
        fg = {**self.FG, "target_card": target_card}
        assert self._evaluate(tmp_path, fg, {**self.EXPLANATION, "class": cls}) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'expl.json'}: class {cls} is outside "
                       f"0..{target_card - 1}, the target states of "
                       f"{tmp_path / 'fg.json'}\n")
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("target_card, cls", [(2, 0), (3, 2)])
    def test_evaluate_accepts_every_target_state(self, tmp_path, target_card, cls):
        fg = {**self.FG, "target_card": target_card}
        assert self._evaluate(tmp_path, fg, {**self.EXPLANATION, "class": cls}) == 0
        assert (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("gc", [float("nan"), 1.5, 0.0, -0.2])
    def test_learn_fg_rejects_cre_gc(self, tmp_path, capsys, gc):
        cres = {**TestMissingJsonKey.CRES,
                "explanations": [self.EXPLANATION, self._with_gc(gc)]}
        (tmp_path / "cres.json").write_text(json.dumps(cres))
        assert run(["learn-fg", "--cres", str(tmp_path / "cres.json"),
                    "--out", str(tmp_path / "fg.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'cres.json'}: ")
        assert not (tmp_path / "fg.json").exists()


class TestValueOfWrongType:
    """A JSON value of the wrong type, where a loader reads a number or an
    array, exits 2 with the file's name and writes nothing."""

    @pytest.mark.parametrize("command, broken, blob", [
        ("evaluate", "fg.json",
         {**TestMissingJsonKey.FG, "factors": [{**TestMissingJsonKey.FG["factors"][0],
                                                "weight": [0.5]}]}),
        ("evaluate", "expl.json",
         {**TestMissingJsonKey.EXPLANATION,
          "relations": [{"u": [0], "v": 1, "gc": 0.8}]}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "explanations": 5}),
        ("evaluate", "expl.json", {**TestMissingJsonKey.EXPLANATION, "target": 0.9}),
        ("evaluate", "expl.json", {**TestMissingJsonKey.EXPLANATION, "class": 1.5}),
        ("evaluate", "expl.json", {**TestMissingJsonKey.EXPLANATION, "class": True}),
        ("evaluate", "expl.json", {**TestMissingJsonKey.EXPLANATION, "hops": 2.7}),
        ("evaluate", "fg.json", {**TestMissingJsonKey.FG, "target_card": 2.9}),
        ("evaluate", "fg.json", {**TestMissingJsonKey.FG, "target_card": 2.0}),
        ("evaluate", "fg.json",
         {**TestMissingJsonKey.FG, "factors": [{**TestMissingJsonKey.FG["factors"][0],
                                                "t": 1.2}]}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "class_count": 2.5}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "ranks": [1.0]}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "class_count": -5}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "class_count": 0}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "class_count": 1}),
        ("learn-fg", "cres.json",
         {**TestMissingJsonKey.CRES,
          "explanations": [{**TestMissingJsonKey.EXPLANATION, "class": -1}]}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "target": 3}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "ranks": [1, 2]}),
        ("learn-fg", "cres.json", {**TestMissingJsonKey.CRES, "errors": []}),
        ("learn-fg", "cres.json",
         {**TestMissingJsonKey.CRES, "explanations": [], "ranks": [], "errors": []}),
    ], ids=["factor-weight", "relation-u", "cre-explanations", "explanation-target-float",
            "explanation-class-float", "explanation-class-bool", "explanation-hops-float",
            "fg-target-card-float", "fg-target-card-whole-float", "factor-t-float",
            "cre-class-count-float", "cre-rank-float", "cre-class-count-negative",
            "cre-class-count-zero", "cre-class-above-count", "cre-class-negative",
            "cre-other-target", "cre-ranks-longer", "cre-errors-shorter", "cre-empty"])
    def test_exits_2_and_names_the_file(self, tmp_path, capsys, command, broken, blob):
        files = {"cres.json": TestMissingJsonKey.CRES, "fg.json": TestMissingJsonKey.FG,
                 "expl.json": TestMissingJsonKey.EXPLANATION, broken: blob}
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        flags = (["--cres", str(tmp_path / "cres.json")] if command == "learn-fg" else
                 ["--fg", str(tmp_path / "fg.json"),
                  "--explanation", str(tmp_path / "expl.json")])
        assert run([command, *flags, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / broken}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, broken, blob, message", [
        ("evaluate", "expl.json", TestOutOfRangeValue._with_gc("0.8"),
         "relation gc '0.8' is not a number"),
        ("evaluate", "expl.json", TestOutOfRangeValue._with_gc(True),
         "relation gc True is not a number"),
        ("evaluate", "fg.json", TestOutOfRangeValue._with_weight(True),
         "factor weight True is not a number"),
        ("evaluate", "fg.json", TestOutOfRangeValue._with_weight("0.5"),
         "factor weight '0.5' is not a number"),
        ("evaluate", "fg.json", TestOutOfRangeValue._with_weight(None),
         "factor weight None is not a number"),
        ("learn-fg", "cres.json",
         {**TestMissingJsonKey.CRES, "explanations": [TestOutOfRangeValue._with_gc("0.8")]},
         "relation gc '0.8' is not a number"),
    ], ids=["gc-string", "gc-bool", "weight-bool", "weight-string", "weight-null",
            "cre-gc-string"])
    def test_non_number_exits_2_and_names_the_file(self, tmp_path, capsys, command,
                                                   broken, blob, message):
        files = {"cres.json": TestMissingJsonKey.CRES, "fg.json": TestMissingJsonKey.FG,
                 "expl.json": TestMissingJsonKey.EXPLANATION, broken: blob}
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        flags = (["--cres", str(tmp_path / "cres.json")] if command == "learn-fg" else
                 ["--fg", str(tmp_path / "fg.json"),
                  "--explanation", str(tmp_path / "expl.json")])
        assert run([command, *flags, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / broken}: {message}\n"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("change, message", [
        ({"edges": [[0.7, 1.9]]}, "edge node 0.7 is not an integer"),
        ({"n": 3.0}, "n 3.0 is not an integer"),
        ({"labels": [0, 1.5, 1]}, "label 1.5 is not an integer"),
        ({"classes": 2.9}, "classes 2.9 is not an integer"),
        ({"edges": [[0, True]]}, "edge node True is not an integer"),
    ], ids=["edge-float", "n-float", "label-float", "classes-float", "edge-bool"])
    def test_train_rejects_graph_non_integer(self, tmp_path, capsys, change, message):
        graph = {"n": 3, "edges": [[0, 1], [1, 2]], "labels": [0, 1, 1],
                 "features": None, "classes": 2, **change}
        (tmp_path / "g.json").write_text(json.dumps(graph))
        assert run(["train", "--graph", str(tmp_path / "g.json"),
                    "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'g.json'}: malformed bundle ({message})\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("features, message", [
        ([["0.8", 0.1], [0.2, 0.3], [0.4, 0.5]], "feature '0.8' is not a number"),
        ([[1, True], [0, 1], [1, 0]], "feature True is not a number"),
        ([[0.5, 0.1], [0.2, None], [0.4, 0.5]], "feature None is not a number"),
    ], ids=["string", "bool-beside-int", "null"])
    def test_train_rejects_graph_feature_non_number(self, tmp_path, capsys, features,
                                                    message):
        graph = {"n": 3, "edges": [[0, 1], [1, 2]], "labels": [0, 1, 1],
                 "features": features, "classes": 2}
        (tmp_path / "g.json").write_text(json.dumps(graph))
        assert run(["train", "--graph", str(tmp_path / "g.json"),
                    "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'g.json'}: malformed bundle ({message})\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "infinity"])
    @pytest.mark.parametrize("command", ["train", "explain", "verify"])
    def test_rejects_graph_feature_non_finite(self, workspace, tmp_path, capsys, command,
                                              value):
        blob = json.loads((workspace / "graph.json").read_text())
        blob["features"][13][0] = value
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(blob))
        argv = {"train": ["train", "--graph", str(graph)],
                "explain": ["explain", "--graph", str(graph), "--model",
                            str(workspace / "model.json"), "--target", "13"],
                "verify": ["verify", "--dataset", str(graph)]}[command]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: {graph}: node 13 has a non-finite feature\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("w0", "0.8"), ("w1", True), ("b0", "1"), ("b1", False),
    ])
    def test_explain_rejects_model_weight_non_number(self, workspace, tmp_path, capsys,
                                                     key, value):
        blob = json.loads((workspace / "model.json").read_text())
        first = blob[key][0]
        if isinstance(first, list):
            first[0] = value
        else:
            blob[key][0] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(blob))
        assert run(["explain", "--graph", str(workspace / "graph.json"),
                    "--model", str(model), "--target", "13",
                    "--out", str(tmp_path / "e.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: {model}: {key} {value!r} is not a number\n"
        assert not (tmp_path / "e.json").exists()


class TestNodeIds:
    """A self-loop, a negative node id or a relation listed twice in an
    explanation, and a negative or repeated entity or a factor over one
    entity in a factor graph, exit 2 with the file's name and the
    offending id, and write nothing."""

    FG = TestMissingJsonKey.FG
    EXPLANATION = TestMissingJsonKey.EXPLANATION

    @staticmethod
    def _with_relations(*pairs):
        return {**TestMissingJsonKey.EXPLANATION,
                "relations": [{"u": u, "v": v, "gc": 0.8} for (u, v) in pairs]}

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 0)], "relation (0, 0) is a self-loop"),
        ([(0, 1), (1, 0)], "relation (0, 1) is listed twice"),
        ([(-1, 0)], "relation (-1, 0) has a negative node id"),
        ([(0.2, 1)], "relation u 0.2 is not an integer"),
        ([(0, 1.8)], "relation v 1.8 is not an integer"),
        ([(0, False)], "relation v False is not an integer"),
    ], ids=["self-loop", "repeat", "negative", "float-u", "float-v", "bool-v"])
    def test_evaluate_rejects_explanation_relation(self, tmp_path, capsys, pairs,
                                                   message):
        explanation = self._with_relations(*pairs)
        for name, blob in (("fg.json", self.FG), ("expl.json", explanation)):
            (tmp_path / name).write_text(json.dumps(blob))
        assert run(["evaluate", "--fg", str(tmp_path / "fg.json"),
                    "--explanation", str(tmp_path / "expl.json"),
                    "--out", str(tmp_path / "u.csv")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'expl.json'}: {message}\n"
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("change, message", [
        ({"entities": [-1, 0, 1]}, "entity -1 is negative"),
        ({"entities": [0, 1, 1]}, "entities [0, 1, 1] repeat an id"),
        ({"factors": [{"u": 0, "v": 0, "t": 1, "weight": 0.5, "kind": "learned"}]},
         "factor (0, 0) joins an entity to itself"),
        ({"entities": [0, 1.5]}, "entity 1.5 is not an integer"),
        ({"factors": [{"u": 0.0, "v": 1, "t": 1, "weight": 0.5, "kind": "learned"}]},
         "factor u 0.0 is not an integer"),
        ({"factors": [{"u": 0, "v": 1.9, "t": 1, "weight": 0.5, "kind": "learned"}]},
         "factor v 1.9 is not an integer"),
    ], ids=["negative-entity", "repeated-entity", "one-entity-factor", "float-entity",
            "float-factor-u", "float-factor-v"])
    def test_evaluate_rejects_factor_graph(self, tmp_path, capsys, change, message):
        for name, blob in (("fg.json", {**self.FG, **change}),
                           ("expl.json", self.EXPLANATION)):
            (tmp_path / name).write_text(json.dumps(blob))
        assert run(["evaluate", "--fg", str(tmp_path / "fg.json"),
                    "--explanation", str(tmp_path / "expl.json"),
                    "--out", str(tmp_path / "u.csv")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'fg.json'}: {message}\n"
        assert not (tmp_path / "u.csv").exists()

    def test_learn_fg_rejects_cre_self_loop(self, tmp_path, capsys):
        cres = {**TestMissingJsonKey.CRES,
                "explanations": [self.EXPLANATION, self._with_relations((0, 0))]}
        (tmp_path / "cres.json").write_text(json.dumps(cres))
        assert run(["learn-fg", "--cres", str(tmp_path / "cres.json"),
                    "--out", str(tmp_path / "fg.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'cres.json'}: relation (0, 0) is a self-loop\n"
        assert not (tmp_path / "fg.json").exists()


class TestVerifyAndReport:
    def test_verify_writes_results_and_exit_zero(self, tmp_path):
        out = tmp_path / "run"
        code = run(["verify", "--dataset", "ba-shapes", "--base-nodes", "12",
                    "--motifs", "2", "--seed", "5", "--hidden-dim", "16",
                    "--epochs", "600", "--steps", "60", "--scorer", "is",
                    "--g-max", "1", "--min-class-count", "1",
                    "--test-fraction", "0.3", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "plotdata.csv").exists()
        assert (out / "bundle.json").exists()
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "scorer,i,class,b,c,statistic,p_value,reported_statistic"

    def test_explain_failure_in_a_worker_writes_the_partial_report(
            self, tmp_path, monkeypatch, capsys):
        """An exception in a forked explain worker fails the explain stage:
        exit 3, with the bundle of the stages before it written."""
        monkeypatch.setattr(relex.workers, "cpu_count", lambda: 2)
        parent, explain_stack = os.getpid(), relex.explainer._explain_stack

        def fail_in_the_child(*args):
            if os.getpid() != parent:
                raise ValueError("the stack failed")
            return explain_stack(*args)

        monkeypatch.setattr(relex.explainer, "_explain_stack", fail_in_the_child)
        out = tmp_path / "run"
        assert run(["verify", "--dataset", "ba-shapes", "--base-nodes", "12",
                    "--motifs", "2", "--seed", "5", "--hidden-dim", "16",
                    "--epochs", "600", "--steps", "60", "--scorer", "is",
                    "--min-class-count", "1", "--test-fraction", "0.3",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error: stage 'explain' failed: the stack failed\n"
        bundle = json.loads((out / "bundle.json").read_text())
        assert len(bundle["base_predictions"]) == 22
        assert (bundle["targets"], bundle["results"]) == ([], [])

    def test_verify_prints_each_warning_once(self, tmp_path):
        """In a fresh process, each removed-edge-count warning reaches
        stderr once, from the bundle."""
        src = Path(relex.workers.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "relex.cli", "verify", "--dataset", "ba-shapes",
             "--base-nodes", "25", "--motifs", "5", "--scorer", "both", "--g-max", "2",
             "--max-targets", "6", "--hops", "2", "--test-fraction", "0.4",
             "--min-class-count", "1", "--seed", "1", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        lines = done.stderr.splitlines()
        assert any(line.startswith("warning: removed-edge counts diverge") for line in lines)
        messages = [line.removeprefix("warning: ") for line in lines]
        assert len(messages) == len(set(messages)), done.stderr

    @pytest.mark.parametrize("fraction", ["-0.1", "0.95", "1.5"])
    def test_bad_test_fraction_exits_2_before_the_graph(self, tmp_path, monkeypatch,
                                                       capsys, fraction):
        def build(spec, seed):
            raise AssertionError("the graph was built")

        monkeypatch.setattr("relex.pipeline.DatasetSpec.build", build)
        assert run(["verify", "--dataset", "ba-shapes", "--test-fraction", fraction,
                    "--out", str(tmp_path / "run")]) == 2
        assert "split fractions must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags", [["--top-k", "0"], ["--steps", "-5"],
                                       ["--max-targets", "0"], ["--min-class-count", "-3"]])
    def test_senseless_setting_exits_2_before_the_graph(self, tmp_path, monkeypatch,
                                                        capsys, flags):
        def build(spec, seed):
            raise AssertionError("the graph was built")

        monkeypatch.setattr("relex.pipeline.DatasetSpec.build", build)
        assert run(["verify", "--dataset", "ba-shapes", *flags,
                    "--out", str(tmp_path / "run")]) == 2
        assert "the graph was built" not in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dataset, message", [
        (["ba-shapes", "--base-nodes", "3"], "base_nodes must be >= 5"),
        (["ba-shapes", "--motifs", "0"], "motif_count must be >= 1"),
        (["tree-cycles", "--height", "1"], "height must be >= 2"),
        (["missing.json"], "no such file: missing.json"),
    ])
    def test_unbuildable_dataset_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                           dataset, message):
        assert run(["verify", "--dataset", *dataset,
                    "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_zero_test_fraction_writes_header_only_results(self, tmp_path):
        out = tmp_path / "run"
        assert run(["verify", "--dataset", "ba-shapes", "--base-nodes", "12",
                    "--motifs", "2", "--seed", "5", "--hidden-dim", "16",
                    "--epochs", "600", "--steps", "60", "--scorer", "is",
                    "--g-max", "1", "--min-class-count", "0",
                    "--max-targets", "2", "--test-fraction", "0",
                    "--out", str(out)]) == 0
        assert (out / "results.csv").read_text() == \
               "scorer,i,class,b,c,statistic,p_value,reported_statistic\n"
        assert (out / "plotdata.csv").read_text() == "class,i,scorer,reported_statistic\n"

    @pytest.fixture(scope="class")
    def verify_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("verify") / "run"
        assert run(["verify", "--dataset", "ba-shapes", "--base-nodes", "12",
                    "--motifs", "2", "--seed", "5", "--hidden-dim", "16",
                    "--epochs", "600", "--steps", "60", "--scorer", "both",
                    "--g-max", "1", "--min-class-count", "1",
                    "--max-targets", "2", "--test-fraction", "0.3",
                    "--out", str(out)]) == 0
        return out

    def test_report_regenerates_from_bundle(self, verify_out, tmp_path):
        out = verify_out
        redo = tmp_path / "redo"
        assert run(["report", "--bundle", str(out / "bundle.json"),
                    "--out", str(redo)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert any(n.startswith("uncertainty_t") for n in names)
        assert sorted(p.name for p in redo.iterdir()) == names
        for name in names:
            assert (redo / name).read_bytes() == (out / name).read_bytes(), name

    def test_report_out_is_a_file_validation_error(self, verify_out, tmp_path, capsys):
        (tmp_path / "taken").write_text("kept")
        assert run(["report", "--bundle", str(verify_out / "bundle.json"),
                    "--out", str(tmp_path / "taken")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "taken") in err
        assert (tmp_path / "taken").read_text() == "kept"

    @pytest.mark.parametrize("key", ["dataset", "seed", "targets", "base_predictions",
                                     "results", "removed_counts", "warnings",
                                     "rankings", "reports"])
    def test_report_on_truncated_bundle_validation_error(self, verify_out, tmp_path,
                                                         key):
        blob = json.loads((verify_out / "bundle.json").read_text())
        del blob[key]
        (tmp_path / "bundle.json").write_text(json.dumps(blob))
        assert run(["report", "--bundle", str(tmp_path / "bundle.json"),
                    "--out", str(tmp_path / "redo")]) == 2
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("column", ["scorer", "class", "p_value",
                                        "reported_statistic"])
    def test_report_on_result_row_missing_column_validation_error(
            self, verify_out, tmp_path, capsys, column):
        blob = json.loads((verify_out / "bundle.json").read_text())
        del blob["results"][0][column]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(blob))
        assert run(["report", "--bundle", str(bundle),
                    "--out", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err == f"error: {bundle}: missing key '{column}'\n"
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("path, value, message", [
        (["results"], 5, "key 'results' must be an array, not a number"),
        (["results", 0], [1, 2], "key 'results' row 0 must be an object, not an array"),
        (["rankings"], [], "key 'rankings' must be an object, not an array"),
        (["reports"], [], "key 'reports' must be an object, not an array"),
        (["targets"], 5, "key 'targets' must be an array, not a number"),
        (["removed_counts"], [], "key 'removed_counts' must be an object, not an array"),
        # row 0's i is 1, so the rows would sort an integer against a string
        (["results", 1, "i"], "1", "key 'results' row 1 i '1' is not an integer"),
        (["results", 0, "b"], "x", "key 'results' row 0 b 'x' is not an integer"),
        (["results", 0, "p_value"], None, "key 'results' row 0 p_value None is not a number"),
        (["results", 0, "scorer"], 5, "key 'results' row 0 scorer must be a string, not a number"),
        (["removed_counts", "bp/1"], 1.5, "removed count bp/1 1.5 is not an integer"),
        (["warnings"], [5], "warning must be a string, not a number"),
        (["dataset"], None, "key 'dataset' must be a string, not null"),
        (["reports", None, "target"], "x", "report target 'x' is not an integer"),
        (["reports", None, "converged"], "maybe", "report converged must be a boolean, not a string"),
        (["reports", None, "skipped"], [[0.5, 1]], "skipped u 0.5 is not an integer"),
    ], ids=["results", "results-row", "rankings", "reports", "targets", "removed_counts",
            "result-i-mixed", "result-b", "result-p-value", "result-scorer", "removed-count",
            "warning", "dataset", "report-target", "report-converged", "report-skipped"])
    def test_report_on_value_of_wrong_type_validation_error(
            self, verify_out, tmp_path, capsys, path, value, message):
        blob = json.loads((verify_out / "bundle.json").read_text())
        holder = blob
        for step in path[:-1]:  # None steps into the first report
            holder = next(iter(holder.values())) if step is None else holder[step]
        holder[path[-1]] = value
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(blob))
        assert run(["report", "--bundle", str(bundle),
                    "--out", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err == f"error: {bundle}: {message}\n"
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("key, value", [
        ("targets", [[1]]), ("seed", [0]), ("rankings", [1, 2, [3]]),
    ], ids=["targets", "seed", "rankings-entry"])
    def test_report_on_scalar_of_wrong_type_validation_error(
            self, verify_out, tmp_path, capsys, key, value):
        blob = json.loads((verify_out / "bundle.json").read_text())
        if key == "rankings":  # the first scorer's first target's first entry
            per_target = next(iter(blob["rankings"].values()))
            next(iter(per_target.values()))[0] = value
        else:
            blob[key] = value
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(blob))
        assert run(["report", "--bundle", str(bundle),
                    "--out", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bundle}: ")
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("change, message", [
        ("seed", "seed 0.9 is not an integer"),
        ("targets", "target 25.5 is not an integer"),
        ("base_predictions", "base prediction 1.5 is not an integer"),
        ("ranking-end", "ranked relation end 2.5 is not an integer"),
        ("rankings-key-float", "key 'rankings' bp: '25.5' is not an integer target"),
        ("rankings-key-word", "key 'rankings' bp: 'x' is not an integer target"),
        ("reports-key-float", "key 'reports': '25.5' is not an integer target"),
        ("reports-key-word", "key 'reports': 'x' is not an integer target"),
    ])
    def test_report_on_non_integer_id_validation_error(self, verify_out, tmp_path,
                                                       capsys, change, message):
        blob = json.loads((verify_out / "bundle.json").read_text())
        ranking = next(iter(blob["rankings"]["bp"].values()))
        bad_key = "x" if change.endswith("word") else "25.5"
        if change == "seed":
            blob["seed"] = 0.9
        elif change == "targets":
            blob["targets"][0] = 25.5
        elif change == "base_predictions":
            blob["base_predictions"][0] = 1.5
        elif change == "ranking-end":
            ranking[0][0] = 2.5
        elif change.startswith("rankings-key"):
            blob["rankings"]["bp"][bad_key] = ranking
        else:
            blob["reports"][bad_key] = next(iter(blob["reports"].values()))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(blob))
        assert run(["report", "--bundle", str(bundle),
                    "--out", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err == f"error: {bundle}: {message}\n"
        assert not (tmp_path / "redo").exists()

    @staticmethod
    def _first_entry(blob):
        """The first entry of the first report that has one."""
        return next(r["entries"][0] for r in blob["reports"].values() if r["entries"])

    @pytest.mark.parametrize("change, message", [
        ("entry-gc", "report gc '0.8' is not a number"),
        ("entry-delta", "report delta True is not a number"),
        ("entry-neg-log-delta", "report neg_log_delta 'x' is not a number"),
        ("entry-u", "report u 0.5 is not an integer"),
        ("ranking-score", "ranked relation score '2.5' is not a number"),
    ], ids=["entry-gc", "entry-delta", "entry-neg-log-delta", "entry-u", "ranking-score"])
    def test_report_on_non_number_validation_error(self, verify_out, tmp_path, capsys,
                                                   change, message):
        blob = json.loads((verify_out / "bundle.json").read_text())
        entry = self._first_entry(blob)
        if change == "entry-gc":
            entry[2] = "0.8"
        elif change == "entry-delta":
            entry[3] = True
        elif change == "entry-neg-log-delta":
            entry[4] = "x"
        elif change == "entry-u":
            entry[0] = 0.5
        else:
            next(iter(blob["rankings"]["bp"].values()))[0][2] = "2.5"
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(blob))
        assert run(["report", "--bundle", str(bundle),
                    "--out", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err == f"error: {bundle}: {message}\n"
        assert not (tmp_path / "redo").exists()

    def test_report_reads_infinity_where_relex_writes_it(self, verify_out, tmp_path):
        """A delta of 0 is written with neg_log_delta Infinity, in the
        report entries and in the bp ranking scores."""
        blob = json.loads((verify_out / "bundle.json").read_text())
        entry = self._first_entry(blob)
        entry[3], entry[4] = 0.0, float("inf")
        next(iter(blob["rankings"]["bp"].values()))[0][2] = float("inf")
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(blob))
        assert "Infinity" in bundle.read_text()
        assert run(["report", "--bundle", str(bundle),
                    "--out", str(tmp_path / "redo")]) == 0
        rows = [line.split(",") for p in (tmp_path / "redo").glob("uncertainty_t*.csv")
                for line in p.read_text().splitlines()[1:]]
        assert ["0.0", "inf"] in [row[3:5] for row in rows]

    @pytest.mark.parametrize("out", ["taken", "taken/run"])
    def test_verify_out_not_a_directory_fails_before_the_pipeline(
            self, tmp_path, monkeypatch, capsys, out):
        def run_verification(cfg):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr("relex.cli.run_verification", run_verification)
        (tmp_path / "taken").write_text("kept")
        assert run(["verify", "--dataset", "ba-shapes",
                    "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --out {tmp_path / out}: {tmp_path / 'taken'} "
                                f"exists and is not a directory\n")
        assert "wrote" not in captured.out
        assert (tmp_path / "taken").read_text() == "kept"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_report_error_names_the_missing_key_and_the_bundle(self, verify_out,
                                                               tmp_path, capsys):
        blob = json.loads((verify_out / "bundle.json").read_text())
        del blob["reports"]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(blob))
        assert run(["report", "--bundle", str(bundle),
                    "--out", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err == f"error: {bundle}: missing key 'reports'\n"
        assert not (tmp_path / "redo").exists()


class TestStagedChainReproducesVerify:
    def test_uncertainty_csv_matches_verify(self, tmp_path):
        self.check_chain(tmp_path, split=[])

    def test_uncertainty_csv_matches_verify_at_test_fraction(self, tmp_path):
        self.check_chain(tmp_path, split=["--test-fraction", "0.4"])

    @staticmethod
    def check_chain(tmp_path, split):
        dataset = ["--dataset", "ba-shapes", "--base-nodes", "12", "--motifs", "2"]
        seed = ["--seed", "5"]
        train = ["--hidden-dim", "16", "--epochs", "600", *split]
        steps = ["--steps", "60"]
        assert run(["verify", *dataset, *seed, *train, *steps, "--scorer", "bp",
                    "--max-targets", "1", "--out", str(tmp_path / "verify")]) == 0
        [target] = json.loads((tmp_path / "verify" / "bundle.json").read_text())["targets"]

        graph, model = str(tmp_path / "graph.json"), str(tmp_path / "model.json")
        on_target = ["--graph", graph, "--model", model, "--target", str(target),
                     *steps, *seed]
        assert run(["generate", *dataset, *seed, "--out", graph]) == 0
        assert run(["train", "--graph", graph, *seed, *train, "--out", model]) == 0
        assert run(["explain", *on_target, "--out", str(tmp_path / "expl.json")]) == 0
        assert run(["cres", *on_target, "--out", str(tmp_path / "cres.json")]) == 0
        assert run(["learn-fg", "--cres", str(tmp_path / "cres.json"),
                    "--out", str(tmp_path / "fg.json")]) == 0
        assert run(["evaluate", "--fg", str(tmp_path / "fg.json"),
                    "--explanation", str(tmp_path / "expl.json"),
                    "--out", str(tmp_path / "uncertainty.csv")]) == 0
        assert (tmp_path / "uncertainty.csv").read_bytes() == \
               (tmp_path / "verify" / f"uncertainty_t{target}.csv").read_bytes()


class TestReadmeExample:
    def test_readme_command_lines_parse(self):
        """Every ``relex …`` and ``python -m relex.cli …`` line of the
        README's code blocks parses: no flag, choice or command in it is
        one the CLI does not have, and every command is shown."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        code = "\n".join(readme.split("```")[1::2]).replace("\\\n", " ")
        command = re.compile(r"(?:^|\s)(?:relex|python -m relex\.cli)\s+(.*)")
        shown = set()
        for line in code.splitlines():
            if match := command.search(line):
                argv = shlex.split(match[1])
                try:
                    build_parser().parse_args(argv)
                except SystemExit:
                    pytest.fail(f"README line does not parse: {line}")
                shown.add(argv[0])
        assert shown == set(COMMANDS)

    def test_readme_verify_line_writes_results(self, tmp_path):
        """The README's `relex verify` line, run as written (its output
        directory moved under tmp_path), reports McNemar rows."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        text = readme.replace("\\\n", " ")
        line = next(ln for ln in text.splitlines() if ln.startswith("relex verify "))
        argv = shlex.split(line)[1:]
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert run(argv) == 0
        rows = (tmp_path / "results" / "results.csv").read_text().strip().splitlines()
        assert len(rows) > 1
