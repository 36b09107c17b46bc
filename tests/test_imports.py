"""The import graph, checked in a fresh interpreter: the package loads no
submodule, the CLI loads every pipeline module, and nothing loads
scipy.stats, whose import costs more than the rest of relex's together.
Only train and verify load scipy at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PIPELINE_MODULES = {"relex.boolfact", "relex.explainer", "relex.gcn", "relex.graphs",
                    "relex.bp", "relex.factorgraph", "relex.mcnemar", "relex.pipeline",
                    "relex.cli"}


def loaded_after(statement):
    """The sorted ``sys.modules`` keys after running ``statement`` in a new
    interpreter with this checkout's ``src`` first on the path."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def test_cli_loads_the_pipeline_but_not_scipy_stats():
    modules = loaded_after("import relex.cli")
    assert PIPELINE_MODULES <= modules
    assert "scipy.stats" not in modules


def test_package_loads_no_submodule():
    modules = loaded_after("import relex")
    assert "relex" in modules
    assert not [m for m in modules if m.startswith("relex.")]


def test_only_train_and_verify_load_scipy(tmp_path):
    """Each command, run through ``relex.cli.main`` on tiny inputs in a new
    interpreter, loads only the scipy modules it calls: scipy.sparse to
    train, and scipy.special for verify's McNemar tests."""
    def scipy_in(modules):
        return {m for m in modules if m == "scipy" or m.startswith("scipy.")}

    def scipy_after(*argv):
        run = ("import contextlib, io\nfrom relex.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    code = main({[str(a) for a in argv]!r})\n"
               "assert code == 0, code")
        return scipy_in(loaded_after(run))

    graph, model = tmp_path / "graph.json", tmp_path / "model.json"
    explanation, cres = tmp_path / "explanation.json", tmp_path / "cres.json"
    fg, verified = tmp_path / "fg.json", tmp_path / "verify"
    small = ["--dataset", "ba-shapes", "--base-nodes", "12", "--motifs", "2"]
    ball = ["--graph", graph, "--model", model, "--target", "13", "--steps", "60"]
    assert scipy_in(loaded_after("import relex.cli")) == set()
    assert scipy_after("generate", *small, "--seed", "3", "--out", graph) == set()
    train = scipy_after("train", "--graph", graph, "--hidden-dim", "16", "--epochs", "300",
                        "--out", model)
    assert "scipy.sparse" in train and "scipy.special" not in train
    assert scipy_after("explain", *ball, "--out", explanation) == set()
    assert scipy_after("cres", *ball, "--out", cres) == set()
    assert scipy_after("learn-fg", "--cres", cres, "--out", fg) == set()
    assert scipy_after("evaluate", "--fg", fg, "--explanation", explanation,
                       "--out", tmp_path / "uncertainty.csv") == set()
    # seed 5 leaves b + c > 0 on a test class, so McNemar reads the tail
    verify = scipy_after("verify", *small, "--seed", "5", "--hidden-dim", "16",
                         "--epochs", "300", "--steps", "60", "--scorer", "both",
                         "--g-max", "1", "--min-class-count", "1", "--max-targets", "1",
                         "--test-fraction", "0.3", "--out", verified)
    assert {"scipy.sparse", "scipy.special"} <= verify and "scipy.stats" not in verify
    assert scipy_after("report", "--bundle", verified / "bundle.json",
                       "--out", tmp_path / "report") == set()
