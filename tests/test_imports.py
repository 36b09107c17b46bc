"""The import graph, checked in a fresh interpreter: the package loads no
submodule, the CLI loads every pipeline module, and nothing loads
scipy.stats, whose import costs more than the rest of relex's together."""

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
