"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` and runs one
round of relex commands in ``run_round``, which times only the commands
and counts the operations attempted and failed.  ``check_round`` then
checks the round's outputs (see ``checks``), untimed and untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import probe

HOPS = 2  # the explanations' hop radius in every workload


@dataclass
class RoundResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0


class Timer:
    """Sums the wall time of the calls it wraps, less the time the speed
    probe took inside them."""

    def __init__(self):
        self.seconds = 0.0

    def call(self, fn, *args, **kwargs):
        start, probing = time.perf_counter(), probe.spent()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start - (probe.spent() - probing)


def cli(timer: Timer, *argv) -> int:
    """Run ``relex <argv>`` in this process, timed, with its output kept
    off the benchmark's standard output."""
    from relex.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = timer.call(main, [str(a) for a in argv])
    if code != 0:
        sys.stderr.write(f"relex {argv[0]} exited {code}: {err.getvalue()}")
    return code


# ---------------------------------------------------------------------------
# verify-bp and verify-is-large
# ---------------------------------------------------------------------------

# The rank search's stop fraction in every `verify` (the CLI default is
# 0.05, at which the ladder's length swings with the seed; see README.md).
RANK_STOP_FRACTION = 0.2


@contextlib.contextmanager
def rank_stop_fraction(value: float):
    """Make ``relex verify`` run its pipeline with the rank search's
    ``stop_fraction`` at ``value``, a setting the CLI does not expose.

    It rebinds ``run_verification`` in ``relex.cli`` around whatever is
    bound there now, so a tracer installed before still sees the call.
    """
    import relex.cli

    inner = relex.cli.run_verification

    def run_verification(cfg):
        return inner(replace(cfg, rank_search=replace(cfg.rank_search,
                                                      stop_fraction=value)))

    relex.cli.run_verification = run_verification
    try:
        yield
    finally:
        relex.cli.run_verification = inner


@dataclass(frozen=True)
class VerifyWorkload:
    """``relex verify`` on a ba-shapes graph that relex generates from
    the seed; one operation per target, plus the report round-trip when
    ``report`` is set."""

    name: str
    base_nodes: int
    motifs: int
    scorer: str
    g_max: int
    max_targets: int
    report: bool

    def argv(self, seed: int, out: Path) -> list:
        return ["verify", "--dataset", "ba-shapes", "--base-nodes", self.base_nodes,
                "--motifs", self.motifs, "--scorer", self.scorer,
                "--g-max", self.g_max, "--max-targets", self.max_targets,
                "--hops", HOPS, "--test-fraction", 0.4, "--min-class-count", 1,
                "--seed", seed, "--out", out]

    def setup(self, work: Path, seed: int) -> None:
        work.mkdir(parents=True, exist_ok=True)

    def run_round(self, work: Path, seed: int, k: int) -> RoundResult:
        timer = Timer()
        res = RoundResult(attempted=self.max_targets + (1 if self.report else 0))
        verify_dir = work / f"round{k}" / "verify"
        with rank_stop_fraction(RANK_STOP_FRACTION):
            code = cli(timer, *self.argv(seed, verify_dir))
        if code != 0:
            res.failed = res.attempted
            res.seconds = timer.seconds
            return res
        if self.report:
            report_dir = work / f"round{k}" / "report"
            code = cli(timer, "report", "--bundle", verify_dir / "bundle.json",
                       "--out", report_dir)
            if code != 0 or checks.same_files(verify_dir, report_dir):
                res.failed += 1
        res.seconds = timer.seconds
        return res

    def check_round(self, work: Path, seed: int, k: int) -> list[str]:
        from relex.datasets import generate_ba_shapes

        verify_dir = work / f"round{k}" / "verify"
        if not (verify_dir / "bundle.json").is_file():
            return []  # verify failed, and the round counted it
        graph = generate_ba_shapes(self.base_nodes, self.motifs, seed)
        return checks.check_verify_dir(verify_dir, graph.edges, HOPS)


# ---------------------------------------------------------------------------
# fg-learn-eval
# ---------------------------------------------------------------------------

# The CRE sets' shape.  Classes, explanation count and entity counts are
# the planned input; the pool size and the confidences copy 98 CRE sets
# that ``generate_cres`` made on ba-shapes(25, 5), seeds 1-4, at the CLI's
# default rank search (README.md, "How the fg-learn-eval CRE sets are made").
ENTITY_COUNTS = (6, 8, 10, 12)
CLASSES = 8
EXPLANATIONS = 19
RELATIONS_PER_EXPLANATION = 6
POOL_EXTRA = 3  # relations beyond the entity count: the measured median
# Confidences of those sets at every 5th percentile, 0 to 100; half lie
# below 0.37 and most of the rest above 0.95.
GC_PERCENTILES = (0.0044, 0.0111, 0.0132, 0.0153, 0.0176, 0.0239, 0.0405,
                  0.0616, 0.1575, 0.1848, 0.3675, 0.9464, 0.9737, 0.9800,
                  0.9831, 0.9853, 0.9874, 0.9896, 0.9918, 0.9927, 0.9982)


def creset(rng: np.random.Generator, entities: int) -> dict:
    """One CRE set over exactly ``entities`` nodes.

    A random path covers every entity; random chords bring the relation
    pool to ``entities + POOL_EXTRA``.  The first explanations take the
    pool in shuffled chunks, so every relation is explained at least
    once; the rest draw random subsets.  Confidences are drawn from the
    measured distribution by inverse-CDF sampling of ``GC_PERCENTILES``.
    """
    nodes = sorted(rng.choice(60, size=entities, replace=False).tolist())
    order = rng.permutation(nodes).tolist()
    pool = {tuple(sorted(p)) for p in zip(order, order[1:])}
    while len(pool) < entities + POOL_EXTRA:
        u, v = rng.choice(nodes, size=2, replace=False).tolist()
        pool.add((min(u, v), max(u, v)))
    pool = sorted(pool)
    k = RELATIONS_PER_EXPLANATION
    shuffled = [pool[i] for i in rng.permutation(len(pool))]
    target = int(rng.choice(nodes))
    predicted = int(rng.integers(CLASSES))
    levels = np.linspace(0.0, 1.0, len(GC_PERCENTILES))
    expls = []
    for i in range(EXPLANATIONS):
        chunk = shuffled[i * k:(i + 1) * k]
        if len(chunk) < k:
            rest = [e for e in pool if e not in chunk]
            picks = rng.choice(len(rest), size=k - len(chunk), replace=False)
            chunk = chunk + [rest[j] for j in sorted(picks)]
        gcs = np.interp(rng.uniform(size=k), levels, GC_PERCENTILES)
        expls.append({"target": target, "class": predicted, "hops": HOPS,
                      "relations": [{"u": u, "v": v, "gc": float(gc)}
                                    for (u, v), gc in zip(sorted(chunk), gcs)]})
    return {"target": target, "class_count": CLASSES, "explanations": expls,
            "ranks": list(range(1, EXPLANATIONS + 1)),
            "errors": list(range(EXPLANATIONS, 0, -1))}


@dataclass(frozen=True)
class FactorGraphWorkload:
    """Staged ``relex learn-fg`` then ``relex evaluate`` on every
    explanation, over CRE sets the benchmark makes from the seed."""

    name: str

    def setup(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 7])
        for entities in ENTITY_COUNTS:
            d = work / f"set{entities}"
            d.mkdir(parents=True, exist_ok=True)
            blob = creset(rng, entities)
            (d / "cres.json").write_text(json.dumps(blob), encoding="utf-8")
            for i, e in enumerate(blob["explanations"]):
                (d / f"explanation{i}.json").write_text(json.dumps(e), encoding="utf-8")

    def run_round(self, work: Path, seed: int, k: int) -> RoundResult:
        timer = Timer()
        res = RoundResult()
        for entities in ENTITY_COUNTS:
            d = work / f"set{entities}"
            out = work / f"round{k}" / f"set{entities}"
            out.mkdir(parents=True, exist_ok=True)
            res.attempted += 1 + EXPLANATIONS
            if cli(timer, "learn-fg", "--cres", d / "cres.json",
                   "--out", out / "factorgraph.json") != 0:
                res.failed += 1 + EXPLANATIONS
                continue
            for i in range(EXPLANATIONS):
                if cli(timer, "evaluate", "--fg", out / "factorgraph.json",
                       "--explanation", d / f"explanation{i}.json",
                       "--out", out / f"uncertainty{i}.csv") != 0:
                    res.failed += 1
        res.seconds = timer.seconds
        return res

    def check_round(self, work: Path, seed: int, k: int) -> list[str]:
        problems = []
        for entities in ENTITY_COUNTS:
            out = work / f"round{k}" / f"set{entities}"
            fg = out / "factorgraph.json"
            if not fg.is_file():
                continue  # learn-fg failed, and the round counted it
            for csv in sorted(out.glob("uncertainty*.csv")):
                problems += checks.check_uncertainty_csv(csv)
            problems += checks.check_factor_graph(fg)
            problems += checks.check_identity_injection(
                fg, work / f"set{entities}" / "explanation0.json")
        return problems


WORKLOADS = {w.name: w for w in (
    VerifyWorkload("verify-bp", base_nodes=25, motifs=5, scorer="both", g_max=2,
                   max_targets=6, report=True),
    VerifyWorkload("verify-is-large", base_nodes=150, motifs=30, scorer="is", g_max=1,
                   max_targets=10, report=False),
    FactorGraphWorkload("fg-learn-eval"),
)}
