"""Correctness checks on the files relex writes.

Each check recomputes a property from the outputs and from values the
benchmark derives itself (its own BFS, its own chi-square tail, its own
enumeration of factor-graph assignments), so a speed-up that changes
results fails here.  Every function returns a list of problems; an empty
list means the check passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import deque
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def within_hops(edges, target: int, hops: int) -> set[int]:
    """Nodes at most ``hops`` BFS steps from ``target``."""
    adj: dict[int, list[int]] = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        node = queue.popleft()
        if dist[node] < hops:
            for nb in adj.get(node, ()):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    queue.append(nb)
    return set(dist)


def _ordered(ranking):
    """The pipeline's removal order: descending score, ties on (u, v)."""
    return sorted(ranking, key=lambda item: (-item[1], item[0]))


def check_results_csv(path: Path) -> list[str]:
    """McNemar rows: continuity-corrected statistic, chi-square(1) tail,
    and a reported statistic that is non-zero only when p < 0.05."""
    problems = []
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        b, c = int(row["b"]), int(row["c"])
        stat = 0.0 if b + c == 0 else (abs(b - c) - 1) ** 2 / (b + c)
        p = math.erfc(math.sqrt(stat / 2.0))  # chi-square(1) survival function
        got_stat, got_p = float(row["statistic"]), float(row["p_value"])
        reported = float(row["reported_statistic"])
        where = f"results.csv {row['scorer']}/{row['i']} class {row['class']}"
        if not _close(got_stat, stat):
            problems.append(f"{where}: statistic {got_stat} != {stat}")
        if not _close(got_p, p):
            problems.append(f"{where}: p_value {got_p} != {p}")
        if reported != (got_stat if got_p < 0.05 else 0.0):
            problems.append(f"{where}: reported_statistic {reported} with p={got_p}")
    return problems


def check_uncertainty_csv(path: Path) -> list[str]:
    """Every row has neg_log_delta = -log|delta|, with delta = 0 -> +inf."""
    problems = []
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            delta = float(row["delta"])
            want = math.inf if delta == 0.0 else -math.log(abs(delta))
            if not _close(float(row["neg_log_delta"]), want):
                problems.append(f"{path.name} ({row['u']}, {row['v']}): "
                                f"neg_log_delta {row['neg_log_delta']} != {want}")
    return problems


def check_bundle(out_dir: Path, edges: frozenset, hops: int) -> list[str]:
    """Removed counts, explained relations and ranking order in bundle.json."""
    problems = []
    bundle = json.loads((out_dir / "bundle.json").read_text(encoding="utf-8"))
    rankings = {scorer: {int(t): [((u, v), s) for (u, v, s) in ranking]
                         for t, ranking in per.items()}
                for scorer, per in bundle["rankings"].items()}

    for key, count in bundle["removed_counts"].items():
        scorer, i = key.split("/")
        chosen = {_ordered(r)[int(i) - 1][0]
                  for r in rankings[scorer].values() if len(r) >= int(i)}
        if count != len(chosen & edges):
            problems.append(f"removed_counts[{key}] = {count}, recomputed {len(chosen & edges)}")

    for scorer, per in rankings.items():
        for target, ranking in per.items():
            near = within_hops(edges, target, hops)
            for (u, v), _ in ranking:
                if (u, v) not in edges or u not in near or v not in near:
                    problems.append(f"{scorer} target {target}: relation ({u}, {v}) "
                                    f"is not an edge within {hops} hops")
            scores = [s for _, s in ranking]
            if scores != sorted(scores, reverse=True):
                problems.append(f"{scorer} target {target}: ranking not in descending order")
            if scorer == "is" and not all(0.0 < s < 1.0 for s in scores):
                problems.append(f"is target {target}: confidence outside (0, 1)")
    if "bp" in rankings and "is" in rankings:
        for target, ranking in rankings["bp"].items():
            explained = {e for e, _ in rankings["is"].get(target, [])}
            extra = {e for e, _ in ranking} - explained
            if extra:
                problems.append(f"bp target {target}: relations {sorted(extra)} "
                                f"are not in its explanation")
    return problems


def check_verify_dir(out_dir: Path, edges: frozenset, hops: int) -> list[str]:
    problems = check_results_csv(out_dir / "results.csv")
    problems += check_bundle(out_dir, edges, hops)
    for path in sorted(out_dir.glob("uncertainty_t*.csv")):
        problems += check_uncertainty_csv(path)
    return problems


def same_files(original: Path, copy: Path) -> list[str]:
    """Files under ``original`` that ``copy`` lacks or writes differently."""
    return [p.name for p in sorted(original.iterdir())
            if not (copy / p.name).is_file()
            or (copy / p.name).read_bytes() != p.read_bytes()]


# ---------------------------------------------------------------------------
# Factor graphs and factorizations
# ---------------------------------------------------------------------------

def clause_scores(fg_blob: dict) -> tuple[np.ndarray, list[int], int]:
    """Score of every assignment of a factor-graph file, by enumeration.

    Rows follow ``itertools.product`` order over the entities (sorted)
    and then the target state, the order exhaustive MAP walks.
    """
    entities = list(fg_blob["entities"])
    card = int(fg_blob["target_card"])
    col = {e: i for i, e in enumerate(entities)}
    bits = np.array(list(itertools.product((0, 1), repeat=len(entities))), dtype=bool)
    bits = bits.reshape(-1, len(entities))
    scores = np.zeros((bits.shape[0], card))
    for f in fg_blob["factors"]:
        both = bits[:, col[f["u"]]] & bits[:, col[f["v"]]]
        scores[:, int(f["t"])] += f["weight"] * both
    return scores.reshape(-1), entities, card


def check_factor_graph(fg_path: Path) -> list[str]:
    """Learned weights in [-10, 10], and the program's MAP assignment
    reaches the highest score of the benchmark's own enumeration."""
    from relex.factorgraph import TARGET, load_factorgraph, map_assignment

    problems = []
    blob = json.loads(fg_path.read_text(encoding="utf-8"))
    weights = [f["weight"] for f in blob["factors"] if f["kind"] == "learned"]
    if not all(-10.0 <= w <= 10.0 for w in weights):
        problems.append(f"{fg_path.name}: learned weight outside [-10, 10]")
    scores, entities, card = clause_scores(blob)
    assignment = map_assignment(load_factorgraph(fg_path))
    index = 0
    for e in entities:
        index = index * 2 + assignment[e]
    got = scores[index * card + assignment[TARGET]]
    if not _close(got, scores.max()):
        problems.append(f"{fg_path.name}: MAP score {got} < enumerated maximum {scores.max()}")
    return problems


def check_identity_injection(fg_path: Path, explanation_path: Path) -> list[str]:
    """Injecting an explanation whose confidences are all 1 moves nothing."""
    from dataclasses import replace

    from relex.explainer import load_explanation
    from relex.factorgraph import load_factorgraph, quantify_uncertainty

    e = load_explanation(explanation_path)
    ones = replace(e, relations=tuple((edge, 1.0) for edge, _ in e.relations))
    report = quantify_uncertainty(load_factorgraph(fg_path), ones)
    return [f"{fg_path.name}: identity injection moved ({r.edge}) by {r.delta}"
            for r in report.entries if r.delta != 0.0]


def check_factorization(p: np.ndarray, fact) -> list[str]:
    """The reported error is the XOR count between P and Q o R."""
    recon = (np.asarray(fact.q, dtype=np.int64) @ np.asarray(fact.r, dtype=np.int64)) > 0
    xor = int(np.count_nonzero(recon != (np.asarray(p) > 0)))
    if xor != fact.error:
        return [f"rank {fact.rank}: error {fact.error} != XOR count {xor}"]
    return []
