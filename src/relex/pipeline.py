"""End-to-end verification pipeline and report emission.

``run_verification`` runs ``STAGES`` over one ``Run``.  Each stage's tag
and what it adds to the Run or its ``bundle``:

    dataset  graph
    split    split, the train/validation/test nodes
    train    model; base_predictions, on every node
    explain  explanations, in one lockstep ``explain_all`` call; targets
    cres     (BP) cre_sets, in one ``generate_cre_sets`` call
    scores   (BP) factor_graphs and reports; rankings by each scorer
    retrain  reduced graphs, less each target's i-th ranked relation, and
             retrained models, in one lockstep ``train_gcns`` run from the
             first model's seed; results, McNemar's test per class

Each explanation and model is bit-identical to making it alone.  Only the
stage loop turns an exception into a PipelineStageError naming the stage,
with the bundle so far; ``relex verify`` writes that partial report and
exits 3 (2 at ``dataset``, where nothing ran).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from relex.boolfact import CreSet, EmptyCreSet, RankSearchConfig, generate_cre_sets
from relex.datasets import (generate_ba_community, generate_ba_shapes,
                            generate_tree_motif)
from relex.explainer import ExplainConfig, Explanation, explain_all, is_scores
from relex.factorgraph import (FactorGraph, RelationUncertainty, UncertaintyReport,
                               build_factor_graph, learn_weights,
                               quantify_uncertainty, report_to_csv)
from relex.gcn import GcnModel, TrainConfig, TrainingDiverged, predict, train_gcn, train_gcns
from relex.graphs import (SPLIT_FRACTIONS, Edge, NodeSplit, RelationalGraph,
                          check_split_fractions, load_graph, read_float, read_int,
                          remove_edges, split_nodes)
from relex.mcnemar import mcnemar_test

GENERATORS = ("ba-shapes", "ba-community", "tree-cycles", "tree-grids")


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage tag and partial results."""

    def __init__(self, stage: str, cause: BaseException,
                 partial: "VerificationBundle"):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.partial = partial


@dataclass
class DatasetSpec:
    kind: str                      # generator name or "file"
    path: str | None = None
    base_nodes: int = 25
    motif_count: int = 5
    height: int = 4

    @property
    def synthetic(self) -> bool:
        return self.kind in GENERATORS

    def build(self, seed: int) -> RelationalGraph:
        if self.kind == "ba-shapes":
            return generate_ba_shapes(self.base_nodes, self.motif_count, seed)
        if self.kind == "ba-community":
            return generate_ba_community(self.base_nodes, self.motif_count, seed)
        if self.kind == "tree-cycles":
            return generate_tree_motif(self.height, "cycle", self.motif_count, seed)
        if self.kind == "tree-grids":
            return generate_tree_motif(self.height, "grid", self.motif_count, seed)
        if self.kind == "file":
            if not self.path:
                raise ValueError("file dataset needs a path")
            return load_graph(self.path)
        raise ValueError(f"unknown dataset kind {self.kind!r}")


@dataclass
class PipelineConfig:
    dataset: DatasetSpec
    train: TrainConfig = field(default_factory=TrainConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)
    rank_search: RankSearchConfig = field(default_factory=RankSearchConfig)
    scorer: str = "both"           # "bp" | "is" | "both"
    g_max: int = 1
    min_class_count: int = 10
    split_fractions: tuple[float, float, float] = SPLIT_FRACTIONS
    seed: int = 0
    max_targets: int | None = None

    def __post_init__(self):
        if self.g_max < 1:
            raise ValueError("g_max must be >= 1")
        if self.scorer not in ("bp", "is", "both"):
            raise ValueError("scorer must be 'bp', 'is' or 'both'")
        check_split_fractions(self.split_fractions)
        if self.max_targets is not None and self.max_targets < 1:
            raise ValueError("max_targets must be >= 1")

    @property
    def scorers(self) -> tuple[str, ...]:
        return ("bp", "is") if self.scorer == "both" else (self.scorer,)


@dataclass
class VerificationBundle:
    dataset: str
    seed: int
    targets: list[int] = field(default_factory=list)
    base_predictions: list[int] = field(default_factory=list)
    results: list[dict] = field(default_factory=list)
    removed_counts: dict[str, int] = field(default_factory=dict)  # "scorer/i" -> count
    warnings: list[str] = field(default_factory=list)
    reports: dict[int, UncertaintyReport] = field(default_factory=dict)
    rankings: dict[str, dict[int, list[tuple[Edge, float]]]] = field(default_factory=dict)


def derived_seed(*parts: int) -> int:
    """Stable sub-seed derived from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def seeded(stage_cfg, seed: int, target: int | None = None):
    """``stage_cfg`` with the sub-seed its stage derives from the run seed.

    ``run_verification`` and the staged CLI both seed their stages here.
    Tags: training 1, explanation (3, target), which the counterfactual
    re-explanations share, and the rank search 4 (whose greedy walk does
    not read it).
    """
    tag = {TrainConfig: (1,), ExplainConfig: (3, target),
           RankSearchConfig: (4,)}[type(stage_cfg)]
    if None in tag:
        raise ValueError("an explanation seed needs its target")
    return replace(stage_cfg, seed=derived_seed(seed, *tag))


# ---------------------------------------------------------------------------
# Relation selection and graph reduction
# ---------------------------------------------------------------------------

def select_removal_edges(rankings: Mapping[int, Sequence[tuple[Edge, float]]],
                         i: int) -> set[Edge]:
    """Union over targets of each target's i-th highest-scored relation.

    Ties break on (u, v) lexicographic order; targets with fewer than i
    relations contribute nothing.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    selected: set[Edge] = set()
    for target in rankings:
        ordered = sorted(rankings[target], key=lambda item: (-item[1], item[0]))
        if len(ordered) >= i:
            selected.add(ordered[i - 1][0])
    return selected


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def eligible_targets(g: RelationalGraph, synthetic: bool) -> list[int]:
    """Nodes whose predictions get explained.

    Synthetic motif benchmarks explain only non-zero classes (class 0 is
    the base structure); file datasets explain every node.
    """
    if synthetic:
        return [int(n) for n in np.flatnonzero(g.labels != 0)]
    return list(range(g.node_count))


@dataclass
class Run:
    """One verification's state, stage by stage (see module docstring);
    the reduced graphs and retrained models are keyed by (scorer, i)."""
    cfg: PipelineConfig
    bundle: VerificationBundle
    graph: RelationalGraph | None = None
    split: NodeSplit | None = None
    model: GcnModel | None = None
    explanations: dict[int, Explanation] = field(default_factory=dict)
    cre_sets: dict[int, CreSet] = field(default_factory=dict)
    factor_graphs: dict[int, FactorGraph] = field(default_factory=dict)
    reduced: dict[tuple[str, int], RelationalGraph] = field(default_factory=dict)
    retrained: dict[tuple[str, int], GcnModel] = field(default_factory=dict)


def _dataset(run: Run) -> None:
    run.graph = run.cfg.dataset.build(run.cfg.seed)


def _split(run: Run) -> None:
    run.split = split_nodes(run.graph, run.cfg.seed, run.cfg.split_fractions)


def _train(run: Run) -> None:
    run.model = train_gcn(run.graph, run.split, seeded(run.cfg.train, run.cfg.seed))
    run.bundle.base_predictions = [int(x) for x in predict(run.model, run.graph)]


def _explain(run: Run) -> None:
    cfg, g = run.cfg, run.graph
    candidates = eligible_targets(g, cfg.dataset.synthetic)
    if cfg.max_targets is not None and len(candidates) > cfg.max_targets:
        rng = np.random.default_rng(derived_seed(cfg.seed, 2))
        candidates = sorted(rng.choice(candidates, size=cfg.max_targets,
                                       replace=False).tolist())
    # targets with an empty computation subgraph get None, and single-edge
    # explanations are filtered
    explained = explain_all(run.model, [(g, target, seeded(cfg.explain, cfg.seed, target))
                                        for target in candidates])
    run.explanations = {target: e for target, e in zip(candidates, explained)
                        if e is not None and len(e.relations) > 1}
    run.bundle.targets = sorted(run.explanations)
    if not run.explanations:
        raise RuntimeError("no eligible target survived filtering")


def _cres(run: Run) -> None:
    cfg, targets = run.cfg, run.bundle.targets
    if "bp" not in cfg.scorers:
        return
    ecfgs = [(t, seeded(cfg.explain, cfg.seed, t)) for t in targets]
    cre_sets = generate_cre_sets(run.graph, run.model, ecfgs, seeded(cfg.rank_search, cfg.seed))
    for target, cres in zip(targets, cre_sets):
        if isinstance(cres, EmptyCreSet):
            run.bundle.warnings.append(f"target {target}: {cres}")
        else:
            run.cre_sets[target] = cres


def _scores(run: Run) -> None:
    bundle = run.bundle
    for target, cres in run.cre_sets.items():
        run.factor_graphs[target] = fg = learn_weights(build_factor_graph(cres), cres)
        bundle.reports[target] = quantify_uncertainty(fg, run.explanations[target])
    if "bp" in run.cfg.scorers and not bundle.reports:
        raise RuntimeError("BP scoring failed for every target")
    ranked = bundle.reports if "bp" in run.cfg.scorers else run.explanations
    for scorer in run.cfg.scorers:
        bundle.rankings[scorer] = {
            t: bundle.reports[t].ranking() if scorer == "bp" else
            sorted(is_scores(run.explanations[t]).items(), key=lambda kv: (-kv[1], kv[0]))
            for t in ranked}


def _retrain(run: Run) -> None:
    cfg, bundle, g = run.cfg, run.bundle, run.graph
    for scorer in cfg.scorers:
        for i in range(1, cfg.g_max + 1):
            selected = select_removal_edges(bundle.rankings[scorer], i)
            run.reduced[scorer, i], _ = remove_edges(g, selected)
            bundle.removed_counts[f"{scorer}/{i}"] = len(selected & g.edges)
    try:
        models = train_gcns(list(run.reduced.values()), run.split, seeded(cfg.train, cfg.seed))
    except TrainingDiverged as exc:
        scorer, i = list(run.reduced)[exc.graph]
        raise TrainingDiverged(f"{scorer}/{i}: {exc}", exc.graph, exc.epoch) from exc
    run.retrained = dict(zip(run.reduced, models))
    test_nodes = np.asarray(run.split.test, dtype=np.int64)
    classes = [c for c in range(g.class_count)
               if not (cfg.dataset.synthetic and c == 0)]
    for (scorer, i), model_i in run.retrained.items():
        pred_i = predict(model_i, run.reduced[scorer, i])
        for cls in classes:
            cls_nodes = test_nodes[g.labels[test_nodes] == cls]
            if cls_nodes.size < max(1, cfg.min_class_count):
                continue
            res = mcnemar_test(bundle.base_predictions, pred_i, g.labels, cls_nodes)
            bundle.results.append({
                "scorer": scorer, "i": i, "class": cls,
                "b": res.b, "c": res.c,
                "statistic": res.statistic, "p_value": res.p_value,
                "reported_statistic": res.reported_statistic,
            })
    bundle.warnings.extend(edge_count_warnings(bundle.removed_counts, cfg.g_max))


# each stage's tag, which a PipelineStageError names, and its function
STAGES = (("dataset", _dataset), ("split", _split), ("train", _train), ("explain", _explain),
          ("cres", _cres), ("scores", _scores), ("retrain", _retrain))


def verification_run(cfg: PipelineConfig) -> Run:
    """The Run after every stage; a fixed config gives byte-identical reports."""
    run = Run(cfg, VerificationBundle(dataset=cfg.dataset.kind, seed=cfg.seed))
    for tag, stage in STAGES:
        try:
            stage(run)
        except Exception as exc:  # noqa: BLE001 - tag and propagate
            raise PipelineStageError(tag, exc, partial=run.bundle) from exc
    return run


def run_verification(cfg: PipelineConfig) -> VerificationBundle:
    """The bundle of ``verification_run(cfg)``."""
    return verification_run(cfg).bundle


EDGE_COUNT_TOLERANCE = 0.10


def edge_count_warnings(removed_counts: Mapping[str, int], g_max: int) -> list[str]:
    """Comparing scorers is only meaningful when they remove roughly the
    same number of edges; flag removal depths where BP and IS diverge by
    more than EDGE_COUNT_TOLERANCE of the larger count."""
    warnings = []
    for i in range(1, g_max + 1):
        n_bp = removed_counts.get(f"bp/{i}")
        n_is = removed_counts.get(f"is/{i}")
        if n_bp is None or n_is is None:
            continue
        top = max(n_bp, n_is)
        if top > 0 and abs(n_bp - n_is) / top > EDGE_COUNT_TOLERANCE:
            warnings.append(f"removed-edge counts diverge at i={i}: "
                            f"bp={n_bp} is={n_is} (>{EDGE_COUNT_TOLERANCE:.0%})")
    return warnings


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

# each results row's columns, in file order, with the JSON type of each value
RESULT_KINDS = {"scorer": str, "i": int, "class": int, "b": int, "c": int,
                "statistic": float, "p_value": float, "reported_statistic": float}
RESULT_COLUMNS = tuple(RESULT_KINDS)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def emit_report(bundle: VerificationBundle, out_dir: str | Path) -> list[Path]:
    """Write results.csv, per-target uncertainty CSVs, plotdata.csv and
    bundle.json.  File contents are deterministic for a fixed bundle."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    rows = sorted(bundle.results,
                  key=lambda r: (r["scorer"], r["i"], r["class"]))
    results_path = out / "results.csv"
    lines = [",".join(RESULT_COLUMNS)]
    lines.extend(",".join(_fmt(r[c]) for c in RESULT_COLUMNS) for r in rows)
    results_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(results_path)

    for target in sorted(bundle.reports):
        path = out / f"uncertainty_t{target}.csv"
        report_to_csv(bundle.reports[target], path)
        written.append(path)

    plot_path = out / "plotdata.csv"
    plines = ["class,i,scorer,reported_statistic"]
    plines.extend(f"{r['class']},{r['i']},{r['scorer']},{_fmt(r['reported_statistic'])}"
                  for r in sorted(bundle.results,
                                  key=lambda r: (r["class"], r["i"], r["scorer"])))
    plot_path.write_text("\n".join(plines) + "\n", encoding="utf-8")
    written.append(plot_path)

    bundle_path = out / "bundle.json"
    bundle_path.write_text(json.dumps(bundle_to_dict(bundle)), encoding="utf-8")
    written.append(bundle_path)
    return written


def bundle_to_dict(bundle: VerificationBundle) -> dict:
    return {
        "dataset": bundle.dataset,
        "seed": bundle.seed,
        "targets": bundle.targets,
        "base_predictions": bundle.base_predictions,
        "results": sorted(bundle.results,
                          key=lambda r: (r["scorer"], r["i"], r["class"])),
        "removed_counts": dict(sorted(bundle.removed_counts.items())),
        "warnings": bundle.warnings,
        "rankings": {scorer: {str(t): [[u, v, s] for ((u, v), s) in ranking]
                              for t, ranking in sorted(per.items())}
                     for scorer, per in sorted(bundle.rankings.items())},
        # json writes neg_log_delta = inf as Infinity and reads it back
        "reports": {str(t): {"target": r.target, "converged": r.converged,
                             "entries": [[*x.edge, x.gc, x.delta, x.neg_log_delta]
                                         for x in r.entries],
                             "skipped": r.skipped}
                    for t, r in sorted(bundle.reports.items())},
    }


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _typed(value, kind: type, name: str):
    """``value``, which must be of the JSON type ``kind``; else ValueError
    naming it.  An integer or a number is read with ``read_int`` or
    ``read_float``, which reject a boolean; any other kind must match
    exactly."""
    if kind is int:
        return read_int(value, name)
    if kind is float:
        return read_float(value, name)
    if not isinstance(value, kind):
        found = _JSON_KINDS.get(type(value), type(value).__name__)
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, not {found}")
    return value


def _target_key(key: str, name: str) -> int:
    """A target id that ``bundle_to_dict`` wrote as a JSON object key, the
    decimal string of an integer; any other key raises ValueError naming
    it, where ``int`` would accept "+25" or " 25"."""
    try:
        target = int(key)
    except ValueError:
        target = None
    if target is None or str(target) != key:
        raise ValueError(f"{name}: {key!r} is not an integer target")
    return target


def bundle_from_dict(blob: dict) -> VerificationBundle:
    """The bundle that ``bundle_to_dict`` wrote.  A missing key, in the
    bundle or in one of its result rows, raises KeyError; a key, row or
    value that holds another JSON type than the one written (an id,
    count or target key that is not an integer, a score, statistic,
    confidence or delta that is not a JSON number, a name or warning
    that is not a string), raises ValueError naming it."""
    _typed(blob, dict, "the bundle")

    def key(name: str, kind: type):
        return _typed(blob[name], kind, f"key {name!r}")

    def end(node) -> int:
        return read_int(node, "ranked relation end")

    rankings = {
        scorer: {_target_key(t, f"key 'rankings' {scorer}"):
                 [((end(u), end(v)), read_float(s, "ranked relation score")) for (u, v, s)
                  in _typed(ranking, list, f"key 'rankings' {scorer}/{t}")]
                 for t, ranking in _typed(per, dict, f"key 'rankings' {scorer}").items()}
        for scorer, per in key("rankings", dict).items()
    }
    reports = {}
    for t, r in key("reports", dict).items():
        target = _target_key(t, "key 'reports'")
        r = _typed(r, dict, f"key 'reports' {t}")
        reports[target] = UncertaintyReport(
            target=read_int(r["target"], "report target"),
            converged=_typed(r["converged"], bool, "report converged"),
            entries=[RelationUncertainty((read_int(u, "report u"), read_int(v, "report v")),
                                         read_float(gc, "report gc"),
                                         read_float(delta, "report delta"),
                                         read_float(nld, "report neg_log_delta"))
                     for (u, v, gc, delta, nld)
                     in _typed(r["entries"], list, f"key 'reports' {t} entries")],
            skipped=[(read_int(u, "skipped u"), read_int(v, "skipped v")) for (u, v)
                     in _typed(r["skipped"], list, f"key 'reports' {t} skipped")])
    results = []
    for i, r in enumerate(key("results", list)):
        r = _typed(r, dict, f"key 'results' row {i}")
        results.append({c: _typed(r[c], kind, f"key 'results' row {i} {c}")
                        for c, kind in RESULT_KINDS.items()})
    return VerificationBundle(
        dataset=key("dataset", str), seed=read_int(blob["seed"], "seed"),
        targets=[read_int(t, "target") for t in key("targets", list)],
        base_predictions=[read_int(p, "base prediction") for p in key("base_predictions", list)],
        results=results,
        removed_counts={k: read_int(n, f"removed count {k}")
                        for k, n in key("removed_counts", dict).items()},
        warnings=[_typed(w, str, "warning") for w in key("warnings", list)],
        reports=reports,
        rankings=rankings,
    )
