"""Command-line interface.

Stages are independently re-runnable: each subcommand reads and writes the
JSON/CSV formats used throughout the package.

    generate   synthetic benchmark graph -> graph.json
    train      GCN on a graph            -> model.json
    explain    one target's explanation  -> explanation.json
    cres       counterfactual set        -> cres.json
    learn-fg   factor graph + weights    -> factorgraph.json
    evaluate   uncertainty for one explanation against a factor graph -> CSV
    verify     full retrain-and-compare pipeline -> results.csv etc.
    report     rewrite every file verify wrote from its bundle.json

Options default to their config dataclass fields (learn-fg's to
factorgraph.LEARN_RATE and LEARN_EPOCHS), and the staged commands derive
sub-seeds from --seed as verify does (relex.pipeline.seeded), so
the staged chain run with verify's seed and flags repeats verify.

Exit codes: 0 success, 2 validation error, 3 pipeline-stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from relex.boolfact import (CreGenerationFailed, EmptyCreSet, RankSearchConfig,
                            generate_cres, load_creset, save_creset)
from relex.explainer import (ExplainConfig, SingleNodeExplanation, explain,
                             load_explanation, save_explanation)
from relex.factorgraph import (LEARN_EPOCHS, LEARN_RATE, BpConfig,
                               build_factor_graph, learn_weights,
                               load_factorgraph, quantify_uncertainty,
                               report_to_csv, save_factorgraph)
from relex.gcn import TrainConfig, TrainingDiverged, load_model, save_model, train_gcn
from relex.graphs import GraphFormatError, load_graph, save_graph, split_nodes
from relex.pipeline import (GENERATORS, DatasetSpec, PipelineConfig,
                            PipelineStageError, bundle_from_dict, emit_report,
                            run_verification, seeded)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE = 3


def _load(load, path):
    """``load(path)``; a key missing from the file's JSON, a value of the
    wrong JSON type, or a value the loader rejects, is a validation error
    that names the file."""
    try:
        return load(path)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_bundle(path):
    return bundle_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _add_dataset_args(p: argparse.ArgumentParser, **dataset_kwargs) -> None:
    p.add_argument("--dataset", required=True, **dataset_kwargs)
    p.add_argument("--base-nodes", type=int, default=DatasetSpec.base_nodes)
    p.add_argument("--motifs", type=int, default=DatasetSpec.motif_count)
    p.add_argument("--height", type=int, default=DatasetSpec.height)


def _add_explain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hops", type=int, default=ExplainConfig.hops)
    p.add_argument("--steps", type=int, default=ExplainConfig.mask_steps)
    p.add_argument("--top-k", type=int, default=ExplainConfig.top_k)


def _dataset_spec(args) -> DatasetSpec:
    if args.dataset in GENERATORS:
        return DatasetSpec(kind=args.dataset, base_nodes=args.base_nodes,
                           motif_count=args.motifs, height=args.height)
    return DatasetSpec(kind="file", path=args.dataset)


def _explain_config(args) -> ExplainConfig:
    return ExplainConfig(hops=args.hops, mask_steps=args.steps, top_k=args.top_k)


def _add_test_fraction_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test-fraction", type=float,
                   default=PipelineConfig.split_fractions[2])


def _split_fractions(args) -> tuple[float, float, float]:
    """Train/validation/test fractions: the default validation share, the
    given test share, and the rest for training."""
    validation = PipelineConfig.split_fractions[1]
    return (1.0 - validation - args.test_fraction, validation, args.test_fraction)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relex",
        description="Uncertainty quantification for relational explanations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic benchmark graph")
    _add_dataset_args(p, choices=GENERATORS)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the GCN on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--hidden-dim", type=int, default=TrainConfig.hidden_dim)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    _add_test_fraction_arg(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("explain", help="explain one node prediction")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--target", type=int, required=True)
    _add_explain_args(p)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cres", help="generate the counterfactual explanation set")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--target", type=int, required=True)
    _add_explain_args(p)
    p.add_argument("--max-rank", type=int, default=RankSearchConfig.max_rank)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn-fg", help="build and train the factor graph")
    p.add_argument("--cres", required=True)
    p.add_argument("--lr", type=float, default=LEARN_RATE)
    p.add_argument("--epochs", type=int, default=LEARN_EPOCHS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate",
                       help="quantify an explanation's uncertainty against a factor graph")
    p.add_argument("--fg", required=True)
    p.add_argument("--explanation", required=True)
    p.add_argument("--bp-iters", type=int, default=BpConfig.max_iters)
    p.add_argument("--bp-tol", type=float, default=BpConfig.tol)
    p.add_argument("--bp-damping", type=float, default=BpConfig.damping)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    _add_dataset_args(p, help=f"one of {', '.join(GENERATORS)} or a graph.json path")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--hidden-dim", type=int, default=TrainConfig.hidden_dim)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    _add_explain_args(p)
    p.add_argument("--scorer", choices=("bp", "is", "both"),
                   default=PipelineConfig.scorer)
    p.add_argument("--g-max", type=int, default=PipelineConfig.g_max)
    p.add_argument("--max-targets", type=int, default=PipelineConfig.max_targets)
    p.add_argument("--min-class-count", type=int,
                   default=PipelineConfig.min_class_count)
    _add_test_fraction_arg(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="regenerate CSV reports from a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_generate(args) -> int:
    g = _dataset_spec(args).build(args.seed)
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.node_count} nodes, {g.edge_count} edges, "
          f"{g.class_count} classes")
    return EXIT_OK


def _cmd_train(args) -> int:
    g = load_graph(args.graph)
    split = split_nodes(g, args.seed, _split_fractions(args))
    cfg = TrainConfig(hidden_dim=args.hidden_dim, max_epochs=args.epochs,
                      learning_rate=args.lr, patience=args.patience)
    model = train_gcn(g, split, seeded(cfg, args.seed))
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_explain(args) -> int:
    g = load_graph(args.graph)
    model = _load(load_model, args.model)
    ecfg = seeded(_explain_config(args), args.seed, args.target)
    e = explain(model, g, args.target, ecfg)
    save_explanation(e, args.out)
    print(f"wrote {args.out}: {len(e.relations)} relations, "
          f"class {e.predicted_class}")
    return EXIT_OK


def _cmd_cres(args) -> int:
    g = load_graph(args.graph)
    model = _load(load_model, args.model)
    ecfg = seeded(_explain_config(args), args.seed, args.target)
    rcfg = seeded(RankSearchConfig(max_rank=args.max_rank), args.seed)
    s = generate_cres(g, model, args.target, ecfg, rcfg)
    save_creset(s, args.out)
    print(f"wrote {args.out}: {len(s.explanations)} counterfactual explanations "
          f"at ranks {s.ranks_used}")
    return EXIT_OK


def _cmd_learn_fg(args) -> int:
    s = _load(load_creset, args.cres)
    fg = build_factor_graph(s)
    fg = learn_weights(fg, s, learning_rate=args.lr, epochs=args.epochs)
    save_factorgraph(fg, args.out)
    print(f"wrote {args.out}: {len(fg.factors)} factors over "
          f"{len(fg.entities)} entities")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    fg = _load(load_factorgraph, args.fg)
    e = _load(load_explanation, args.explanation)
    if not 0 <= e.predicted_class < fg.target_card:
        raise ValueError(f"{args.explanation}: class {e.predicted_class} is outside "
                         f"0..{fg.target_card - 1}, the target states of {args.fg}")
    bp = BpConfig(max_iters=args.bp_iters, tol=args.bp_tol,
                  damping=args.bp_damping)
    report = quantify_uncertainty(fg, e, bp)
    report_to_csv(report, args.out)
    if report.skipped:
        print("warning: skipped relations outside the factor graph's entities: "
              + ", ".join(f"({u}, {v})" for u, v in report.skipped), file=sys.stderr)
    print(f"wrote {args.out}: {len(report.entries)} relations, "
          f"converged={report.converged}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = PipelineConfig(
        dataset=_dataset_spec(args),
        train=TrainConfig(hidden_dim=args.hidden_dim, max_epochs=args.epochs),
        explain=_explain_config(args),
        scorer=args.scorer,
        g_max=args.g_max,
        min_class_count=args.min_class_count,
        split_fractions=_split_fractions(args),
        seed=args.seed,
        max_targets=args.max_targets,
    )
    try:
        bundle = run_verification(cfg)
    except PipelineStageError as exc:
        if exc.stage == "dataset":  # nothing ran; generate and train exit 2 too
            print(f"error: {exc.cause}", file=sys.stderr)
            return EXIT_VALIDATION
        emit_report(exc.partial, args.out)  # flush partial results before aborting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    files = emit_report(bundle, args.out)
    for w in bundle.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(files)} files to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    bundle = _load(_load_bundle, args.bundle)
    files = emit_report(bundle, args.out)
    print(f"wrote {len(files)} files to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "explain": _cmd_explain,
    "cres": _cmd_cres,
    "learn-fg": _cmd_learn_fg,
    "evaluate": _cmd_evaluate,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TrainingDiverged, CreGenerationFailed, EmptyCreSet,
            SingleNodeExplanation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (GraphFormatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
