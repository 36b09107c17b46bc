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

The parser is one table of commands.  Each flag group that several
commands share (dataset size, --seed, --out, --graph, --model/--target,
the explain flags, the training flags) is declared once, as an argparse
parent parser; each command binds its handler with set_defaults; and
build_parser builds the parser once per process.

Exit codes: 0 success, 2 validation error (an output path that cannot be
written included; verify checks its --out before it runs), 3
pipeline-stage failure (a worker process that died included).
"""

from __future__ import annotations

import argparse
import functools
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
from relex.workers import WorkerLost

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


def _dataset_spec(args) -> DatasetSpec:
    if args.dataset in GENERATORS:
        return DatasetSpec(kind=args.dataset, base_nodes=args.base_nodes,
                           motif_count=args.motifs, height=args.height)
    return DatasetSpec(kind="file", path=args.dataset)


def _explain_config(args) -> ExplainConfig:
    return ExplainConfig(hops=args.hops, mask_steps=args.steps, top_k=args.top_k)


def _split_fractions(args) -> tuple[float, float, float]:
    """Train/validation/test fractions: the default validation share, the
    given test share, and the rest for training."""
    validation = PipelineConfig.split_fractions[1]
    return (1.0 - validation - args.test_fraction, validation, args.test_fraction)


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


def _check_out_dir(out: str) -> None:
    """Raise ValueError if ``out``, or the nearest of its ancestors that
    exists, is not a directory, so that a verify which could not write its
    report fails before any work."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"--out {out}: {path} exists and is not a directory")
            return


def _cmd_verify(args) -> int:
    _check_out_dir(args.out)
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


def _flags(*flags: tuple[str, dict]) -> argparse.ArgumentParser:
    """A parent parser declaring ``flags``, each a (name, ``add_argument``
    keywords) pair."""
    p = argparse.ArgumentParser(add_help=False)
    for name, kwargs in flags:
        p.add_argument(name, **kwargs)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``relex`` parser, built on the first call and returned by every
    later one, so callers must not change it; a parse only reads it."""
    seed = _flags(("--seed", dict(type=int, default=PipelineConfig.seed)))
    out = _flags(("--out", dict(required=True)))
    dataset = _flags(("--base-nodes", dict(type=int, default=DatasetSpec.base_nodes)),
                     ("--motifs", dict(type=int, default=DatasetSpec.motif_count)),
                     ("--height", dict(type=int, default=DatasetSpec.height)))
    graph = _flags(("--graph", dict(required=True)))
    model = _flags(("--model", dict(required=True)),
                   ("--target", dict(type=int, required=True)))
    explain = _flags(("--hops", dict(type=int, default=ExplainConfig.hops)),
                     ("--steps", dict(type=int, default=ExplainConfig.mask_steps)),
                     ("--top-k", dict(type=int, default=ExplainConfig.top_k)))
    training = _flags(("--hidden-dim", dict(type=int, default=TrainConfig.hidden_dim)),
                      ("--epochs", dict(type=int, default=TrainConfig.max_epochs)),
                      ("--test-fraction", dict(
                          type=float, default=PipelineConfig.split_fractions[2])))
    commands = (
        ("generate", "generate a synthetic benchmark graph", _cmd_generate,
         _flags(("--dataset", dict(required=True, choices=GENERATORS))),
         dataset, seed, out),
        ("train", "train the GCN on a graph", _cmd_train, graph, seed, training,
         _flags(("--lr", dict(type=float, default=TrainConfig.learning_rate)),
                ("--patience", dict(type=int, default=TrainConfig.patience))),
         out),
        ("explain", "explain one node prediction", _cmd_explain,
         graph, model, explain, seed, out),
        ("cres", "generate the counterfactual explanation set", _cmd_cres,
         graph, model, explain,
         _flags(("--max-rank", dict(type=int, default=RankSearchConfig.max_rank))),
         seed, out),
        ("learn-fg", "build and train the factor graph", _cmd_learn_fg,
         _flags(("--cres", dict(required=True)),
                ("--lr", dict(type=float, default=LEARN_RATE)),
                ("--epochs", dict(type=int, default=LEARN_EPOCHS))),
         out),
        ("evaluate", "quantify an explanation's uncertainty against a factor graph",
         _cmd_evaluate,
         _flags(("--fg", dict(required=True)), ("--explanation", dict(required=True)),
                ("--bp-iters", dict(type=int, default=BpConfig.max_iters)),
                ("--bp-tol", dict(type=float, default=BpConfig.tol)),
                ("--bp-damping", dict(type=float, default=BpConfig.damping))),
         out),
        ("verify", "run the full verification pipeline", _cmd_verify,
         _flags(("--dataset", dict(required=True, help=f"one of {', '.join(GENERATORS)}"
                                                        " or a graph.json path"))),
         dataset, seed, training, explain,
         _flags(("--scorer", dict(choices=("bp", "is", "both"),
                                  default=PipelineConfig.scorer)),
                ("--g-max", dict(type=int, default=PipelineConfig.g_max)),
                ("--max-targets", dict(type=int, default=PipelineConfig.max_targets)),
                ("--min-class-count", dict(type=int,
                                           default=PipelineConfig.min_class_count))),
         out),
        ("report", "regenerate CSV reports from a bundle", _cmd_report,
         _flags(("--bundle", dict(required=True))), out),
    )
    parser = argparse.ArgumentParser(
        prog="relex",
        description="Uncertainty quantification for relational explanations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, *parents in commands:
        sub.add_parser(name, help=summary, parents=parents).set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (TrainingDiverged, CreGenerationFailed, EmptyCreSet,
            SingleNodeExplanation, WorkerLost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
