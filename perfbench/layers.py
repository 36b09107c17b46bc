"""Per-layer metrics computed from the spans of one traced round.

Names follow ``<module>.<what>``; see the README for the end-to-end
metric and workload each one should move.  Times are seconds unless the
name ends in ``_ms_per_call``.
"""

from __future__ import annotations

from collections import defaultdict

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("boolfact.rank_ladder_s", "s"),
    ("boolfact.factorizations", "count"),
    ("boolfact.ladder_ranks", "count"),
    ("boolfact.ladder_yield", "ratio"),
    ("boolfact.error_increases", "count"),
    ("boolfact.generate_cres_self_s", "s"),
    ("explainer.cf_yield", "ratio"),
    ("explainer.explain_s", "s"),
    ("explainer.explain_calls", "count"),
    ("explainer.explain_ms_per_call", "ms"),
    ("explainer.explain_cf_s", "s"),
    ("explainer.explain_cf_calls", "count"),
    ("explainer.repeat_calls", "count"),
    ("graphs.adjacency_calls", "count"),
    ("graphs.adjacency_s", "s"),
    ("gcn.train_s", "s"),
    ("gcn.train_calls", "count"),
    ("gcn.retrain_s", "s"),
    ("gcn.predict_s", "s"),
    ("factorgraph.learn_weights_s", "s"),
    ("factorgraph.map_calls", "count"),
    ("factorgraph.map_s", "s"),
    ("factorgraph.max_entities", "count"),
    ("factorgraph.quantify_s", "s"),
    ("factorgraph.bp_runs", "count"),
    ("factorgraph.bp_s", "s"),
    ("factorgraph.bp_iterations", "count"),
    ("factorgraph.bp_unconverged", "count"),
    ("mcnemar.tests", "count"),
    ("mcnemar.test_s", "s"),
    ("pipeline.verify_self_s", "s"),
    ("pipeline.emit_s", "s"),
    ("pipeline.report_s", "s"),
    ("pipeline.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.spans", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(spans, lo: int, hi: int) -> dict[str, float]:
    """Metrics of ``spans[lo:hi]``, the spans of one round.

    Parent indices point into the full ``spans`` list.  ``trace.run_s``
    is filled in by the caller, which times the round.
    """
    by: dict[str, list] = defaultdict(list)
    for s in spans[lo:hi]:
        by[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by[name])

    def parent(s):
        return spans[s.parent] if s.parent is not None else None

    def command(s):
        """The CLI command a span runs under, if any."""
        while s is not None and s.name != "cli.main":
            s = parent(s)
        return None if s is None else s.info

    m: dict[str, float] = {}
    ladders = [s.info for s in by["boolfact.rank_ladder"] if s.info is not None]
    m["boolfact.rank_ladder_s"] = total("boolfact.rank_ladder")
    m["boolfact.factorizations"] = len(by["boolfact.bmf_factorize"])
    m["boolfact.ladder_ranks"] = sum(len(ladder) for ladder in ladders)
    m["boolfact.ladder_yield"] = _ratio(m["boolfact.ladder_ranks"], m["boolfact.factorizations"])
    m["boolfact.error_increases"] = sum(
        1 for ladder in ladders for (_, prev), (_, err) in zip(ladder, ladder[1:]) if err > prev)
    m["boolfact.generate_cres_self_s"] = sum(s.self_s for s in by["boolfact.generate_cres"])
    offered = sum(s.info[0] or 0 for s in by["boolfact.generate_cres"])
    kept = sum(s.info[1] for s in by["boolfact.generate_cres"])
    m["explainer.cf_yield"] = _ratio(kept, offered)

    explains = by["explainer.explain"]
    cf = [s for s in explains if parent(s) is not None
          and parent(s).name == "boolfact.generate_cres"]
    m["explainer.explain_s"] = total("explainer.explain")
    m["explainer.explain_calls"] = len(explains)
    m["explainer.explain_ms_per_call"] = 1000.0 * _ratio(m["explainer.explain_s"], len(explains))
    m["explainer.explain_cf_s"] = sum(s.duration for s in cf)
    m["explainer.explain_cf_calls"] = len(cf)
    keys = [s.info for s in explains]
    m["explainer.repeat_calls"] = len(keys) - len(set(keys))

    m["graphs.adjacency_calls"] = len(by["graphs.adjacency"])
    m["graphs.adjacency_s"] = total("graphs.adjacency")

    trains = by["gcn.train_gcn"]
    seen_parent: set = set()
    retrain_s = 0.0
    for s in trains:
        if s.parent in seen_parent:
            retrain_s += s.duration
        seen_parent.add(s.parent)
    m["gcn.train_s"] = total("gcn.train_gcn")
    m["gcn.train_calls"] = len(trains)
    m["gcn.retrain_s"] = retrain_s
    m["gcn.predict_s"] = total("gcn.predict")

    m["factorgraph.learn_weights_s"] = total("factorgraph.learn_weights")
    m["factorgraph.map_calls"] = len(by["factorgraph.map_assignment"])
    m["factorgraph.map_s"] = total("factorgraph.map_assignment")
    m["factorgraph.max_entities"] = max((s.info for s in by["factorgraph.map_assignment"]),
                                        default=0)
    bp = [s.info for s in by["factorgraph.run_bp"] if s.info is not None]
    m["factorgraph.quantify_s"] = total("factorgraph.quantify_uncertainty")
    m["factorgraph.bp_runs"] = len(by["factorgraph.run_bp"])
    m["factorgraph.bp_s"] = total("factorgraph.run_bp")
    m["factorgraph.bp_iterations"] = sum(iters for iters, _ in bp)
    m["factorgraph.bp_unconverged"] = sum(1 for _, converged in bp if not converged)

    m["mcnemar.tests"] = len(by["mcnemar.mcnemar_test"])
    m["mcnemar.test_s"] = total("mcnemar.mcnemar_test")

    m["pipeline.verify_self_s"] = sum(s.self_s for s in by["pipeline.run_verification"])
    in_report = [s for s in by["pipeline.emit_report"] + by["pipeline.bundle_from_dict"]
                 if command(s) == "report"]
    m["pipeline.emit_s"] = sum(s.duration for s in by["pipeline.emit_report"]
                               if command(s) != "report")
    m["pipeline.report_s"] = sum(s.duration for s in in_report)
    m["pipeline.bytes_written"] = sum(s.info for s in by["pipeline.emit_report"])
    m["cli.self_s"] = sum(s.self_s for s in by["cli.main"])
    m["trace.spans"] = hi - lo
    return m
