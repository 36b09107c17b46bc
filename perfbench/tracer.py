"""Span tracing of relex's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in every loaded
``relex`` module that holds a reference to it, so calls made through
``from relex.x import f`` bindings are traced too.  Spans stay in memory
and are written out once, when the traced run ends.  Nothing under
``src/`` knows about the tracer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import probe


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def _ladder_info(args, kwargs, result):
    return None if result is None else [(f.rank, f.error) for f in result]


def _cres_info(args, kwargs, result):
    ladder = _arg(args, kwargs, 5, "ladder")
    kept = 0 if result is None else len(result.explanations)
    return (None if ladder is None else len(ladder)), kept


def _explain_key(args, kwargs, result):
    model, g, target, cfg = (_arg(args, kwargs, i, n) for i, n in
                             enumerate(("model", "g", "target", "cfg")))
    return (id(model), hash(g.edges), g.node_count, target, repr(cfg))


def _bp_info(args, kwargs, result):
    return None if result is None else (result.iterations, result.converged)


def _map_entities(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "fg").entities)


def _bytes_written(args, kwargs, result):
    return 0 if result is None else sum(p.stat().st_size for p in result)


def _factorization(args, kwargs, result):
    return None if result is None else (_arg(args, kwargs, 0, "p"), result)


def _command(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    return argv[0] if argv else None


# (module, function, info) for every traced function.  ``info`` keeps the
# little a metric or check needs from the call's arguments and result.
# Serialization helpers are left out on purpose: their cost stays in the
# caller's self time, which is what ``cli.self_s`` reports.
TRACED = (
    ("relex.boolfact", "bmf_factorize", _factorization),
    ("relex.boolfact", "rank_ladder", _ladder_info),
    ("relex.boolfact", "generate_cres", _cres_info),
    ("relex.explainer", "explain", _explain_key),
    ("relex.gcn", "train_gcn", None),
    ("relex.gcn", "predict", None),
    ("relex.graphs", "adjacency", None),
    ("relex.factorgraph", "learn_weights", None),
    ("relex.factorgraph", "map_assignment", _map_entities),
    ("relex.factorgraph", "quantify_uncertainty", None),
    ("relex.factorgraph", "run_bp", _bp_info),
    ("relex.mcnemar", "mcnemar_test", None),
    ("relex.pipeline", "run_verification", None),
    ("relex.pipeline", "emit_report", _bytes_written),
    ("relex.pipeline", "bundle_from_dict", None),
    ("relex.cli", "main", _command),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "child_s", "probe_s", "failed")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None
        self.child_s = 0.0
        self.probe_s = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        """Wall time less the speed probe's time inside the span."""
        return self.end - self.start - self.probe_s

    @property
    def self_s(self) -> float:
        """Duration minus the time its child spans cover."""
        return self.duration - self.child_s


class Tracer:
    """Records one span per call of each function in ``TRACED``.

    Calls must come from one thread, because the parent of a span is the
    span open on the tracer's stack; the benchmark runs relex with one
    worker.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, fname, info in TRACED:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(f"{modname.split('.')[-1]}.{fname}", original, info)
            for name, mod in list(sys.modules.items()):
                if (name == "relex" or name.startswith("relex.")) and \
                        getattr(mod, fname, None) is original:
                    self._patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None)
            probing = probe.spent()
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                span.probe_s = probe.spent() - probing
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
                if info is not None:
                    span.info = info(args, kwargs, result)

        return traced

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index, failed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.failed]) + "\n")
