"""Measure the CRE sets relex makes, to shape fg-learn-eval's inputs.

On ba-shapes(25, 5), with the settings of ``relex verify`` and the CLI's
default rank search, this trains the GCN, builds the rank ladder once and
runs ``generate_cres`` for every eligible target.  It prints how many
relations each set has beyond its entity count, the explanation counts
and sizes, and the confidences at every 5th percentile: the figures
behind ``POOL_EXTRA`` and ``GC_PERCENTILES`` in workloads.py.

    python3 perfbench/measure_cres.py --seeds 1 2 3 4    # about 5 minutes

Run from the root of a checkout.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from relex.boolfact import EmptyCreSet, generate_cres, rank_ladder  # noqa: E402
from relex.graphs import adjacency, split_nodes  # noqa: E402
from relex.gcn import train_gcn  # noqa: E402
from relex.pipeline import (DatasetSpec, PipelineConfig, derived_seed,  # noqa: E402
                            eligible_targets)


def cre_sets(seed: int):
    """Every CRE set the pipeline could make on one seed's graph."""
    cfg = PipelineConfig(dataset=DatasetSpec(kind="ba-shapes", base_nodes=25, motif_count=5),
                         split_fractions=(0.5, 0.1, 0.4), seed=seed)
    g = cfg.dataset.build(seed)
    model = train_gcn(g, split_nodes(g, seed, cfg.split_fractions),
                      replace(cfg.train, seed=derived_seed(seed, 1)))
    rcfg = replace(cfg.rank_search, seed=derived_seed(seed, 4))
    ladder = rank_ladder(adjacency(g), g.edge_count, rcfg)
    for target in eligible_targets(g, cfg.dataset.synthetic):
        ecfg = replace(cfg.explain, seed=derived_seed(seed, 3, target))
        try:
            yield generate_cres(g, model, target, ecfg, rcfg, ladder=ladder)
        except EmptyCreSet:
            continue


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    args = parser.parse_args()
    extra, counts, sizes, gcs = collections.Counter(), collections.Counter(), \
        collections.Counter(), []
    for seed in args.seeds:
        for s in cre_sets(seed):
            entities = {node for edge in s.relations for node in edge}
            extra[len(s.relations) - len(entities)] += 1
            counts[len(s.explanations)] += 1
            for e in s.explanations:
                sizes[len(e.relations)] += 1
                gcs += [gc for _, gc in e.relations]
    offsets = sorted(extra.elements())
    print(f"CRE sets: {len(offsets)}")
    print(f"relations beyond entities: {sorted(extra.items())}, "
          f"median {offsets[len(offsets) // 2]}")
    print(f"explanations per set: {sorted(counts.items())}")
    print(f"relations per explanation: {sorted(sizes.items())}")
    pct = np.percentile(gcs, np.linspace(0, 100, 21))
    print(f"confidences ({len(gcs)}) at every 5th percentile: "
          + ", ".join(f"{x:.4f}" for x in pct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
