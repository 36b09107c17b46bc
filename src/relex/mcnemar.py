"""McNemar's paired test on the disagreements of two classifiers.

The chi-square (1 dof) tail is ``scipy.special.chdtrc``, the function that
``scipy.stats.chi2.sf`` evaluates: the p-values are scipy.stats' to the
bit, without an import of scipy.stats that takes longer than all of
relex's other imports together.  scipy.special itself is imported inside
``mcnemar_test``, on its first call, so that importing the CLI, and every
command but verify, never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ALPHA = 0.05  # significance level


@dataclass(frozen=True)
class McNemarResult:
    b: int               # model A correct, model B wrong
    c: int               # model A wrong, model B correct
    statistic: float
    p_value: float
    significant: bool

    @property
    def reported_statistic(self) -> float:
        """The statistic, reported as 0 when not significant."""
        return self.statistic if self.significant else 0.0


def mcnemar_test(pred_a: Sequence[int], pred_b: Sequence[int],
                 truth: Sequence[int], nodes: Sequence[int]) -> McNemarResult:
    """Continuity-corrected McNemar test over the given node set.

    statistic = (|b - c| - 1)^2 / (b + c) with a chi-square (1 dof)
    p-value, significant when p < ALPHA; b + c = 0 degenerates to
    statistic 0, p = 1.
    """
    from scipy.special import chdtrc

    pred_a = np.asarray(pred_a)
    pred_b = np.asarray(pred_b)
    truth = np.asarray(truth)
    if not (len(pred_a) == len(pred_b) == len(truth)):
        raise ValueError("prediction and truth vectors must have equal length")
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise ValueError("node set must be non-empty")

    a_ok = pred_a[nodes] == truth[nodes]
    b_ok = pred_b[nodes] == truth[nodes]
    b = int(np.sum(a_ok & ~b_ok))
    c = int(np.sum(~a_ok & b_ok))
    if b + c == 0:
        return McNemarResult(b=b, c=c, statistic=0.0, p_value=1.0,
                             significant=False)
    statistic = (abs(b - c) - 1) ** 2 / (b + c)
    p_value = float(chdtrc(1, statistic))
    return McNemarResult(b=b, c=c, statistic=float(statistic), p_value=p_value,
                         significant=p_value < ALPHA)
