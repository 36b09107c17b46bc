import numpy as np
import pytest
from scipy import stats

from relex.mcnemar import mcnemar_test


def vectors_with_counts(b, c, agree_correct=5):
    """Truth all-zeros; construct predictions achieving given (b, c)."""
    n = b + c + agree_correct
    truth = np.zeros(n, dtype=int)
    pred_a = np.zeros(n, dtype=int)
    pred_b = np.zeros(n, dtype=int)
    pred_b[:b] = 1            # a correct, b wrong
    pred_a[b:b + c] = 1       # a wrong, b correct
    return pred_a, pred_b, truth, np.arange(n)


class TestStatistic:
    def test_b10_c2(self):
        pa, pb, truth, nodes = vectors_with_counts(10, 2)
        res = mcnemar_test(pa, pb, truth, nodes)
        assert res.b == 10 and res.c == 2
        assert res.statistic == pytest.approx(49 / 12)
        assert res.p_value == pytest.approx(stats.chi2.sf(49 / 12, 1))
        assert abs(res.p_value - 0.0433) < 1e-3
        assert res.significant
        assert res.reported_statistic == res.statistic

    def test_degenerate_no_disagreement(self):
        pa, pb, truth, nodes = vectors_with_counts(0, 0)
        res = mcnemar_test(pa, pb, truth, nodes)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.significant

    def test_identical_classifiers_reported_zero(self):
        truth = np.array([0, 1, 0, 1])
        pred = np.array([0, 1, 1, 1])
        res = mcnemar_test(pred, pred, truth, [0, 1, 2, 3])
        assert res.b == res.c == 0
        assert res.reported_statistic == 0.0

    def test_not_significant_reported_zero(self):
        pa, pb, truth, nodes = vectors_with_counts(5, 1)
        res = mcnemar_test(pa, pb, truth, nodes)
        assert not res.significant
        assert res.statistic == pytest.approx(9 / 6)
        assert res.reported_statistic == 0.0

    def test_symmetric_counts(self):
        pa, pb, truth, nodes = vectors_with_counts(4, 4)
        res = mcnemar_test(pa, pb, truth, nodes)
        assert res.statistic == pytest.approx(1 / 8)


class TestPValue:
    def test_equals_scipy_stats_chi2_sf_bit_for_bit(self):
        """The tail comes from scipy.special; scipy.stats is the oracle."""
        counts = [(b, total - b) for total in range(1, 201) for b in range(total + 1)]
        results = [mcnemar_test(*vectors_with_counts(b, c)) for b, c in counts]
        oracle = stats.chi2.sf([r.statistic for r in results], 1)
        for (b, c), res, p_value in zip(counts, results, oracle):
            assert res.p_value == float(p_value), (b, c)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            mcnemar_test([0, 1], [0], [0, 1], [0])

    def test_empty_node_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            mcnemar_test([0], [0], [0], [])

    def test_node_subset_only(self):
        truth = np.array([0, 0, 0, 0])
        pa = np.array([0, 0, 1, 1])
        pb = np.array([1, 1, 0, 0])
        res = mcnemar_test(pa, pb, truth, [0, 1])
        assert res.b == 2 and res.c == 0
