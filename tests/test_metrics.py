"""Confusion-matrix accumulation and score formulas against hand counts
and an exact rational brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sits_ssm.metrics import ConfusionMatrix, scores
from sits_ssm.verify import brute_force_scores


class TestAccumulate:
    def test_perfect_prediction_is_diagonal(self, rng):
        labels = rng.integers(0, 4, 50)
        cm = ConfusionMatrix(4).accumulate(labels, labels.copy())
        assert np.array_equal(cm.counts, np.diag(np.bincount(labels, minlength=4)))

    def test_empty_input_zero_matrix(self):
        cm = ConfusionMatrix(3).accumulate(np.array([]), np.array([]))
        assert cm.counts.sum() == 0

    def test_hand_count(self):
        cm = ConfusionMatrix(2).accumulate(np.array([0, 0, 1]), np.array([0, 1, 1]))
        assert np.array_equal(cm.counts, [[1, 1], [0, 1]])

    def test_ignored_labels_not_counted(self):
        cm = ConfusionMatrix(3).accumulate(np.array([0, 2, 1]), np.array([0, 0, 1]),
                                           ignore_labels={2})
        assert cm.counts.sum() == 2 and cm.counts[2].sum() == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(2).accumulate(np.array([0, 3]), np.array([0, 1]))
        with pytest.raises(ValueError):
            ConfusionMatrix(2).accumulate(np.array([0, 1]), np.array([0, -1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(2).accumulate(np.zeros(3, int), np.zeros(4, int))


class TestScores:
    def test_hand_case(self):
        cm = ConfusionMatrix(2)
        cm.counts = np.array([[2, 1], [0, 3]], dtype=np.int64)
        s = scores(cm)
        assert s.oa == pytest.approx(5 / 6, abs=1e-12)
        assert s.iou[0] == pytest.approx(2 / 3, abs=1e-12)
        assert s.iou[1] == pytest.approx(3 / 4, abs=1e-12)
        assert s.f1[0] == pytest.approx(0.8, abs=1e-12)
        assert s.f1[1] == pytest.approx(6 / 7, abs=1e-12)
        assert s.miou == pytest.approx(17 / 24, abs=1e-12)
        assert s.mf1 == pytest.approx(29 / 35, abs=1e-6)

    def test_diagonal_matrix_perfect_scores(self):
        cm = ConfusionMatrix(3)
        cm.counts = np.diag([5, 2, 7]).astype(np.int64)
        s = scores(cm)
        assert s.oa == 1.0
        assert np.all(s.iou == 1.0) and np.all(s.f1 == 1.0)
        assert s.miou == 1.0 and s.mf1 == 1.0

    def test_absent_class_excluded_from_means(self):
        cm = ConfusionMatrix(3)
        cm.counts = np.array([[4, 1, 0], [2, 3, 0], [0, 0, 0]], dtype=np.int64)
        s = scores(cm)
        assert np.isnan(s.iou[2]) and not s.present[2]
        two_class = ConfusionMatrix(2)
        two_class.counts = cm.counts[:2, :2]
        s2 = scores(two_class)
        assert s.miou == pytest.approx(s2.miou, abs=1e-15)
        assert s.iou[0] == pytest.approx(s2.iou[0], abs=1e-15)

    def test_zero_pixels_rejected(self):
        with pytest.raises(ValueError):
            scores(ConfusionMatrix(2))

    def test_eval_class_set_restricts_means(self):
        cm = ConfusionMatrix(3, eval_class_set=(1, 2))
        cm.counts = np.array([[1, 1, 0], [0, 4, 0], [0, 1, 3]], dtype=np.int64)
        s = scores(cm)
        iou1, iou2 = 4 / (4 + 2 + 0), 3 / (3 + 0 + 1)
        assert s.miou == pytest.approx((iou1 + iou2) / 2, abs=1e-12)

    @pytest.mark.parametrize("eval_set", [(), (4,), (0, 7), (-1, 2)])
    def test_eval_class_set_outside_the_classes_rejected(self, eval_set):
        with pytest.raises(ValueError):
            ConfusionMatrix(4, eval_class_set=eval_set)

    @pytest.mark.parametrize("seed", range(10))
    def test_f1_dominates_iou(self, seed):
        rng = np.random.default_rng(seed)
        cm = ConfusionMatrix(5).accumulate(rng.integers(0, 5, 200), rng.integers(0, 5, 200))
        s = scores(cm)
        ok = s.present
        assert np.all(s.iou[ok] <= s.f1[ok] + 1e-15)
        assert np.all(s.f1[ok] <= 1.0)
        # F1 = 2 IoU / (1 + IoU), exact algebraic relation
        assert np.allclose(s.f1[ok], 2 * s.iou[ok] / (1 + s.iou[ok]), rtol=1e-12)


class TestOracleAgreement:
    def test_hundred_random_pairs_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 400))
            labels = rng.integers(0, k, n)
            preds = rng.integers(0, k, n)
            cm = ConfusionMatrix(k).accumulate(labels, preds)
            bf_cm, oa, iou, f1, miou, mf1 = brute_force_scores(labels, preds, k)
            assert np.array_equal(cm.counts, bf_cm)
            s = scores(cm)
            assert s.oa == float(oa)                      # same ints, same rounding
            for kk in range(k):
                if kk in iou:
                    assert s.iou[kk] == float(iou[kk])
                    assert s.f1[kk] == float(f1[kk])
                else:
                    assert np.isnan(s.iou[kk])
            assert abs(s.miou - float(miou)) < 1e-12      # fp summation order only
            assert abs(s.mf1 - float(mf1)) < 1e-12


class TestMerge:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_sharded_equals_concatenated(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        a_lab, a_pred = rng.integers(0, k, 37), rng.integers(0, k, 37)
        b_lab, b_pred = rng.integers(0, k, 53), rng.integers(0, k, 53)
        sharded = (ConfusionMatrix(k).accumulate(a_lab, a_pred)
                   .merge(ConfusionMatrix(k).accumulate(b_lab, b_pred)))
        merged = ConfusionMatrix(k).accumulate(np.concatenate([a_lab, b_lab]),
                                               np.concatenate([a_pred, b_pred]))
        assert np.array_equal(sharded.counts, merged.counts)

    def test_merge_commutes(self, rng):
        k = 3
        x = ConfusionMatrix(k).accumulate(rng.integers(0, k, 20), rng.integers(0, k, 20))
        y = ConfusionMatrix(k).accumulate(rng.integers(0, k, 20), rng.integers(0, k, 20))
        xy = ConfusionMatrix(k).merge(x).merge(y)
        yx = ConfusionMatrix(k).merge(y).merge(x)
        assert np.array_equal(xy.counts, yx.counts)

    def test_merge_class_count_mismatch(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(2).merge(ConfusionMatrix(3))


class TestReportOutput:
    def test_csv_and_table(self, tmp_path, rng):
        cm = ConfusionMatrix(3).accumulate(rng.integers(0, 3, 60), rng.integers(0, 3, 60))
        s = scores(cm)
        path = tmp_path / "metrics.csv"
        s.to_csv(path)
        text = path.read_text()
        assert "OA" in text and "mIoU" in text
        table = s.render()
        assert "mF1=" in table
