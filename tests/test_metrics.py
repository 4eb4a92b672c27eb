"""Confusion counting and the F1 / precision / recall conventions."""

import numpy as np
import pytest

import binadapt as ba
from binadapt.metrics import Confusion


def test_perfect_prediction():
    gt = np.array([[1, 0], [0, 1]], dtype=bool)
    c = ba.confusion(gt, gt)
    assert c.fp == 0 and c.fn == 0 and c.tp == 2 and c.tn == 2


def test_total_inversion():
    gt = np.array([[1, 0], [0, 1]], dtype=bool)
    c = ba.confusion(~gt, gt)
    assert c.tp == 0 and c.tn == 0 and c.fp == 2 and c.fn == 2


def test_hand_counted_two_by_two():
    pred = np.array([1, 1, 0, 0], dtype=bool).reshape(2, 2)
    gt = np.array([1, 0, 1, 0], dtype=bool).reshape(2, 2)
    c = ba.confusion(pred, gt)
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)


def test_shape_mismatch_errors():
    with pytest.raises(ValueError, match="shape"):
        ba.confusion(np.zeros((2, 2)), np.zeros((2, 3)))


def test_direct_evaluation_of_formulas():
    c = Confusion(tp=2, fp=1, fn=1, tn=0)
    assert ba.f1(c) == pytest.approx(4 / 6)
    assert ba.precision(c) == pytest.approx(2 / 3)
    assert ba.recall(c) == pytest.approx(2 / 3)


def test_empty_positive_convention():
    c = Confusion(tp=0, fp=0, fn=0, tn=10)
    assert ba.f1(c) == ba.precision(c) == ba.recall(c) == 1.0


def test_degenerate_with_errors_is_zero():
    assert ba.precision(Confusion(tp=0, fp=0, fn=3, tn=1)) == 0.0
    assert ba.recall(Confusion(tp=0, fp=3, fn=0, tn=1)) == 0.0
    assert ba.f1(Confusion(tp=0, fp=2, fn=0, tn=1)) == 0.0


def test_f1_is_harmonic_mean_of_precision_and_recall():
    rng = np.random.default_rng(0)
    for _ in range(300):
        c = Confusion(*(int(v) for v in rng.integers(0, 50, size=4)))
        p, r = ba.precision(c), ba.recall(c)
        if p + r > 0 and c.tp + c.fp > 0 and c.tp + c.fn > 0:
            assert ba.f1(c) == pytest.approx(2 * p * r / (p + r), abs=1e-12)
        assert 0.0 <= ba.f1(c) <= 1.0
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0


def test_streaming_confusion_equals_whole_page():
    rng = np.random.default_rng(8)
    pred = rng.random((30, 41)) > 0.5
    gt = rng.random((30, 41)) > 0.7
    whole = ba.confusion(pred, gt)
    pg = ba.split_patches(pred.astype(float), 8, 8)
    gg = ba.split_patches(gt.astype(float), 8, 8)
    # padded regions replicate identically in both grids, so extra pixels
    # cancel only if we crop; stream over the unpadded page instead
    streamed = Confusion()
    for i in range(0, 30, 8):
        for j in range(0, 41, 8):
            streamed = streamed + ba.confusion(pred[i : i + 8, j : j + 8], gt[i : i + 8, j : j + 8])
    assert (streamed.tp, streamed.fp, streamed.fn, streamed.tn) == (whole.tp, whole.fp, whole.fn, whole.tn)
    assert pg.shape == gg.shape
