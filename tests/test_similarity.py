"""Domain histograms, the four comparison metrics, the gate, the driver."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import binadapt as ba
from binadapt import similarity
from binadapt.similarity import (
    USE_DA,
    USE_SAE,
    DegenerateHistogramError,
    autobindann,
    compare_histograms,
    domain_histogram,
    gate,
    histogram_csv,
)

from reference import direct_pearson


# ---------------------------------------------------------------------------
# domain histograms

def test_all_zero_map_lands_in_first_bin():
    h = domain_histogram([np.zeros((5, 4))], 0.1)
    assert h.dtype == np.float64
    np.testing.assert_array_equal(h, [1.0] + [0.0] * 9)


def test_hand_binning_including_closed_top_bin():
    h = domain_histogram([np.array([0.05, 0.15, 0.95, 1.0])], 0.1)
    np.testing.assert_array_equal(h, [0.25, 0.25, 0, 0, 0, 0, 0, 0, 0, 0.5])


def test_accumulation_is_additive():
    # pooling two maps, from a list or a stream, equals pooling their concatenation
    rng = np.random.default_rng(0)
    a, b = rng.random(50), rng.random(70)
    pooled = domain_histogram([np.concatenate([a, b])], 0.1).tobytes()
    assert domain_histogram([a, b], 0.1).tobytes() == pooled
    assert domain_histogram((m for m in (a, b)), 0.1).tobytes() == pooled


@pytest.mark.filterwarnings("error")  # NaN must fail before it is cast to a bin
def test_out_of_range_values_rejected():
    for maps in ([np.array([1.2])], [np.zeros(3), np.array([-0.1])],
                 [np.zeros(3), np.array([0.5, math.nan])]):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            domain_histogram(maps, 0.1)


def _one_shot_histogram(values, h_prec):
    n = round(1 / h_prec)
    idx = np.minimum(np.floor(np.ravel(values) / h_prec).astype(np.int64), n - 1)
    counts = np.bincount(idx, minlength=n).astype(np.float64)
    return counts / counts.sum()


def test_blocked_binning_equals_the_one_shot_formula():
    # bin edges, their neighbours and exactly 1.0, over more rows than one block
    edges = np.arange(11) / 10
    values = np.clip(np.concatenate([edges, np.nextafter(edges, -1), np.nextafter(edges, 2)]), 0, 1)
    rng = np.random.default_rng(5)
    page = rng.choice(values, size=(700, 300))
    for prob in (page, page[3:, 7:290], page.T, page.ravel()):
        for h_prec in (0.1, 0.25, 0.05):
            expected = _one_shot_histogram(prob, h_prec)
            assert domain_histogram([prob], h_prec).tobytes() == expected.tobytes()


@pytest.mark.parametrize("crop", [False, True], ids=["1024x1024", "1000x750-view"])
def test_domain_histogram_makes_no_page_sized_temporary(crop):
    # a ragged page's map is a cropped, non-contiguous view of a wider one
    prob = np.random.default_rng(6).random((1024, 1024))
    if crop:
        prob = prob[:1000, :750]
    tracemalloc.start()
    try:
        domain_histogram([prob], 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < prob.size * prob.itemsize / 4


def test_bin_width_must_divide_one():
    with pytest.raises(ValueError, match="divide"):
        domain_histogram([np.zeros(3)], 0.3)
    assert domain_histogram([np.zeros(3)], 0.25).shape == (4,)
    assert domain_histogram([np.zeros(3)], 0.1).shape == (10,)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_examples():
    np.testing.assert_array_equal(domain_histogram([np.array([0.2, 0.7])], 0.5), [0.5, 0.5])
    np.testing.assert_array_equal(domain_histogram([np.full((2, 5), 0.01)], 0.1), [1.0] + [0.0] * 9)


def test_normalize_random_counts_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        maps = [rng.random((rng.integers(1, 9), 7)) for _ in range(rng.integers(1, 4))]
        assert abs(domain_histogram(maps, 0.1).sum() - 1.0) < 1e-9


def test_normalize_empty_errors():
    with pytest.raises(ValueError, match="empty"):
        domain_histogram([], 0.1)
    with pytest.raises(ValueError, match="empty"):
        domain_histogram([np.zeros(0), np.zeros((0, 3))], 0.1)


# ---------------------------------------------------------------------------
# pearson

def test_pearson_self_correlation():
    h = np.array([0.5, 0.3, 0.2])
    assert ba.pearson(h, h) == pytest.approx(1.0, abs=1e-12)


def test_pearson_two_bin_antisymmetry():
    assert ba.pearson([0.9, 0.1], [0.1, 0.9]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_direct_formula():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.random(10)
        b = rng.random(10)
        a, b = a / a.sum(), b / b.sum()
        assert abs(ba.pearson(a, b) - direct_pearson(a, b)) < 1e-12


def test_pearson_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.random(10), rng.random(10)
        r = ba.pearson(a, b)
        assert r == ba.pearson(b, a)
        assert -1.0 <= r <= 1.0


def test_pearson_affine_invariance():
    rng = np.random.default_rng(4)
    a, b = rng.random(10), rng.random(10)
    base = ba.pearson(a, b)
    assert ba.pearson(3.0 * a + 0.7, 3.0 * b + 0.7) == pytest.approx(base, abs=1e-12)


def test_pearson_degenerate_raises_not_nan():
    with pytest.raises(DegenerateHistogramError):
        ba.pearson(np.full(10, 0.1), np.arange(10.0) / 45.0)


# ---------------------------------------------------------------------------
# divergences and intersection

def test_identity_distributions():
    p = np.array([0.2, 0.3, 0.5])
    assert ba.kl_divergence(p, p) == 0.0
    assert ba.js_divergence(p, p) == 0.0
    assert ba.hist_intersection(p, p) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_point_masses():
    p, q = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert ba.js_divergence(p, q) == pytest.approx(math.log(2), abs=1e-8)
    assert ba.hist_intersection(p, q) == pytest.approx(0.0, abs=1e-9)


def test_kl_asymmetry_witness():
    rng = np.random.default_rng(5)
    p, q = rng.random(10), rng.random(10)
    p, q = p / p.sum(), q / q.sum()
    assert ba.kl_divergence(p, q) != ba.kl_divergence(q, p)


def test_metric_bounds_on_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p, q = rng.random(10), rng.random(10)
        p, q = p / p.sum(), q / q.sum()
        assert ba.kl_divergence(p, q) >= 0.0
        assert 0.0 <= ba.js_divergence(p, q) <= math.log(2)
        assert 0.0 <= ba.hist_intersection(p, q) <= 1.0


def test_unnormalized_inputs_rejected():
    with pytest.raises(ValueError, match="sum"):
        ba.kl_divergence(np.ones(10), np.ones(10) / 10)
    with pytest.raises(ValueError, match="sum"):
        ba.hist_intersection(np.ones(10), np.ones(10) / 10)


# ---------------------------------------------------------------------------
# gate

def test_gate_decisions_from_reported_correlations():
    assert ba.gate_decision(0.08, 0.25) == USE_DA
    assert ba.gate_decision(0.88, 0.25) == USE_SAE


def test_gate_boundary_is_inclusive():
    assert ba.gate_decision(0.25, 0.25) == USE_DA


def test_gate_rejects_out_of_range():
    with pytest.raises(ValueError):
        ba.gate_decision(1.5, 0.25)


# ---------------------------------------------------------------------------
# reports

def test_report_json_fields():
    rng = np.random.default_rng(7)
    a, b = rng.random(10), rng.random(10)
    a, b = a / a.sum(), b / b.sum()
    report = compare_histograms(a, b, rho_th=0.25)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "rho", "kl_st", "kl_ts", "js", "hist_intersection",
        "rho_th", "decision", "degenerate_flag",
    }
    assert payload["decision"] in (USE_SAE, USE_DA)
    assert payload["degenerate_flag"] is False
    assert (payload["decision"] == USE_DA) == (payload["rho"] <= payload["rho_th"])


def test_degenerate_report_keeps_plain_model():
    report = compare_histograms(np.full(10, 0.1), np.full(10, 0.1), rho_th=0.25)
    assert report.degenerate_flag is True
    assert report.decision == USE_SAE
    assert report.rho == 1.0


def test_histogram_csv_layout():
    h = domain_histogram([np.array([0.05, 0.95])], 0.5)
    lines = histogram_csv(h, 0.5).strip().split("\n")
    assert lines[0] == "bin_low,bin_high,mass"
    assert lines[1].startswith("0.0,0.5,")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# driver plumbing (behavioral gate tests live in the acceptance module)

def test_autobindann_mini_run_contracts():
    src, near, far = ba.make_synthetic_domains(1, n_pages=4, page_size=(64, 64), validation_fraction=0.25)
    assert all(r.gt is None for r in far.records)  # driver never sees target labels
    cfg = ba.ExperimentConfig(epochs=2, batch=16, seed=1, h_prec=0.1, rho_th=0.25)
    result = autobindann(src, far, cfg)
    assert set(result.masks) == {r.stem for r in far.records}
    for rec in far.records:
        assert result.masks[rec.stem].shape == rec.page.shape
        assert result.masks[rec.stem].dtype == bool
    assert result.report.decision in (USE_SAE, USE_DA)
    assert (result.da is not None) == (result.report.decision == USE_DA)
    assert result.used is (result.da if result.da is not None else result.sae)
    # the kept epoch's sweep maps give the histogram a fresh prediction would
    def fresh(records):
        return domain_histogram((ba.predict_prob_map(result.sae.model, r.page) for r in records), 0.1)

    assert result.hist_source.tobytes() == fresh(src.validation()).tobytes()
    # the target histogram pools the plain model's maps of every target page
    assert result.hist_target.tobytes() == fresh(far.records).tobytes()


def _same_binarizer(a, b):
    assert a.th_s == b.th_s and a.history == b.history
    assert {k: v.tobytes() for k, v in a.model.params.items()} == \
        {k: v.tobytes() for k, v in b.model.params.items()}


def test_one_trained_sae_gates_every_target_as_autobindann_does(monkeypatch):
    # at this seed and learning rate the far gate fires and the near one does not
    src, near, far = ba.make_synthetic_domains(2, n_pages=4, page_size=(64, 64), validation_fraction=0.25)
    cfg = ba.ExperimentConfig(epochs=2, batch=8, seed=2, lr=0.01)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ba.train_sae(*args, **kwargs)

    monkeypatch.setattr(similarity, "train_sae", counted)
    sae = similarity.train_sae(src, cfg)
    staged = {name: gate(sae, src, target, cfg) for name, target in (("near", near), ("far", far))}
    assert len(calls) == 1  # two targets, one SAE
    assert (staged["near"].report.decision, staged["far"].report.decision) == (USE_SAE, USE_DA)
    for name, target in (("near", near), ("far", far)):
        mine, whole = staged[name], autobindann(src, target, cfg)
        assert mine.da is None and mine.sae is sae
        assert mine.report.to_json() == whole.report.to_json()
        assert mine.hist_source.tobytes() == whole.hist_source.tobytes()
        assert mine.hist_target.tobytes() == whole.hist_target.tobytes()
        _same_binarizer(mine.sae, whole.sae)
        masks = mine.masks
        if mine.report.decision == USE_DA:
            # the stages go on only where the gate fires
            da = ba.train_bindann(src, target, cfg)
            _same_binarizer(da, whole.da)
            masks = {r.stem: ba.binarize(ba.predict_prob_map(da.model, r.page), da.th_s)
                     for r in target.records}
        else:
            assert whole.da is None
        assert masks.keys() == whole.masks.keys()
        for stem, mask in masks.items():
            assert mask.dtype == bool and mask.tobytes() == whole.masks[stem].tobytes()
    assert len(calls) == 3


def test_gate_predicts_a_loaded_binarizers_source_validation_pages(tmp_path):
    src, _, far = ba.make_synthetic_domains(1, n_pages=4, page_size=(64, 64), validation_fraction=0.25)
    cfg = ba.ExperimentConfig(epochs=1, batch=16, seed=1)
    fresh = ba.train_sae(src, cfg)
    ba.save_binarizer(tmp_path / "sae.ckpt", fresh)
    loaded = ba.load_binarizer(tmp_path / "sae.ckpt")
    a, b = gate(fresh, src, far, cfg), gate(loaded, src, far, cfg)
    assert a.report.to_json() == b.report.to_json()
    assert a.hist_source.tobytes() == b.hist_source.tobytes()
    assert all(a.masks[s].tobytes() == b.masks[s].tobytes() for s in a.masks)
    no_val = ba.Dataset("source", src.train())
    with pytest.raises(ba.DataError, match="^source has no validation page to pool into its histogram$"):
        gate(loaded, no_val, far, cfg)


def test_gate_refuses_an_empty_target_before_any_prediction(monkeypatch):
    src, _, _ = ba.make_synthetic_domains(1, n_pages=4, page_size=(64, 64), validation_fraction=0.25)
    cfg = ba.ExperimentConfig(epochs=1, batch=16, seed=1)
    sae = ba.TrainedBinarizer(ba.build_sae(cfg.sae_config(), np.random.default_rng(0)), 0.5, [])
    empty = ba.Dataset("target", [])
    predicted = []

    def predict(model, page):
        predicted.append(page)
        return ba.predict_prob_map(model, page)

    monkeypatch.setattr(similarity, "predict_prob_map", predict)
    with pytest.raises(ba.DataError, match="^target dataset is empty$"):
        gate(sae, src, empty, cfg)
    assert not predicted
    with pytest.raises(ba.DataError, match="^target dataset is empty$"):  # as Bin-DANN says it
        ba.train_bindann(src, empty, cfg)
