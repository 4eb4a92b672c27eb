"""Trainer contracts: sweeps, checkpoint selection, determinism, zero-coupling."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import binadapt as ba
from binadapt.data import Dataset, PageRecord, write_synthetic_dirs
from binadapt.training import history_csv


def _tiny_domains(seed=0):
    return ba.make_synthetic_domains(seed, n_pages=4, page_size=(64, 64), validation_fraction=0.25)


def _tiny_cfg(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batch", 16)
    return ba.ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# binarize

def test_binarize_basic():
    assert np.all(ba.binarize(np.full((3, 3), 0.9), 0.5))


def test_binarize_boundary_is_foreground():
    assert ba.binarize(np.array([0.5]), 0.5)[0]


def test_binarize_matches_elementwise_loop():
    rng = np.random.default_rng(0)
    prob = rng.random((13, 9))
    got = ba.binarize(prob, 0.4)
    for i in range(13):
        for j in range(9):
            assert got[i, j] == (prob[i, j] >= 0.4)


def test_binarize_threshold_range():
    with pytest.raises(ValueError):
        ba.binarize(np.zeros((2, 2)), 1.0)


# ---------------------------------------------------------------------------
# threshold sweep (on crafted maps)

def _record(gt):
    return PageRecord("p", None, gt != 0, "validation")


def test_sweep_perfect_map_returns_lowest_threshold():
    gt = (np.arange(16).reshape(4, 4) % 3 == 0).astype(np.uint8)
    th, score = ba.sweep_threshold([gt.astype(float)], [_record(gt)], sweep_step=0.05)
    assert th == pytest.approx(0.05)
    assert score == 1.0


def test_sweep_two_level_map():
    gt = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    prob = np.where(gt == 1, 0.6, 0.1)
    th, score = ba.sweep_threshold([prob], [_record(gt)], sweep_step=0.05)
    assert th == pytest.approx(0.15)
    assert score == 1.0


def test_sweep_empty_foreground_convention():
    gt = np.zeros((3, 3), dtype=np.uint8)
    th, score = ba.sweep_threshold([np.zeros((3, 3))], [_record(gt)], sweep_step=0.05)
    assert th == pytest.approx(0.05)
    assert score == 1.0


def test_sweep_result_achieves_curve_maximum():
    rng = np.random.default_rng(3)
    gt = (rng.random((8, 8)) > 0.6).astype(np.uint8)
    prob = np.clip(gt * 0.55 + rng.random((8, 8)) * 0.4, 0, 1)
    th, score = ba.sweep_threshold([prob], [_record(gt)], sweep_step=0.05)
    grid = [i * 0.05 for i in range(1, 20)]
    assert any(abs(th - g) < 1e-12 for g in grid)
    curve = [ba.f1(ba.confusion(prob >= g, gt)) for g in grid]
    assert score == pytest.approx(max(curve), abs=0)
    assert grid.index(th) == int(np.argmax(curve))  # ties resolve to lowest


def test_sweep_needs_one_map_per_validation_page():
    gt = np.eye(3, dtype=np.uint8)
    with pytest.raises(ValueError):
        ba.sweep_threshold([gt.astype(float)], [_record(gt), _record(gt)], sweep_step=0.05)


# ---------------------------------------------------------------------------
# training loops

def test_smoke_one_page_one_batch():
    src, _, _ = ba.make_synthetic_domains(0, n_pages=2, page_size=(32, 32), validation_fraction=0.5)
    tb = ba.train_sae(src, _tiny_cfg(epochs=1, batch=1))
    grid = [i * 0.05 for i in range(1, 20)]
    assert any(abs(tb.th_s - g) < 1e-12 for g in grid)
    assert len(tb.history) == 1


def test_trained_models_keep_no_record_or_buffers():
    source, _, target = _tiny_domains()
    cfg = _tiny_cfg(epochs=1)
    for tb in (ba.train_sae(source, cfg), ba.train_bindann(source, target, cfg)):
        assert tb.model.graph._run is None


def test_training_is_deterministic():
    src, _, _ = _tiny_domains()
    a = ba.train_sae(src, _tiny_cfg(seed=4))
    b = ba.train_sae(src, _tiny_cfg(seed=4))
    assert [(h.epoch, h.bin_loss, h.val_f1, h.th_s) for h in a.history] == [
        (h.epoch, h.bin_loss, h.val_f1, h.th_s) for h in b.history
    ]
    for name in a.model.params:
        assert a.model.params[name].tobytes() == b.model.params[name].tobytes()


def test_best_epoch_checkpoint_selected():
    src, _, _ = _tiny_domains()
    cfg = _tiny_cfg(epochs=4, seed=1)
    tb = ba.train_sae(src, cfg)
    best = max(h.val_f1 for h in tb.history)
    maps = [ba.predict_prob_map(tb.model, rec.page) for rec in src.validation()]
    recheck_th, recheck_f1 = ba.sweep_threshold(maps, src.validation(), cfg.sweep_step)
    assert recheck_f1 == pytest.approx(best, abs=0)
    assert recheck_th == pytest.approx(tb.th_s, abs=0)
    assert all(recheck_f1 >= h.val_f1 for h in tb.history)


def test_kept_validation_maps_are_the_kept_models_maps():
    # seed 4 keeps an epoch before the last, so the maps must not be the last sweep's
    src, _, _ = _tiny_domains()
    tb = ba.train_sae(src, _tiny_cfg(epochs=4, seed=4))
    scores = [h.val_f1 for h in tb.history]
    assert scores.index(max(scores)) < len(scores) - 1
    assert len(tb.val_maps) == len(src.validation())
    for prob, rec in zip(tb.val_maps, src.validation()):
        assert prob.tobytes() == ba.predict_prob_map(tb.model, rec.page).tobytes()


def _as_pixels(ds):
    return Dataset(ds.role, [replace(r, page=r.page / 255.0) for r in ds.records])


@pytest.mark.parametrize("adversarial", [False, True], ids=["sae", "bindann"])
def test_training_on_levels_matches_training_on_their_pixels(tmp_path, adversarial):
    write_synthetic_dirs(0, tmp_path, n_pages=4, page_size=(64, 64))
    src = ba.load_dataset(tmp_path / "source", "source", 0.25, 0)
    far = ba.load_dataset(tmp_path / "target_far", "target", 0.25, 0)
    assert src.records[0].page.dtype == far.records[0].page.dtype == np.uint8
    cfg = _tiny_cfg(seed=3)
    if adversarial:
        runs = [ba.train_bindann(src, far, cfg), ba.train_bindann(_as_pixels(src), _as_pixels(far), cfg)]
    else:
        runs = [ba.train_sae(src, cfg), ba.train_sae(_as_pixels(src), cfg)]
    levels, pixels = runs
    assert history_csv(levels.history) == history_csv(pixels.history)
    for name in levels.model.params:
        assert levels.model.params[name].tobytes() == pixels.model.params[name].tobytes()
    assert [m.tobytes() for m in levels.val_maps] == [m.tobytes() for m in pixels.val_maps]


def test_zero_coupling_reproduces_plain_trainer_bitwise():
    # lambda pinned to 0 for >= 5 optimizer steps: every trunk parameter of the
    # adversarial model must track the plain trainer exactly
    src, _, far = _tiny_domains()
    cfg = ba.ExperimentConfig(epochs=1, batch=2, seed=5, lambda0=0.0, lambda_inc=0.0)
    sae = ba.train_sae(src, cfg)
    dann = ba.train_bindann(src, far, cfg)
    steps = -(-len(src.train()) * 4 // 2)  # ceil(train patches / batch)
    assert steps >= 5
    for name in sae.model.params:
        assert dann.model.params[name].tobytes() == sae.model.params[name].tobytes()


def test_adversarial_history_records_schedule():
    src, _, far = _tiny_domains()
    tb = ba.train_bindann(src, far, _tiny_cfg(epochs=3, seed=2, lambda0=0.1, lambda_inc=0.01))
    assert [h.lam for h in tb.history] == pytest.approx([0.10, 0.11, 0.12], abs=1e-12)
    assert all(h.domain_loss is not None for h in tb.history)


def test_trainer_precondition_errors():
    src, _, far = _tiny_domains()
    no_val = ba.Dataset("source", [r for r in src.records if r.split == "train"])
    with pytest.raises(ValueError, match="validation"):
        ba.train_sae(no_val, _tiny_cfg())
    with pytest.raises(ValueError, match="target"):
        ba.train_bindann(src, ba.Dataset("target", []), _tiny_cfg())


def test_negative_reversal_schedule_rejected():
    for bad in ({"lambda0": -1.0}, {"lambda_inc": -0.01},
                {"lambda0": math.nan}, {"lambda_inc": math.nan}):
        with pytest.raises(ValueError, match="reversal"):
            ba.ExperimentConfig(**bad)


@pytest.mark.parametrize("lr", [0.0, -0.01, math.nan, math.inf])
def test_non_positive_or_non_finite_learning_rate_rejected(lr):
    with pytest.raises(ValueError, match="learning rate"):
        ba.ExperimentConfig(lr=lr)


@pytest.mark.parametrize("setting, match", [({"h_prec": 0.3}, "whole bins"),
                                            ({"rho_th": 1.5}, "gate threshold")],
                         ids=["h_prec", "rho_th"])
def test_gate_settings_are_checked_on_construction(setting, match):
    with pytest.raises(ValueError, match=match):
        ba.ExperimentConfig(**setting)


@pytest.mark.parametrize("name, value", [("epochs", 2.0), ("batch", 4.0), ("seed", 1.5),
                                         ("epochs", True), ("seed", True), ("batch", "4"),
                                         ("seed", np.int64(1))])
def test_counts_that_are_not_ints_are_rejected_on_construction(name, value):
    # a float would fail deep in training and a bool would enter the manifest
    with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(value))} is not an integer$"):
        ba.ExperimentConfig(**{name: value})


@pytest.mark.parametrize("name, value", [("lr", True), ("dropout", False), ("rho_th", True),
                                         ("lambda0", True), ("validation_fraction", False),
                                         ("h_prec", "0.1"), ("sweep_step", None)])
def test_float_settings_that_are_not_numbers_are_rejected_on_construction(name, value):
    with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(value))} is not a number$"):
        ba.ExperimentConfig(**{name: value})


def test_an_int_float_setting_is_stored_as_a_float():
    cfg = ba.ExperimentConfig(lr=1, lambda0=0, rho_th=0)
    assert type(cfg.lr) is float and type(cfg.lambda0) is float and type(cfg.rho_th) is float
    same = ba.ExperimentConfig(lr=1.0, lambda0=0.0, rho_th=0.0)
    assert cfg.canonical_text() == same.canonical_text()
    assert "lr=1.0\n" in cfg.canonical_text()


@pytest.mark.parametrize("name, value", [("source_dir", 3), ("target_dir", None), ("out_dir", b"out")])
def test_directories_that_are_not_strings_are_rejected_on_construction(name, value):
    with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(value))} is not a string$"):
        ba.ExperimentConfig(**{name: value})


def test_history_csv_layout():
    src, _, _ = _tiny_domains()
    tb = ba.train_sae(src, _tiny_cfg(epochs=1))
    text = history_csv(tb.history)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,bin_loss,domain_loss,lambda,val_f1,th_s"
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[2] == "" and cells[3] == ""
    assert float(cells[1]) > 0


def test_binarizer_checkpoint_roundtrip(tmp_path):
    src, _, _ = _tiny_domains()
    tb = ba.train_sae(src, _tiny_cfg(epochs=1, seed=3))
    path = tmp_path / "sae.ckpt"
    ba.save_binarizer(path, tb)
    back = ba.load_binarizer(path)
    assert back.th_s == tb.th_s
    page = src.records[0].page
    assert ba.predict_prob_map(back.model, page).tobytes() == ba.predict_prob_map(tb.model, page).tobytes()
