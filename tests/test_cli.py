"""Config parsing, exit codes, and command round trips on small fixtures."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import binadapt as ba
from binadapt import cli, layers, similarity
from binadapt.cli import ConfigError, main, parse_config
from binadapt.data import synthetic_domain_pairs, write_pgm, write_synthetic_dirs
from binadapt.models import CHECKPOINT_MAGIC

from defaults import SAE, sae_cfg


# ---------------------------------------------------------------------------
# config parsing

def test_defaults_applied():
    cfg = parse_config("")
    assert cfg.h_prec == 0.1
    assert cfg.rho_th == 0.25
    assert cfg.dropout == 0.2
    assert cfg.lambda0 == 0.1
    assert cfg.lambda_inc == 0.01
    assert cfg.patch_h == cfg.patch_w == 32
    assert cfg.depth == 3 and cfg.filters == 8


def test_values_comments_and_whitespace():
    cfg = parse_config(
        """
        # an experiment
        epochs = 7   # inline comment
        seed=3
        source_dir = /data/src
        rho_th = 0.3
        """
    )
    assert cfg.epochs == 7 and cfg.seed == 3
    assert cfg.source_dir == "/data/src"
    assert cfg.rho_th == 0.3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rate = 0.1")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad int"):
        parse_config("epochs = soon")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("epochs = 1\nepochs = 2")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("epochs")


def test_invalid_value_combination_rejected():
    with pytest.raises(ConfigError):
        parse_config("patch_h = 20")  # not divisible by 2^depth


def test_manifest_config_excludes_out_dir():
    cfg = ba.ExperimentConfig(out_dir="/somewhere")
    assert "out_dir" not in cfg.as_dict()
    assert "out_dir" not in cfg.canonical_text()


# ---------------------------------------------------------------------------
# exit codes

def test_exit_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 4\n")
    code = main(["train-sae", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


def test_exit_3_on_missing_data(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"source_dir = {tmp_path / 'nowhere'}\n")
    code = main(["train-sae", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "error: io:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_2_on_patch_beyond_max_side_before_reading_pages(tmp_path, capsys):
    # the source does not exist: reading it first would exit 3
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"source_dir = {tmp_path / 'nowhere'}\npatch_h = 2048\n")
    code = main(["train-sae", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: config: patch side 2048 outside [1, 1024]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_2_on_a_reversal_schedule_that_overflows_before_reading_pages(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"source_dir = {tmp_path / 'nowhere'}\ntarget_dir = {tmp_path / 'nowhere'}\n"
                   "epochs = 2\nlambda0 = 1e308\nlambda_inc = 1e308\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: config: reversal coefficient schedule" in capsys.readouterr().err


_SMALL_SAE = {"depth": 1, "filters": 2, "kernel": [3, 3], "stride": [2, 2],
              "dropout_rate": 0.2, "patch": [4, 4], "channels": 1}


def _checkpoint(header_bytes):
    """A checkpoint of a small SAE's parameters under the given raw header."""
    model = ba.build_sae(sae_cfg(depth=1, filters=2, patch=(4, 4)), np.random.default_rng(0))
    records = {"__config__": np.frombuffer(header_bytes, dtype=np.uint8).astype(np.float64)}
    records.update(model.params)
    return ba.write_checkpoint(records)


def _header(**fields):
    header = {"kind": "sae", "config": dict(_SMALL_SAE), "th_s": 0.5}
    header.update(fields)
    return json.dumps({k: v for k, v in header.items() if v is not None}).encode()


def _truncated_real_checkpoint(tmp_path):
    model = ba.build_sae(SAE, np.random.default_rng(0))
    ba.save_binarizer(tmp_path / "full.ckpt", ba.TrainedBinarizer(model, 0.5, []))
    return (tmp_path / "full.ckpt").read_bytes()[:200]


def _repeated_record_checkpoint(tmp_path):
    """A saved SAE with a second ``out.b`` record appended after the trained one."""
    model = ba.build_sae(SAE, np.random.default_rng(0))
    ba.save_binarizer(tmp_path / "full.ckpt", ba.TrainedBinarizer(model, 0.5, []))
    again = ba.write_checkpoint({"out.b": np.ones(1)})[len(CHECKPOINT_MAGIC):]
    return (tmp_path / "full.ckpt").read_bytes() + again


_MALFORMED = {
    "truncated": _truncated_real_checkpoint,
    "repeated_record": _repeated_record_checkpoint,
    "undecodable_header": lambda tmp: _checkpoint(b"\xff{not json"),
    "missing_kind": lambda tmp: _checkpoint(_header(kind=None)),
    "unknown_kind": lambda tmp: _checkpoint(_header(kind="gan")),
    "missing_config_field": lambda tmp: _checkpoint(
        _header(config={k: v for k, v in _SMALL_SAE.items() if k != "depth"})),
    "colour_channels": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, channels=3))),
    "kernel_5x5": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, kernel=[5, 5]))),
    "stride_1x1": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, stride=[1, 1]))),
    "stride_1x2": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, stride=[1, 2]))),
    # the model it names would need terabytes; the file holds 77 values
    "filters_beyond_file": lambda tmp: _checkpoint(
        _header(config=dict(_SMALL_SAE, filters=200000))),
    # prediction would pad the page to 8 TiB
    "patch_beyond_max_side": lambda tmp: _checkpoint(
        _header(config=dict(_SMALL_SAE, patch=[1048576, 1048576]))),
    "patch_zero": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, patch=[0, 0]))),
    "patch_one_side": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, patch=[4]))),
    # sizes must be integers: a float patch fails only once prediction
    # allocates, and a bool depth would load as depth 1
    "patch_float": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, patch=[8.0, 8.0]))),
    "depth_bool": lambda tmp: _checkpoint(_header(config=dict(_SMALL_SAE, depth=True))),
    # a binarizer is a model and its threshold: no command can use a file without one
    "no_threshold": lambda tmp: _checkpoint(_header(th_s=None)),
    "threshold_out_of_range": lambda tmp: _checkpoint(_header(th_s=1.5)),
    "threshold_not_a_number": lambda tmp: _checkpoint(_header(th_s="0.5")),
}


def test_valid_small_checkpoint_predicts(tmp_path):
    # the malformed cases below differ from this one only where they name
    (tmp_path / "ok.ckpt").write_bytes(_checkpoint(_header()))
    (tmp_path / "page.pgm").write_bytes(ba.write_pgm(np.full((6, 5), 0.5)))
    assert main(["predict", "--checkpoint", str(tmp_path / "ok.ckpt"),
                 "--input", str(tmp_path / "page.pgm"), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_exit_3_on_malformed_checkpoint(case, tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(_MALFORMED[case](tmp_path))
    (tmp_path / "page.pgm").write_bytes(ba.write_pgm(np.full((6, 5), 0.5)))
    code = main(["predict", "--checkpoint", str(ckpt), "--input", str(tmp_path / "page.pgm"),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "error: io:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_6_on_an_op_that_runs_out_of_memory(tmp_path, monkeypatch, capsys):
    # raised inside a conv's forward, it keeps its category instead of
    # becoming a graph error, which would exit 2
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 8.00 TiB for the grid")

    monkeypatch.setattr(layers, "_grid", out_of_memory)
    (tmp_path / "ok.ckpt").write_bytes(_checkpoint(_header()))
    (tmp_path / "page.pgm").write_bytes(ba.write_pgm(np.full((6, 5), 0.5)))
    code = main(["predict", "--checkpoint", str(tmp_path / "ok.ckpt"),
                 "--input", str(tmp_path / "page.pgm"), "--out", str(tmp_path / "out")])
    assert code == 6
    err = capsys.readouterr().err
    assert err == "error: memory: Unable to allocate 8.00 TiB for the grid\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-sae", "predict", "similarity", "run", "synth"])
def test_every_command_checks_its_output_directory_before_reading(command, tmp_path, capsys):
    # nothing named exists: a command reading its inputs first would exit 3
    missing = tmp_path / "nowhere"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"source_dir = {missing}\ntarget_dir = {missing}\n")
    extra = {"predict": ["--checkpoint", str(missing), "--input", str(missing)],
             "similarity": ["--checkpoint", str(missing)]}.get(command, [])
    assert main([command, "--config", str(cfg), *extra]) == 2
    assert capsys.readouterr().err == "error: config: no output directory (set out_dir or pass --out)\n"
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_exit_3_on_oversized_p2_header(tmp_path, capsys):
    # a 30-byte page declaring 10^12 pixels must fail as I/O, not allocate
    (tmp_path / "ok.ckpt").write_bytes(_checkpoint(_header()))
    (tmp_path / "page.pgm").write_bytes(b"P2\n1000000 1000000\n255\n0 0 0\n")
    code = main(["predict", "--checkpoint", str(tmp_path / "ok.ckpt"),
                 "--input", str(tmp_path / "page.pgm"), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "error: io:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command round trips

@pytest.fixture(scope="module")
def tiny_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_synthetic_dirs(0, root, n_pages=3, page_size=(64, 64))
    return root


def _cfg_file(tmp_path, data_root, name="exp.cfg", **kw):
    values = {
        "source_dir": data_root / "source",
        "target_dir": data_root / "target_far",
        "epochs": 2,
        "batch": 16,
        "seed": 0,
        "validation_fraction": 0.34,
    }
    values.update(kw)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def test_synth_writes_three_loadable_datasets(tmp_path):
    assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    for name in ("source", "target_near", "target_far"):
        assert (tmp_path / name / "images").is_dir()
        assert (tmp_path / name / "gt").is_dir()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 1
    ds = ba.load_dataset(tmp_path / "source", "source", 0.25, 1)
    assert len(ds.records) == 8


def test_train_predict_similarity_flow(tiny_dirs, tmp_path):
    cfg = _cfg_file(tmp_path, tiny_dirs)
    out = tmp_path / "train"
    assert main(["train-sae", "--config", str(cfg), "--out", str(out)]) == 0
    ckpt = out / "sae.ckpt"
    assert ckpt.exists()
    history = (out / "history_sae.csv").read_text().strip().split("\n")
    assert history[0].startswith("epoch,") and len(history) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train-sae"
    assert "config_hash" in manifest and manifest["versions"]["binadapt"]

    page = next((tiny_dirs / "source" / "images").glob("*.pgm"))
    pred_out = tmp_path / "pred"
    assert main(["predict", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--input", str(page), "--out", str(pred_out)]) == 0
    prob = ba.read_pgm((pred_out / f"{page.stem}.prob.pgm").read_bytes())
    mask = ba.read_pgm((pred_out / f"{page.stem}.mask.pgm").read_bytes())
    assert prob.pixels.shape == (64, 64)
    assert set(np.unique(mask.pixels)) <= {0.0, 1.0}

    # same directory as source and target: correlation must be high
    sim_cfg = _cfg_file(tmp_path, tiny_dirs, name="same.cfg", target_dir=tiny_dirs / "source")
    sim_out = tmp_path / "sim"
    assert main(["similarity", "--config", str(sim_cfg), "--checkpoint", str(ckpt),
                 "--out", str(sim_out)]) == 0
    report = json.loads((sim_out / "report.json").read_text())
    assert report["rho"] >= 0.9
    assert report["decision"] == "UseSAE"
    assert (sim_out / "hist_source.csv").read_text().startswith("bin_low,bin_high,mass")


def test_the_csv_writer_formats_history_and_histogram_rows(tmp_path):
    # a str cell as it is, None as an empty one, anything else as its repr
    tb = ba.TrainedBinarizer(ba.build_sae(SAE, np.random.default_rng(0)), 0.35,
                             [ba.training.EpochStats(0, 0.1 + 0.2, None, None, 0.75, 0.35)])
    cli._write_binarizer(tmp_path, "sae", tb)
    assert (tmp_path / "history_sae.csv").read_bytes() == (
        b"epoch,bin_loss,domain_loss,lambda,val_f1,th_s\n0,0.30000000000000004,,,0.75,0.35\n")
    assert ba.load_binarizer(tmp_path / "sae.ckpt").th_s == 0.35
    h = similarity.domain_histogram([np.array([0.05, 0.95])], 0.5)  # float64 masses
    report = similarity.compare_histograms(h, h, 0.25)
    cli._write_gate(tmp_path, "similarity", ba.ExperimentConfig(h_prec=0.5),
                    similarity.AutoRunResult(report, tb, None, {}, h, h))
    for name in ("hist_source.csv", "hist_target.csv"):
        assert (tmp_path / name).read_bytes() == b"bin_low,bin_high,mass\n0.0,0.5,0.5\n0.5,1.0,0.5\n"
    assert json.loads((tmp_path / "report.json").read_text()) == asdict(report)


def test_run_command_emits_all_artifacts(tiny_dirs, tmp_path):
    cfg = _cfg_file(tmp_path, tiny_dirs, epochs=1)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["decision"] in ("UseSAE", "UseDA")
    masks = sorted((out / "binarized").glob("*.pgm"))
    assert len(masks) == 3
    assert (out / "sae.ckpt").exists()
    assert (out / "history_sae.csv").exists()
    # target gt exists on disk, so the post-hoc evaluation table is emitted
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "page,f1,precision,recall"
    assert summary[-1].startswith("overall,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["decision"] == report["decision"]
    if report["decision"] == "UseDA":
        assert (out / "bindann.ckpt").exists()
        assert (out / "history_bindann.csv").exists()
    # similarity on the run's SAE checkpoint reproduces the run's gate files
    sim = tmp_path / "sim"
    assert main(["similarity", "--config", str(cfg), "--checkpoint", str(out / "sae.ckpt"),
                 "--out", str(sim)]) == 0
    for name in ("report.json", "hist_source.csv", "hist_target.csv"):
        assert (sim / name).read_bytes() == (out / name).read_bytes(), name
    sim_manifest = json.loads((sim / "manifest.json").read_text())
    assert (sim_manifest["decision"], sim_manifest["rho"]) == (manifest["decision"], manifest["rho"])


def test_the_library_on_generated_domains_reproduces_run_on_the_written_ones(tmp_path):
    # make_synthetic_domains holds the levels write_synthetic_dirs writes, in
    # the split load_dataset gives them at the default validation fraction
    data = tmp_path / "data"
    write_synthetic_dirs(2, data, 4, (64, 64))
    source, near, far = ba.make_synthetic_domains(2, 4, (64, 64))
    decisions = []
    for name, target in (("target_near", near), ("target_far", far)):
        conf = tmp_path / f"{name}.cfg"
        conf.write_text(f"source_dir = {data / 'source'}\ntarget_dir = {data / name}\n"
                        "epochs = 2\nbatch = 8\nseed = 2\nlr = 0.01\n")
        out = tmp_path / name
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        result = similarity.autobindann(source, target, parse_config(conf.read_text()))
        assert json.loads((out / "report.json").read_text()) == asdict(result.report)
        masks = {path.stem: ba.read_pgm(path.read_bytes()).levels == 255
                 for path in (out / "binarized").glob("*.pgm")}
        assert masks.keys() == result.masks.keys()
        for stem, mask in result.masks.items():
            np.testing.assert_array_equal(masks[stem], mask, err_msg=f"{name} {stem}")
        decisions.append(result.report.decision)
    assert decisions == ["UseSAE", "UseDA"]  # both of the driver's paths


@pytest.mark.parametrize("command", ["train-sae", "run"])
def test_collapsed_model_is_flagged(command, tiny_dirs, tmp_path, capsys):
    # lr = 1e6 drives every validation map to one class: best F1 is 0
    for lr, collapsed in ((1e6, True), (0.01, False)):
        cfg = _cfg_file(tmp_path, tiny_dirs, epochs=1, lr=lr)
        out = tmp_path / f"{command}-{lr}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["collapsed"] is collapsed
        assert ("collapsed" in capsys.readouterr().err) is collapsed


def test_run_without_target_gt_skips_evaluation(tiny_dirs, tmp_path):
    import shutil

    bare = tmp_path / "bare_target"
    shutil.copytree(tiny_dirs / "target_far", bare)
    shutil.rmtree(bare / "gt")
    cfg = _cfg_file(tmp_path, tiny_dirs, epochs=1, target_dir=bare)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert len(list((out / "binarized").glob("*.pgm"))) == 3
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("key, value", [("h_prec", 0.3), ("rho_th", 7), ("lambda0", -1)])
def test_run_rejects_bad_gate_settings_before_training(key, value, tiny_dirs, tmp_path,
                                                       monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the settings were checked")

    monkeypatch.setattr(similarity, "train_sae", no_training)
    cfg = _cfg_file(tmp_path, tiny_dirs, **{key: value})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key, value", [("similarity", "rho_th", 7),
                                                 ("train-sae", "lambda0", -1),
                                                 ("train-sae", "lambda0", "nan"),
                                                 ("train-sae", "lr", 0),
                                                 ("train-sae", "lr", -0.01),
                                                 ("train-sae", "lr", "nan"),
                                                 ("train-sae", "sweep_step", 1.0)])
def test_commands_reject_bad_settings_before_writing(command, key, value, tiny_dirs, tmp_path,
                                                     monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the settings were checked")

    monkeypatch.setattr(cli, "train_sae", no_training)
    (tmp_path / "ok.ckpt").write_bytes(_checkpoint(_header()))
    cfg = _cfg_file(tmp_path, tiny_dirs, **{key: value})
    extra = ["--checkpoint", str(tmp_path / "ok.ckpt")] if command == "similarity" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]) == 2
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "run"])
def test_negative_seed_rejected_before_writing(command, tiny_dirs, tmp_path, capsys):
    cfg = _cfg_file(tmp_path, tiny_dirs)
    assert main([command, "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "error: config: seed -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-sae", "similarity", "run", "synth"])
@pytest.mark.parametrize("fraction", [-0.5, 1.5])
def test_validation_fraction_outside_unit_interval_rejected(command, fraction, tiny_dirs, tmp_path,
                                                            monkeypatch, capsys):
    def no_reading(*args, **kwargs):
        raise AssertionError("read a page before the split was checked")

    monkeypatch.setattr(ba.data, "read_pgm", no_reading)
    (tmp_path / "ok.ckpt").write_bytes(_checkpoint(_header()))
    cfg = _cfg_file(tmp_path, tiny_dirs, validation_fraction=fraction)
    extra = ["--checkpoint", str(tmp_path / "ok.ckpt")] if command == "similarity" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]) == 2
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_validation_fraction_bounds_stay_legal(fraction, tiny_dirs, tmp_path, capsys):
    # all pages land in one split: a data error, not a config one
    cfg = _cfg_file(tmp_path, tiny_dirs, validation_fraction=fraction)
    assert main(["train-sae", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert "error: data:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_4_on_ground_truth_of_the_wrong_size(tiny_dirs, tmp_path, capsys):
    import shutil

    source = tmp_path / "source"
    shutil.copytree(tiny_dirs / "source", source)
    gt = sorted((source / "gt").glob("*.pgm"))[0]
    gt.write_bytes(ba.write_pgm(np.zeros((64, 63))))
    cfg = _cfg_file(tmp_path, tiny_dirs, source_dir=source)
    assert main(["train-sae", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert "error: data:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gt_bytes, code, category", [
    pytest.param(ba.write_pgm(np.zeros((32, 64))), 4, "data", id="wrong-size"),
    pytest.param(b"P5\n64 64\n255\n", 3, "io", id="malformed"),
])
def test_bad_target_ground_truth_fails_run_before_training(gt_bytes, code, category, tiny_dirs,
                                                          tmp_path, monkeypatch, capsys):
    # target labels serve only the post-hoc evaluation, yet a wrong-sized or
    # malformed one must fail the run before it trains and writes
    import shutil

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the target labels were checked")

    target = tmp_path / "target"
    shutil.copytree(tiny_dirs / "target_far", target)
    sorted((target / "gt").glob("*.pgm"))[0].write_bytes(gt_bytes)
    monkeypatch.setattr(similarity, "train_sae", no_training)
    cfg = _cfg_file(tmp_path, tiny_dirs, target_dir=target)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    assert f"error: {category}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-sae", "similarity"])
def test_exit_4_on_a_source_without_a_validation_page(command, tiny_dirs, tmp_path, capsys):
    # 3 pages at validation_fraction 0.1 round to no validation page
    (tmp_path / "ok.ckpt").write_bytes(_checkpoint(_header()))
    cfg = _cfg_file(tmp_path, tiny_dirs, validation_fraction=0.1)
    extra = ["--checkpoint", str(tmp_path / "ok.ckpt")] if command == "similarity" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]) == 4
    assert "error: data:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_5_on_non_finite_training(tiny_dirs, tmp_path, capsys):
    cfg = _cfg_file(tmp_path, tiny_dirs, epochs=1, lr=1e300)
    with np.errstate(all="ignore"):
        code = main(["train-sae", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 5
    assert "error: numeric:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_5_prints_only_the_error_line(tiny_dirs, tmp_path, capsys):
    # numpy's overflow warnings would print first, or, turned into errors,
    # end the run under another exit code
    cfg = _cfg_file(tmp_path, tiny_dirs, epochs=1, lr=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train-sae", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: numeric:") and err.count("\n") == 1, err


def test_exit_6_on_a_batch_too_large_to_allocate(tiny_dirs, tmp_path, capsys):
    # a batch of 10^12 patch indices would take 7.28 TiB
    cfg = _cfg_file(tmp_path, tiny_dirs, epochs=1, batch=10**12)
    assert main(["train-sae", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: memory:") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_run_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # the thread count is read when numpy loads, so each run is its own process;
    # training batches of 64 give GEMMs (8x8 by 8x16384 and up) that OpenBLAS
    # splits across threads; rho_th = 1 forces the Bin-DANN path
    write_synthetic_dirs(0, tmp_path / "data", n_pages=4, page_size=(128, 128))
    cfg = _cfg_file(tmp_path, tmp_path / "data", batch=64, lr=0.01, rho_th=1.0,
                    validation_fraction=0.25)
    src = str(Path(ba.__file__).resolve().parents[1])
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "binadapt.cli", "run", "--config", str(cfg),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs[threads] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert json.loads(outs["1"][Path("report.json")])["decision"] == "UseDA"
    assert (Path("bindann.ckpt") in outs["1"]) and outs["1"] == outs["2"]


def test_runs_in_one_process_write_identical_trees(tmp_path, capsys):
    # op buffers, plan memos and anything else a call could leave behind would
    # show here; tools/compare_artifacts.py cannot see it, since it runs every
    # command in a process of its own
    data = tmp_path / "data"
    write_synthetic_dirs(0, data, 4, (64, 64))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"source_dir = {data / 'source'}\ntarget_dir = {data / 'target_far'}\n"
                   "epochs = 2\nbatch = 8\nlr = 0.01\n")
    [(_, page, _)] = synthetic_domain_pairs(0, "target_far", 1, (45, 70))
    (tmp_path / "ragged.pgm").write_bytes(write_pgm(page))
    outs = [tmp_path / "a", tmp_path / "b"]
    assert main(["run", "--config", str(cfg), "--out", str(outs[0])]) == 0
    ckpt = max(outs[0].glob("*.ckpt"))  # bindann.ckpt when the gate fired, else sae.ckpt
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(tmp_path / "ragged.pgm"),
                 "--out", str(tmp_path / "predict")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(outs[1])]) == 0
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1] and len(files[0]) >= 7
    for rel in files[0]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
