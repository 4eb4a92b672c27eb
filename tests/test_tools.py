"""The tools: ``compare_artifacts.py``'s seed lists, the data it writes and
compares, the file comparison it reports and its exit status on a failed
command, the runs ``faults.py`` measures, and the reports of
``memory_probe.py`` and ``step_memory.py``."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

import binadapt as ba

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
FAULTS = TOOL.parent / "faults.py"
PROBE = TOOL.parent / "memory_probe.py"
STEPS = TOOL.parent / "step_memory.py"


def _load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges_and_lists():
    tool = _load_tool()
    assert tool.parse_seeds("0-3") == [0, 1, 2, 3]
    assert tool.parse_seeds("5") == [5]
    assert tool.parse_seeds("1,4-5") == [1, 4, 5]


def test_differing_files_lists_changed_and_one_sided_files(tmp_path):
    tool = _load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.txt").write_bytes(b"x")
    (a / "sub" / "changed.pgm").write_bytes(b"1")
    (b / "sub" / "changed.pgm").write_bytes(b"2")
    (a / "only_a.csv").write_bytes(b"")
    (b / "sub" / "only_b.ckpt").write_bytes(b"")
    assert tool.differing_files(a, b) == [Path("only_a.csv"), Path("sub/changed.pgm"),
                                          Path("sub/only_b.ckpt")]
    assert tool.differing_files(a, a) == []


def test_checkpoints_that_differ_only_in_their_header_are_told_apart(tmp_path):
    tool = _load_tool()
    model = ba.build_sae(ba.SaeConfig(1, 2, 0.0, (4, 4)), 0)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for root in (a, b, c):
        root.mkdir()
    ba.save_binarizer(a / "m.ckpt", ba.TrainedBinarizer(model, 0.25, []))
    ba.save_binarizer(b / "m.ckpt", ba.TrainedBinarizer(model, 0.5, []))
    model.params["out.b"] = model.params["out.b"] + 1.0
    ba.save_binarizer(c / "m.ckpt", ba.TrainedBinarizer(model, 0.25, []))
    (c / "m.txt").write_bytes(b"x")
    (b / "m.txt").write_bytes(b"y")
    assert tool.checkpoint_difference(a / "m.ckpt", b / "m.ckpt") == "header only"
    assert tool.checkpoint_difference(a / "m.ckpt", c / "m.ckpt") == "parameters differ"
    (b / "m.ckpt").write_bytes(b"not a checkpoint")
    assert tool.checkpoint_difference(a / "m.ckpt", b / "m.ckpt") == "parameters differ"
    assert tool.note(a, c, Path("m.ckpt")) == " (parameters differ)"
    assert tool.note(b, c, Path("m.txt")) == ""
    assert tool.note(a, a / "missing", Path("m.ckpt")) == ""


def test_write_data_adds_ragged_pages(tmp_path):
    tool = _load_tool()
    tool.write_data(TOOL.parents[1], 0, tmp_path / "data")
    for kind in ("source", "target_near", "target_far"):
        assert len(list((tmp_path / "data" / kind / "images").glob("*.pgm"))) == tool.PAGES
    ragged = sorted((tmp_path / "data" / "ragged").glob("*.pgm"))
    shapes = sorted(ba.read_pgm(p.read_bytes()).pixels.shape for p in ragged)
    assert shapes == sorted(tool.RAGGED)
    for domain in ("source", "target"):
        for sub in ("images", "gt"):
            pages = sorted((tmp_path / "data" / "ragged_run" / domain / sub).glob("*.pgm"))
            shapes = sorted(ba.read_pgm(p.read_bytes()).levels.shape for p in pages)
            assert shapes == sorted(tool.RAGGED_RUN)


def test_compare_data_reports_a_generator_wrong_only_on_non_square_pages(tmp_path):
    tool = _load_tool()
    change = tmp_path / "change"
    shutil.copytree(TOOL.parents[1] / "src" / "binadapt", change / "src" / "binadapt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    data_py = change / "src" / "binadapt" / "data.py"
    text = data_py.read_text()
    walk = "steps = int(rng.integers(h // 3, h))"
    assert walk in text
    data_py.write_text(text.replace(walk, "steps = int(rng.integers(w // 3, w))"))
    data, differing = tool.compare_data(TOOL.parents[1], change, 0, tmp_path / "work")
    assert data == tmp_path / "work" / "parent" / "data0"
    # the 128x128 domains match; every ragged page is non-square
    ragged_run = [Path("ragged_run", domain, sub, f"page{h}x{w}.pgm") for domain in ("source", "target")
                  for sub in ("images", "gt") for h, w in tool.RAGGED_RUN]
    assert differing == sorted([Path("ragged") / f"page{h}x{w}.pgm" for h, w in tool.RAGGED] + ragged_run)
    _, differing = tool.compare_data(TOOL.parents[1], TOOL.parents[1], 0, tmp_path / "same")
    assert differing == []


def test_failed_command_exits_2(tmp_path):
    tool = _load_tool()
    with pytest.raises(SystemExit) as exit_info:
        tool._python(tmp_path, "-c", "raise SystemExit(3)")
    assert exit_info.value.code == 2


def test_run_tree_writes_similarity_train_sae_and_synth(tmp_path):
    tool = _load_tool()
    data, out = tmp_path / "data", tmp_path / "out"
    tool.write_data(TOOL.parents[1], 0, data)
    tool.write_configs(0, data)
    tool.run_tree(TOOL.parents[1], 0, data, out)
    assert (out / "similarity" / "report.json").is_file()
    # the ragged run always adapts, so Bin-DANN trains on the ragged target
    assert json.loads((out / "ragged_run" / "report.json").read_text())["decision"] == "UseDA"
    assert (out / "ragged_run" / "bindann.ckpt").is_file()
    assert (out / "train_sae" / "sae.ckpt").is_file()
    for kind in ("source", "target_near", "target_far"):
        assert len(list((out / "synth" / kind / "images").glob("*.pgm"))) == 8


def test_faults_reports_every_run(capsys):
    tool = _load_tool(FAULTS)
    assert tool.main(["--runs", "2", "--epochs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines[:2]):
        name, wall, faults = line.split(": ")[0], *line.split()[3:6:2]
        assert name == f"run {i}" and float(wall) > 0 and int(faults) >= 0
    assert lines[2].startswith("after the first run: median wall_s ")
    # with glibc's default heap thresholds the arrays every step frees go back
    # to the kernel, and the second run faults thousands of pages in again
    assert int(lines[1].split()[-1]) <= 1000


def test_memory_probe_reports_the_runs_peak_per_input_pixel(tmp_path, capsys):
    probe = _load_tool(PROBE)
    assert probe.main(["--side", "64", "--pages", "3", "--seed", "0", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["input_pixels"] == 2 * 3 * 64 * 64
    assert report["maxrss_bytes"] > 0
    assert report["bytes_per_pixel"] == round(report["maxrss_bytes"] / report["input_pixels"], 2)
    assert (tmp_path / "out" / "manifest.json").is_file()
    assert len(list((tmp_path / "data" / "target_far" / "images").glob("*.pgm"))) == 3


def test_step_memory_reports_both_models_steps(capsys):
    tool = _load_tool(STEPS)
    assert tool.main(["--patch", "16", "--batch", "2", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["sae", "bindann", "infer"]
    report = json.loads(lines[-1])
    assert (report["patch"], report["batch"]) == (16, 2)
    for kind in ("sae", "bindann", "infer"):
        assert report[kind]["peak_bytes"] > 0 and report[kind]["step_s"] > 0
    # the target pass and the domain branch only add to a step
    assert report["bindann"]["peak_bytes"] > report["sae"]["peak_bytes"]
    # an inference forward holds less than a training step's forward and backward
    assert report["infer"]["peak_bytes"] < report["sae"]["peak_bytes"]
