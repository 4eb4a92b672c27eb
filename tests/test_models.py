"""Model assembly: shape restoration, branch balance, tap wiring, checkpoints."""

import os
import signal
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import binadapt as ba
from binadapt import autodiff, models
from binadapt.autodiff import GraphError

from defaults import SAE, bindann, sae_cfg


def _forward_map(model, x):
    return ba.forward(model.graph, {"x": x}, wanted=("prob_map",))["prob_map"]


def test_depth1_restores_shape():
    cfg = sae_cfg(depth=1, filters=2, patch=(4, 4))
    model = ba.build_sae(cfg, np.random.default_rng(0))
    out = _forward_map(model, np.random.default_rng(1).random((3, 1, 4, 4)))
    assert out.shape == (3, 1, 4, 4)


def test_desk_scale_restores_shape():
    model = ba.build_sae(SAE, np.random.default_rng(0))
    out = _forward_map(model, np.random.default_rng(1).random((2, 1, 32, 32)))
    assert out.shape == (2, 1, 32, 32)
    assert np.all((out > 0) & (out < 1))


def test_full_scale_shape_and_bottleneck():
    cfg = sae_cfg(depth=6, filters=64, patch=(256, 256))
    model = ba.build_sae(cfg, np.random.default_rng(0))
    out = ba.forward(model.graph, {"x": np.zeros((1, 1, 256, 256))}, wanted=("prob_map",))
    assert out["prob_map"].shape == (1, 1, 256, 256)
    # bottleneck = output of the last encoder block: 256 / 2^6 = 4
    run = model.graph._run
    enc_last = next(n for n in range(len(model.graph.nodes)) if model.graph.nodes[n].name == "enc6.drop")
    assert run.values[enc_last].shape[2:] == (4, 4)


def test_indivisible_patch_rejected_at_build():
    with pytest.raises(GraphError, match="divisible"):
        sae_cfg(depth=3, patch=(20, 32))


@pytest.mark.parametrize("patch, match", [
    ((0, 0), r"outside \[1, 1024\]"), ((2048, 32), r"outside \[1, 1024\]"),
    ((32, 1025), r"outside \[1, 1024\]"), ((-8, 32), r"outside \[1, 1024\]"),
    ((32,), "pair"),
])
def test_patch_outside_bound_rejected_at_build(patch, match):
    with pytest.raises(GraphError, match=match):
        sae_cfg(depth=3, patch=patch)


def test_patch_side_bound_is_inclusive():
    assert sae_cfg(depth=3, patch=(1024, 8)).patch == (1024, 8)


def test_domain_branch_parameter_balance():
    for depth in (1, 2, 3):
        model = bindann(sae_cfg(depth=depth, patch=(32, 32)))
        def count(prefix):
            return sum(p.size for name, p in model.params.items() if name.startswith(prefix))

        tail = count(f"dec{depth}.") + count("out.")
        dom = count("dom_")
        assert tail == dom


def test_bindann_emits_two_full_size_maps():
    model = bindann()
    out = ba.forward(
        model.graph,
        {"x": np.random.default_rng(2).random((2, 1, 32, 32))},
        wanted=("prob_map", "domain_map"),
    )
    assert out["prob_map"].shape == (2, 1, 32, 32)
    assert out["domain_map"].shape == (2, 1, 32, 32)


def test_shared_trunk_initialization_matches_plain_model():
    sae = ba.build_sae(SAE, np.random.default_rng(11))
    dann = bindann(seed=11)
    for name, value in sae.params.items():
        assert dann.params[name].tobytes() == value.tobytes()


def test_set_grl_only_on_adversarial_model():
    sae = ba.build_sae(SAE, np.random.default_rng(0))
    with pytest.raises(GraphError):
        sae.set_grl(0.5)
    dann = bindann()
    dann.set_grl(0.7)
    grl = next(n for n in dann.graph.nodes if n.kind == "grl")
    assert grl.attrs["lam"] == 0.7


@pytest.mark.parametrize("lam", [-1.0, -1e-12, float("nan"), float("inf")])
def test_set_grl_rejects_negative_or_non_finite_coefficients(lam):
    dann = bindann()
    with pytest.raises(GraphError, match="reversal coefficient"):
        dann.set_grl(lam)
    assert next(n for n in dann.graph.nodes if n.kind == "grl").attrs["lam"] == 0.1


def test_bindann_is_built_at_a_zero_reversal_coefficient():
    dann = ba.build_bindann(SAE, np.random.default_rng(0))
    assert dann.config == SAE
    assert next(n for n in dann.graph.nodes if n.kind == "grl").attrs["lam"] == 0.0


# ---------------------------------------------------------------------------
# page prediction

def test_single_patch_page_equals_single_forward():
    model = ba.build_sae(SAE, np.random.default_rng(3))
    page = np.random.default_rng(4).random((32, 32))
    got = ba.predict_prob_map(model, page)
    direct = _forward_map(model, page[None, None])[0, 0]
    assert got.tobytes() == direct.tobytes()


def test_prediction_leaves_no_record_or_buffers_on_the_model():
    model = ba.build_sae(SAE, np.random.default_rng(3))
    ba.predict_prob_map(model, np.random.default_rng(4).random((50, 70)))
    assert model.graph._run is None


def test_prediction_is_pure():
    model = ba.build_sae(SAE, np.random.default_rng(3))
    page = np.random.default_rng(4).random((50, 70))
    a = ba.predict_prob_map(model, page)
    b = ba.predict_prob_map(model, page)
    assert a.tobytes() == b.tobytes()


def test_constant_page_interior_is_constant():
    # depth 1 keeps the receptive field small enough that interior pixels see
    # no conv zero-padding; they must agree exactly by translation invariance
    cfg = sae_cfg(depth=1, filters=4, patch=(16, 16))
    model = ba.build_sae(cfg, np.random.default_rng(5))
    out = ba.predict_prob_map(model, np.full((16, 16), 0.6))
    interior = out[6:10, 6:10]
    assert np.ptp(interior) < 1e-12


def test_constant_multi_patch_page_is_periodic():
    cfg = sae_cfg(depth=1, filters=4, patch=(16, 16))
    model = ba.build_sae(cfg, np.random.default_rng(5))
    out = ba.predict_prob_map(model, np.full((32, 32), 0.6))
    assert out[:16, :16].tobytes() == out[16:, 16:].tobytes()


def test_channel_mismatch_rejected():
    model = ba.build_sae(SAE, np.random.default_rng(0))
    with pytest.raises(ValueError, match="2-D page"):
        ba.predict_prob_map(model, np.zeros((32, 32, 3)))


def _whole_page_prob_map(model, page):
    """Reference tiler: every patch cut at once, maps of batches of 16
    concatenated, then reassembled."""
    x = ba.split_patches(page, *model.config.patch)[:, None]
    maps = [_forward_map(model, x[i : i + 16])[:, 0] for i in range(0, len(x), 16)]
    return ba.assemble(np.concatenate(maps), page.shape)


# pages smaller than a patch, column counts that do not divide 16, and
# batches that cross patch rows
_PAGE_SHAPES = [(1024, 1024), (1000, 750), (45, 300), (64, 1024), (300, 31), (100, 77),
                (31, 31), (1, 1)]


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(models, "_workers", lambda batches: workers)


_DEPTH1 = sae_cfg(depth=1, filters=4, patch=(16, 8))


# five workers: more than the cores, uneven shares, and empty ones on small pages
@pytest.mark.parametrize("cfg, workers", [(SAE, 1), (SAE, 2), (SAE, 5), (_DEPTH1, 1), (_DEPTH1, 2)],
                         ids=["default", "default-2workers", "default-5workers", "depth1_16x8",
                              "depth1_16x8-2workers"])
def test_streamed_prediction_matches_whole_page_tiling(cfg, workers, monkeypatch):
    model = ba.build_sae(cfg, np.random.default_rng(6))
    _force_workers(monkeypatch, workers)
    for shape in _PAGE_SHAPES:
        page = np.random.default_rng(shape).random(shape)
        got = ba.predict_prob_map(model, page)
        assert got.shape == shape
        assert got.tobytes() == _whole_page_prob_map(model, page).tobytes(), shape


# 256x1000 is 16 batches of default patches, predicted here by two processes
@pytest.mark.parametrize("shape, workers", [((256, 1000), 2), ((45, 300), 1)],
                         ids=["forked", "one-process"])
def test_levels_predict_as_their_pixels(shape, workers, monkeypatch):
    model = ba.build_sae(SAE, np.random.default_rng(6))
    _force_workers(monkeypatch, workers)
    levels = np.random.default_rng(shape).integers(0, 256, shape, dtype=np.uint8)
    got = ba.predict_prob_map(model, levels)
    assert got.tobytes() == ba.predict_prob_map(model, levels / 255.0).tobytes()


def test_worker_count_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [models._workers(b) for b in (1, 8, 15, 16, 24, 1000)] == [1, 1, 1, 2, 3, 3]
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert models._workers(1000) == 1  # no fork while another thread runs
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def _two_row_page(nan_at=None):
    """64x1024: two patch rows of 32 default patches, 4 batches; with two
    workers the caller predicts patch row 0 and the child patch row 1."""
    page = np.random.default_rng(0).random((64, 1024))
    if nan_at is not None:
        page[nan_at] = np.nan
    return page


def test_an_error_in_a_childs_share_is_the_one_process_error(monkeypatch):
    model = ba.build_sae(SAE, np.random.default_rng(6))
    page = _two_row_page(nan_at=(40, 3))
    ba.predict_prob_map(model, page[:32])  # the caller's share is clean
    errors = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(GraphError) as info:
            ba.predict_prob_map(model, page)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert "non-finite" in errors[0][1]


@pytest.mark.parametrize("nan_at", [None, (5, 3), (40, 3)],
                         ids=["success", "caller_error", "child_error"])
def test_prediction_leaves_no_child_process(monkeypatch, nan_at):
    model = ba.build_sae(SAE, np.random.default_rng(6))
    _force_workers(monkeypatch, 2)
    if nan_at is None:
        ba.predict_prob_map(model, _two_row_page())
    else:
        with pytest.raises(GraphError, match="non-finite"):
            ba.predict_prob_map(model, _two_row_page(nan_at))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child and no zombie


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_unpicklable():
    raise _Unpicklable()


@pytest.mark.parametrize("fail", [_raise_unpicklable, _kill_self], ids=["unpicklable", "signal"])
def test_a_failure_only_a_child_has_leaves_the_map_whole(monkeypatch, fail):
    """A child that raises what the caller would not, or dies of a signal,
    leaves its share to the caller, which computes the one-worker map."""
    model = ba.build_sae(SAE, np.random.default_rng(6))
    page = _two_row_page()
    _force_workers(monkeypatch, 1)
    expected = ba.predict_prob_map(model, page)
    caller, forward = os.getpid(), autodiff.forward

    def forward_failing_in_children(*args, **kwargs):
        if os.getpid() != caller:
            fail()
        return forward(*args, **kwargs)

    monkeypatch.setattr(autodiff, "forward", forward_failing_in_children)
    _force_workers(monkeypatch, 2)
    assert ba.predict_prob_map(model, page).tobytes() == expected.tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_prediction_memory_is_about_one_page(monkeypatch):
    """With one worker the map is a private array, so the bound covers it and
    one batch's working set. Forked workers share the map as an anonymous
    mapping and hold their working sets in other processes, neither of which
    tracemalloc sees, so the test pins one worker."""
    _force_workers(monkeypatch, 1)
    model = ba.build_sae(SAE, np.random.default_rng(6))
    page = np.random.default_rng(0).random((1024, 1024))
    ba.predict_prob_map(model, page[:64, :64])  # conv plans are memoized on first use
    tracemalloc.start()
    try:
        ba.predict_prob_map(model, page)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * page.nbytes + 8 * 2**20


# ---------------------------------------------------------------------------
# checkpoints with config header

def test_model_checkpoint_roundtrip(tmp_path):
    model = ba.build_sae(sae_cfg(depth=2, filters=4, patch=(16, 16)), np.random.default_rng(9))
    path = tmp_path / "sae.ckpt"
    ba.save_model(path, model, extra={"th_s": 0.35})
    back, extra = ba.load_model(path)
    assert extra == {"th_s": 0.35}
    assert back.kind == "sae"
    assert back.config == model.config
    for name, value in model.params.items():
        assert back.params[name].tobytes() == value.tobytes()


def test_model_checkpoint_roundtrip_adversarial(tmp_path):
    cfg = sae_cfg(depth=2, filters=4, patch=(16, 16))
    model = bindann(cfg, seed=9, lam=0.3)
    path = tmp_path / "dann.ckpt"
    ba.save_model(path, model)
    back, extra = ba.load_model(path)
    assert back.kind == "bindann"
    assert back.config == cfg
    assert extra == {}
    x = np.random.default_rng(1).random((1, 1, 16, 16))
    np.testing.assert_array_equal(_forward_map(back, x), _forward_map(model, x))


def test_model_checkpoint_starts_with_core_magic(tmp_path):
    model = ba.build_sae(sae_cfg(depth=1, filters=2, patch=(4, 4)), np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    ba.save_model(path, model)
    assert path.read_bytes().startswith(b"BINADAPT1")
    # plain core reader sees the header as a leading "__config__" record
    records = ba.read_checkpoint(path.read_bytes())
    assert next(iter(records)) == "__config__"


def test_checkpoint_header_bytes_are_pinned(tmp_path):
    # the fixed geometry fields stay in the header, so older files keep loading
    sae = ('{"channels":1,"depth":3,"dropout_rate":0.2,"filters":8,"kernel":[3,3],'
           '"patch":[32,32],"stride":[2,2]}')
    cases = [
        (ba.build_sae(SAE, np.random.default_rng(0)),
         f'{{"config":{sae},"kind":"sae","th_s":0.5}}'),
        (bindann(), f'{{"config":{{"sae":{sae}}},"kind":"bindann","th_s":0.5}}'),
    ]
    for model, expected in cases:
        ba.save_model(tmp_path / "m.ckpt", model, extra={"th_s": 0.5})
        codes = ba.read_checkpoint((tmp_path / "m.ckpt").read_bytes())["__config__"]
        assert bytes(codes.astype(np.uint8)).decode("utf-8") == expected


def test_bindann_header_with_a_reversal_schedule_still_loads(tmp_path):
    # headers written while the schedule was part of the model config keep loading
    model = bindann()
    old = (b'{"config":{"lambda0":0.1,"lambda_increment":0.01,"sae":{"channels":1,"depth":3,'
           b'"dropout_rate":0.2,"filters":8,"kernel":[3,3],"patch":[32,32],"stride":[2,2]}},'
           b'"kind":"bindann","th_s":0.5}')
    records = {"__config__": np.frombuffer(old, np.uint8).astype(np.float64), **model.params}
    (tmp_path / "old.ckpt").write_bytes(ba.write_checkpoint(records))
    back, extra = ba.load_model(tmp_path / "old.ckpt")
    assert back.kind == "bindann" and back.config == SAE and extra == {"th_s": 0.5}
    for name, value in model.params.items():
        assert back.params[name].tobytes() == value.tobytes()


def test_checkpoint_reader_fuzz_prefixes_and_byte_flips(tmp_path):
    # every failure of a damaged file must surface as CheckpointError; any
    # other exception (struct.error, KeyError, reshape ValueError, ...) escapes
    model = ba.build_sae(sae_cfg(depth=1, filters=2, patch=(4, 4)), np.random.default_rng(0))
    ba.save_model(tmp_path / "ok.ckpt", model, extra={"th_s": 0.45})
    blob = (tmp_path / "ok.ckpt").read_bytes()
    probe = tmp_path / "probe.ckpt"
    for n in range(len(blob)):
        with pytest.raises(ba.CheckpointError):
            probe.write_bytes(blob[:n])
            ba.load_binarizer(probe)
    rng = np.random.default_rng(2024)
    for pos, delta in zip(rng.integers(0, len(blob), 600), rng.integers(1, 256, 600)):
        damaged = bytearray(blob)
        damaged[pos] = (damaged[pos] + delta) % 256
        probe.write_bytes(bytes(damaged))
        try:
            ba.load_binarizer(probe)  # a damaged value byte may still load
        except ba.CheckpointError:
            pass


def test_checkpoint_huge_dims_do_not_wrap():
    # dims whose int64 product wraps to 0 or a negative count must read as
    # truncated, not as an empty or misplaced array
    for dims in ((2**32 - 1,) * 3, (2**16, 2**16, 2**16, 2**16)):
        blob = (b"BINADAPT1" + struct.pack("<I", 1) + b"p" + struct.pack("<I", len(dims))
                + struct.pack(f"<{len(dims)}I", *dims))
        with pytest.raises(ba.CheckpointError, match="truncated"):
            ba.read_checkpoint(blob)
