"""Model assembly: shape restoration, branch balance, tap wiring, checkpoints."""

import os
import re
import signal
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import binadapt as ba
from binadapt import autodiff, models
from binadapt.autodiff import GraphError, NumericError
from binadapt.models import CHECKPOINT_MAGIC

from defaults import SAE, bindann, sae_cfg


def _forward_map(model, x):
    return ba.forward(model.graph, {"x": x}, wanted=("prob_map",))["prob_map"]


def _levels(shape, seed=None):
    """A page of random 8-bit levels, seeded by its shape unless told otherwise."""
    return np.random.default_rng(shape if seed is None else seed).integers(0, 256, shape, dtype=np.uint8)


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
    out = ba.forward(model.graph, {"x": np.zeros((1, 1, 256, 256))}, wanted=("prob_map",),
                     training=True, rng=np.random.default_rng(1))
    assert out["prob_map"].shape == (1, 1, 256, 256)
    # bottleneck = output of the last encoder block, the input the first
    # decoder block saves: 256 / 2^6 = 4
    dec1 = next(n for n, node in enumerate(model.graph.nodes) if node.name == "dec1.tconv")
    bottleneck, _ = model.graph._run.saved[dec1]
    assert bottleneck.shape[2:] == (4, 4)


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
    page = _levels((32, 32), 4)
    got = ba.predict_prob_map(model, page)
    direct = _forward_map(model, page[None, None] / 255.0)[0, 0]
    assert got.tobytes() == direct.tobytes()


def test_prediction_leaves_no_record_or_buffers_on_the_model():
    model = ba.build_sae(SAE, np.random.default_rng(3))
    ba.predict_prob_map(model, _levels((50, 70), 4))
    assert model.graph._run is None
    with pytest.raises(GraphError, match="before a training forward"):
        ba.backward(model.graph, "loss")


def test_prediction_is_pure():
    model = ba.build_sae(SAE, np.random.default_rng(3))
    page = _levels((50, 70), 4)
    a = ba.predict_prob_map(model, page)
    b = ba.predict_prob_map(model, page)
    assert a.tobytes() == b.tobytes()


def test_constant_page_interior_is_constant():
    # depth 1 keeps the receptive field small enough that interior pixels see
    # no conv zero-padding; they must agree exactly by translation invariance
    cfg = sae_cfg(depth=1, filters=4, patch=(16, 16))
    model = ba.build_sae(cfg, np.random.default_rng(5))
    out = ba.predict_prob_map(model, np.full((16, 16), 153, dtype=np.uint8))
    interior = out[6:10, 6:10]
    assert np.ptp(interior) < 1e-12


def test_constant_multi_patch_page_is_periodic():
    cfg = sae_cfg(depth=1, filters=4, patch=(16, 16))
    model = ba.build_sae(cfg, np.random.default_rng(5))
    out = ba.predict_prob_map(model, np.full((32, 32), 153, dtype=np.uint8))
    assert out[:16, :16].tobytes() == out[16:, 16:].tobytes()


def test_channel_mismatch_rejected():
    model = ba.build_sae(SAE, np.random.default_rng(0))
    with pytest.raises(ValueError, match="2-D page"):
        ba.predict_prob_map(model, np.zeros((32, 32, 3)))


def _whole_page_prob_map(model, page):
    """Reference tiler: every patch cut at once, maps of batches of 16
    concatenated, then reassembled."""
    x = ba.split_patches(page, *model.config.patch)[:, None] / 255.0
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
        page = _levels(shape)
        got = ba.predict_prob_map(model, page)
        assert got.shape == shape
        assert got.tobytes() == _whole_page_prob_map(model, page).tobytes(), shape


# 256x1000 is 16 batches of default patches, predicted here by two processes
@pytest.mark.parametrize("shape, workers", [((256, 1000), 2), ((45, 300), 1)],
                         ids=["forked", "one-process"])
def test_levels_predict_as_their_pixels(shape, workers, monkeypatch):
    model = ba.build_sae(SAE, np.random.default_rng(6))
    _force_workers(monkeypatch, workers)
    levels = _levels(shape)
    pixels = ba.split_patches(levels / 255.0, *model.config.patch)[:, None]
    maps = [_forward_map(model, pixels[i : i + 16])[:, 0] for i in range(0, len(pixels), 16)]
    want = ba.assemble(np.concatenate(maps), shape)
    assert ba.predict_prob_map(model, levels).tobytes() == want.tobytes()


def test_prediction_refuses_a_page_that_is_not_levels():
    model = ba.build_sae(SAE, np.random.default_rng(6))
    levels = _levels((45, 300))
    for page in (levels / 255.0, levels.astype(np.float32), levels.astype(np.int64)):
        with pytest.raises(ValueError, match=re.escape(
                f"predict_prob_map: expected a 2-D page of uint8 levels, got {page.dtype} of shape (45, 300)")):
            ba.predict_prob_map(model, page)


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


def _two_row_page(mark_at=None):
    """64x1024: two patch rows of 32 default patches, 4 batches; with two
    workers the caller predicts patch row 0 and the child patch row 1. Its
    levels are 1-255, but for the level 0 that marks the pixel ``mark_at``."""
    page = np.random.default_rng(0).integers(1, 256, (64, 1024), dtype=np.uint8)
    if mark_at is not None:
        page[mark_at] = 0
    return page


def _fail_on_marked_batches(monkeypatch):
    """A forward on a batch that holds the marker level raises ``NumericError``
    naming where in the batch the marker is, in the caller or a forked child."""
    forward = autodiff.forward

    def failing(graph, bindings, **kwargs):
        if not bindings["x"].all():
            raise NumericError(f"marked batch at {np.argwhere(bindings['x'] == 0)[0].tolist()}")
        return forward(graph, bindings, **kwargs)

    monkeypatch.setattr(autodiff, "forward", failing)


def test_an_error_in_a_childs_share_is_the_one_process_error(monkeypatch):
    model = ba.build_sae(SAE, np.random.default_rng(6))
    _fail_on_marked_batches(monkeypatch)
    page = _two_row_page(mark_at=(40, 3))
    ba.predict_prob_map(model, page[:32])  # the caller's share is clean
    errors = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(GraphError) as info:
            ba.predict_prob_map(model, page)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0] == (NumericError, "marked batch at [0, 0, 8, 3]")


@pytest.mark.parametrize("mark_at", [None, (5, 3), (40, 3)],
                         ids=["success", "caller_error", "child_error"])
def test_prediction_leaves_no_child_process(monkeypatch, mark_at):
    model = ba.build_sae(SAE, np.random.default_rng(6))
    _fail_on_marked_batches(monkeypatch)
    _force_workers(monkeypatch, 2)
    if mark_at is None:
        ba.predict_prob_map(model, _two_row_page())
    else:
        with pytest.raises(NumericError, match="marked batch"):
            ba.predict_prob_map(model, _two_row_page(mark_at))
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
    page = _levels((1024, 1024), 0)
    ba.predict_prob_map(model, page[:64, :64])  # conv plans are memoized on first use
    tracemalloc.start()
    try:
        ba.predict_prob_map(model, page)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * page.size + 8 * 2**20  # 1.5 float64 maps and 8 MiB


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_is_bit_exact():
    rng = np.random.default_rng(2)
    params = {
        "enc.w": rng.normal(size=(4, 3, 3, 3)),
        "enc.b": rng.normal(size=(4,)),
        "odd/name with spaces": rng.normal(size=(2, 5)),
    }
    blob = ba.write_checkpoint(params)
    assert blob.startswith(b"BINADAPT1")
    back = ba.read_checkpoint(blob)
    assert list(back) == list(params)
    for name in params:
        assert back[name].tobytes() == params[name].tobytes()
        assert back[name].shape == params[name].shape


def test_checkpoint_bad_magic_and_truncation():
    with pytest.raises(GraphError, match="magic"):
        ba.read_checkpoint(b"NOTMAGIC!")
    blob = ba.write_checkpoint({"p": np.ones(3)})
    with pytest.raises(GraphError, match="truncated"):
        ba.read_checkpoint(blob[:-4])


def test_checkpoint_rejects_a_repeated_record():
    # the second record would otherwise replace the first one's values
    blob = ba.write_checkpoint({"p": np.ones(3), "q": np.zeros(2)})
    again = ba.write_checkpoint({"p": np.full(3, 7.0)})[len(CHECKPOINT_MAGIC):]
    with pytest.raises(ba.CheckpointError, match=rf"record 'p' at byte {len(blob)} repeats"):
        ba.read_checkpoint(blob + again)


# a binarizer's file: the parameters after a config header

def test_model_checkpoint_roundtrip(tmp_path):
    model = ba.build_sae(sae_cfg(depth=2, filters=4, patch=(16, 16)), np.random.default_rng(9))
    path = tmp_path / "sae.ckpt"
    ba.save_binarizer(path, ba.TrainedBinarizer(model, 0.35, []))
    tb = ba.load_binarizer(path)
    back = tb.model
    assert tb.th_s == 0.35 and tb.history == []
    assert back.kind == "sae"
    assert back.config == model.config
    for name, value in model.params.items():
        assert back.params[name].tobytes() == value.tobytes()


def test_model_checkpoint_roundtrip_adversarial(tmp_path):
    cfg = sae_cfg(depth=2, filters=4, patch=(16, 16))
    model = bindann(cfg, seed=9, lam=0.3)
    path = tmp_path / "dann.ckpt"
    ba.save_binarizer(path, ba.TrainedBinarizer(model, 0.65, []))
    tb = ba.load_binarizer(path)
    back = tb.model
    assert back.kind == "bindann"
    assert back.config == cfg
    assert tb.th_s == 0.65
    x = np.random.default_rng(1).random((1, 1, 16, 16))
    np.testing.assert_array_equal(_forward_map(back, x), _forward_map(model, x))


def test_model_checkpoint_starts_with_core_magic(tmp_path):
    model = ba.build_sae(sae_cfg(depth=1, filters=2, patch=(4, 4)), np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    ba.save_binarizer(path, ba.TrainedBinarizer(model, 0.5, []))
    assert path.read_bytes().startswith(b"BINADAPT1")
    # plain core reader sees the header as a leading "__config__" record
    records = ba.read_checkpoint(path.read_bytes())
    assert next(iter(records)) == "__config__"


@pytest.mark.parametrize("th", [1.5, 0.0, "x", float("nan"), 1])
def test_save_binarizer_refuses_what_load_binarizer_refuses(th, tmp_path):
    # the file would fail to load: the writer refuses it before creating it
    model = ba.build_sae(sae_cfg(depth=1, filters=2, patch=(4, 4)), np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=r"is not a float in \(0, 1\)$"):
        ba.save_binarizer(path, ba.TrainedBinarizer(model, th, []))
    assert not path.exists()


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
        ba.save_binarizer(tmp_path / "m.ckpt", ba.TrainedBinarizer(model, 0.5, []))
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
    tb = ba.load_binarizer(tmp_path / "old.ckpt")
    back = tb.model
    assert back.kind == "bindann" and back.config == SAE and tb.th_s == 0.5
    for name, value in model.params.items():
        assert back.params[name].tobytes() == value.tobytes()


def test_checkpoint_reader_fuzz_prefixes_and_byte_flips(tmp_path):
    # every failure of a damaged file must surface as CheckpointError; any
    # other exception (struct.error, KeyError, reshape ValueError, ...) escapes
    model = ba.build_sae(sae_cfg(depth=1, filters=2, patch=(4, 4)), np.random.default_rng(0))
    ba.save_binarizer(tmp_path / "ok.ckpt", ba.TrainedBinarizer(model, 0.45, []))
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
